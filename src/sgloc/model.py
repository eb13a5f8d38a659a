"""The composed localization model: parameter registry plus forward pass."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .attention import Block
from .data import IMAGE_SIZE, derive_seed
from .decoder import (
    LocalizationResult,
    decode,
    predict_boxes,
    refine_object_tokens,
    refine_query_tokens,
    score_tokens,
)
from .encoder import (
    IMAGE_PATCH,
    SKETCH_PATCH,
    ImageFeatureStage,
    encode_sketch,
    encode_stage0,
    fuse_queries,
    sketch_guided_encode,
)
from .tensor import ShapeError, Tensor, concat, global_max_pool, no_grad


@dataclass
class ModelConfig:
    d: int = 64
    heads: int = 4
    stages: int = 3
    dec_layers: int = 2
    num_tokens: int = 100
    d_hidden: int = 128
    sketch_layers: int = 2
    encoder_fusion: bool = True  # sketch-guided encoder (early fusion)
    refinement: bool = True  # object/query refinement at the decoder output

    def validate(self) -> None:
        sizes = ("d", "heads", "stages", "dec_layers", "num_tokens", "d_hidden", "sketch_layers")
        self._require(sizes, (int, np.integer), "an integer")
        self._require(("encoder_fusion", "refinement"), (bool,), "a bool")
        for name in sizes:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.d % (4 * self.heads):
            raise ShapeError(f"model width {self.d} must be divisible by 4*heads={4 * self.heads}")
        grid = IMAGE_SIZE // IMAGE_PATCH
        if grid >> self.stages < 1:
            raise ShapeError(f"{self.stages} stages exhaust a {grid}x{grid} patch grid")
        if self.stages < 2:
            raise ShapeError("need at least 2 encoder stages")

    def _require(self, names, kinds: tuple, what: str) -> None:
        """A ValueError naming the first field of `names` whose value is not
        an instance of `kinds`; a bool passes only where `kinds` is bool."""
        for name in names:
            v = getattr(self, name)
            if not isinstance(v, kinds) or (isinstance(v, bool) and kinds != (bool,)):
                raise ValueError(f"config field {name} must be {what}, got {v!r}")


@dataclass(frozen=True, eq=False)
class EncodedScene:
    """What `SketchLocalizer.forward` computes for a scene before any sketch
    enters: stage 0's pooled tokens, before fusion 0, and the DET tokens after
    decoder layer 0's self-attention block.

    Valid only for `model`, the model that made it, and only while that
    model's parameters are unchanged: the values are not recomputed when they
    change. The same rule holds for its `det0` when `encode_scene` reuses it
    for another scene: `det0` reads only parameters, so it is the same for
    every scene while they stay unchanged.
    """

    model: "SketchLocalizer"
    stage0: ImageFeatureStage
    det0: Tensor


class SketchLocalizer:
    """Sketch-conditioned detector over 64x64 scenes.

    `params` maps each parameter's dotted name to its leaf tensor, in
    construction order. Parameters are initialized per-name from the model
    seed, so two models built with the same (config, seed) are identical
    regardless of construction order. The forward pass reads the same leaves
    through these attributes, each owning one name prefix:

        sketch_embed              sketch.embed
        sketch_blocks[i]          sketch.block{i}.*
        image_embed               image.embed
        image_blocks[n]           image.block{n}.*
        fusion_blocks[n]          fusion{n}.*    (None without encoder_fusion)
        det_embed                 decoder.embed
        decoder_layers[i][0]      decoder.layer{i}.self.*
        decoder_layers[i][1]      decoder.layer{i}.cross.*
        refine_obj                refine_obj.*   (None without refinement)
        refine_query              refine_query.* (None without refinement)
        query_fusion              query_fusion.*
        score_mlp[i-1]            (head.score.w{i}, head.score.b{i})
        box_mlp[i-1]              (head.box.w{i}, head.box.b{i})

    A block's leaves are `<prefix>.attn.{q,k,v}` and `<prefix>.adapter.{in,out}`.
    """

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self.config = config or ModelConfig()
        self.config.validate()
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        c = self.config

        self.sketch_embed = self._mk("sketch.embed", (SKETCH_PATCH**2, c.d))
        self.sketch_blocks = [self._block(f"sketch.block{i}") for i in range(c.sketch_layers)]
        self.fusion_blocks = None
        if c.encoder_fusion:
            self.fusion_blocks = [self._block(f"fusion{n}") for n in range(c.stages)]
        self.image_embed = self._mk("image.embed", (IMAGE_PATCH**2 * 3, c.d))
        self.image_blocks = [self._block(f"image.block{n}") for n in range(c.stages)]
        self.det_embed = self._mk("decoder.embed", (c.num_tokens, c.d), kind="embed")
        self.decoder_layers = [
            (self._block(f"decoder.layer{i}.self"), self._block(f"decoder.layer{i}.cross"))
            for i in range(c.dec_layers)
        ]
        self.refine_obj = None
        self.refine_query = None
        if c.refinement:
            self.refine_obj = self._block("refine_obj")
            self.refine_query = self._block("refine_query")
        self.query_fusion = self._block("query_fusion")
        self.score_mlp = self._mlp("head.score", (2 * c.d, c.d_hidden, 1), last_bias="score_bias")
        self.box_mlp = self._mlp("head.box", (c.d, c.d, c.d, 4))

    # -- parameter construction -------------------------------------------

    def _mk(self, name: str, shape, kind: str = "xavier") -> Tensor:
        return self._register(name, self._draw(name, shape, kind))

    def _draw(self, name: str, shape, kind: str) -> np.ndarray:
        """Initial values, from a stream seeded by the model seed and `name`."""
        rng = np.random.default_rng(derive_seed(self.seed, "param", name))
        if kind == "xavier":
            fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (shape[0], shape[0])
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-limit, limit, shape)
        elif kind == "embed":
            data = rng.normal(0.0, 1.0 / math.sqrt(shape[1]), shape)
        elif kind == "zero":
            data = np.zeros(shape)
        elif kind == "score_bias":
            data = np.full(shape, -2.0)  # start scores low: ~4 foreground tokens in 100
        else:
            raise ValueError(kind)
        return data

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name}")
        self.params[name] = Tensor(data, requires_grad=True)
        return self.params[name]

    def _mlp(self, prefix: str, widths, last_bias: str = "zero") -> list:
        """(w, b) layers `prefix.w{i}`, `prefix.b{i}` from widths[i-1] to
        widths[i], i = 1, 2, ...; biases start at zero except the last, which
        is drawn as `last_bias`."""
        n = len(widths) - 1
        return [
            (
                self._mk(f"{prefix}.w{i}", (widths[i - 1], widths[i])),
                self._mk(f"{prefix}.b{i}", (widths[i],), kind=last_bias if i == n else "zero"),
            )
            for i in range(1, n + 1)
        ]

    def _block(self, prefix: str) -> Block:
        """Packed d x d projections `prefix.attn.{q,k,v}`, then the adapter
        `prefix.adapter.{in,out}`. Column block h of a projection is drawn as
        its own d x (d/heads) matrix under the name `...q{h}` (k, v alike), so
        each head's initial values do not depend on the others."""
        c = self.config
        dk = c.d // c.heads

        def packed(kind: str) -> Tensor:
            name = f"{prefix}.attn.{kind}"
            cols = [self._draw(f"{name}{h}", (c.d, dk), "xavier") for h in range(c.heads)]
            return self._register(name, np.concatenate(cols, axis=1))

        return Block(
            wq=packed("q"), wk=packed("k"), wv=packed("v"),
            w_in=self._mk(f"{prefix}.adapter.in", (c.d, c.d_hidden)),
            w_out=self._mk(f"{prefix}.adapter.out", (c.d_hidden, c.d)),
            heads=c.heads,
        )

    # -- forward ------------------------------------------------------------

    def encode_sketches(self, sketches) -> Tensor:
        """The bundle: each sketch's SKETCH_TOKENS x d map, stacked in order."""
        if not sketches:
            raise ValueError("need at least one query sketch")
        return concat([encode_sketch(s, self.sketch_embed, self.sketch_blocks) for s in sketches], axis=0)

    def encode_scene(self, image: np.ndarray, det0_from: EncodedScene | None = None) -> EncodedScene:
        """The sketch-free prefix of `forward` for one (64, 64, 3) scene.

        `forward(image, s)` is `forward(encode_scene(image), s)`: the same ops
        in the same order, so the results are bit-identical. Made under
        `no_grad`, one EncodedScene can answer every query of its scene.

        With `det0_from`, an earlier EncodedScene of this model, its `det0` is
        reused instead of running decoder layer 0's self block again. That is
        exact only while the parameters are unchanged since `det0_from` was
        made; a scene of another model raises a ValueError.
        """
        if det0_from is not None:
            self._check_own(det0_from)
        stage0 = encode_stage0(image, self.image_embed, self.image_blocks[0])
        if det0_from is not None:
            return EncodedScene(self, stage0, det0_from.det0)
        return EncodedScene(self, stage0, self.decoder_layers[0][0](self.det_embed, norm=True))

    def _check_own(self, scene) -> None:
        if not isinstance(scene, EncodedScene):
            raise ValueError(f"expected an EncodedScene, got {type(scene).__name__}")
        if scene.model is not self:
            raise ValueError("an EncodedScene is valid only for the model that made it")

    def forward(self, image, sketches) -> tuple:
        """Score and box every DET token for one scene and 1..L query sketches.

        `image` is a (64, 64, 3) scene or this model's `EncodedScene` of one;
        a raw scene is encoded first, so training and inference run the same
        ops. Returns (scores (T,), boxes (T,4)) as tape tensors.
        """
        scene = image if isinstance(image, EncodedScene) else self.encode_scene(image)
        self._check_own(scene)
        bundle = self.encode_sketches(sketches)
        features = sketch_guided_encode(scene.stage0, bundle, self.image_blocks, self.fusion_blocks)
        det = decode(features, self.decoder_layers, scene.det0)
        query = fuse_queries(bundle, self.query_fusion)
        if self.config.refinement:
            det_r = refine_object_tokens(det, query, self.refine_obj)
            query_r = refine_query_tokens(query, det, self.refine_query)
        else:
            det_r, query_r = det, query
        scores = score_tokens(det_r, global_max_pool(query_r), self.score_mlp)
        boxes = predict_boxes(det_r, self.box_mlp)
        return scores, boxes

    def localize(self, image, sketches, threshold: float = 0.5) -> LocalizationResult:
        """Full forward pass, without a tape; keeps all detections scoring >=
        threshold, sorted by descending score, ties by token index. No
        non-maximum suppression. The detections are one record array, each
        box and score cast exactly from the f32 outputs to float64 (see
        `LocalizationResult`).

        `image` is a scene or an `EncodedScene`, as for `forward`; a caller
        with several queries of one scene encodes it once under `no_grad`.
        """
        if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):
            raise ValueError(f"threshold must be a real number, got {threshold!r}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
        if isinstance(sketches, np.ndarray) and sketches.ndim == 2:
            sketches = [sketches]
        with no_grad():
            scores, boxes = self.forward(image, list(sketches))
        s = scores.data
        order = np.argsort(-s, kind="stable")  # (-score, index) order
        order = order[s[order] >= threshold]
        return LocalizationResult.of(boxes.data[order], s[order])
