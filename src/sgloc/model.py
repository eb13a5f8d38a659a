"""The composed localization model: parameter registry plus forward pass."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AdapterParams, AttentionParams, Block
from .data import IMAGE_SIZE, derive_seed
from .decoder import (
    DecoderLayerParams,
    DecoderParams,
    HeadParams,
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
    ImageEncoderParams,
    SketchEncoderParams,
    encode_sketch,
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


class SketchLocalizer:
    """Sketch-conditioned detector over 64x64 scenes.

    `params` maps each parameter's dotted name to its leaf tensor, in
    construction order. Parameters are initialized per-name from the model
    seed, so two models built with the same (config, seed) are identical
    regardless of construction order.
    """

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self.config = config or ModelConfig()
        self.config.validate()
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        c = self.config

        self.sketch_enc = SketchEncoderParams(
            patch_embed=self._mk("sketch.embed", (SKETCH_PATCH**2, c.d)),
            blocks=[self._block(f"sketch.block{i}") for i in range(c.sketch_layers)],
        )
        fusions = None
        if c.encoder_fusion:
            fusions = [self._block(f"fusion{n}") for n in range(c.stages)]
        self.image_enc = ImageEncoderParams(
            patch_embed=self._mk("image.embed", (IMAGE_PATCH**2 * 3, c.d)),
            blocks=[self._block(f"image.block{n}") for n in range(c.stages)],
            fusions=fusions,
        )
        self.decoder = DecoderParams(
            det_embed=self._mk("decoder.embed", (c.num_tokens, c.d), kind="embed"),
            layers=[
                DecoderLayerParams(
                    self_block=self._block(f"decoder.layer{i}.self"),
                    cross_block=self._block(f"decoder.layer{i}.cross"),
                )
                for i in range(c.dec_layers)
            ],
        )
        self.refine_obj = None
        self.refine_query = None
        if c.refinement:
            self.refine_obj = self._block("refine_obj")
            self.refine_query = self._block("refine_query")
        self.query_fusion = self._block("query_fusion")
        self.heads = HeadParams(
            score=self._mlp("head.score", (2 * c.d, c.d_hidden, 1), last_bias="score_bias"),
            box=self._mlp("head.box", (c.d, c.d, c.d, 4)),
        )

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

        attn = AttentionParams(wq=packed("q"), wk=packed("k"), wv=packed("v"), heads=c.heads)
        adapter = AdapterParams(
            w_in=self._mk(f"{prefix}.adapter.in", (c.d, c.d_hidden)),
            w_out=self._mk(f"{prefix}.adapter.out", (c.d_hidden, c.d)),
        )
        return Block(attn, adapter)

    # -- forward ------------------------------------------------------------

    def encode_sketches(self, sketches) -> Tensor:
        """The bundle: each sketch's SKETCH_TOKENS x d map, stacked in order."""
        if not sketches:
            raise ValueError("need at least one query sketch")
        return concat([encode_sketch(s, self.sketch_enc) for s in sketches], axis=0)

    def forward(self, image: np.ndarray, sketches) -> tuple:
        """Score and box every DET token for one scene and 1..L query sketches.

        Returns (scores (T,), boxes (T,4)) as tape tensors.
        """
        bundle = self.encode_sketches(sketches)
        features = sketch_guided_encode(image, bundle, self.image_enc)
        det = decode(features, self.decoder)
        query = fuse_queries(bundle, self.query_fusion)
        if self.config.refinement:
            det_r = refine_object_tokens(det, query, self.refine_obj)
            query_r = refine_query_tokens(query, det, self.refine_query)
        else:
            det_r, query_r = det, query
        scores = score_tokens(det_r, global_max_pool(query_r), self.heads)
        boxes = predict_boxes(det_r, self.heads)
        return scores, boxes

    def localize(self, image: np.ndarray, sketches, threshold: float = 0.5) -> LocalizationResult:
        """Full forward pass, without a tape; keeps all detections scoring >=
        threshold, sorted by descending score. No non-maximum suppression."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
        if isinstance(sketches, np.ndarray) and sketches.ndim == 2:
            sketches = [sketches]
        with no_grad():
            scores, boxes = self.forward(image, list(sketches))
        s = scores.data
        b = boxes.data
        order = np.argsort(-s, kind="stable")  # (-score, index) order
        order = order[s[order] >= threshold]
        return LocalizationResult(list(zip(b[order].astype(np.float64), s[order].tolist())))
