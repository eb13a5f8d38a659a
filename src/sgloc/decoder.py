"""DET-token decoder, object/query refinement, and the scoring and box heads.

Each decoder layer is a (self, cross) pair of `attention.Block`s on the DET
tokens: one over themselves, one over the multi-scale encoder memory. Layer
0's first block reads only the learned DET embedding, so
`SketchLocalizer.encode_scene` runs it apart from `decode`, which takes its
result, `det0`; the ops and their order are those of one pass through all
layers, so the split is exact. Since `det0` reads only parameters, one result
serves every scene while they are unchanged: an evaluation computes it once,
for its first scene. After decoding, one block pulls sketch features into the
object tokens and a mirrored block pulls object features into the sketch
tokens. Scores come from a small MLP over each refined token concatenated with
the max-pooled global sketch embedding, boxes from another; each MLP is a list
of (w, b) layers, and `mlp` applies both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import Block, grid_pos
from .tensor import (
    Tensor,
    add_rowvec,
    concat,
    layer_norm_rows,
    matmul,
    relu,
    reshape,
    sigmoid,
)


@dataclass
class LocalizationResult:
    """Scored boxes in normalized center-size form, sorted by descending score."""

    detections: list  # [(np.ndarray(4), float score)]


def decode(features: list, layers: list, det0: Tensor) -> Tensor:
    """Refine the DET tokens against the concatenated multi-scale memory.

    `features` holds one token matrix per encoder stage, `layers` one
    (self, cross) block pair per decoder layer, and `det0` is
    `layers[0][0](det_embed, norm=True)`. Each layer: a pre-normed block
    among the tokens (layer 0's result is `det0`, which reads no input, so it
    may be computed once for many calls and scenes), then one over all stage tokens
    (each stage keeping its own grid's position encoding).
    """
    memory = layer_norm_rows(concat(features, axis=0))
    k_pos = np.concatenate([grid_pos(*f.shape) for f in features], axis=0)
    x = det0
    for n, (self_block, cross_block) in enumerate(layers):
        if n > 0:
            x = self_block(x, norm=True)
        x = cross_block(x, memory, norm=True, k_pos=k_pos)
    return x


def refine_object_tokens(det: Tensor, sketch: Tensor, block: Block) -> Tensor:
    """Pull sketch features into the object tokens (queries = DET tokens)."""
    return block(det, sketch, k_pos=grid_pos(*sketch.shape))


def refine_query_tokens(sketch: Tensor, det: Tensor, block: Block) -> Tensor:
    """Mirror refinement with roles swapped: sketch tokens query the DET tokens."""
    return block(sketch, det, q_pos=grid_pos(*sketch.shape))


def mlp(x: Tensor, layers: list) -> Tensor:
    """Affine (w, b) layers with a relu between each two, none after the last."""
    *hidden, (w_last, b_last) = layers
    for w, b in hidden:
        x = relu(add_rowvec(matmul(x, w), b))
    return add_rowvec(matmul(x, w_last), b_last)


def score_tokens(det: Tensor, sketch_vec: Tensor, layers: list) -> Tensor:
    """Per-token sigmoid score of [token ; global sketch embedding], by the
    (w, b) `layers` from 2d to one logit."""
    n, d = det.shape
    tiled = matmul(Tensor(np.ones((n, 1), dtype=det.data.dtype)), reshape(sketch_vec, (1, d)))
    logits = mlp(concat([det, tiled], axis=1), layers)
    return sigmoid(reshape(logits, (n,)))


def predict_boxes(det: Tensor, layers: list) -> Tensor:
    """The (w, b) MLP `layers` to (cx, cy, w, h), squashed into (0, 1)^4."""
    return sigmoid(mlp(det, layers))
