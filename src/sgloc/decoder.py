"""DET-token decoder, object/query refinement, and the scoring and box heads.

Each decoder layer is two `attention.Block` calls on the DET tokens: one over
themselves, one over the multi-scale encoder memory. Layer 0's first block
reads only the learned DET embedding, so `det_queries` runs it apart from
`decode`, which takes its result; the ops and their order are those of one
pass through all layers, so the split is exact. After decoding, one block
pulls sketch features into the object tokens and a mirrored block pulls object
features into the sketch tokens. Scores come from a small MLP over each
refined token concatenated with the max-pooled global sketch embedding, boxes
from another; `mlp` applies both.
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
class DecoderLayerParams:
    self_block: Block  # among the DET tokens
    cross_block: Block  # DET tokens over the encoder memory


@dataclass
class DecoderParams:
    det_embed: Tensor  # token count x d
    layers: list


@dataclass
class HeadParams:
    score: list  # (w, b) layers: 2d -> d_h -> 1
    box: list  # (w, b) layers: d -> d -> d -> 4


@dataclass
class LocalizationResult:
    """Scored boxes in normalized center-size form, sorted by descending score."""

    detections: list  # [(np.ndarray(4), float score)]


def det_queries(params: DecoderParams) -> Tensor:
    """The DET tokens after layer 0's pre-normed block among themselves. No
    scene or sketch reaches them; `decode` continues from them."""
    if not params.layers:
        raise ValueError("decoder needs at least one layer")
    return params.layers[0].self_block(params.det_embed, norm=True)


def decode(features: list, params: DecoderParams, det0: Tensor) -> Tensor:
    """Refine the DET tokens against the concatenated multi-scale memory.

    `features` holds one token matrix per encoder stage, and `det0` is
    `det_queries(params)`. Each layer: a pre-normed block among the tokens
    (layer 0's result is `det0`, which reads no input, so it may be computed
    once for many calls), then one over all stage tokens (each stage keeping
    its own grid's position encoding).
    """
    memory = layer_norm_rows(concat(features, axis=0))
    k_pos = np.concatenate([grid_pos(*f.shape) for f in features], axis=0)
    x = det0
    for n, layer in enumerate(params.layers):
        if n > 0:
            x = layer.self_block(x, norm=True)
        x = layer.cross_block(x, memory, norm=True, k_pos=k_pos)
    return x


def refine_object_tokens(det: Tensor, sketch: Tensor, params: Block) -> Tensor:
    """Pull sketch features into the object tokens (queries = DET tokens)."""
    return params(det, sketch, k_pos=grid_pos(*sketch.shape))


def refine_query_tokens(sketch: Tensor, det: Tensor, params: Block) -> Tensor:
    """Mirror refinement with roles swapped: sketch tokens query the DET tokens."""
    return params(sketch, det, q_pos=grid_pos(*sketch.shape))


def mlp(x: Tensor, layers: list) -> Tensor:
    """Affine (w, b) layers with a relu between each two, none after the last."""
    *hidden, (w_last, b_last) = layers
    for w, b in hidden:
        x = relu(add_rowvec(matmul(x, w), b))
    return add_rowvec(matmul(x, w_last), b_last)


def score_tokens(det: Tensor, sketch_vec: Tensor, params: HeadParams) -> Tensor:
    """Per-token sigmoid score of [token ; global sketch embedding]."""
    n, d = det.shape
    tiled = matmul(Tensor(np.ones((n, 1), dtype=det.data.dtype)), reshape(sketch_vec, (1, d)))
    logits = mlp(concat([det, tiled], axis=1), params.score)
    return sigmoid(reshape(logits, (n,)))


def predict_boxes(det: Tensor, params: HeadParams) -> Tensor:
    """Three-layer MLP to (cx, cy, w, h), squashed into (0, 1)^4."""
    return sigmoid(mlp(det, params.box))
