"""DET-token decoder, object/query refinement, and the scoring and box heads.

The decoder refines a fixed set of learned object tokens against the
multi-scale encoder memory. After decoding, one cross-attention pass pulls
sketch features into the object tokens and a mirrored pass pulls object
features into the sketch tokens; scores come from a small MLP over each
refined token concatenated with the max-pooled global sketch embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import Block, adapter_fuse, cross_attention, grid_pos
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
    score_w1: Tensor  # 2d x d_h
    score_b1: Tensor
    score_w2: Tensor  # d_h x 1
    score_b2: Tensor
    box_w1: Tensor  # d x d
    box_b1: Tensor
    box_w2: Tensor  # d x d
    box_b2: Tensor
    box_w3: Tensor  # d x 4
    box_b3: Tensor


@dataclass
class LocalizationResult:
    """Scored boxes in normalized center-size form, sorted by descending score."""

    detections: list  # [(np.ndarray(4), float score)]


def decode(features: list, params: DecoderParams) -> Tensor:
    """Refine the DET tokens against the concatenated multi-scale memory.

    `features` holds one token matrix per encoder stage. Each layer:
    self-attention among tokens, cross-attention over all stage tokens (each
    stage keeping its own grid's position encoding), adapter MLPs on the
    residual stream.
    """
    if not params.layers:
        raise ValueError("decoder needs at least one layer")
    memory = layer_norm_rows(concat(features, axis=0))
    k_pos = np.concatenate([grid_pos(*f.shape) for f in features], axis=0)
    x = params.det_embed
    for layer in params.layers:
        xn = layer_norm_rows(x)
        attended = cross_attention(xn, xn, xn, layer.self_block.attn)
        x = adapter_fuse(attended, x, layer.self_block.adapter)
        xn = layer_norm_rows(x)
        attended = cross_attention(xn, memory, memory, layer.cross_block.attn, k_pos=k_pos)
        x = adapter_fuse(attended, x, layer.cross_block.adapter)
    return x


def refine_object_tokens(det: Tensor, sketch: Tensor, params: Block) -> Tensor:
    """Pull sketch features into the object tokens (queries = DET tokens)."""
    attended = cross_attention(det, sketch, sketch, params.attn, k_pos=grid_pos(*sketch.shape))
    return adapter_fuse(attended, det, params.adapter)


def refine_query_tokens(sketch: Tensor, det: Tensor, params: Block) -> Tensor:
    """Mirror refinement with roles swapped: sketch tokens query the DET tokens."""
    attended = cross_attention(sketch, det, det, params.attn, q_pos=grid_pos(*sketch.shape))
    return adapter_fuse(attended, sketch, params.adapter)


def score_tokens(det: Tensor, sketch_vec: Tensor, params: HeadParams) -> Tensor:
    """Per-token sigmoid score of [token ; global sketch embedding]."""
    n, d = det.shape
    tiled = matmul(Tensor(np.ones((n, 1), dtype=det.data.dtype)), reshape(sketch_vec, (1, d)))
    z = concat([det, tiled], axis=1)
    h = relu(add_rowvec(matmul(z, params.score_w1), params.score_b1))
    logits = add_rowvec(matmul(h, params.score_w2), params.score_b2)
    return sigmoid(reshape(logits, (n,)))


def predict_boxes(det: Tensor, params: HeadParams) -> Tensor:
    """Three-layer MLP to (cx, cy, w, h), squashed into (0, 1)^4."""
    h = relu(add_rowvec(matmul(det, params.box_w1), params.box_b1))
    h = relu(add_rowvec(matmul(h, params.box_w2), params.box_b2))
    return sigmoid(add_rowvec(matmul(h, params.box_w3), params.box_b3))
