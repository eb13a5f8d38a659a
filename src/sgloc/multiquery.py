"""Multi-sketch query support.

A bundle of L sketches is kept stacked: one (L*w*h) x d token matrix, sketch
by sketch. Two fusion points use it: in the encoder, the L per-sketch
cross-attentions run as one grouped attention and are averaged inside the
adapter (mean of the hidden pre-activations); at the decoder, the bundle is
fused into a single query map by attending from the average map over all
stacked sketch tokens. Both operations are invariant to the order of the
bundle, and a one-element bundle reproduces the single-query computation
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import Block, adapter_fuse, cross_attention, sinusoidal_pos_2d
from .tensor import Tensor, add, concat, matmul, mean_groups, relu


@dataclass
class MultiQueryBundle:
    """L >= 1 same-shape sketch feature maps stacked into one token matrix:
    rows l*w*h .. (l+1)*w*h - 1 of `tokens` are sketch l's w x h grid."""

    tokens: Tensor
    w: int
    h: int

    def __post_init__(self):
        rows = self.tokens.shape[0]
        if rows == 0 or rows % (self.w * self.h):
            raise ValueError(f"{rows} bundle rows are not a whole number of {self.w}x{self.h} maps")

    @classmethod
    def stack(cls, maps) -> "MultiQueryBundle":
        """Stack SketchFeatureMaps; a single map's tokens are used as they are."""
        if not maps:
            raise ValueError("bundle must contain at least one sketch")
        w, h = maps[0].w, maps[0].h
        if any(m.w != w or m.h != h for m in maps):
            raise ValueError("all bundle maps must share one grid shape")
        tokens = maps[0].tokens if len(maps) == 1 else concat([m.tokens for m in maps], axis=0)
        return cls(tokens, w, h)

    def __len__(self) -> int:
        return self.tokens.shape[0] // (self.w * self.h)

    def average_tokens(self) -> Tensor:
        """Arithmetic mean of the maps; the single map itself when L = 1."""
        return mean_groups(self.tokens, len(self))


def encoder_fusion_multi(
    stage_tokens: Tensor,
    bundle: MultiQueryBundle,
    params: Block,
    q_pos=None,
    k_pos=None,
) -> Tensor:
    """Fuse L sketches into one stage: one grouped cross-attention from the
    stage tokens over each sketch (shared projections), then the adapter
    applied to the mean hidden pre-activation over the L sketches."""
    n = len(bundle)
    attended = cross_attention(
        stage_tokens, bundle.tokens, bundle.tokens, params.attn,
        q_pos=q_pos, k_pos=k_pos, groups=n,
    )
    pre = mean_groups(matmul(attended, params.adapter.w_in), n)
    return add(stage_tokens, matmul(relu(pre), params.adapter.w_out))


def fuse_queries(bundle: MultiQueryBundle, params: Block) -> Tensor:
    """Attention-based query fusion: average-map tokens attend over all
    stacked sketch tokens; returns the fused (w*h) x d token matrix."""
    d = bundle.tokens.shape[1]
    pos = sinusoidal_pos_2d(bundle.w, bundle.h, d)
    avg = bundle.average_tokens()
    k_pos = np.tile(pos.table, (len(bundle), 1))
    attended = cross_attention(avg, bundle.tokens, bundle.tokens, params.attn, q_pos=pos, k_pos=k_pos)
    return adapter_fuse(attended, avg, params.adapter)
