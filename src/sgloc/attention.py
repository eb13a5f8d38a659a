"""Multi-head cross-attention, 2D sinusoidal grid positions, and the fusion adapter.

These three pieces are the shared machinery behind every feature-fusion step
in the model: encoder-side sketch fusion, decoder token refinement, and
multi-sketch query fusion. A `Block` pairs one attention with one adapter.

Attention is packed: each projection is one d x d matrix whose column block h
belongs to head h, and one call computes every head, and every independent
key/value group (e.g. the L sketches of a multi-query bundle), with one
batched softmax over (groups*heads, n_q, n_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    bmm,
    matmul,
    merge_heads,
    relu,
    scale,
    softmax_rows,
    split_heads,
)


@dataclass
class AttentionParams:
    """Packed projection matrices, each d x d.

    Head h projects queries, keys and values with the column block
    h*dk:(h+1)*dk of `wq`, `wk` and `wv`, where dk = `key_width` = d / heads.
    Head outputs concatenate back to width d, with no extra output projection
    and no bias terms.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    heads: int

    @property
    def width(self) -> int:
        return self.wq.shape[0]

    @property
    def key_width(self) -> int:
        return self.width // self.heads

    def tensors(self) -> list:
        return [self.wq, self.wk, self.wv]


@dataclass
class AdapterParams:
    """Two-layer position-wise MLP applied on top of an attention output."""

    w_in: Tensor  # d x d_h
    w_out: Tensor  # d_h x d

    @property
    def hidden(self) -> int:
        return self.w_in.shape[1]


@dataclass
class Block:
    """The model's one repeated unit: attention, then the adapter MLP on its
    output. Every self-attention block, encoder fusion, decoder layer half,
    refinement pass and the query fusion holds one."""

    attn: AttentionParams
    adapter: AdapterParams


_pos_cache: dict = {}


def grid_pos(n: int, d: int) -> np.ndarray:
    """2D sinusoidal position table, n x d, for the g x g grid with g*g = n;
    row s = y*g + x.

    The first d/2 channels encode x with interleaved sin/cos at geometric
    frequencies (base 10000); the last d/2 encode y the same way.
    """
    g = math.isqrt(n)
    if g * g != n:
        raise ShapeError(f"{n} tokens do not form a square grid")
    if d % 4 != 0:
        raise ShapeError(f"position encoding width must be divisible by 4, got {d}")
    key = (n, d)
    table = _pos_cache.get(key)
    if table is None:
        quarter = d // 4
        freqs = np.power(10000.0, -np.arange(quarter) / quarter)
        coords = np.arange(g, dtype=np.float64)
        grid_x = np.tile(coords, g)  # s = y*g + x
        grid_y = np.repeat(coords, g)
        table = np.empty((n, d), dtype=np.float64)
        for half, coord in ((0, grid_x), (d // 2, grid_y)):
            ang = coord[:, None] * freqs[None, :]
            table[:, half + 0 : half + d // 2 : 2] = np.sin(ang)
            table[:, half + 1 : half + d // 2 : 2] = np.cos(ang)
        table.flags.writeable = False  # shared by every caller
        _pos_cache[key] = table
    return table


def _add_pos(seq: Tensor, table: np.ndarray | None, groups: int) -> Tensor:
    """Add one group's position table to each of the `groups` row blocks."""
    if table is None:
        return seq
    n, d = seq.shape[0] // groups, seq.shape[1]
    if table.shape != (n, d):
        raise ShapeError(f"position table shape {table.shape} != sequence {(n, d)}")
    if groups > 1:
        table = np.tile(table, (groups, 1))
    return add(seq, Tensor(table.astype(seq.data.dtype)))


def cross_attention(
    query_seq: Tensor,
    key_seq: Tensor,
    value_seq: Tensor,
    params: AttentionParams,
    q_pos=None,
    k_pos=None,
    groups: int = 1,
) -> Tensor:
    """Multi-head attention from one query sequence over `groups` independent
    key/value groups.

    `query_seq` is n_q x d. `key_seq` and `value_seq` stack G groups of n_k
    rows each, group-major ((G*n_k) x d). The queries attend to each group on
    its own, with a softmax over that group's keys only; the result is
    (G*n_q) x d, group-major. `q_pos` is an n_q x d table added to the
    queries, and `k_pos` an n_k x d table added to every group's keys, never
    to the values.
    """
    d = params.width
    if (
        query_seq.shape[1] != d
        or key_seq.shape[1] != d
        or value_seq.shape != key_seq.shape
        or key_seq.shape[0] % groups
    ):
        raise ShapeError(
            f"attention shapes mismatch: q {query_seq.shape}, k {key_seq.shape}, "
            f"v {value_seq.shape}, params width {d}, {groups} groups"
        )
    h = params.heads
    q = _add_pos(query_seq, q_pos, 1)
    k = _add_pos(key_seq, k_pos, groups)
    qh = split_heads(matmul(q, params.wq), h)
    kh = split_heads(matmul(k, params.wk), h, groups)
    vh = split_heads(matmul(value_seq, params.wv), h, groups)
    att = softmax_rows(scale(bmm(qh, kh, transpose_b=True), 1.0 / math.sqrt(params.key_width)))
    return merge_heads(bmm(att, vh), h)


def adapter_fuse(attended: Tensor, residual: Tensor, params: AdapterParams) -> Tensor:
    """residual + W_out(relu(W_in(attended))), position-wise per row."""
    if attended.shape != residual.shape:
        raise ShapeError(f"adapter_fuse: shapes {attended.shape} and {residual.shape} differ")
    return add(residual, matmul(relu(matmul(attended, params.w_in)), params.w_out))
