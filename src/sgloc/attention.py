"""The model's one repeated unit, `Block`, and the pieces it is built from.

Every attention site in the model is a `Block` call: the image and sketch
encoder stages, the sketch-guided fusion after each image stage, both halves
of each decoder layer, object/query refinement and multi-sketch query fusion.
A block computes

    x + W_out relu(mean_G(W_in attention(q, kv)))

where q is x, or x layer-normalized row by row when the site pre-norms, and
kv is q unless the site attends over another sequence. With G key/value
groups (the L sketches of a bundle) the queries attend to each group on its
own and the adapter averages the G hidden pre-activations; with G = 1 the
mean is the identity.

Attention is packed: each projection is one d x d matrix whose column block h
belongs to head h. One `tensor.attend` call on the three projected token
matrices is the single tape node for every head and every group: it splits
the heads, takes a softmax over (groups*heads, n_q, n_k) and merges them back.

A block holds its own weights: the three projections, the two adapter
matrices and the head count. `cross_attention` reads the projections and
`adapter_fuse` the adapter matrices of the block it is given. Neither checks
shapes: the `tensor` ops they call refuse a mismatch with a `ShapeError`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    attend,
    layer_norm_rows,
    matmul,
    mean_groups,
    relu,
)


@dataclass
class Block:
    """Attention, then the adapter MLP on its output (see the module docstring).

    `wq`, `wk` and `wv` are the packed d x d projections: head h projects
    queries, keys and values with column block h*dk:(h+1)*dk, dk = d / heads,
    and its output fills that column block of the attended rows, with no
    output projection and no bias terms. `w_in` (d x d_h) and `w_out`
    (d_h x d) are the adapter.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    w_in: Tensor
    w_out: Tensor
    heads: int

    def __call__(self, x: Tensor, kv: Tensor | None = None, *, norm: bool = False,
                 q_pos=None, k_pos=None, groups: int = 1) -> Tensor:
        """`x` is the n x d residual stream. The queries are `x`, pre-normed
        when `norm` is set; `kv` (default: the queries) stacks `groups` groups
        of keys/values. `q_pos`/`k_pos` are as in `cross_attention`."""
        q = layer_norm_rows(x) if norm else x
        attended = cross_attention(q, q if kv is None else kv, self, q_pos, k_pos, groups)
        return adapter_fuse(attended, x, self, groups)


@functools.cache
def grid_pos(n: int, d: int) -> np.ndarray:
    """2D sinusoidal position table, n x d, for the g x g grid with g*g = n;
    row s = y*g + x. The table is cached and read-only.

    The first d/2 channels encode x with interleaved sin/cos at geometric
    frequencies (base 10000); the last d/2 encode y the same way.
    """
    g = math.isqrt(n)
    if g * g != n:
        raise ShapeError(f"{n} tokens do not form a square grid")
    if d % 4 != 0:
        raise ShapeError(f"position encoding width must be divisible by 4, got {d}")
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
    return table


def _add_pos(seq: Tensor, table: np.ndarray | None, groups: int) -> Tensor:
    """Add one group's position table to each of the `groups` row blocks."""
    if table is None:
        return seq
    return add(seq, Tensor(np.tile(table, (groups, 1)).astype(seq.data.dtype)))


def cross_attention(
    query_seq: Tensor,
    key_seq: Tensor,
    block: Block,
    q_pos=None,
    k_pos=None,
    groups: int = 1,
) -> Tensor:
    """Multi-head attention from one query sequence over `groups` independent
    key/value groups.

    `query_seq` is n_q x d. `key_seq` stacks G groups of n_k rows each,
    group-major ((G*n_k) x d), and serves as both keys and values. The
    queries attend to each group on its own, with a softmax over that group's
    keys only; the result is (G*n_q) x d, group-major. `q_pos` is an n_q x d
    table added to the queries, and `k_pos` an n_k x d table added to every
    group's keys, never to the values. Only `block`'s projections are read;
    the projected token matrices go to one `tensor.attend` call.
    """
    q = matmul(_add_pos(query_seq, q_pos, 1), block.wq)
    k = matmul(_add_pos(key_seq, k_pos, groups), block.wk)
    v = matmul(key_seq, block.wv)
    return attend(q, k, v, 1.0 / math.sqrt(block.wq.shape[1] // block.heads), block.heads, groups)


def adapter_fuse(attended: Tensor, residual: Tensor, block: Block, groups: int = 1) -> Tensor:
    """residual + W_out(relu(mean_G(W_in(attended)))), position-wise per row;
    `attended` stacks G row blocks of `residual`'s shape, group-major. Only
    `block`'s adapter weights are read."""
    return add(residual, matmul(relu(mean_groups(matmul(attended, block.w_in), groups)), block.w_out))
