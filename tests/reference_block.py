"""The composition of taped ops that one `attention.Block` call stands for:
the block as it was built before its call became one tape node. Tests check
the block against it bit for bit, forward and backward.

`attend` here is multi-head attention on token matrices from the taped ops
`bmm`, `scale` and `softmax_rows`, with the heads split and merged by two
tape nodes of their own. `bmm` and `softmax_rows`, with their kernels, are
the ones `sgloc.tensor` defined until Block's attention core was written out
in `attention.py`; they are kept here unchanged, so that the reference keeps
their bits whatever that core becomes.
"""

import math

import numpy as np

from sgloc.attention import _merge, _split
from sgloc.tensor import ShapeError, Tensor, _make, add, layer_norm_rows, matmul, mean_groups, relu, scale


def bmm(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Batched matmul of rank-3 operands: (B, n, k) @ (B, k, m) -> (B, n, m),
    or (B, n, k) @ (B, m, k)^T with `transpose_b`.

    `a` may also hold B/G entries for G groups of b: a[i] then multiplies
    b[g*(B/G) + i] for every g, and its gradient sums over the groups.
    """
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError(f"bmm expects rank-3 operands, got {a.shape} and {b.shape}")
    ad = a.data
    if b.shape[0] % a.shape[0] or ad.shape[2] != b.shape[2 if transpose_b else 1]:
        raise ShapeError(f"bmm: operands {a.shape} and {b.shape} do not chain")
    bt4 = _grouped(b.data, a.shape[0], transpose_b)
    return _make(_bmm(ad, bt4), (a, b), lambda g: _bmm_grads(g, ad, bt4, transpose_b))


def _grouped(bd: np.ndarray, ba: int, transpose_b: bool) -> np.ndarray:
    """The right operand of `bmm` as (G, ba, k, m) for a left operand of `ba`
    batch entries."""
    bt = bd.transpose(0, 2, 1) if transpose_b else bd
    return bt.reshape(bd.shape[0] // ba, ba, *bt.shape[1:])


def _bmm(ad: np.ndarray, bt4: np.ndarray) -> np.ndarray:
    """`bmm`'s product, (G*ba, n, m), in a newly allocated array."""
    groups, ba, _, m = bt4.shape
    return (ad @ bt4).reshape(groups * ba, ad.shape[1], m)


def _bmm_grads(g: np.ndarray, ad: np.ndarray, bt4: np.ndarray, transpose_b: bool) -> tuple:
    """Gradients of `_bmm(ad, bt4)` for cotangent `g`: `a`'s summed over the
    groups and `b`'s in b's own layout, both newly allocated."""
    g4 = g.reshape(*bt4.shape[:2], *g.shape[1:])
    ga = g4 @ bt4.transpose(0, 1, 3, 2)
    ga = ga[0] if len(ga) == 1 else ga.sum(axis=0)
    if transpose_b:
        gb = g4.transpose(0, 1, 3, 2) @ ad
    else:
        gb = ad.transpose(0, 2, 1) @ g4
    return ga, gb.reshape(-1, *gb.shape[2:])


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis of a rank-2 or rank-3 tensor, computed with
    max subtraction."""
    if x.ndim not in (2, 3):
        raise ShapeError(f"softmax_rows expects rank 2 or 3, got {x.shape}")
    out = _softmax_(x.data.copy(order="K"))
    return _make(out, (x,), lambda g: (_softmax_grad_(g.copy(order="K"), out),))


def _softmax_(buf: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max subtraction, written into `buf`."""
    buf -= np.fmax.reduce(buf, axis=-1, keepdims=True)  # the max, without NaN checks
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=-1, keepdims=True)
    return buf


def _softmax_grad_(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The softmax backward, out * (g - sum(g * out)), written into `g`."""
    g -= (g * out).sum(axis=-1, keepdims=True)
    g *= out
    return g


def split_heads(t, heads, groups):
    """(G*n, H*dk) -> (G*H, n, dk) as a tape node; its backward merges."""
    return _make(_split(t.data, heads, groups), (t,), lambda g: (_merge(g, heads),))


def merge_heads(t, heads, groups):
    """(G*H, n, dk) -> (G*n, H*dk) as a tape node; its backward splits."""
    return _make(_merge(t.data, heads), (t,), lambda g: (_split(g, heads, groups),))


def attend(q, k, v, s, heads, groups=1):
    """softmax(s * q_h k_{g,h}^T) v_{g,h} for every head h and group g; row
    block g of the result is the queries over group g."""
    qh, kh, vh = split_heads(q, heads, 1), split_heads(k, heads, groups), split_heads(v, heads, groups)
    return merge_heads(bmm(softmax_rows(scale(bmm(qh, kh, transpose_b=True), s)), vh), heads, groups)


def add_pos(seq, table, groups):
    """Add one group's position table to each of the `groups` row blocks."""
    if table is None:
        return seq
    return add(seq, Tensor(np.tile(table, (groups, 1)).astype(seq.data.dtype)))


def cross_attention(query_seq, key_seq, block, q_pos=None, k_pos=None, groups=1):
    """Attention from `query_seq` over the `groups` key/value groups stacked
    in `key_seq`: (G*n_q) x d, group-major. Reads only the projections."""
    q = matmul(add_pos(query_seq, q_pos, 1), block.wq)
    k = matmul(add_pos(key_seq, k_pos, groups), block.wk)
    v = matmul(key_seq, block.wv)
    return attend(q, k, v, 1.0 / math.sqrt(block.wq.shape[1] // block.heads), block.heads, groups)


def adapter_fuse(attended, residual, block, groups=1):
    """residual + W_out(relu(mean_G(W_in(attended)))). Reads only the adapter."""
    return add(residual, matmul(relu(mean_groups(matmul(attended, block.w_in), groups)), block.w_out))


def block_call(block, x, kv=None, *, norm=False, q_pos=None, k_pos=None, groups=1):
    """What `block(x, kv, ...)` computes, op by op; it has the signature of
    `Block.__call__`, so that it can stand in for it."""
    q = layer_norm_rows(x) if norm else x
    attended = cross_attention(q, q if kv is None else kv, block, q_pos, k_pos, groups)
    return adapter_fuse(attended, x, block, groups)
