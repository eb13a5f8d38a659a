"""The composition of `tensor` ops that one `attention.Block` call stands
for: the block as it was built before its call became one tape node. Tests
check the block against it bit for bit, forward and backward.

`attend` here is multi-head attention on token matrices from the public ops
bmm, scale and softmax_rows, with the heads split and merged by two tape
nodes of their own.
"""

import math

import numpy as np

from sgloc import tensor as T
from sgloc.attention import _merge, _split
from sgloc.tensor import Tensor, add, bmm, layer_norm_rows, matmul, mean_groups, relu, scale, softmax_rows


def split_heads(t, heads, groups):
    """(G*n, H*dk) -> (G*H, n, dk) as a tape node; its backward merges."""
    return T._make(_split(t.data, heads, groups), (t,), lambda g: (_merge(g, heads),))


def merge_heads(t, heads, groups):
    """(G*H, n, dk) -> (G*n, H*dk) as a tape node; its backward splits."""
    return T._make(_merge(t.data, heads), (t,), lambda g: (_split(g, heads, groups),))


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
