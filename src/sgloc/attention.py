"""The model's one repeated unit, `Block`, and the grid position tables.

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
belongs to head h. The heads are split off the projected token matrices
(`_split`), one softmax is taken over (G*heads, n_q, n_k) scores, and the
heads are merged back (`_merge`).

A block call is one tape node, whatever the number of heads and groups. Its
forward and backward are written out in numpy, step by step as the taped ops
it stands for: layer_norm_rows, add (of the position tables), matmul, a
batched matmul, scale, a softmax, mean_groups, relu and add. Its results and
gradients are the bits of that composition, which `tests/reference_block.py`
keeps, with the batched matmul and softmax ops that only it uses. Its shapes
are checked once, up front, and a mismatch raises `ShapeError`.

The node saves each array its backward reads once, until the sweep passes
it: the (normed) queries and their 1/std, the position-added query and key
rows, the split heads, the softmax probabilities, the attended rows and the
adapter's activations. A self-attention call given one table object as both
`q_pos` and `k_pos` (every image stage and sketch block) adds it once and
uses the query rows as the key rows; two equal tables are added each on its
own. The relu mask is read back from the activations as `act > 0`, which is
exactly where the pre-activation is positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _layer_norm, _layer_norm_grad, _make


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
        of keys/values, group-major. The queries attend to each group on its
        own, with a softmax over that group's keys only. `q_pos` is an n x d
        table added to the queries, and `k_pos` one group's table added to
        every group's keys, never to the values.

        The node's parents are `x` twice (the residual, then the query path)
        and `kv` twice (the value path, then the key path), then the five
        weights. Without `kv` and with `norm`, the value, key and query paths
        all read the normed `x`; their gradients are summed in that order and
        reach `x` as its second parent. These are the orders in which a
        backward sweep of the composition meets them.
        """
        weights = (self.wq, self.wk, self.wv, self.w_in, self.w_out)
        self._check(x, kv, q_pos, k_pos, groups)
        wq, wk, wv, w_in, w_out = (w.data for w in weights)
        heads = self.heads
        xd = x.data
        qn, inv = _layer_norm(xd) if norm else (xd, None)
        kvd = qn if kv is None else kv.data
        qp = qn if q_pos is None else qn + np.asarray(q_pos, qn.dtype)
        if kv is None and k_pos is q_pos:  # self-attention with one table: the key rows are the query rows
            kp = qp
        else:
            kp = kvd if k_pos is None else (  # the one table added to each group
                kvd.reshape(groups, -1, kvd.shape[1]) + np.asarray(k_pos, kvd.dtype)).reshape(kvd.shape)
        s = 1.0 / math.sqrt(wq.shape[1] // heads)
        qh = _split(qp @ wq, heads, 1)  # (H, n_q, dk)
        kh = _split(kp @ wk, heads, groups).reshape(groups, heads, -1, qh.shape[2])  # (G, H, n_k, dk)
        vh = _split(kvd @ wv, heads, groups)  # (G*H, n_k, dv)
        p = (qh @ kh.transpose(0, 1, 3, 2)).reshape(groups * heads, qh.shape[1], -1)
        p *= s  # scores, then probabilities in place
        _softmax_(p)
        att = _merge(p @ vh, heads)
        hid = att @ w_in
        if groups > 1:
            hid = hid.reshape(groups, -1, hid.shape[1]).sum(axis=0) * (1.0 / groups)
        act = hid * (hid > 0)  # relu'(0) = 0
        out = xd + act @ w_out

        src = x if kv is None else kv
        fold = kv is None and norm
        needs_x, needs_src = x.requires_grad, src.requires_grad
        needs_w = [w.requires_grad for w in weights]

        def bw(g):
            gh = (g @ w_out.T) * (act > 0)  # hid > 0 exactly where act > 0
            if groups > 1:
                gh = np.broadcast_to(gh * (1.0 / groups), (groups, *gh.shape)).reshape(-1, gh.shape[1])
            go = _split(gh @ w_in.T, heads, groups)
            gp, gv = go @ vh.transpose(0, 2, 1), p.transpose(0, 2, 1) @ go
            _softmax_grad_(gp, p)
            gp *= s
            g4 = gp.reshape(groups, heads, *gp.shape[1:])  # (G, H, n_q, n_k)
            gq = g4 @ kh
            gq = gq[0] if groups == 1 else gq.sum(axis=0)  # the queries are shared by the groups
            gk = (g4.transpose(0, 1, 3, 2) @ qh).reshape(vh.shape[0], -1, qh.shape[2])
            gq, gk, gv = _merge(gq, heads), _merge(gk, heads), _merge(gv, heads)
            if fold:
                g_q = _layer_norm_grad(gv @ wv.T + gk @ wk.T + gq @ wq.T, qn, inv) if needs_x else None
                g_inputs = (g, g_q)
            else:
                g_q = gq @ wq.T if needs_x else None
                if norm and needs_x:
                    g_q = _layer_norm_grad(g_q, qn, inv)
                g_inputs = (g, gv @ wv.T if needs_src else None, gk @ wk.T if needs_src else None, g_q)
            g_weights = tuple(a.T @ b if need else None
                              for need, a, b in zip(needs_w, (qp, kp, kvd, att, act), (gq, gk, gv, gh, g)))
            return g_inputs + g_weights

        parents = (x, x) if fold else (x, src, src, x)
        return _make(out, parents + weights, bw)

    def _check(self, x: Tensor, kv: Tensor | None, q_pos, k_pos, groups: int) -> None:
        """Raise ShapeError unless the operands of a call chain, before any
        arithmetic: numpy would broadcast a (1, d) position table silently."""
        src = x if kv is None else kv
        shapes = [w.shape for w in (self.wq, self.wk, self.wv, self.w_in, self.w_out)]
        if x.ndim != 2 or src.ndim != 2 or any(len(s) != 2 for s in shapes):
            raise ShapeError(f"block: queries {x.shape}, keys {src.shape} and weights {shapes} "
                             f"must all be rank 2")
        (n, d), (rows, d_kv) = x.shape, src.shape
        wq, wk, wv, w_in, w_out = shapes
        if not (wq[0] == d and wk[0] == wv[0] == d_kv and wq[1] == wk[1] and w_in[0] == wv[1]
                and w_out[0] == w_in[1] and w_out[1] == d
                and wq[1] % self.heads == 0 and wv[1] % self.heads == 0):
            raise ShapeError(f"block: weights {shapes} do not chain {d}-wide queries and {d_kv}-wide "
                             f"keys back to width {d} with {self.heads} heads")
        if groups < 1 or rows % groups:
            raise ShapeError(f"block: {rows} key rows do not split into {groups} groups")
        for name, table, want in (("q_pos", q_pos, (n, d)), ("k_pos", k_pos, (rows // groups, d_kv))):
            if table is not None and np.shape(table) != want:
                raise ShapeError(f"block: {name} of shape {np.shape(table)} is not the {want} "
                                 f"{'query' if name == 'q_pos' else 'one-group key'} shape")


def _split(arr: np.ndarray, heads: int, groups: int) -> np.ndarray:
    """(G*n, H*dk) -> (G*H, n, dk): row block g, column block h becomes batch
    entry g*H + h."""
    rows, d = arr.shape
    n, dk = rows // groups, d // heads
    return arr.reshape(groups, n, heads, dk).transpose(0, 2, 1, 3).reshape(groups * heads, n, dk)


def _merge(arr: np.ndarray, heads: int) -> np.ndarray:
    """Inverse of `_split`: (G*H, n, dk) -> (G*n, H*dk)."""
    b, n, dk = arr.shape
    groups = b // heads
    return arr.reshape(groups, heads, n, dk).transpose(0, 2, 1, 3).reshape(groups * n, heads * dk)


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
