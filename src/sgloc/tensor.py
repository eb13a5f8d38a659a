"""Dense tensors with reverse-mode automatic differentiation.

A small tape-based engine over numpy arrays: every differentiable op returns
a Tensor that remembers its parents and a closure computing parent gradients.
A parameter is a leaf `Tensor(data, requires_grad=True)`; a model names its
parameters in one {name: Tensor} dict. `backward()` walks the tape once and
returns a plain {leaf: gradient array} dict with an entry for each leaf the
loss reaches; passed such a dict as `into`, it adds onto those totals.
`leaf_contributions()` is the same sweep yielding the leaf gradients
unsummed, in sweep order, and `accumulate()` adds such pairs onto totals,
so the adds can happen in another process with the same bits. Inside
`no_grad()` ops record nothing, so each intermediate is freed as soon as its
last reader is done with it.

In-place buffer rule: an op may mutate only arrays it has just allocated
itself, in its forward or in its backward. Input data and incoming gradients
are shared (`add` hands one gradient array to both parents), so they are
never written to.

Layout convention used throughout the package: a feature map is an n x d
matrix whose n rows are a square g x g grid, with row s = y*g + x.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class PrecisionError(RuntimeError):
    """Raised when an operation requires a precision that is not active."""


class NonFiniteError(RuntimeError):
    """Raised when a NaN/inf value reaches a place that must stay finite."""


_DTYPES = {"f32": np.float32, "f64": np.float64}
_precision = "f32"


@contextlib.contextmanager
def precision(name: str):
    """Run the block at scalar precision `name`: 'f32' (training, the default)
    or 'f64' (verification). The previous precision is restored on exit, also
    when the block raises."""
    global _precision
    if name not in _DTYPES:
        raise PrecisionError(f"unknown precision {name!r}; expected 'f32' or 'f64'")
    prev, _precision = _precision, name
    try:
        yield
    finally:
        _precision = prev


def current_dtype() -> type:
    return _DTYPES[_precision]


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run the block without a tape: ops keep no parents or backward closures
    and their results do not require gradients. The previous mode is restored
    on exit, also when the block raises."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A rank-<=4 dense array, optionally tracked on the gradient tape.

    Data is never mutated by ops; the optimizer updates leaf `.data` in place
    between passes, which is safe because tapes do not outlive a step.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=current_dtype())
        if arr.ndim > 4:
            raise ShapeError(f"tensors support rank <= 4, got shape {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"all extents must be >= 1, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._bw: Callable | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(arr: np.ndarray, parents: tuple, bw: Callable) -> Tensor:
    """Wrap an op result; drops the tape when no parent needs gradients or
    inside `no_grad`."""
    t = Tensor.__new__(Tensor)
    t.data = arr
    rg = False
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                rg = True
                break
    t.requires_grad = rg
    if rg:
        t._parents = parents
        t._bw = bw
    else:
        t._parents = ()
        t._bw = None
    return t


def _as_const(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (g, -g))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    out = ad / bd
    return _make(out, (a, b), lambda g: (g / bd, -g * ad / (bd * bd)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # relu'(0) = 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _make(np.log(ad), (a,), lambda g: (g / ad,))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)  # subgradient 0 at 0
    return _make(np.abs(a.data), (a,), lambda g: (g * sign,))


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max against an equal-shape tensor or a scalar; ties get zero gradient."""
    b = _as_const(b, a)
    if b.ndim != 0 and a.shape != b.shape:
        raise ShapeError(f"maximum: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    out = np.maximum(ad, bd)
    ma = ad > bd
    mb = bd > ad
    return _make(out, (a, b), lambda g: (g * ma, _collapse(g * mb, bd.shape)))


def minimum(a: Tensor, b) -> Tensor:
    """Elementwise min against an equal-shape tensor or a scalar; ties get zero gradient."""
    b = _as_const(b, a)
    if b.ndim != 0 and a.shape != b.shape:
        raise ShapeError(f"minimum: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    out = np.minimum(ad, bd)
    ma = ad < bd
    mb = bd < ad
    return _make(out, (a, b), lambda g: (g * ma, _collapse(g * mb, bd.shape)))


def _collapse(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    return g.sum().reshape(shape)  # scalar operand


# ---------------------------------------------------------------------------
# linear algebra / structure ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ for {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd
    ra, rb = a.requires_grad, b.requires_grad  # a constant operand gets no gradient
    return _make(out, (a, b), lambda g: (g @ bd.T if ra else None, ad.T @ g if rb else None))


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
    ga = (g4 @ bt4.transpose(0, 1, 3, 2)).sum(axis=0)
    if transpose_b:
        gb = g4.transpose(0, 1, 3, 2) @ ad
    else:
        gb = ad.transpose(0, 2, 1) @ g4
    return ga, gb.reshape(-1, *gb.shape[2:])


def attend(q: Tensor, k: Tensor, v: Tensor, s: float) -> Tensor:
    """softmax(s * q k^T) v with the softmax over each row, as one tape node:
    (B/G, n, dk), (B, m, dk), (B, m, dv) -> (B, n, dv), with q shared by the
    G groups of k and v as in `bmm`.

    The arithmetic is that of bmm(q, k, transpose_b) -> scale -> softmax_rows
    -> bmm(., v), in the same order, so results and gradients are the same
    bits. One (B, n, m) buffer goes from scores to probabilities in place and
    is the only one the tape keeps; the backward reuses its own (B, n, m)
    gradient buffer the same way.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(f"attend expects rank-3 operands, got {q.shape}, {k.shape} and {v.shape}")
    if k.shape[0] % q.shape[0] or q.shape[2] != k.shape[2] or k.shape[:2] != v.shape[:2]:
        raise ShapeError(f"attend: q {q.shape}, k {k.shape} and v {v.shape} do not chain")
    s = float(s)
    qd = q.data
    kt4 = _grouped(k.data, q.shape[0], True)
    v4 = _grouped(v.data, v.shape[0], False)
    p = _bmm(qd, kt4)
    p *= s
    _softmax_(p)

    def bw(g):
        gp, gv = _bmm_grads(g, p, v4, False)
        _softmax_grad_(gp, p)
        gp *= s
        gq, gk = _bmm_grads(gp, qd, kt4, True)
        return gq, gk, gv

    return _make(_bmm(p, v4), (q, k, v), bw)


def split_heads(x: Tensor, heads: int, groups: int = 1) -> Tensor:
    """(G*n, H*dk) -> (G*H, n, dk): row block g, column block h becomes batch
    entry g*H + h."""
    if x.ndim != 2 or x.shape[0] % groups or x.shape[1] % heads:
        raise ShapeError(f"split_heads: shape {x.shape} does not split into {groups} x {heads}")
    return _make(_split(x.data, heads, groups), (x,), lambda g: (_merge(g, heads),))


def merge_heads(x: Tensor, heads: int) -> Tensor:
    """Inverse of `split_heads`: (G*H, n, dk) -> (G*n, H*dk)."""
    if x.ndim != 3 or x.shape[0] % heads:
        raise ShapeError(f"merge_heads: shape {x.shape} does not hold {heads} heads")
    groups = x.shape[0] // heads
    out = _merge(x.data, heads)
    return _make(out, (x,), lambda g: (_split(g, heads, groups),))


def _merge(arr: np.ndarray, heads: int) -> np.ndarray:
    b, n, dk = arr.shape
    groups = b // heads
    return arr.reshape(groups, heads, n, dk).transpose(0, 2, 1, 3).reshape(groups * n, heads * dk)


def _split(arr: np.ndarray, heads: int, groups: int) -> np.ndarray:
    rows, d = arr.shape
    n, dk = rows // groups, d // heads
    return arr.reshape(groups, n, heads, dk).transpose(0, 2, 1, 3).reshape(groups * heads, n, dk)


def mean_groups(x: Tensor, groups: int) -> Tensor:
    """Mean of the G leading row blocks: (G*n, k) -> (n, k). With G = 1 the
    input itself is returned."""
    if x.ndim != 2 or x.shape[0] % groups:
        raise ShapeError(f"mean_groups: {x.shape[0]} rows do not split into {groups} groups")
    if groups == 1:
        return x
    n = x.shape[0] // groups
    inv = 1.0 / groups
    out = x.data.reshape(groups, n, x.shape[1]).sum(axis=0) * inv
    shape = x.shape
    return _make(out, (x,), lambda g: (np.broadcast_to(g * inv, (groups, *g.shape)).reshape(shape),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(old),))


def layer_norm_rows(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean and unit variance (no affine terms)."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm_rows expects rank-2, got {x.shape}")
    d = x.shape[1]
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = xc * inv

    def bw(g):
        g_mean = g.mean(axis=1, keepdims=True)
        proj = (g * out).mean(axis=1, keepdims=True)
        return ((g - g_mean - out * proj) * inv,)

    return _make(out, (x,), bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis of a rank-2 or rank-3 tensor, computed with
    max subtraction."""
    if x.ndim not in (2, 3):
        raise ShapeError(f"softmax_rows expects rank 2 or 3, got {x.shape}")
    out = _softmax_(x.data.copy(order="K"))
    return _make(out, (x,), lambda g: (_softmax_grad_(g.copy(order="K"), out),))


def _softmax_(buf: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max subtraction, written into `buf`."""
    buf -= buf.max(axis=-1, keepdims=True)
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=-1, keepdims=True)
    return buf


def _softmax_grad_(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The softmax backward, out * (g - sum(g * out)), written into `g`."""
    g -= (g * out).sum(axis=-1, keepdims=True)
    g *= out
    return g


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; the gradient splits back to the inputs. One
    tensor is returned as it is."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    if len(tensors) == 1:
        return tensors[0]
    base = tensors[0]
    for t in tensors[1:]:
        if t.ndim != base.ndim or any(
            i != axis and t.shape[i] != base.shape[i] for i in range(t.ndim)
        ):
            raise ShapeError(
                f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}"
            )
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(out, tuple(tensors), bw)


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    if a.ndim != 2 or not (0 <= j0 < j1 <= a.shape[1]):
        raise ShapeError(f"slice_cols({j0},{j1}) invalid for shape {a.shape}")
    out = a.data[:, j0:j1].copy()
    shape = a.shape

    def bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[:, j0:j1] = g
        return (full,)

    return _make(out, (a,), bw)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by integer index; the gradient scatter-adds back."""
    idx = np.asarray(idx, dtype=np.intp)
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects rank-2, got {a.shape}")
    out = a.data[idx].copy()
    shape = a.shape

    def bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), bw)


def add_rowvec(a: Tensor, b: Tensor) -> Tensor:
    """Add a length-k vector to every row of an n x k matrix."""
    if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {a.shape} and {b.shape} incompatible")
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (g, g.sum(axis=0)))


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)
    return _make(out, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Left-to-right sum of a nonempty list (fixed order for determinism)."""
    acc = tensors[0]
    for t in tensors[1:]:
        acc = add(acc, t)
    return acc


def global_max_pool(x: Tensor) -> Tensor:
    """Per-channel max over the rows of an n x d feature map; returns a
    length-d vector. Gradient routes to the first argmax row."""
    if x.ndim != 2:
        raise ShapeError(f"global_max_pool expects rank-2, got {x.shape}")
    s, d = x.shape
    idx = x.data.argmax(axis=0)
    out = x.data[idx, np.arange(d)]

    def bw(g):
        full = np.zeros((s, d), dtype=g.dtype)
        full[idx, np.arange(d)] = g
        return (full,)

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# backward pass


def _topo(root: Tensor) -> list:
    order = []
    seen = {id(root)}
    stack = [(root, 0)]
    while stack:
        node, i = stack.pop()
        parents = node._parents
        while i < len(parents):
            p = parents[i]
            if p.requires_grad and p._parents and id(p) not in seen:
                seen.add(id(p))
                stack.append((node, i + 1))
                stack.append((p, 0))
                break
            i += 1
        else:
            order.append(node)
    return order


def leaf_contributions(loss: Tensor) -> Iterator[tuple]:
    """Reverse-mode sweep from a scalar loss. Yields a (leaf, gradient array)
    pair each time the sweep reaches a requires_grad leaf, in the order it
    reaches them; a leaf the loss does not reach has no pair, and a leaf
    reached twice (a weight shared by two ops) has two.

    Gradients of the non-leaf nodes are summed within the sweep. The leaf
    pairs are left unsummed, so that `accumulate` can add them onto totals
    kept elsewhere, possibly in another process, with the same float
    additions in the same order as if the sweep had started from those
    totals. The sweep runs as the pairs are taken, so a caller that adds
    each pair as it comes holds no more leaf gradients than their totals.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    seed = np.ones_like(loss.data)
    if not loss._parents:  # the loss is a leaf itself
        yield loss, seed
        return
    grads = {loss: seed}
    for node in reversed(_topo(loss)):
        g = grads.pop(node, None)
        if g is None:
            continue
        for p, pg in zip(node._parents, node._bw(g)):
            if pg is None or not p.requires_grad:
                continue
            if not p._parents:
                yield p, pg
                continue
            acc = grads.get(p)
            grads[p] = pg if acc is None else acc + pg


def accumulate(grads: dict, contributions) -> dict:
    """Add each (leaf, array) pair onto `grads[leaf]` in order, as
    `total + array`; a leaf without an entry starts from its first array.
    Changes and returns `grads`."""
    for leaf, g in contributions:
        acc = grads.get(leaf)
        grads[leaf] = g if acc is None else acc + g
    return grads


def backward(loss: Tensor, into: dict | None = None) -> dict:
    """Reverse-mode sweep from a scalar loss. Returns {leaf: gradient array}
    for every requires_grad leaf the loss reaches; a leaf it does not reach
    has no entry.

    This is `leaf_contributions(loss)` folded by `accumulate` onto a copy of
    `into`, a dict an earlier call returned, or onto an empty dict. Each new
    contribution is added as `total + new`, as one sweep over both losses
    would. One sweep over a sum of losses with disjoint tapes reaches the
    last term first, so chaining the terms' sweeps from the last to the
    first gives the same bits while holding one term's tape at a time.
    `into` itself is not changed.
    """
    return accumulate(dict(into) if into else {}, leaf_contributions(loss))


def finite_difference_check(
    f: Callable[[], Tensor],
    tensors: Iterable[Tensor],
    eps: float = 1e-4,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Central-difference gradient oracle.

    `f` re-runs the forward pass on the current values of the leaf `tensors`.
    Each sampled coordinate is nudged by +/- eps; the numeric slope is
    compared against backward()'s gradient, zero where the loss does not
    reach the leaf. Returns the max relative error, with relative error
    |a - b| / max(1e-8, |a| + |b|). Requires 64-bit precision.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_coords is not None and max_coords < 1:
        raise ValueError(f"max_coords must be at least 1, got {max_coords}")
    if _precision != "f64":
        raise PrecisionError("finite_difference_check requires f64 precision")
    tensors = list(tensors)
    grads = backward(f())
    coords = [(i, j) for i, t in enumerate(tensors) for j in range(t.size)]
    if max_coords is not None and len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[k] for k in pick]
    worst = 0.0
    for i, j in coords:
        data = tensors[i].data.reshape(-1)
        old = data[j]
        data[j] = old + eps
        up = f().item()
        data[j] = old - eps
        down = f().item()
        data[j] = old
        numeric = (up - down) / (2.0 * eps)
        g = grads.get(tensors[i])
        analytic = 0.0 if g is None else float(g.reshape(-1)[j])
        err = abs(numeric - analytic) / max(1e-8, abs(numeric) + abs(analytic))
        if err > worst:
            worst = err
    return worst
