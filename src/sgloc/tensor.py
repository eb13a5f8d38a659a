"""Dense tensors with reverse-mode automatic differentiation.

A small tape-based engine over numpy arrays: every differentiable op returns
a Tensor that remembers its parents and a closure computing parent gradients.
A parameter is a leaf `Tensor(data, requires_grad=True)`; a model names its
parameters in one {name: Tensor} dict. `backward()` walks the tape once and
returns a plain {leaf: gradient array} dict with an entry for each leaf the
loss reaches; passed such a dict as `into`, it adds onto those totals in
place. A tape is swept once: the sweep releases each node's parents and
closure as soon as the node's backward has run, so the arrays only that node
saved are freed during the sweep, and a later sweep that reaches a released
node raises `SweptTapeError`. Inside `no_grad()` ops record nothing, so each
intermediate is freed as soon as its last reader is done with it.

The model's two largest composites record one node each, with their forward
and backward written out in numpy: a call of `attention.Block` (which shares
layer norm's `_layer_norm` and `_layer_norm_grad` with `layer_norm_rows`)
and the training loss `matching.total_loss`. The ops here are the rest, and
the parts of the composition a Block call is checked against.

In-place buffer rule: an op may mutate only arrays it has just allocated
itself, in its forward or in its backward. Input data and incoming gradients
are shared (`add` hands one gradient array to both parents), so they are
never written to. Gradient totals are the one other thing written in place:
each is owned by the caller's dict, a copy or an array the caller allocated,
never an array a sweep handed out.

Layout convention used throughout the package: a feature map is an n x d
matrix whose n rows are a square g x g grid, with row s = y*g + x.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class PrecisionError(RuntimeError):
    """Raised when an operation requires a precision that is not active."""


class NonFiniteError(RuntimeError):
    """Raised when a NaN/inf value reaches a place that must stay finite."""


class SweptTapeError(RuntimeError):
    """Raised when a backward sweep reaches a tape node that an earlier sweep
    released."""


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
        """The one value of a size-1 tensor, as a float; ShapeError for more."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a tensor of one value, got shape {self.shape}")
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


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (g * bd, g * ad))


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


LAYER_NORM_EPS = 1e-5  # added to each row's variance


def layer_norm_rows(x: Tensor) -> Tensor:
    """Normalize each row to zero mean and unit variance (no affine terms)."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm_rows expects rank-2, got {x.shape}")
    out, inv = _layer_norm(x.data)
    return _make(out, (x,), lambda g: (_layer_norm_grad(g, out, inv),))


def _layer_norm(x: np.ndarray) -> tuple:
    """`layer_norm_rows` of an n x d array: (normalized rows, 1/std per row).
    A mean is taken as sum / d, which is the bits of `np.mean`."""
    d = x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=1, keepdims=True) / d + LAYER_NORM_EPS)
    return xc * inv, inv


def _layer_norm_grad(g: np.ndarray, out: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The gradient of `_layer_norm`'s input for cotangent `g`, newly allocated."""
    d = g.shape[1]
    g_mean = g.sum(axis=1, keepdims=True) / d
    proj = (g * out).sum(axis=1, keepdims=True) / d
    return (g - g_mean - out * proj) * inv


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


def _swept(g):
    """The backward closure of a node that a sweep has released."""
    raise SweptTapeError("this tape node was released by an earlier backward sweep")


def _topo(root: Tensor) -> list:
    """The non-leaf nodes that `root` reaches, each after its parents.
    SweptTapeError if one of them has a released parent: it would pass for a
    leaf."""
    order = []
    seen = {id(root)}
    stack = [(root, 0)]
    while stack:
        node, i = stack.pop()
        parents = node._parents
        while i < len(parents):
            p = parents[i]
            if p._bw is _swept:
                raise SweptTapeError("the loss reaches a tape node that an earlier backward sweep released")
            if p.requires_grad and p._parents and id(p) not in seen:
                seen.add(id(p))
                stack.append((node, i + 1))
                stack.append((p, 0))
                break
            i += 1
        else:
            order.append(node)
    return order


def accumulate(grads: dict, leaf: Tensor, g: np.ndarray) -> None:
    """Add the gradient array `g` onto `grads[leaf]` in place, as
    `np.add(total, g, out=total)`: the same bits as `total + g`.

    A leaf without an entry gets a copy of `g`, never the array itself: `add`
    hands one gradient array to both of its parents, so a stored reference
    could later be added into twice. The totals are thus owned by `grads`. An
    array whose dtype differs from its leaf's total raises TypeError instead
    of being cast.
    """
    total = grads.get(leaf)
    if total is None:
        grads[leaf] = np.array(g)  # a copy, also of a numpy scalar
    elif total.dtype != g.dtype:
        raise TypeError(f"a {g.dtype} gradient cannot be added onto a {total.dtype} total")
    else:
        np.add(total, g, out=total)


def backward(loss: Tensor, into: dict | None = None) -> dict:
    """Reverse-mode sweep from a scalar loss. Returns {leaf: gradient array}
    for every requires_grad leaf the loss reaches; a leaf it does not reach
    has no entry.

    Gradients of the non-leaf nodes are summed within the sweep. Each time
    the sweep reaches a leaf, its gradient is added by `accumulate` onto
    `into`, a dict an earlier call returned (or one of preallocated totals),
    or onto a new dict; a leaf reached twice (a weight shared by two ops) gets
    both additions, in the order the sweep reaches them. `into` is changed in
    place and returned, so one sweep per term of a sum of losses totals its
    gradient while holding one term's tape at a time.

    The sweep consumes the tape. Once a node's backward has run, the node
    drops its parents and its closure, and with them the arrays only it
    saved, and is marked as swept; its `data` stays. A loss that is, or
    reaches, a swept node raises SweptTapeError before any gradient is
    added: a second sweep would find no tape behind it.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if loss._bw is _swept:
        raise SweptTapeError("this loss was swept by an earlier backward call")
    grads = {} if into is None else into
    if not loss.requires_grad:
        return grads
    seed = np.ones_like(loss.data)
    if not loss._parents:  # the loss is a leaf itself
        accumulate(grads, loss, seed)
        return grads
    order = _topo(loss)
    pending = {loss: seed}
    while order:
        node = order.pop()
        g = pending.pop(node, None)
        if g is not None:
            for p, pg in zip(node._parents, node._bw(g)):
                if pg is None or not p.requires_grad:
                    continue
                if not p._parents:
                    accumulate(grads, p, pg)
                    continue
                acc = pending.get(p)
                pending[p] = pg if acc is None else acc + pg
        node._parents, node._bw = (), _swept
    return grads


def finite_difference_check(
    f: Callable[[], Tensor],
    tensors: Iterable[Tensor],
    eps: float = 1e-4,
    max_coords: int | None = None,
) -> float:
    """Central-difference gradient oracle.

    `f` re-runs the forward pass on the current values of the leaf `tensors`.
    Every coordinate is checked, or `max_coords` of them drawn at random with
    seed 0. Each sampled coordinate is nudged by +/- eps; the numeric slope is
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
        pick = np.random.default_rng(0).choice(len(coords), size=max_coords, replace=False)
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
