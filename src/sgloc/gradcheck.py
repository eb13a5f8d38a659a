"""Finite-difference verification at 64-bit precision: every taped op of
`tensor` and three one-node `attention.Block` calls (`_OP_CASES`), the
training loss `matching.total_loss` on its own, and the whole model's
training loss end to end. The Block rows check its attention core, whose
batched products and softmax are no taped ops of their own."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import Block, grid_pos
from .boxes import cxcywh_to_corners
from .matching import build_cost_matrix, hungarian_assign, total_loss
from .model import ModelConfig, SketchLocalizer
from .tensor import (
    Tensor,
    add,
    add_rowvec,
    concat,
    finite_difference_check,
    global_max_pool,
    layer_norm_rows,
    matmul,
    mean_groups,
    mul,
    relu,
    reshape,
    scale,
    sigmoid,
    sum_all,
)

TOLERANCE = 1e-5
EPS = 1e-5

TINY_MODEL = ModelConfig(
    d=8, heads=2, stages=2, dec_layers=1, num_tokens=4, d_hidden=16, sketch_layers=1
)


# The seed of R in `_projected`. It is a child stream, distinct from every
# default_rng(n) used to draw inputs: if R equalled an input x, layer norm's
# cotangent would lie along x's own (scale-invariant) direction, and the check
# would be as flat as sum(y**2).
COTANGENT_SEED = np.random.SeedSequence(0, spawn_key=(1,))


def _projected(op):
    """Reduce the op output y to sum(y * R), with R a fixed random tensor of
    y's shape, so the backward is checked against a generic cotangent.

    A loss like sum(y**2) is not generic. For row-normalized outputs it is
    nearly flat (about d per row for layer norm), so its true gradient is
    tiny and finite-difference noise dominates. Its cotangent 2y also has
    zero row mean, so a layer-norm backward that drops its mean term scores
    the same as the correct one. R is redrawn from COTANGENT_SEED on every
    call, so each forward pass of a finite-difference check sees the same
    function.
    """

    def loss(*tensors):
        out = op(*tensors)
        r = np.random.default_rng(COTANGENT_SEED).standard_normal(out.shape)
        return sum_all(mul(out, Tensor(r)))

    return loss


def _block_call(**call):
    """A d = 8, two-head `Block` call whose leaves are the queries x, the
    keys/values kv when the call has them, and the five weights. The weights
    enter scaled by 0.4, so that the softmax does not saturate on
    standard-normal draws."""

    def op(x, *rest):
        *kv, wq, wk, wv, w_in, w_out = rest
        return Block(*(scale(w, 0.4) for w in (wq, wk, wv, w_in, w_out)), heads=2)(x, *kv, **call)

    return _projected(op)


_WEIGHTS = [(8, 8), (8, 8), (8, 8), (8, 16), (16, 8)]  # attn q, k, v; adapter in, out

_OP_CASES = [
    ("add", [(3, 4), (3, 4)], _projected(add)),
    ("mul", [(3, 3), (3, 3)], _projected(mul)),
    ("scale", [(3, 2)], _projected(lambda a: scale(a, 1.7))),
    ("matmul", [(3, 4), (4, 2)], _projected(matmul)),
    # pre-normed self-attention over a 2x2 grid, as `encoder.image_block` calls it
    ("block_self", [(4, 8)] + _WEIGHTS, _block_call(norm=True, q_pos=grid_pos(4, 8), k_pos=grid_pos(4, 8))),
    # 4 grid tokens over each of G = 2 groups of 3x3 grid tokens, as
    # `encoder.encoder_fusion_multi` fuses a two-sketch bundle
    ("block_groups", [(4, 8), (18, 8)] + _WEIGHTS,
     _block_call(q_pos=grid_pos(4, 8), k_pos=grid_pos(9, 8), groups=2)),
    # pre-normed queries over a separate 3x3 grid of keys, as `decoder.decode`
    # calls its cross block
    ("block_cross_normed", [(4, 8), (9, 8)] + _WEIGHTS, _block_call(norm=True, k_pos=grid_pos(9, 8))),
    ("mean_groups", [(6, 4)], _projected(lambda a: mean_groups(a, 3))),
    ("reshape", [(3, 4)], _projected(lambda a: reshape(a, (2, 6)))),
    ("relu", [(4, 4)], _projected(relu)),
    ("sigmoid", [(4, 4)], _projected(sigmoid)),
    ("layer_norm_rows", [(3, 6)], _projected(layer_norm_rows)),
    ("concat", [(2, 3), (4, 3)], _projected(lambda a, b: concat([a, b], axis=0))),
    ("add_rowvec", [(3, 4), (4,)], _projected(add_rowvec)),
    ("sum_all", [(3, 4)], lambda a: sum_all(mul(a, a))),
    ("global_max_pool", [(6, 4)], _projected(global_max_pool)),
]


def check_op_case(name, shapes, loss_fn, rng, eps: float = EPS) -> float:
    """Finite-difference check of one `_OP_CASES` entry on standard-normal
    inputs drawn from `rng`; returns the max relative error."""
    leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    return finite_difference_check(lambda: loss_fn(*leaves), leaves, eps=eps)


def check_ops(eps: float = EPS) -> list:
    """Finite-difference checks of each `_OP_CASES` op and of `total_loss`;
    returns [(name, max_rel_err)]."""
    rng = np.random.default_rng(7)
    results = [(name, check_op_case(name, shapes, loss_fn, rng, eps)) for name, shapes, loss_fn in _OP_CASES]

    # The training loss alone, at 3 ground truths on 8 tokens: scores inside
    # the clamp and boxes with positive extents, as the heads produce them.
    n_tok, n_gt = 8, 3
    center_size = lambda n: np.column_stack([rng.uniform(0.3, 0.7, (n, 2)), rng.uniform(0.1, 0.4, (n, 2))])
    scores = Tensor(rng.uniform(0.05, 0.95, n_tok), requires_grad=True)
    boxes = Tensor(center_size(n_tok), requires_grad=True)
    gt = cxcywh_to_corners(center_size(n_gt))
    assign = rng.permutation(n_tok)[:n_gt]
    matched_loss = lambda: total_loss(scores, boxes, gt, assign).total_tensor
    results.append(("total_loss", finite_difference_check(matched_loss, [scores, boxes], eps=eps)))
    return results


def check_end_to_end(max_coords: int = 500, seed: int = 0, eps: float = EPS) -> float:
    """Finite differences through the whole pipeline (two query sketches, so
    the multi-query fusion paths are exercised) against the training loss with
    a frozen assignment."""
    rng = np.random.default_rng(seed)
    model = SketchLocalizer(TINY_MODEL, seed=seed)
    image = rng.random((64, 64, 3))
    sketches = [rng.random((64, 64)) * 0.5 for _ in range(2)]
    gt = np.array([[0.1, 0.2, 0.45, 0.6], [0.5, 0.5, 0.9, 0.8]])

    scores, boxes = model.forward(image, sketches)
    assign = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt))

    def loss():
        s, b = model.forward(image, sketches)
        return total_loss(s, b, gt, assign).total_tensor

    return finite_difference_check(loss, model.params.values(), eps=eps, max_coords=max_coords, seed=seed)


def run_all(max_coords: int = 500):
    """Run every check at f64; returns (all_ok, [(name, err, ok)])."""
    with T.precision("f64"):
        rows = [(name, err, err < TOLERANCE) for name, err in check_ops()]
        err = check_end_to_end(max_coords=max_coords)
        rows.append(("end_to_end_loss", err, err < TOLERANCE))
    return all(ok for _, _, ok in rows), rows
