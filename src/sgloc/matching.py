"""Hungarian token-to-box assignment and the training losses.

Predicted boxes use normalized center-size form (cx, cy, w, h) in (0,1);
ground-truth boxes are handled in normalized corner form (x0, y0, x1, y1).
The assignment itself runs on detached values, with box geometry from
`boxes`; gradients only flow through the loss terms evaluated at the
resulting discrete matching, whose GIoU term is built on the tape here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import corners_to_cxcywh, cxcywh_to_corners, giou
from .tensor import (
    ShapeError,
    Tensor,
    absolute,
    add,
    div,
    gather_rows,
    log,
    maximum,
    minimum,
    mul,
    scale,
    slice_cols,
    sub,
    sum_all,
)

_SCORE_EPS = 1e-7


@dataclass
class LossWeights:
    lam_cls: float = 2.0
    lam_l1: float = 5.0
    lam_giou: float = 2.0


@dataclass
class LossBreakdown:
    score_loss: float
    l1_loss: float
    giou_loss: float
    total: float
    total_tensor: Tensor = field(repr=False)


# ---------------------------------------------------------------------------
# Hungarian assignment
#
# Exact min-cost injective assignment via a DP over (token index, subset of
# ground truths): O(T * 2^G * G). Reconstruction is deterministic; when the
# optimum is not unique the lexicographically smallest assignment vector
# (token index for gt 0, then gt 1, ...) is returned. To find it,
# `_lexicographic_optimum` holds gt g on token t by setting every other entry
# of cost column g to inf. The finite complete assignments of that DP are
# exactly those that give g to t, each summed in token order as in the
# unmasked DP, so its dp[T, full] equals the optimum exactly when one of them
# is optimal.


def _dp_table(cost: np.ndarray) -> np.ndarray:
    """dp[t, S]: the least cost of giving the ground truths in subset S to
    distinct tokens among the first t."""
    T, G = cost.shape
    subsets = np.arange(1 << G)
    moves = []  # per gt g: the subsets that hold g, and the same without g
    for g in range(G):
        with_g = subsets[(subsets & (1 << g)) != 0]
        moves.append((with_g, with_g ^ (1 << g)))
    dp = np.full((T + 1, 1 << G), np.inf)
    dp[0, 0] = 0.0
    for t in range(T):
        cur, nxt = dp[t], dp[t + 1]
        nxt[:] = cur
        row = cost[t]
        for g, (with_g, without_g) in enumerate(moves):
            nxt[with_g] = np.minimum(nxt[with_g], cur[without_g] + row[g])
    return dp


def hungarian_assign(cost) -> np.ndarray:
    """Minimum-total-cost injective assignment of ground truths to tokens:
    the (G,) token index of each ground truth."""
    cost = np.ascontiguousarray(np.asarray(cost, dtype=np.float64))
    if cost.ndim != 2:
        raise ShapeError(f"cost matrix must be rank-2, got shape {cost.shape}")
    T, G = cost.shape
    if T < G:
        raise ShapeError(f"need at least as many tokens as ground truths: {T} < {G}")
    if G == 0:
        return np.zeros(0, dtype=np.intp)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")

    dp = _dp_table(cost)
    token_for_gt = np.full(G, -1, dtype=np.intp)
    t, S = T, (1 << G) - 1
    while S and t > 0:
        val = dp[t, S]
        choices = [-1] if dp[t - 1, S] == val else []
        for g in range(G):
            bit = 1 << g
            if S & bit and dp[t - 1, S ^ bit] + cost[t - 1, g] == val:
                choices.append(g)
        if len(choices) != 1:
            return _lexicographic_optimum(cost, float(dp[T, -1]))
        g = choices[0]
        if g >= 0:
            token_for_gt[g] = t - 1
            S ^= 1 << g
        t -= 1
    return token_for_gt


def _lexicographic_optimum(cost: np.ndarray, cstar: float) -> np.ndarray:
    """The lexicographically smallest assignment of total cost `cstar`."""
    T, G = cost.shape
    held = cost.copy()
    out = np.full(G, -1, dtype=np.intp)
    for g in range(G):
        for t in range(T):
            if t in out[:g]:
                continue
            held[:, g] = np.inf
            held[t, g] = cost[t, g]
            if _dp_table(held)[T, -1] == cstar:
                out[g] = t
                break
        else:  # pragma: no cover - dp guarantees feasibility
            raise RuntimeError("assignment reconstruction failed")
    return out


# ---------------------------------------------------------------------------
# losses


def build_cost_matrix(scores, boxes, gt_corners, weights: LossWeights | None = None) -> np.ndarray:
    """Matching costs: -lam_cls * score + lam_l1 * L1 + lam_giou * (1 - giou).

    `scores` (T,) and `boxes` (T,4 center-size) are detached prediction values;
    `gt_corners` (G,4) are normalized corner boxes. No gradients flow here.
    """
    w = weights or LossWeights()
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    boxes = np.asarray(boxes, dtype=np.float64)
    gt_corners = np.asarray(gt_corners, dtype=np.float64).reshape(-1, 4)
    gt_cs = corners_to_cxcywh(gt_corners)
    l1 = np.abs(boxes[:, None, :] - gt_cs[None, :, :]).sum(axis=2)
    gi = giou(cxcywh_to_corners(boxes), gt_corners)
    return -w.lam_cls * scores[:, None] + w.lam_l1 * l1 + w.lam_giou * (1.0 - gi)


def bce_score_loss(scores: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over all tokens; scores clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.ndim != 1 or scores.shape[0] != y.shape[0]:
        raise ShapeError(f"scores shape {scores.shape} vs labels {y.shape}")
    s = minimum(maximum(scores, _SCORE_EPS), 1.0 - _SCORE_EPS)
    y_t = Tensor(y)
    ny_t = Tensor(1.0 - y)
    one = Tensor(np.ones_like(y))
    pos = mul(y_t, log(s))
    negt = mul(ny_t, log(sub(one, s)))
    return scale(sum_all(add(pos, negt)), -1.0 / y.shape[0])


def _col(x: Tensor, j: int) -> Tensor:
    return slice_cols(x, j, j + 1)


def giou_loss_matched(pred_boxes: Tensor, gt_corners: np.ndarray) -> Tensor:
    """Mean (1 - giou) over matched pairs; `pred_boxes` is a (G,4) center-size
    tensor on the tape, `gt_corners` a constant (G,4) array."""
    G = pred_boxes.shape[0]
    cx, cy, w, h = (_col(pred_boxes, j) for j in range(4))
    hw, hh = scale(w, 0.5), scale(h, 0.5)
    x0, x1 = sub(cx, hw), add(cx, hw)
    y0, y1 = sub(cy, hh), add(cy, hh)
    g = np.asarray(gt_corners, dtype=np.float64).reshape(G, 4)
    gx0, gy0, gx1, gy1 = (Tensor(g[:, j : j + 1]) for j in range(4))

    iw = maximum(sub(minimum(x1, gx1), maximum(x0, gx0)), 0.0)
    ih = maximum(sub(minimum(y1, gy1), maximum(y0, gy0)), 0.0)
    inter = mul(iw, ih)
    area_p = mul(w, h)
    area_g = Tensor(((g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])).reshape(G, 1))
    union = sub(add(area_p, area_g), inter)
    iou = div(inter, union)
    hull = mul(sub(maximum(x1, gx1), minimum(x0, gx0)), sub(maximum(y1, gy1), minimum(y0, gy0)))
    gi = sub(iou, div(sub(hull, union), hull))
    ones = Tensor(np.ones((G, 1)))
    return scale(sum_all(sub(ones, gi)), 1.0 / G)


def l1_loss_matched(pred_boxes: Tensor, gt_corners: np.ndarray) -> Tensor:
    """Mean over matched pairs of the L1 distance in center-size form."""
    G = pred_boxes.shape[0]
    gt_cs = corners_to_cxcywh(np.asarray(gt_corners).reshape(G, 4))
    return scale(sum_all(absolute(sub(pred_boxes, Tensor(gt_cs)))), 1.0 / G)


def total_loss(
    scores: Tensor,
    boxes: Tensor,
    gt_corners,
    token_for_gt,
    weights: LossWeights | None = None,
) -> LossBreakdown:
    """Weighted sum: score BCE over all tokens, with label 1 at each gt's
    token in `token_for_gt` and 0 elsewhere; L1 + GIoU over matched pairs."""
    w = weights or LossWeights()
    gt_corners = np.asarray(gt_corners, dtype=np.float64).reshape(-1, 4)
    G = gt_corners.shape[0]
    token_for_gt = np.asarray(token_for_gt, dtype=np.intp)
    if token_for_gt.shape != (G,):
        raise ShapeError(f"assignment shape {token_for_gt.shape} does not cover {G} gts")
    labels = np.zeros(scores.data.size)
    labels[token_for_gt] = 1.0
    score_t = bce_score_loss(scores, labels)
    if G > 0:
        matched = gather_rows(boxes, token_for_gt)
        l1_t = l1_loss_matched(matched, gt_corners)
        giou_t = giou_loss_matched(matched, gt_corners)
        total_t = add(add(scale(score_t, w.lam_cls), scale(l1_t, w.lam_l1)), scale(giou_t, w.lam_giou))
        return LossBreakdown(score_t.item(), l1_t.item(), giou_t.item(), total_t.item(), total_t)
    total_t = scale(score_t, w.lam_cls)
    return LossBreakdown(score_t.item(), 0.0, 0.0, total_t.item(), total_t)
