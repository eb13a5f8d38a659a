"""Hungarian token-to-box assignment and the training losses.

Predicted boxes use normalized center-size form (cx, cy, w, h) in (0,1);
ground-truth boxes are handled in normalized corner form (x0, y0, x1, y1).
The assignment itself runs on detached values, with box geometry from
`boxes`; gradients only flow through the loss terms evaluated at the
resulting discrete matching. `total_loss` is one tape node whose forward and
VJP are written out here in float64 numpy.

The matching cost and the loss weight their score, L1 and GIoU terms by the
constants `LOSS_WEIGHTS`, 2/5/2 as in DETR (Carion et al., arXiv 2005.12872).
Both read them when called, so a test can patch them to isolate one term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import corners_to_cxcywh, cxcywh_to_corners, giou
from .tensor import ShapeError, Tensor, _make

_SCORE_EPS = 1e-7

LOSS_WEIGHTS = (2.0, 5.0, 2.0)  # score, L1, GIoU


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


def build_cost_matrix(scores, boxes, gt_corners) -> np.ndarray:
    """Matching costs: -w_score * score + w_l1 * L1 + w_giou * (1 - giou),
    with (w_score, w_l1, w_giou) = `LOSS_WEIGHTS`.

    `scores` (T,) and `boxes` (T,4 center-size) are detached prediction values;
    `gt_corners` (G,4) are normalized corner boxes. No gradients flow here.
    """
    w_score, w_l1, w_giou = LOSS_WEIGHTS
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    boxes = np.asarray(boxes, dtype=np.float64)
    gt_corners = np.asarray(gt_corners, dtype=np.float64).reshape(-1, 4)
    gt_cs = corners_to_cxcywh(gt_corners)
    l1 = np.abs(boxes[:, None, :] - gt_cs[None, :, :]).sum(axis=2)
    gi = giou(cxcywh_to_corners(boxes), gt_corners)
    return -w_score * scores[:, None] + w_l1 * l1 + w_giou * (1.0 - gi)


def total_loss(scores: Tensor, boxes: Tensor, gt_corners, token_for_gt) -> LossBreakdown:
    """The `LOSS_WEIGHTS`-weighted sum of the mean score BCE over all T
    tokens, with label 1 at each gt's token in `token_for_gt` (G distinct
    integer indices) and 0 elsewhere, and the mean L1 and mean (1 - GIoU) of
    the matched pairs: one tape node over `scores` (T,) and `boxes` (T, 4
    center-size).

    The forward and its analytic VJP run in float64; the VJP is cast to each
    parent's dtype. Scores are clamped to [1e-7, 1 - 1e-7] before the logs.
    Subgradients are those of the elementwise formulas: zero outside the
    clamp and at every max/min tie, and sign(0) = 0.
    """
    w_score, w_l1, w_giou = LOSS_WEIGHTS
    T = scores.size
    if scores.ndim != 1 or boxes.shape != (T, 4):
        raise ShapeError(f"scores {scores.shape} and boxes {boxes.shape} are not (T,) and (T, 4)")
    gt = np.asarray(gt_corners, dtype=np.float64).reshape(-1, 4)
    G = gt.shape[0]
    tok = np.asarray(token_for_gt)
    if tok.shape != (G,):
        raise ShapeError(f"assignment shape {tok.shape} does not cover {G} gts")
    if G and (tok.dtype.kind not in "iu" or len(set(tok.tolist())) < G):
        raise ShapeError(f"token indices {tok.tolist()} are not {G} distinct integers")
    outside = tok[(tok < 0) | (tok >= T)]
    if outside.size:
        raise ShapeError(f"token index {outside[0]} is outside 0..{T - 1}")
    tok = tok.astype(np.intp)

    y = np.zeros(T)
    y[tok] = 1.0
    s = np.asarray(scores.data, dtype=np.float64)
    sc = np.minimum(np.maximum(s, _SCORE_EPS), 1.0 - _SCORE_EPS)
    score = np.sum(y * np.log(sc) + (1.0 - y) * np.log(1.0 - sc)) * (-1.0 / T)
    if G == 0:
        l1 = gi_loss = 0.0
    else:
        m = np.asarray(boxes.data, dtype=np.float64)[tok]
        d = m - corners_to_cxcywh(gt)
        l1 = np.sum(np.abs(d)) * (1.0 / G)
        # x and y side by side: the matched boxes' and the gts' (lo, hi) corners
        wh = m[:, 2:]
        lo, hi = m[:, :2] - 0.5 * wh, m[:, :2] + 0.5 * wh
        glo, ghi = gt[:, :2], gt[:, 2:]
        ext = np.minimum(hi, ghi) - np.maximum(lo, glo)
        clip = np.maximum(ext, 0.0)
        span = np.maximum(hi, ghi) - np.minimum(lo, glo)
        inter = clip[:, 0] * clip[:, 1]
        union = wh[:, 0] * wh[:, 1] + (ghi - glo).prod(axis=1) - inter
        hull = span[:, 0] * span[:, 1]
        gi_loss = np.sum(1.0 - (inter / union - (hull - union) / hull)) * (1.0 / G)
    total = w_score * score + w_l1 * l1 + w_giou * gi_loss

    def bw(g):
        g = float(g)
        inside = (s > _SCORE_EPS) & (s < 1.0 - _SCORE_EPS)
        gs = (g * w_score / T) * ((1.0 - y) / (1.0 - sc) - y / sc) * inside
        if G == 0:
            return gs.astype(scores.data.dtype), None
        dgi = -g * w_giou / G  # d total / d giou of each matched pair
        dunion = dgi * (1.0 / hull - inter / (union * union))
        dhull = -dgi * union / (hull * hull)
        dclip = (dgi / union - dunion)[:, None] * clip[:, ::-1]
        dext = dclip * (ext > 0)
        dspan = dhull[:, None] * span[:, ::-1]
        dhi = dext * (hi < ghi) + dspan * (hi > ghi)
        dlo = -dext * (lo > glo) - dspan * (lo < glo)
        dm = np.concatenate([dlo + dhi, dunion[:, None] * wh[:, ::-1] + 0.5 * (dhi - dlo)], axis=1)
        dm += (g * w_l1 / G) * np.sign(d)
        gb = np.zeros((T, 4))
        np.add.at(gb, tok, dm)
        return gs.astype(scores.data.dtype), gb.astype(boxes.data.dtype)

    out = _make(np.asarray(total, dtype=scores.data.dtype), (scores, boxes), bw)
    return LossBreakdown(float(score), float(l1), float(gi_loss), float(total), out)
