import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc import matching, tensor
from sgloc.boxes import corners_to_cxcywh, cxcywh_to_corners
from sgloc.boxes import giou as giou_table
from sgloc.boxes import iou as iou_table
from sgloc.matching import build_cost_matrix, hungarian_assign, total_loss
from sgloc.tensor import ShapeError, Tensor, backward, finite_difference_check
from test_boxes import giou_scalar

SCORE_EPS = 1e-7  # the clamp of the score BCE


def giou(a, b) -> float:
    """GIoU of one pair, read from the pairwise table."""
    return float(giou_table([a], [b])[0, 0])


def random_boxes(rng, n) -> np.ndarray:
    """(n, 4) center-size boxes with centers in 0.3-0.7 and sizes in 0.1-0.3."""
    return np.column_stack([rng.uniform(0.3, 0.7, (n, 2)), rng.uniform(0.1, 0.3, (n, 2))])


def score_only(scores, labels):
    """`total_loss` at weights (1, 0, 0): the score BCE of `scores` with label
    1 where `labels` is 1. Each positive token is matched to one gt box."""
    tok = np.flatnonzero(np.asarray(labels))
    gt = np.tile([0.2, 0.2, 0.6, 0.6], (tok.size, 1))
    boxes = Tensor(np.full((scores.shape[0], 4), 0.5))
    with mock.patch.object(matching, "LOSS_WEIGHTS", (1.0, 0.0, 0.0)):
        return total_loss(scores, boxes, gt, tok)


def brute_force_assignments(cost):
    """All optimal assignment vectors plus the optimal cost, by full enumeration."""
    T, G = cost.shape
    best = math.inf
    argmins = []
    for perm in itertools.permutations(range(T), G):
        tot = 0.0
        for g in range(G):
            tot += float(cost[perm[g], g])
        if tot < best:
            best = tot
            argmins = [perm]
        elif tot == best:
            argmins.append(perm)
    return best, argmins


def total_cost(cost, token_for_gt) -> float:
    """An assignment's cost, summed in gt order as `brute_force_assignments` does."""
    tot = 0.0
    for g, t in enumerate(token_for_gt):
        tot += float(cost[t, g])
    return tot


def labels(token_for_gt, T) -> list:
    """The 0/1 token labels an assignment induces."""
    return [int(t in token_for_gt) for t in range(T)]


class TestHungarian:
    def test_two_by_two(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        a = hungarian_assign(cost)
        assert list(a) == [0, 1]
        assert total_cost(cost, a) == 2.0
        assert labels(a, 2) == [1, 1]

    def test_returns_token_indices(self):
        a = hungarian_assign(np.zeros((3, 2)))
        assert a.dtype == np.intp and a.shape == (2,)

    def test_one_by_one(self):
        cost = np.array([[7.0]])
        a = hungarian_assign(cost)
        assert list(a) == [0]
        assert total_cost(cost, a) == 7.0

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_matches_brute_force(self, size, rng):
        for _ in range(60):
            cost = rng.standard_normal((size, size))
            got = hungarian_assign(cost)
            best, _ = brute_force_assignments(cost)
            assert total_cost(cost, got) == best

    def test_rectangular_matches_brute_force(self, rng):
        for _ in range(60):
            T = int(rng.integers(3, 9))
            G = int(rng.integers(1, min(T, 5) + 1))
            cost = rng.standard_normal((T, G))
            got = hungarian_assign(cost)
            best, _ = brute_force_assignments(cost)
            assert total_cost(cost, got) == best

    def test_lexicographic_tie_break_all_zero(self):
        a = hungarian_assign(np.zeros((5, 3)))
        assert list(a) == [0, 1, 2]

    def test_lexicographic_tie_break_integer_ties(self, rng, monkeypatch):
        fallback = matching._lexicographic_optimum
        calls = []

        def counted(cost, cstar):
            calls.append(cost.shape)
            return fallback(cost, cstar)

        monkeypatch.setattr(matching, "_lexicographic_optimum", counted)
        for _ in range(200):
            T = int(rng.integers(1, 9))
            G = int(rng.integers(1, min(T, 4) + 1))
            cost = rng.integers(0, 3, size=(T, G)).astype(np.float64)
            got = hungarian_assign(cost)
            best, argmins = brute_force_assignments(cost)
            assert total_cost(cost, got) == best
            assert tuple(got) == min(argmins)
        assert len(calls) > 50
        assert len(set(calls)) > 10  # the fallback ran on many shapes

    def test_duplicate_rows_pick_earlier_token(self):
        row = np.array([3.0, 1.0])
        cost = np.stack([row + 5, row, row])  # tokens 1 and 2 identical
        got = hungarian_assign(cost)
        assert tuple(got) == (1, 2) or got[0] < got[1]
        best, argmins = brute_force_assignments(cost)
        assert total_cost(cost, got) == best
        assert tuple(got) == min(argmins)

    def test_more_gts_than_tokens_rejected(self):
        with pytest.raises(ShapeError):
            hungarian_assign(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian_assign(np.array([[np.nan, 1.0], [1.0, 2.0]]))

    def test_empty_gt(self):
        a = hungarian_assign(np.zeros((4, 0)))
        assert a.size == 0
        assert labels(a, 4) == [0, 0, 0, 0]

    def test_injective(self, rng):
        for _ in range(20):
            cost = rng.standard_normal((10, 4))
            a = hungarian_assign(cost)
            assert len(set(a.tolist())) == 4
            assert sum(labels(a, 10)) == 4


class TestGiou:
    def test_identical(self):
        assert giou((0.1, 0.2, 0.5, 0.9), (0.1, 0.2, 0.5, 0.9)) == pytest.approx(1.0)

    def test_adjacent_unit_boxes(self):
        # IoU 0, hull 2, union 2 -> giou exactly 0
        assert giou((0, 0, 1, 1), (1, 0, 2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_far_separation_tends_to_minus_one(self):
        prev = 1.0
        vals = []
        for dist in [1, 2, 5, 10, 100, 10000]:
            v = giou((0, 0, 1, 1), (dist, 0, dist + 1, 1))
            vals.append(v)
            assert v <= prev
            prev = v
        assert vals[-1] < -0.999

    def test_symmetry_and_bounds(self, rng):
        for _ in range(100):
            a = np.sort(rng.random(4).reshape(2, 2), axis=0).T.reshape(-1)[[0, 2, 1, 3]]
            b = np.sort(rng.random(4).reshape(2, 2), axis=0).T.reshape(-1)[[0, 2, 1, 3]]
            a = (min(a[0], a[2]), min(a[1], a[3]), max(a[0], a[2]), max(a[1], a[3]))
            b = (min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3]))
            v = giou(a, b)
            assert v == giou(b, a)
            assert -1.0 < v <= 1.0 + 1e-12

    def test_giou_leq_iou(self, rng):
        def iou(a, b):
            return float(iou_table([a], [b])[0, 0])

        for _ in range(100):
            a = rng.random(2)
            b = rng.random(2)
            box_a = (a[0], a[1], a[0] + rng.random() + 0.05, a[1] + rng.random() + 0.05)
            box_b = (b[0], b[1], b[0] + rng.random() + 0.05, b[1] + rng.random() + 0.05)
            assert giou(box_a, box_b) <= iou(box_a, box_b) + 1e-12

    def test_degenerate_zero_area(self):
        assert giou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0

    def test_pairwise_matches_scalar(self, rng):
        boxes = rng.random((6, 2))
        boxes = np.concatenate([boxes, boxes + rng.random((6, 2)) + 0.05], axis=1)
        gts = rng.random((3, 2))
        gts = np.concatenate([gts, gts + rng.random((3, 2)) + 0.05], axis=1)
        table = giou_table(boxes, gts)
        for t in range(6):
            for g in range(3):
                assert table[t, g] == giou_scalar(boxes[t], gts[g])

    def test_tensor_route_matches_scalar_oracle(self, f64, rng, monkeypatch):
        monkeypatch.setattr(matching, "LOSS_WEIGHTS", (0.0, 0.0, 1.0))
        pred = random_boxes(rng, 4)
        gt_c = cxcywh_to_corners(random_boxes(rng, 4))
        lb = total_loss(Tensor(rng.random(4)), Tensor(pred), gt_c, np.arange(4))
        want = np.mean([1.0 - giou_scalar(cxcywh_to_corners(pred[i]), gt_c[i]) for i in range(4)])
        assert lb.giou_loss == pytest.approx(want, abs=1e-12)
        assert lb.total == lb.giou_loss

    def test_giou_loss_gradcheck(self, f64, rng, monkeypatch):
        monkeypatch.setattr(matching, "LOSS_WEIGHTS", (0.0, 0.0, 1.0))
        pred = Tensor(random_boxes(rng, 3), requires_grad=True)
        gt_c = cxcywh_to_corners(random_boxes(rng, 3))
        scores = Tensor(rng.random(3))
        err = finite_difference_check(lambda: total_loss(scores, pred, gt_c, [2, 0, 1]).total_tensor,
                                      [pred], eps=1e-6)
        assert err < 1e-5


class TestBce:
    def test_half_scores_give_ln2(self, f64):
        s = Tensor(np.full(8, 0.5))
        labels = np.array([1, 0, 1, 0, 0, 0, 1, 1])
        assert score_only(s, labels).total == pytest.approx(math.log(2), abs=1e-9)

    def test_perfect_scores_drive_loss_to_zero(self):
        labels = np.array([1.0, 0.0, 1.0])
        for gap in [1e-2, 1e-4, 1e-6]:
            s = Tensor(np.abs(labels - gap))
            assert score_only(s, labels).total < -math.log(1 - gap) + 1e-6

    def test_against_direct_oracle(self, f64, rng):
        s = rng.uniform(0.05, 0.95, 12)
        y = (rng.random(12) < 0.3).astype(np.float64)
        lb = score_only(Tensor(s), y)
        want = -np.mean(y * np.log(s) + (1 - y) * np.log(1 - s))
        assert lb.score_loss == pytest.approx(want, abs=1e-12)
        assert lb.total == lb.score_loss

    def test_extreme_scores_clamped(self, f64):
        # outside the clamp the loss is finite and flat
        s = Tensor(np.array([0.0, 1.0, SCORE_EPS, 1.0 - SCORE_EPS, 0.5]), requires_grad=True)
        lb = score_only(s, np.array([0.0, 1.0, 1.0, 0.0, 1.0]))
        assert np.isfinite(lb.total)
        g = backward(lb.total_tensor)[s]
        assert np.array_equal(g[:4], np.zeros(4)) and g[4] < 0

    def test_minimized_at_labels(self, f64):
        # gradient sign on both sides of s = y
        for y, s_lo, s_hi in [(1.0, 0.6, 0.99), (0.0, 0.01, 0.4)]:
            for s in (s_lo, s_hi):
                t = Tensor(np.array([s]), requires_grad=True)
                g = backward(score_only(t, np.array([y])).total_tensor)[t][0]
                assert (g < 0) == (s < y)

    def test_gradcheck(self, f64, rng):
        p = Tensor(rng.uniform(0.1, 0.9, 10), requires_grad=True)
        y = (rng.random(10) < 0.5).astype(np.float64)
        err = finite_difference_check(lambda: score_only(p, y).total_tensor, [p], eps=1e-6)
        assert err < 1e-5


class TestCostMatrix:
    def test_perfect_token_has_smallest_column_cost(self, rng):
        gt_c = np.array([[0.2, 0.2, 0.6, 0.6]])
        gt_cs = corners_to_cxcywh(gt_c)
        boxes = rng.uniform(0.05, 0.95, (10, 4))
        boxes[3] = gt_cs[0]
        scores = rng.uniform(0.01, 0.5, 10)
        scores[3] = 0.999
        cost = build_cost_matrix(scores, boxes, gt_c)
        assert cost[:, 0].argmin() == 3

    def test_zero_weights_zero_matrix(self, rng, monkeypatch):
        monkeypatch.setattr(matching, "LOSS_WEIGHTS", (0.0, 0.0, 0.0))
        cost = build_cost_matrix(rng.random(5), rng.random((5, 4)), np.array([[0.1, 0.1, 0.5, 0.5]]))
        assert np.array_equal(cost, np.zeros((5, 1)))

    def test_matches_per_entry_evaluation(self, rng, monkeypatch):
        # three distinct weights, so that a swap of two of them shows
        w_score, w_l1, w_giou = 3.0, 5.0, 2.0
        monkeypatch.setattr(matching, "LOSS_WEIGHTS", (w_score, w_l1, w_giou))
        scores = rng.random(4)
        boxes = np.column_stack(
            [rng.uniform(0.3, 0.7, 4), rng.uniform(0.3, 0.7, 4), rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4)]
        )
        gt_c = cxcywh_to_corners(
            np.column_stack(
                [rng.uniform(0.3, 0.7, 2), rng.uniform(0.3, 0.7, 2), rng.uniform(0.1, 0.3, 2), rng.uniform(0.1, 0.3, 2)]
            )
        )
        got = build_cost_matrix(scores, boxes, gt_c)
        gt_cs = corners_to_cxcywh(gt_c)
        for t in range(4):
            for g in range(2):
                want = (
                    -w_score * scores[t]
                    + w_l1 * np.abs(boxes[t] - gt_cs[g]).sum()
                    + w_giou * (1.0 - giou(cxcywh_to_corners(boxes[t]), gt_c[g]))
                )
                assert got[t, g] == pytest.approx(want, abs=1e-12)


def pinned_loss(s, b, gt, tok, w, at):
    """The training loss at the (score, L1, GIoU) weights `w`, written out in
    numpy, with each clamp, max, min and sign fixed to the branch it takes at
    the point `at` = (s0, b0), a tie taking the gt's side. It is smooth around
    `at`, so its central differences there are the subgradient that
    `total_loss` promises."""
    s0, b0 = at
    y = np.zeros(len(s))
    y[tok] = 1.0
    sc = np.where(s0 <= SCORE_EPS, SCORE_EPS, np.where(s0 >= 1 - SCORE_EPS, 1 - SCORE_EPS, s))
    w_score, w_l1, w_giou = w
    loss = -w_score * np.mean(y * np.log(sc) + (1 - y) * np.log(1 - sc))
    if not len(tok):
        return loss

    def corners(boxes):
        c, wh = boxes[tok, :2], boxes[tok, 2:]
        return c - 0.5 * wh, c + 0.5 * wh

    (lo, hi), (lo0, hi0) = corners(b), corners(b0)
    glo, ghi = gt[:, :2], gt[:, 2:]
    ext = np.where(hi0 < ghi, hi, ghi) - np.where(lo0 > glo, lo, glo)
    ext0 = np.minimum(hi0, ghi) - np.maximum(lo0, glo)
    inter = np.where(ext0 > 0, ext, 0.0).prod(axis=1)
    union = b[tok, 2] * b[tok, 3] + (ghi - glo).prod(axis=1) - inter
    hull = (np.where(hi0 > ghi, hi, ghi) - np.where(lo0 < glo, lo, glo)).prod(axis=1)
    gi = inter / union - (hull - union) / hull
    d = b[tok] - corners_to_cxcywh(gt)
    d0 = b0[tok] - corners_to_cxcywh(gt)
    return loss + w_l1 * np.sum(np.sign(d0) * d) / len(tok) + w_giou * np.mean(1.0 - gi)


def central_differences(f, x, h=1e-6) -> np.ndarray:
    """The gradient of `f` at the vector `x`, one entry at a time."""
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in np.eye(x.size) * h])


class TestTotalLoss:
    def _random_instance(self, rng, T=8, G=3):
        scores = Tensor(rng.uniform(0.05, 0.95, T), requires_grad=True)
        boxes = Tensor(random_boxes(rng, T), requires_grad=True)
        return scores, boxes, cxcywh_to_corners(random_boxes(rng, G))

    def test_no_foreground(self, rng):
        scores = Tensor(rng.uniform(0.1, 0.9, 6), requires_grad=True)
        boxes = Tensor(rng.uniform(0.1, 0.9, (6, 4)), requires_grad=True)
        a = hungarian_assign(np.zeros((6, 0)))
        lb = total_loss(scores, boxes, np.zeros((0, 4)), a)
        assert lb.l1_loss == 0.0 and lb.giou_loss == 0.0
        want = -np.mean(np.log(1.0 - scores.data.astype(np.float64)))
        assert lb.total == pytest.approx(2.0 * want, abs=1e-12)
        assert list(backward(lb.total_tensor)) == [scores]  # the boxes get no gradient

    def test_assignment_must_cover_every_gt(self, rng):
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=2)
        with pytest.raises(ShapeError, match="does not cover 2 gts"):
            total_loss(scores, boxes, gt_c, np.array([3]))

    @pytest.mark.parametrize("token", [-1, 6, 99])
    def test_a_token_index_outside_the_tokens_is_named(self, rng, token):
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=2)
        with pytest.raises(ShapeError, match=rf"token index {token} is outside 0\.\.5"):
            total_loss(scores, boxes, gt_c, np.array([2, token]))

    @pytest.mark.parametrize("tok", [[1.7], [True], [1.0], np.array([1.0]), np.array([1], dtype=np.float32)])
    def test_a_token_index_that_is_not_an_integer_is_named(self, rng, tok):
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=1)
        with pytest.raises(ShapeError, match=r"token indices .* are not 1 distinct integers"):
            total_loss(scores, boxes, gt_c, tok)

    @pytest.mark.parametrize("tok", [[1, 1], [4, 2, 4], np.array([0, 3, 0], dtype=np.int64)])
    def test_a_token_given_to_two_gts_is_named(self, rng, tok):
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=len(tok))
        with pytest.raises(ShapeError, match=re.escape(f"token indices {list(map(int, tok))} are not {len(tok)} distinct")):
            total_loss(scores, boxes, gt_c, tok)

    @pytest.mark.parametrize("tok", [[3], np.array([3], dtype=np.uint8), np.array([3], dtype=np.int32), (3,)])
    def test_any_integer_dtype_gives_the_same_total(self, rng, tok):
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=1)
        assert total_loss(scores, boxes, gt_c, tok).total == total_loss(scores, boxes, gt_c, [3]).total

    def test_scores_and_boxes_must_be_t_and_t_by_4(self, rng):
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=1)
        for s, b in [(Tensor(np.ones((6, 1))), boxes), (scores, Tensor(np.ones((5, 4))))]:
            with pytest.raises(ShapeError, match=r"are not \(T,\) and \(T, 4\)"):
                total_loss(s, b, gt_c, [0])

    def test_one_tape_node_with_gradients_in_each_parents_dtype(self, rng):
        scores, boxes, gt_c = self._random_instance(rng)
        lb = total_loss(scores, boxes, gt_c, [5, 1, 2])
        assert tensor._topo(lb.total_tensor) == [lb.total_tensor]
        grads = backward(lb.total_tensor)
        assert lb.total_tensor.data.dtype == grads[scores].dtype == grads[boxes].dtype == np.float32

    def test_perfect_predictions_near_zero(self):
        gt_c = np.array([[0.2, 0.2, 0.6, 0.6], [0.6, 0.55, 0.9, 0.95]])
        gt_cs = corners_to_cxcywh(gt_c)
        T = 5
        boxes = np.full((T, 4), 0.5)
        boxes[0] = gt_cs[0]
        boxes[4] = gt_cs[1]
        scores = np.full(T, 1e-6)
        scores[0] = scores[4] = 1.0 - 1e-6
        cost = build_cost_matrix(scores, boxes, gt_c)
        a = hungarian_assign(cost)
        assert list(a) == [0, 4]
        lb = total_loss(Tensor(scores), Tensor(boxes), gt_c, a)
        assert lb.total < 1e-4

    def test_equals_composition_of_oracles(self, f64, rng):
        scores, boxes, gt_c = self._random_instance(rng)
        a = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt_c))
        w_score, w_l1, w_giou = matching.LOSS_WEIGHTS
        lb = total_loss(scores, boxes, gt_c, a)
        y = np.array(labels(a, scores.shape[0]))
        s_or = -np.mean(y * np.log(scores.data) + (1 - y) * np.log(1 - scores.data))
        matched = boxes.data[a]
        l1_or = np.abs(matched - corners_to_cxcywh(gt_c)).sum() / 3
        gi_or = np.mean([1.0 - giou(cxcywh_to_corners(matched[i]), gt_c[i]) for i in range(3)])
        want = w_score * s_or + w_l1 * l1_or + w_giou * gi_or
        assert lb.total == pytest.approx(want, abs=1e-12)
        assert lb.total == pytest.approx(
            w_score * lb.score_loss + w_l1 * lb.l1_loss + w_giou * lb.giou_loss,
            abs=1e-12,
        )

    def test_gradcheck_full_loss(self, f64, rng):
        scores_p = Tensor(rng.uniform(0.1, 0.9, 6), requires_grad=True)
        boxes_p = Tensor(random_boxes(rng, 6), requires_grad=True)
        gt_c = cxcywh_to_corners(np.array([[0.4, 0.4, 0.25, 0.22], [0.7, 0.6, 0.2, 0.3]]))
        a = hungarian_assign(build_cost_matrix(scores_p.data, boxes_p.data, gt_c))

        def loss():
            return total_loss(scores_p, boxes_p, gt_c, a).total_tensor

        assert finite_difference_check(loss, [scores_p, boxes_p], eps=1e-6) < 1e-5

    def test_matching_is_detached(self, f64, rng):
        # gradients depend on the discrete assignment only, not the cost path
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=2)
        a = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt_c))
        lb = total_loss(scores, boxes, gt_c, a)
        g1 = backward(lb.total_tensor)[scores].copy()
        # same assignment fed from a perturbed cost path: identical gradients
        lb2 = total_loss(scores, boxes, gt_c, a)
        g2 = backward(lb2.total_tensor)[scores]
        assert np.array_equal(g1, g2)

    @settings(max_examples=60, deadline=None)
    @given(n_tok=st.integers(1, 12), n_gt=st.integers(0, 4), tie=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_terms_and_gradient_match_numpy_oracles(self, n_tok, n_gt, tie, seed):
        rng = np.random.default_rng(seed)
        G = min(n_gt, n_tok)
        s = rng.uniform(0.01, 0.99, n_tok)
        edge = rng.random(n_tok) < 0.3  # at or beyond the clamp
        s[edge] = rng.choice([0.0, SCORE_EPS, 1.0 - SCORE_EPS, 1.0], int(edge.sum()))
        b = random_boxes(rng, n_tok)
        gt = cxcywh_to_corners(random_boxes(rng, G))
        tok = rng.permutation(n_tok)[:G]
        if tie and G:  # x0 == gx0 and cy == the gt's cy, exactly as total_loss computes them
            x0 = b[tok[0], 0] - 0.5 * b[tok[0], 2]
            gt[0, [0, 2]] = x0, x0 + (gt[0, 2] - gt[0, 0])
            b[tok[0], 1] = corners_to_cxcywh(gt[0])[1]
        w = w_score, w_l1, w_giou = tuple(rng.uniform(0.5, 3.0, 3))
        with tensor.precision("f64"), mock.patch.object(matching, "LOSS_WEIGHTS", w):
            scores, boxes = Tensor(s, requires_grad=True), Tensor(b, requires_grad=True)
            lb = total_loss(scores, boxes, gt, tok)
            grads = backward(lb.total_tensor)

        y = np.zeros(n_tok)
        y[tok] = 1.0
        sc = np.clip(s, SCORE_EPS, 1.0 - SCORE_EPS)
        assert lb.score_loss == pytest.approx(-np.mean(y * np.log(sc) + (1 - y) * np.log(1 - sc)), rel=1e-12)
        if G:
            assert lb.l1_loss == pytest.approx(np.abs(b[tok] - corners_to_cxcywh(gt)).sum() / G, rel=1e-12)
            want = np.mean(1.0 - np.diag(giou_table(cxcywh_to_corners(b[tok]), gt)))
            assert lb.giou_loss == pytest.approx(want, rel=1e-12, abs=1e-15)
        else:
            assert lb.l1_loss == lb.giou_loss == 0.0
        assert lb.total == pytest.approx(
            w_score * lb.score_loss + w_l1 * lb.l1_loss + w_giou * lb.giou_loss, rel=1e-12)

        flat = lambda x: pinned_loss(x[:n_tok], x[n_tok:].reshape(-1, 4), gt, tok, w, (s, b))
        want = central_differences(flat, np.concatenate([s, b.ravel()]))
        got = np.concatenate([grads[scores], grads.get(boxes, np.zeros_like(b)).ravel()])
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)
