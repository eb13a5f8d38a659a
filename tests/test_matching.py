import itertools
import math

import numpy as np
import pytest

from sgloc import matching
from sgloc.boxes import corners_to_cxcywh, cxcywh_to_corners
from sgloc.boxes import giou as giou_table
from sgloc.boxes import iou as iou_table
from sgloc.matching import (
    LossWeights,
    bce_score_loss,
    build_cost_matrix,
    giou_loss_matched,
    hungarian_assign,
    l1_loss_matched,
    total_loss,
)
from sgloc.tensor import ShapeError, Tensor, backward, finite_difference_check, sum_all
from test_boxes import giou_scalar


def giou(a, b) -> float:
    """GIoU of one pair, read from the pairwise table."""
    return float(giou_table([a], [b])[0, 0])


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

    def test_tensor_route_matches_scalar_oracle(self, f64, rng):
        pred = np.column_stack(
            [rng.uniform(0.3, 0.7, 4), rng.uniform(0.3, 0.7, 4), rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4)]
        )
        gt_c = cxcywh_to_corners(
            np.column_stack(
                [rng.uniform(0.3, 0.7, 4), rng.uniform(0.3, 0.7, 4), rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4)]
            )
        )
        got = giou_loss_matched(Tensor(pred), gt_c).item()
        want = np.mean([1.0 - giou_scalar(cxcywh_to_corners(pred[i]), gt_c[i]) for i in range(4)])
        assert got == pytest.approx(want, abs=1e-9)

    def test_giou_loss_gradcheck(self, f64, rng):
        pred = Tensor(
            np.column_stack(
                [rng.uniform(0.3, 0.7, 3), rng.uniform(0.3, 0.7, 3), rng.uniform(0.1, 0.3, 3), rng.uniform(0.1, 0.3, 3)]
            ),
            requires_grad=True,
        )
        gt_c = cxcywh_to_corners(
            np.column_stack(
                [rng.uniform(0.3, 0.7, 3), rng.uniform(0.3, 0.7, 3), rng.uniform(0.1, 0.3, 3), rng.uniform(0.1, 0.3, 3)]
            )
        )
        err = finite_difference_check(lambda: giou_loss_matched(pred, gt_c), [pred], eps=1e-6)
        assert err < 1e-5


class TestBce:
    def test_half_scores_give_ln2(self, f64):
        s = Tensor(np.full(8, 0.5))
        labels = np.array([1, 0, 1, 0, 0, 0, 1, 1])
        assert bce_score_loss(s, labels).item() == pytest.approx(math.log(2), abs=1e-9)

    def test_perfect_scores_drive_loss_to_zero(self):
        labels = np.array([1.0, 0.0, 1.0])
        for gap in [1e-2, 1e-4, 1e-6]:
            s = Tensor(np.abs(labels - gap))
            assert bce_score_loss(s, labels).item() < -math.log(1 - gap) + 1e-6

    def test_against_direct_oracle(self, f64, rng):
        s = rng.uniform(0.05, 0.95, 12)
        y = (rng.random(12) < 0.3).astype(np.float64)
        got = bce_score_loss(Tensor(s), y).item()
        want = -np.mean(y * np.log(s) + (1 - y) * np.log(1 - s))
        assert got == pytest.approx(want, abs=1e-12)

    def test_extreme_scores_clamped(self):
        s = Tensor(np.array([0.0, 1.0]))
        out = bce_score_loss(s, np.array([0.0, 1.0])).item()
        assert np.isfinite(out)

    def test_minimized_at_labels(self, f64):
        # gradient sign on both sides of s = y
        for y, s_lo, s_hi in [(1.0, 0.6, 0.99), (0.0, 0.01, 0.4)]:
            for s in (s_lo, s_hi):
                t = Tensor(np.array([s]), requires_grad=True)
                g = backward(bce_score_loss(t, np.array([y])))[t][0]
                assert (g < 0) == (s < y)

    def test_gradcheck(self, f64, rng):
        p = Tensor(rng.uniform(0.1, 0.9, 10), requires_grad=True)
        y = (rng.random(10) < 0.5).astype(np.float64)
        err = finite_difference_check(lambda: bce_score_loss(p, y), [p], eps=1e-6)
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

    def test_zero_weights_zero_matrix(self, rng):
        cost = build_cost_matrix(
            rng.random(5),
            rng.random((5, 4)),
            np.array([[0.1, 0.1, 0.5, 0.5]]),
            LossWeights(0.0, 0.0, 0.0),
        )
        assert np.array_equal(cost, np.zeros((5, 1)))

    def test_matches_per_entry_evaluation(self, rng):
        w = LossWeights(2.0, 5.0, 2.0)
        scores = rng.random(4)
        boxes = np.column_stack(
            [rng.uniform(0.3, 0.7, 4), rng.uniform(0.3, 0.7, 4), rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4)]
        )
        gt_c = cxcywh_to_corners(
            np.column_stack(
                [rng.uniform(0.3, 0.7, 2), rng.uniform(0.3, 0.7, 2), rng.uniform(0.1, 0.3, 2), rng.uniform(0.1, 0.3, 2)]
            )
        )
        got = build_cost_matrix(scores, boxes, gt_c, w)
        gt_cs = corners_to_cxcywh(gt_c)
        for t in range(4):
            for g in range(2):
                want = (
                    -w.lam_cls * scores[t]
                    + w.lam_l1 * np.abs(boxes[t] - gt_cs[g]).sum()
                    + w.lam_giou * (1.0 - giou(cxcywh_to_corners(boxes[t]), gt_c[g]))
                )
                assert got[t, g] == pytest.approx(want, abs=1e-12)


class TestTotalLoss:
    def _random_instance(self, rng, T=8, G=3):
        scores = Tensor(rng.uniform(0.05, 0.95, T), requires_grad=True)
        boxes = Tensor(
            np.column_stack(
                [rng.uniform(0.3, 0.7, T), rng.uniform(0.3, 0.7, T), rng.uniform(0.1, 0.3, T), rng.uniform(0.1, 0.3, T)]
            ),
            requires_grad=True,
        )
        gt_c = cxcywh_to_corners(
            np.column_stack(
                [rng.uniform(0.3, 0.7, G), rng.uniform(0.3, 0.7, G), rng.uniform(0.1, 0.3, G), rng.uniform(0.1, 0.3, G)]
            )
        )
        return scores, boxes, gt_c

    def test_no_foreground(self, rng):
        scores = Tensor(rng.uniform(0.1, 0.9, 6))
        boxes = Tensor(rng.uniform(0.1, 0.9, (6, 4)))
        a = hungarian_assign(np.zeros((6, 0)))
        lb = total_loss(scores, boxes, np.zeros((0, 4)), a)
        assert lb.l1_loss == 0.0 and lb.giou_loss == 0.0
        want = bce_score_loss(Tensor(scores.data), np.zeros(6)).item()
        assert lb.total == pytest.approx(2.0 * want, abs=1e-9)

    def test_assignment_must_cover_every_gt(self, rng):
        scores, boxes, gt_c = self._random_instance(rng, T=6, G=2)
        with pytest.raises(ShapeError, match="does not cover 2 gts"):
            total_loss(scores, boxes, gt_c, np.array([3]))

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
        w = LossWeights()
        lb = total_loss(scores, boxes, gt_c, a, w)
        s_or = bce_score_loss(Tensor(scores.data), labels(a, scores.shape[0])).item()
        matched = boxes.data[a]
        l1_or = l1_loss_matched(Tensor(matched), gt_c).item()
        gi_or = np.mean([1.0 - giou(cxcywh_to_corners(matched[i]), gt_c[i]) for i in range(3)])
        want = w.lam_cls * s_or + w.lam_l1 * l1_or + w.lam_giou * gi_or
        assert lb.total == pytest.approx(want, abs=1e-9)
        assert lb.total == pytest.approx(
            w.lam_cls * lb.score_loss + w.lam_l1 * lb.l1_loss + w.lam_giou * lb.giou_loss,
            abs=1e-9,
        )

    def test_gradcheck_full_loss(self, f64, rng):
        scores_p = Tensor(rng.uniform(0.1, 0.9, 6), requires_grad=True)
        boxes_p = Tensor(
            np.column_stack(
                [rng.uniform(0.3, 0.7, 6), rng.uniform(0.3, 0.7, 6), rng.uniform(0.1, 0.3, 6), rng.uniform(0.1, 0.3, 6)]
            ),
            requires_grad=True,
        )
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
