import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc import boxes


# Reference oracles: the one-pair formulas the pairwise tables must equal
# exactly, operation for operation.


def iou_scalar(a, b) -> float:
    """Intersection over union of two corner-form boxes; 0 when the union is empty."""
    ax0, ay0, ax1, ay1 = (float(v) for v in a)
    bx0, by0, bx1, by1 = (float(v) for v in b)
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    area_a = max(0.0, ax1 - ax0) * max(0.0, ay1 - ay0)
    area_b = max(0.0, bx1 - bx0) * max(0.0, by1 - by0)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def giou_scalar(a, b) -> float:
    """Generalized IoU of two corner-form boxes, in (-1, 1].

    IoU minus the fraction of the enclosing box not covered by the union.
    Degenerate zero-area inputs yield IoU 0.
    """
    ax0, ay0, ax1, ay1 = (float(v) for v in a)
    bx0, by0, bx1, by1 = (float(v) for v in b)
    area_a = max(0.0, ax1 - ax0) * max(0.0, ay1 - ay0)
    area_b = max(0.0, bx1 - bx0) * max(0.0, by1 - by0)
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = area_a + area_b - inter
    iou = inter / union if union > 0 else 0.0
    hull = (max(ax1, bx1) - min(ax0, bx0)) * (max(ay1, by1) - min(ay0, by0))
    if hull <= 0:
        return iou
    return iou - (hull - union) / hull


# Coordinates in any order, so zero-area and inverted boxes are drawn too;
# small integers make zero extents and shared edges common.
_floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
_ints = st.integers(-8, 72)
_any_box = st.one_of(st.tuples(_floats, _floats, _floats, _floats), st.tuples(_ints, _ints, _ints, _ints))
_box_sets = st.lists(_any_box, min_size=0, max_size=5)


@st.composite
def _valid_int_box(draw):
    x0, y0 = draw(_ints), draw(_ints)
    return (x0, y0, x0 + draw(st.integers(0, 40)), y0 + draw(st.integers(0, 40)))


class TestPairwiseEqualsOracle:
    @settings(max_examples=300, deadline=None)
    @given(_box_sets, _box_sets)
    def test_iou(self, a, b):
        table = boxes.iou(a, b)
        assert table.shape == (len(a), len(b))
        for i, bi in enumerate(a):
            for j, bj in enumerate(b):
                assert table[i, j] == iou_scalar(bi, bj)

    @settings(max_examples=300, deadline=None)
    @given(_box_sets, _box_sets)
    def test_giou(self, a, b):
        table = boxes.giou(a, b)
        assert table.shape == (len(a), len(b))
        for i, bi in enumerate(a):
            for j, bj in enumerate(b):
                assert table[i, j] == giou_scalar(bi, bj)

    @settings(max_examples=300, deadline=None)
    @given(_any_box)
    def test_area(self, b):
        x0, y0, x1, y1 = (float(v) for v in b)
        assert boxes.area(b) == max(0.0, x1 - x0) * max(0.0, y1 - y0)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(_any_box, _any_box)
    def test_giou_at_most_iou(self, a, b):
        # Rounding in the union can put the float GIoU an ulp above the IoU.
        assert boxes.giou([a], [b])[0, 0] <= boxes.iou([a], [b])[0, 0] + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(_valid_int_box(), _valid_int_box())
    def test_giou_at_most_iou_exact_on_integer_boxes(self, a, b):
        assert boxes.giou([a], [b])[0, 0] <= boxes.iou([a], [b])[0, 0]

    @settings(max_examples=300, deadline=None)
    @given(_any_box)
    def test_conversions_round_trip(self, b):
        b = np.asarray(b, dtype=np.float64)
        # a few roundings, each at most half an ulp of a value below 2 * max|b|
        tol = 8 * np.finfo(np.float64).eps * max(1.0, float(np.abs(b).max()))
        np.testing.assert_allclose(boxes.cxcywh_to_corners(boxes.corners_to_cxcywh(b)), b, rtol=0, atol=tol)
        np.testing.assert_allclose(boxes.corners_to_cxcywh(boxes.cxcywh_to_corners(b)), b, rtol=0, atol=tol)

    @settings(max_examples=300, deadline=None)
    @given(_valid_int_box())
    def test_conversions_round_trip_exact_on_integer_boxes(self, b):
        assert boxes.cxcywh_to_corners(boxes.corners_to_cxcywh(b)).tolist() == list(map(float, b))
