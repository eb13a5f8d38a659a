from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc import metrics
from sgloc.boxes import area
from sgloc.boxes import iou as iou_table
from sgloc.data import DataConfig, generate_dataset
from sgloc.decoder import LocalizationResult
from sgloc.metrics import (
    IOU_SWEEP,
    LARGE_AREA,
    Detections,
    MetricsReport,
    average_precision,
    evaluate_queries,
)


def iou(a, b) -> float:
    """IoU of one pair, read from the pairwise table."""
    return float(iou_table([a], [b])[0, 0])


class TestIou:
    def test_identical(self):
        assert iou((1, 2, 5, 7), (1, 2, 5, 7)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_one_seventh(self):
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0, abs=1e-9)

    def test_zero_union(self):
        assert iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0


def det(box, score, scene=0):
    """One detection as a one-row `Detections`."""
    return Detections(np.array([box], dtype=np.float64), np.array([score]), np.array([scene]))


def pool(*parts):
    return Detections.concat(parts)


_Det = namedtuple("_Det", "box score scene")


def average_precision_loop(dets, gts, iou_thresh, area_range=None) -> float:
    """Oracle: the greedy loop visiting every detection and every ground truth
    of its scene, as `average_precision` computed AP before it matched by
    events. After the first line, which unpacks `dets` into records, the
    body is that version's, with `boxes.iou` imported as `iou_table`."""
    dets = [_Det(b, s, sc) for b, s, sc in zip(dets.boxes, dets.scores.tolist(), dets.scenes.tolist())]
    lo, hi = area_range if area_range is not None else (0.0, np.inf)

    per_scene = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b in gts.values()]
    gt_boxes = np.concatenate([np.zeros((0, 4)), *per_scene])
    cols, n = {}, 0  # scene id -> its columns of the IoU table
    for s, b in zip(gts, per_scene):
        cols[s] = range(n, n + len(b))
        n += len(b)
    gt_area = area(gt_boxes)
    gt_in_range = ((lo <= gt_area) & (gt_area < hi)).tolist()
    n_pos = sum(gt_in_range)
    if n_pos == 0:
        return 0.0

    det_boxes = np.asarray([d.box for d in dets], dtype=np.float64).reshape(-1, 4)
    table = iou_table(det_boxes, gt_boxes)
    det_area = area(det_boxes).tolist()
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    used = [False] * n
    flags = []  # 1 = TP, 0 = FP; ignored detections are left out
    for i in order:
        best_j, best_iou = -1, iou_thresh
        best_ign_j, best_ign_iou = -1, iou_thresh
        scene_cols = cols.get(dets[i].scene, range(0))
        row = table[i, scene_cols.start : scene_cols.stop].tolist()
        for j, v in zip(scene_cols, row):
            if used[j]:
                continue
            if gt_in_range[j]:
                if v >= best_iou:
                    best_iou, best_j = v, j
            elif v >= best_ign_iou:
                best_ign_iou, best_ign_j = v, j
        if best_j >= 0:
            used[best_j] = True
            flags.append(1)
        elif best_ign_j >= 0:
            used[best_ign_j] = True  # matched an out-of-range gt: ignore
        elif lo <= det_area[i] < hi:
            flags.append(0)

    if not flags:
        return 0.0
    tp = np.cumsum(np.array(flags) == 1)
    fp = np.cumsum(np.array(flags) == 0)
    recall = tp / n_pos
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope, then 101-point interpolation
    env = np.maximum.accumulate(precision[::-1])[::-1]
    out = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        k = np.searchsorted(recall, r, side="left")
        out += env[k] if k < len(env) else 0.0
    return out / 101.0


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        assert average_precision(det((0, 0, 10, 10), 0.9), gts, 0.5) == pytest.approx(1.0)

    def test_no_detections(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        assert average_precision(pool(), gts, 0.5) == 0.0

    def test_three_det_two_gt_hand_computed(self):
        # order: TP (gt A), FP, TP (gt B)
        gts = {0: np.array([[0, 0, 10, 10], [20, 20, 30, 30]])}
        dets = pool(
            det((0, 0, 10, 10), 0.9),
            det((40, 40, 50, 50), 0.8),
            det((20, 20, 30, 30), 0.7),
        )
        # precision envelope: 1.0 up to recall 0.5, then 2/3
        want = (51 * 1.0 + 50 * (2.0 / 3.0)) / 101.0
        assert average_precision(dets, gts, 0.5) == pytest.approx(want, abs=1e-12)

    def test_duplicate_detection_counts_once(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        dets = pool(det((0, 0, 10, 10), 0.9), det((0, 0, 10, 10), 0.8))
        # second det is an FP: precision envelope 1.0 up to recall 1.0
        ap = average_precision(dets, gts, 0.5)
        assert ap == pytest.approx(1.0)
        # but three duplicates with a miss in between drop precision after recall 1
        assert average_precision(pool(dets, det((0, 0, 10, 10), 0.7)), gts, 0.5) == pytest.approx(1.0)

    def test_monotone_in_threshold(self, rng):
        gts = {0: rng.uniform(0, 30, (3, 2))}
        gts = {0: np.concatenate([gts[0], gts[0] + rng.uniform(5, 20, (3, 2))], axis=1)}
        dets = [det(gts[0][i] + rng.uniform(-3, 3, 4), rng.random()) for i in range(3)]
        dets += [det(rng.uniform(0, 50, 4), rng.random()) for _ in range(4)]
        dets = pool(*dets)
        prev = 1.1
        for t in IOU_SWEEP:
            ap = average_precision(dets, gts, t)
            assert ap <= prev + 1e-12
            prev = ap

    def test_cross_scene_pooling(self):
        gts = {0: np.array([[0, 0, 10, 10]]), 1: np.array([[0, 0, 10, 10]])}
        dets = pool(det((0, 0, 10, 10), 0.9, scene=0), det((0, 0, 10, 10), 0.8, scene=1))
        assert average_precision(dets, gts, 0.5) == pytest.approx(1.0)

    def test_area_range_ignores_small(self):
        gts = {0: np.array([[0, 0, 30, 30], [40, 40, 44, 44]])}  # large + small
        dets = pool(det((0, 0, 30, 30), 0.9), det((40, 40, 44, 44), 0.8))
        ap_l = average_precision(dets, gts, 0.5, area_range=(LARGE_AREA, np.inf))
        assert ap_l == pytest.approx(1.0)  # small gt and its detection both ignored


@st.composite
def ap_cases(draw):
    """(dets, gts, iou_thresh, area_range) on a small integer grid, so score
    ties, IoU ties and zero-area boxes are common, and most detections are a
    ground truth shifted by at most one step. Boxes are scaled by 1 or 5
    so that every area range holds some boxes and misses others. Scenes may
    have no ground truths, and scene 3 is never in `gts`."""
    unit = draw(st.sampled_from([1.0, 5.0]))

    def boxes(n):
        x0 = draw(st.lists(st.integers(0, 8), min_size=2 * n, max_size=2 * n))
        wh = draw(st.lists(st.integers(0, 5), min_size=2 * n, max_size=2 * n))
        xy = np.reshape(x0, (n, 2))
        return unit * np.concatenate([xy, xy + np.reshape(wh, (n, 2))], axis=1).astype(np.float64)

    gts = {sc: boxes(draw(st.integers(0, 4))) for sc in range(draw(st.integers(0, 3)))}
    n = draw(st.integers(0, 14))
    score = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    scores = np.array(draw(st.lists(score, min_size=n, max_size=n)), dtype=np.float64)
    scenes = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    det_boxes = boxes(n)
    for i, sc in enumerate(scenes):  # most detections shift a ground truth of their scene
        near = gts.get(sc, np.zeros((0, 4)))
        if len(near) and draw(st.integers(0, 3)):
            shift = draw(st.lists(st.integers(-1, 1), min_size=4, max_size=4))
            det_boxes[i] = near[draw(st.integers(0, len(near) - 1))] + unit * np.array(shift)
    dets = Detections(det_boxes, scores, scenes)
    thresh = draw(st.sampled_from(IOU_SWEEP + (0.0, 1.0)))
    area_range = draw(st.sampled_from([None, (4 * unit**2, 16 * unit**2), (LARGE_AREA, np.inf)]))
    return dets, gts, thresh, area_range


class TestEqualsGreedyLoop:
    """Event-driven matching gives exactly the AP of the loop over every
    detection and every ground truth of its scene."""

    @settings(max_examples=600, deadline=None)
    @given(case=ap_cases())
    def test_bit_equal(self, case):
        dets, gts, thresh, area_range = case
        assert average_precision(dets, gts, thresh, area_range) == average_precision_loop(
            dets, gts, thresh, area_range
        )

    def test_empty_detections(self):
        gts = {0: np.array([[0.0, 0.0, 10.0, 10.0]]), 1: np.zeros((0, 4))}
        assert len(pool()) == 0
        for area_range in (None, (LARGE_AREA, np.inf)):
            assert average_precision(pool(), gts, 0.5, area_range) == 0.0
            assert average_precision_loop(pool(), gts, 0.5, area_range) == 0.0

    def test_detection_matching_an_ignored_ground_truth_is_not_a_false_positive(self):
        # The first detection is large, but its best live match is a small
        # gt: it is ignored, so the large gt's detection keeps precision 1.
        gts = {0: np.array([[0.0, 0.0, 19.0, 19.0], [40.0, 40.0, 60.0, 60.0]])}
        dets = pool(det((0, 0, 20, 20), 0.9), det((40, 40, 60, 60), 0.8))
        large = (LARGE_AREA, np.inf)
        assert average_precision(dets, gts, 0.5, large) == average_precision_loop(dets, gts, 0.5, large)
        assert average_precision(dets, gts, 0.5, large) == pytest.approx(1.0)

    def test_ties_take_the_last_maximal_ground_truth(self):
        # Both gts overlap the first detection with IoU 2/3; it takes gt 1,
        # leaving gt 0 to the second detection, which overlaps only gt 0.
        gts = {0: np.array([[0.0, 0.0, 2.0, 2.0], [1.0, 0.0, 3.0, 2.0]])}
        dets = pool(det((0, 0, 3, 2), 0.9), det((0, 0, 2, 2), 0.9))
        assert average_precision(dets, gts, 0.5) == average_precision_loop(dets, gts, 0.5) == 1.0


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("metrics_corpus"))
    cfg = DataConfig(n_train=6, n_val=8, seed=21, sketches_per_class=6, val_sketches_per_class=2)
    return generate_dataset(cfg, out)


class OracleModel:
    """Injects the ground-truth boxes of the queried class at score 0.99."""

    def __init__(self, dataset):
        self.dataset = dataset
        self._scene_by_bytes = {
            dataset.load_scene(sid).tobytes(): sid
            for sid in dataset.scene_ids("train") + dataset.scene_ids("val")
        }
        self._cls_by_bytes = {}
        for c in range(len(dataset.class_names)):
            for rel in dataset.split.val_sketches[c]:
                self._cls_by_bytes[dataset.load_sketch(rel).tobytes()] = c

    def localize(self, image, sketches, threshold=0.0):
        sid = self._scene_by_bytes[image.tobytes()]
        cls = self._cls_by_bytes[sketches[0].tobytes()]
        ann = self.dataset.annotation(sid)
        size = float(self.dataset.image_size)
        dets = []
        for box, c in zip(ann.boxes, ann.classes):
            if c != cls:
                continue
            cx = (box[0] + box[2]) / 2 / size
            cy = (box[1] + box[3]) / 2 / size
            w = (box[2] - box[0]) / size
            h = (box[3] - box[1]) / size
            dets.append((np.array([cx, cy, w, h]), 0.99))
        return LocalizationResult(dets)


class RandomModel:
    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)

    def localize(self, image, sketches, threshold=0.0):
        dets = []
        for _ in range(20):
            c = self.rng.uniform(0.2, 0.8, 2)
            wh = self.rng.uniform(0.05, 0.4, 2)
            dets.append((np.array([c[0], c[1], wh[0], wh[1]]), float(self.rng.random())))
        return LocalizationResult(dets)


class NoisyOracleModel(OracleModel):
    """The oracle's boxes jittered and mixed with random ones, all at scores
    drawn from a few values, so matching sees TPs, FPs and score ties."""

    def __init__(self, dataset, seed=0):
        super().__init__(dataset)
        self.rng = np.random.default_rng(seed)
        self.random = RandomModel(seed)

    def localize(self, image, sketches, threshold=0.0):
        dets = super().localize(image, sketches, threshold).detections
        dets = dets + self.random.localize(image, sketches, threshold).detections[:6]
        return LocalizationResult(
            [(b + self.rng.normal(0.0, 0.02, 4), float(self.rng.integers(1, 5)) / 4) for b, _ in dets]
        )


MODELS = {
    "random": lambda ds: RandomModel(4),
    "oracle": OracleModel,
    "noisy-oracle": NoisyOracleModel,
}


class TestReportEqualsLoopReference:
    """The whole report is unchanged when every AP call goes through the
    greedy loop instead."""

    @pytest.mark.parametrize("protocol", ["1Q", "5Q"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_report_equal(self, tiny_corpus, monkeypatch, protocol, model):
        got = evaluate_queries(MODELS[model](tiny_corpus), tiny_corpus, protocol, "val", seed=2)
        monkeypatch.setattr(metrics, "average_precision", average_precision_loop)
        want = evaluate_queries(MODELS[model](tiny_corpus), tiny_corpus, protocol, "val", seed=2)
        assert got.per_class == want.per_class
        assert (got.map, got.ap50, got.ap_large) == (want.map, want.ap50, want.ap_large)
        assert got.counts == want.counts


class TestEvaluateQueries:
    def test_oracle_model_reaches_map_one(self, tiny_corpus):
        report = evaluate_queries(OracleModel(tiny_corpus), tiny_corpus, "1Q", "val")
        assert report.map == pytest.approx(1.0)
        assert report.ap50 == pytest.approx(1.0)

    def test_random_model_near_zero(self, tiny_corpus):
        report = evaluate_queries(RandomModel(), tiny_corpus, "1Q", "val")
        assert report.ap50 < 0.05

    def test_ap50_at_least_map(self, tiny_corpus):
        for model in (OracleModel(tiny_corpus), RandomModel(3)):
            r = evaluate_queries(model, tiny_corpus, "1Q", "val")
            assert r.ap50 >= r.map - 1e-12

    def test_deterministic_reports(self, tiny_corpus):
        a = evaluate_queries(RandomModel(5), tiny_corpus, "1Q", "val", seed=1)
        b = evaluate_queries(RandomModel(5), tiny_corpus, "1Q", "val", seed=1)
        assert a.to_json() == b.to_json()

    def test_json_schema(self, tiny_corpus):
        import json

        r = evaluate_queries(OracleModel(tiny_corpus), tiny_corpus, "1Q", "val")
        parsed = json.loads(r.to_json())
        assert set(parsed) == {"map", "ap50", "ap_large", "per_class", "counts"}
        assert parsed["counts"] == r.counts and r.counts["queries"] > 0

    def test_table_alignment(self, tiny_corpus):
        r = evaluate_queries(OracleModel(tiny_corpus), tiny_corpus, "1Q", "val")
        lines = r.to_table().splitlines()
        assert lines[0].startswith("class")
        assert lines[-1].startswith("ALL")

    def test_unknown_protocol(self, tiny_corpus):
        with pytest.raises(ValueError):
            evaluate_queries(RandomModel(), tiny_corpus, "3Q", "val")
