import numpy as np
import pytest

from sgloc.data import DataConfig, generate_dataset
from sgloc.decoder import LocalizationResult
from sgloc.metrics import (
    IOU_SWEEP,
    LARGE_AREA,
    Detection,
    MetricsReport,
    average_precision,
    evaluate_queries,
)
from sgloc.boxes import iou as iou_table


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
    return Detection(np.array(box, dtype=np.float64), score, scene)


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        assert average_precision([det((0, 0, 10, 10), 0.9)], gts, 0.5) == pytest.approx(1.0)

    def test_no_detections(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        assert average_precision([], gts, 0.5) == 0.0

    def test_three_det_two_gt_hand_computed(self):
        # order: TP (gt A), FP, TP (gt B)
        gts = {0: np.array([[0, 0, 10, 10], [20, 20, 30, 30]])}
        dets = [
            det((0, 0, 10, 10), 0.9),
            det((40, 40, 50, 50), 0.8),
            det((20, 20, 30, 30), 0.7),
        ]
        # precision envelope: 1.0 up to recall 0.5, then 2/3
        want = (51 * 1.0 + 50 * (2.0 / 3.0)) / 101.0
        assert average_precision(dets, gts, 0.5) == pytest.approx(want, abs=1e-12)

    def test_duplicate_detection_counts_once(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        dets = [det((0, 0, 10, 10), 0.9), det((0, 0, 10, 10), 0.8)]
        # second det is an FP: precision envelope 1.0 up to recall 1.0
        ap = average_precision(dets, gts, 0.5)
        assert ap == pytest.approx(1.0)
        # but three duplicates with a miss in between drop precision after recall 1
        assert average_precision(dets + [det((0, 0, 10, 10), 0.7)], gts, 0.5) == pytest.approx(1.0)

    def test_monotone_in_threshold(self, rng):
        gts = {0: rng.uniform(0, 30, (3, 2))}
        gts = {0: np.concatenate([gts[0], gts[0] + rng.uniform(5, 20, (3, 2))], axis=1)}
        dets = [det(gts[0][i] + rng.uniform(-3, 3, 4), rng.random()) for i in range(3)]
        dets += [det(rng.uniform(0, 50, 4), rng.random()) for _ in range(4)]
        prev = 1.1
        for t in IOU_SWEEP:
            ap = average_precision(dets, gts, t)
            assert ap <= prev + 1e-12
            prev = ap

    def test_cross_scene_pooling(self):
        gts = {0: np.array([[0, 0, 10, 10]]), 1: np.array([[0, 0, 10, 10]])}
        dets = [det((0, 0, 10, 10), 0.9, scene=0), det((0, 0, 10, 10), 0.8, scene=1)]
        assert average_precision(dets, gts, 0.5) == pytest.approx(1.0)

    def test_area_range_ignores_small(self):
        gts = {0: np.array([[0, 0, 30, 30], [40, 40, 44, 44]])}  # large + small
        dets = [det((0, 0, 30, 30), 0.9), det((40, 40, 44, 44), 0.8)]
        ap_l = average_precision(dets, gts, 0.5, area_range=(LARGE_AREA, np.inf))
        assert ap_l == pytest.approx(1.0)  # small gt and its detection both ignored


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
        assert set(parsed) == {"map", "ap50", "ap_large", "per_class"}

    def test_table_alignment(self, tiny_corpus):
        r = evaluate_queries(OracleModel(tiny_corpus), tiny_corpus, "1Q", "val")
        lines = r.to_table().splitlines()
        assert lines[0].startswith("class")
        assert lines[-1].startswith("ALL")

    def test_unknown_protocol(self, tiny_corpus):
        with pytest.raises(ValueError):
            evaluate_queries(RandomModel(), tiny_corpus, "3Q", "val")
