from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc import metrics
from sgloc.boxes import area
from sgloc.boxes import iou as iou_table
from sgloc.data import DataConfig, generate_dataset
from sgloc.metrics import (
    IOU_SWEEP,
    LARGE_AREA,
    Detections,
    MetricsReport,
    average_precision,
    evaluate_queries,
)
from sgloc.tensor import no_grad
from test_decoder import result_of
from test_encoder import tiny_model


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
        assert average_precision(det((0, 0, 10, 10), 0.9), gts, [0.5]) == pytest.approx([1.0])

    def test_no_detections(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        assert average_precision(pool(), gts, [0.5]) == [0.0]

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
        assert average_precision(dets, gts, [0.5]) == pytest.approx([want], abs=1e-12)

    def test_duplicate_detection_counts_once(self):
        gts = {0: np.array([[0, 0, 10, 10]])}
        dets = pool(det((0, 0, 10, 10), 0.9), det((0, 0, 10, 10), 0.8))
        # second det is an FP: precision envelope 1.0 up to recall 1.0
        ap = average_precision(dets, gts, [0.5])
        assert ap == pytest.approx([1.0])
        # but three duplicates with a miss in between drop precision after recall 1
        assert average_precision(pool(dets, det((0, 0, 10, 10), 0.7)), gts, [0.5]) == pytest.approx([1.0])

    def test_monotone_in_threshold(self, rng):
        gts = {0: rng.uniform(0, 30, (3, 2))}
        gts = {0: np.concatenate([gts[0], gts[0] + rng.uniform(5, 20, (3, 2))], axis=1)}
        dets = [det(gts[0][i] + rng.uniform(-3, 3, 4), rng.random()) for i in range(3)]
        dets += [det(rng.uniform(0, 50, 4), rng.random()) for _ in range(4)]
        dets = pool(*dets)
        aps = average_precision(dets, gts, IOU_SWEEP)
        assert len(aps) == len(IOU_SWEEP)
        assert all(b <= a + 1e-12 for a, b in zip(aps, aps[1:]))

    def test_cross_scene_pooling(self):
        gts = {0: np.array([[0, 0, 10, 10]]), 1: np.array([[0, 0, 10, 10]])}
        dets = pool(det((0, 0, 10, 10), 0.9, scene=0), det((0, 0, 10, 10), 0.8, scene=1))
        assert average_precision(dets, gts, [0.5]) == pytest.approx([1.0])

    def test_area_range_ignores_small(self):
        gts = {0: np.array([[0, 0, 30, 30], [40, 40, 44, 44]])}  # large + small
        dets = pool(det((0, 0, 30, 30), 0.9), det((40, 40, 44, 44), 0.8))
        ap_l = average_precision(dets, gts, [0.5], area_range=(LARGE_AREA, np.inf))
        assert ap_l == pytest.approx([1.0])  # small gt and its detection both ignored

    def test_each_threshold_in_the_order_given(self):
        # IoU 0.64 with the one gt: a hit up to 0.64, a miss above it
        gts = {0: np.array([[0.0, 0.0, 10.0, 10.0]])}
        dets = det((2, 2, 10, 10), 0.9)
        assert average_precision(dets, gts, [0.9, 0.5, 0.9, 0.64, 1.0]) == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_no_counted_ground_truth_scores_zero_at_every_threshold(self):
        gts = {0: np.array([[0.0, 0.0, 10.0, 10.0]])}
        assert average_precision(det((0, 0, 10, 10), 0.9), gts, IOU_SWEEP, (LARGE_AREA, np.inf)) == [0.0] * 10
        assert average_precision(det((0, 0, 10, 10), 0.9), {}, [0.5, 0.7]) == [0.0, 0.0]


class TestThresholdsAreChecked:
    """Thresholds outside (0, 1] would score boxes that do not overlap (0 or
    below) or score nothing (above 1, NaN); a bare number is the old
    signature. Each raises a named ValueError."""

    GTS = {0: np.array([[0.0, 0.0, 10.0, 10.0]])}

    @pytest.mark.parametrize("t", [0.0, -1.0, 1.0000001, 2.0, float("nan"), float("inf"), -float("inf")])
    def test_a_threshold_outside_the_unit_interval_is_refused(self, t):
        far = det((40, 40, 50, 50), 0.9)
        with pytest.raises(ValueError, match=r"an IoU threshold must be a finite number in \(0, 1\]"):
            average_precision(far, self.GTS, [0.5, t])

    @pytest.mark.parametrize("t", [True, "0.5", None, 1j])
    def test_a_threshold_that_is_not_a_real_number_is_refused(self, t):
        with pytest.raises(ValueError, match="an IoU threshold must be a finite number"):
            average_precision(pool(), self.GTS, [t])

    @pytest.mark.parametrize("sweep", [[], (), np.zeros(0)])
    def test_an_empty_sweep_is_refused(self, sweep):
        with pytest.raises(ValueError, match="IoU thresholds must not be empty"):
            average_precision(pool(), self.GTS, sweep)

    @pytest.mark.parametrize("bare", [0.5, np.float64(0.5), 1, np.array(0.5), "0.5", np.full((2, 2), 0.5)])
    def test_a_bare_number_is_refused_by_name(self, bare):
        with pytest.raises(ValueError, match="IoU thresholds must be a sequence of numbers"):
            average_precision(det((0, 0, 10, 10), 0.9), self.GTS, bare)

    def test_the_interval_ends(self):
        hit = det((0, 0, 10, 10), 0.9)
        far = det((40, 40, 50, 50), 0.9)
        assert average_precision(hit, self.GTS, (1.0, np.float32(1.0))) == [1.0, 1.0]
        assert average_precision(far, self.GTS, [np.nextafter(0.0, 1.0)]) == [0.0]
        sweep = average_precision(hit, self.GTS, IOU_SWEEP)
        assert average_precision(hit, self.GTS, np.array(IOU_SWEEP)) == sweep == [1.0] * 10


@st.composite
def ap_cases(draw):
    """(dets, gts, thresholds, area_range) on a small integer grid, so score
    ties, IoU ties and zero-area boxes are common, and most detections are a
    ground truth shifted by at most one step. Boxes are scaled by 1 or 5
    so that every area range holds some boxes and misses others. Scenes may
    have no ground truths, and scene 3 is never in `gts`. The thresholds come
    in any order, often repeated, mostly from the sweep."""
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
    threshold = st.one_of(st.sampled_from(IOU_SWEEP + (1.0,)), st.floats(0.0, 1.0, exclude_min=True))
    thresholds = draw(st.lists(threshold, min_size=1, max_size=12))
    area_range = draw(st.sampled_from([None, (4 * unit**2, 16 * unit**2), (LARGE_AREA, np.inf)]))
    return dets, gts, thresholds, area_range


def sweep_loop(dets, gts, thresholds, area_range=None) -> list:
    """The oracle for a sweep: one greedy loop per threshold."""
    return [average_precision_loop(dets, gts, t, area_range) for t in thresholds]


class TestEqualsGreedyLoop:
    """Event-driven matching gives exactly the AP of the loop over every
    detection and every ground truth of its scene, at each threshold of a
    sweep."""

    @settings(max_examples=600, deadline=None)
    @given(case=ap_cases())
    def test_bit_equal(self, case):
        dets, gts, thresholds, area_range = case
        want = sweep_loop(dets, gts, thresholds, area_range)
        assert average_precision(dets, gts, thresholds, area_range) == want

    @pytest.mark.parametrize("area_range", [None, (LARGE_AREA, np.inf)])
    def test_unsorted_and_repeated_thresholds(self, rng, area_range):
        gts = {s: rng.uniform(0, 30, (4, 2)) for s in range(3)}
        gts = {s: np.concatenate([g, g + rng.uniform(2, 30, (4, 2))], axis=1) for s, g in gts.items()}
        parts = [det(g + rng.uniform(-3, 3, 4), float(rng.integers(0, 4)) / 4, s) for s in gts for g in gts[s]]
        for _ in range(12):  # strays, some in scene 3, which has no ground truths
            parts.append(det(rng.uniform(0, 60, 4), float(rng.integers(0, 4)) / 4, int(rng.integers(0, 4))))
        dets = pool(*parts)
        sweep = list(IOU_SWEEP)
        thresholds = sweep[::-1] + sweep[3:6] + [sweep[0]] * 3 + [0.05, 1.0]
        got = average_precision(dets, gts, thresholds, area_range)
        assert got == sweep_loop(dets, gts, thresholds, area_range)
        assert got[:10][::-1] == average_precision(dets, gts, IOU_SWEEP, area_range)
        assert len(set(got)) > 2  # the case separates thresholds

    def test_empty_detections(self):
        gts = {0: np.array([[0.0, 0.0, 10.0, 10.0]]), 1: np.zeros((0, 4))}
        assert len(pool()) == 0
        for area_range in (None, (LARGE_AREA, np.inf)):
            assert average_precision(pool(), gts, IOU_SWEEP, area_range) == [0.0] * 10
            assert sweep_loop(pool(), gts, IOU_SWEEP, area_range) == [0.0] * 10

    def test_detection_matching_an_ignored_ground_truth_is_not_a_false_positive(self):
        # The first detection is large, but its best live match is a small
        # gt: it is ignored, so the large gt's detection keeps precision 1.
        gts = {0: np.array([[0.0, 0.0, 19.0, 19.0], [40.0, 40.0, 60.0, 60.0]])}
        dets = pool(det((0, 0, 20, 20), 0.9), det((40, 40, 60, 60), 0.8))
        large = (LARGE_AREA, np.inf)
        assert average_precision(dets, gts, [0.5], large) == sweep_loop(dets, gts, [0.5], large)
        assert average_precision(dets, gts, [0.5], large) == pytest.approx([1.0])

    def test_ties_take_the_last_maximal_ground_truth(self):
        # Both gts overlap the first detection with IoU 2/3; it takes gt 1,
        # leaving gt 0 to the second detection, which overlaps only gt 0.
        gts = {0: np.array([[0.0, 0.0, 2.0, 2.0], [1.0, 0.0, 3.0, 2.0]])}
        dets = pool(det((0, 0, 3, 2), 0.9), det((0, 0, 2, 2), 0.9))
        assert average_precision(dets, gts, [0.5]) == sweep_loop(dets, gts, [0.5]) == [1.0]


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
            for rel in dataset.sketch_pool(c, "val"):
                self._cls_by_bytes[dataset.load_sketch(rel).tobytes()] = c

    def encode_scene(self, image, det0_from=None):
        return image

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
        return result_of(dets)


class RandomModel:
    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)

    def encode_scene(self, image, det0_from=None):
        return image

    def localize(self, image, sketches, threshold=0.0):
        dets = []
        for _ in range(20):
            c = self.rng.uniform(0.2, 0.8, 2)
            wh = self.rng.uniform(0.05, 0.4, 2)
            dets.append((np.array([c[0], c[1], wh[0], wh[1]]), float(self.rng.random())))
        return result_of(dets)


class NoisyOracleModel(OracleModel):
    """The oracle's boxes jittered and mixed with random ones, all at scores
    drawn from a few values, so matching sees TPs, FPs and score ties."""

    def __init__(self, dataset, seed=0):
        super().__init__(dataset)
        self.rng = np.random.default_rng(seed)
        self.random = RandomModel(seed)

    def localize(self, image, sketches, threshold=0.0):
        dets = np.concatenate([
            super().localize(image, sketches, threshold).detections,
            self.random.localize(image, sketches, threshold).detections[:6],
        ])
        return result_of(
            [(b + self.rng.normal(0.0, 0.02, 4), float(self.rng.integers(1, 5)) / 4) for b, _ in dets]
        )


MODELS = {
    "random": lambda ds: RandomModel(4),
    "oracle": OracleModel,
    "noisy-oracle": NoisyOracleModel,
}


class TestReportEqualsLoopReference:
    """The whole report is unchanged when every AP call goes through the
    greedy loop instead, once per threshold of its sweep."""

    @pytest.mark.parametrize("protocol", ["1Q", "5Q"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_report_equal(self, tiny_corpus, monkeypatch, protocol, model):
        got = evaluate_queries(MODELS[model](tiny_corpus), tiny_corpus, protocol, "val", seed=2)
        monkeypatch.setattr(metrics, "average_precision", sweep_loop)
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

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, tiny_corpus, seed):
        with pytest.raises(ValueError, match="a seed must be an integer"):
            evaluate_queries(RandomModel(5), tiny_corpus, "1Q", "val", seed=seed)

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

    @pytest.mark.parametrize("protocol", [5, None])
    def test_protocol_that_is_not_a_string_is_named(self, tiny_corpus, protocol):
        with pytest.raises(ValueError, match=f"unknown protocol {protocol!r}"):
            evaluate_queries(RandomModel(), tiny_corpus, protocol, "val")


class RecordingModel(OracleModel):
    """The oracle, logging each call with the scene and class it concerns."""

    def __init__(self, dataset):
        super().__init__(dataset)
        self.calls = []
        self.det0_from = []  # the `det0_from` of each encode_scene call

    def encode_scene(self, image, det0_from=None):
        self.calls.append(("encode_scene", self._scene_by_bytes[image.tobytes()]))
        self.det0_from.append(det0_from)
        return image

    def localize(self, image, sketches, threshold=0.0):
        cls = self._cls_by_bytes[sketches[0].tobytes()]
        self.calls.append(("localize", self._scene_by_bytes[image.tobytes()], cls))
        return super().localize(image, sketches, threshold)


class Recorded:
    """A model whose encoded scenes and `localize` results are kept, in call
    order."""

    def __init__(self, model):
        self.model = model
        self.scenes = []
        self.results = []

    def encode_scene(self, image, det0_from=None):
        self.scenes.append(self.model.encode_scene(image, det0_from))
        return self.scenes[-1]

    def localize(self, scene, sketches, threshold=0.0):
        self.results.append(self.model.localize(scene, sketches, threshold=threshold))
        return self.results[-1]


class RawScene(Recorded):
    """Answers every query from the raw scene, so that each `localize` runs
    the whole forward pass."""

    def encode_scene(self, image, det0_from=None):
        return image


class PerScene(Recorded):
    """Encodes each scene on its own, decoder layer 0's self block included."""

    def encode_scene(self, image, det0_from=None):
        return super().encode_scene(image)


class CountingBlock:
    """A block that counts its calls."""

    def __init__(self, block):
        self.block = block
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.block(*args, **kwargs)


class TestEncodeSceneOnce:
    def test_one_encoding_per_scene_then_its_queries_in_order(self, tiny_corpus):
        model = RecordingModel(tiny_corpus)
        report = evaluate_queries(model, tiny_corpus, "1Q", "val")
        want = []
        for sid in tiny_corpus.scene_ids("val"):
            want.append(("encode_scene", sid))
            for cls in sorted(set(tiny_corpus.annotation(sid).classes)):
                want.append(("localize", sid, cls))
        assert model.calls == want
        assert report.counts["queries"] == len(want) - len(tiny_corpus.scene_ids("val"))

    @pytest.mark.parametrize("protocol", ["1Q", "5Q"])
    def test_report_and_detections_equal_raw_scenes(self, tiny_corpus, protocol):
        encoded, raw = Recorded(tiny_model(seed=6)), RawScene(tiny_model(seed=6))
        got = evaluate_queries(encoded, tiny_corpus, protocol, "val", seed=3)
        want = evaluate_queries(raw, tiny_corpus, protocol, "val", seed=3)
        assert got.to_json() == want.to_json()
        assert len(encoded.results) == len(raw.results) == got.counts["queries"]
        for a, b in zip(encoded.results, raw.results):
            assert [s for _, s in a.detections] == [s for _, s in b.detections]
            assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a.detections, b.detections))

    def test_scenes_are_encoded_without_a_tape(self, tiny_corpus):
        model = Recorded(tiny_model())
        evaluate_queries(model, tiny_corpus, "1Q", "val")
        assert len(model.scenes) == len(tiny_corpus.scene_ids("val"))
        for scene in model.scenes:
            assert not scene.stage0.tokens.requires_grad and not scene.det0.requires_grad


class TestDet0OncePerEvaluation:
    """Decoder layer 0's self block reads only parameters, so an evaluation
    runs it for its first scene and reuses the result for every other."""

    @pytest.mark.parametrize("subset", ["train", "val"])
    def test_the_block_runs_once_whatever_the_scene_count(self, tiny_corpus, subset):
        model = tiny_model(seed=7)
        self_block, cross_block = model.decoder_layers[0]
        counted = CountingBlock(self_block)
        model.decoder_layers[0] = (counted, cross_block)
        report = evaluate_queries(model, tiny_corpus, "1Q", subset)
        assert report.counts["scenes"] == len(tiny_corpus.scene_ids(subset)) > 1
        assert counted.calls == 1

    def test_every_later_scene_is_given_the_first_encoding(self, tiny_corpus):
        model = Recorded(tiny_model(seed=7))
        recording = RecordingModel(tiny_corpus)
        evaluate_queries(model, tiny_corpus, "1Q", "val")
        evaluate_queries(recording, tiny_corpus, "1Q", "val")
        first, *rest = model.scenes
        assert len(rest) == len(tiny_corpus.scene_ids("val")) - 1
        assert all(scene.det0 is first.det0 for scene in rest)
        assert recording.det0_from[0] is None
        assert all(a is recording.det0_from[1] for a in recording.det0_from[1:])

    @pytest.mark.parametrize("protocol", ["1Q", "5Q"])
    def test_report_and_detections_equal_per_scene_encoding(self, tiny_corpus, protocol):
        reused, per_scene = Recorded(tiny_model(seed=6)), PerScene(tiny_model(seed=6))
        got = evaluate_queries(reused, tiny_corpus, protocol, "val", seed=3)
        want = evaluate_queries(per_scene, tiny_corpus, protocol, "val", seed=3)
        assert got.to_json() == want.to_json()
        assert got.per_class == want.per_class
        assert (got.map, got.ap50, got.ap_large) == (want.map, want.ap50, want.ap_large)
        assert len(reused.results) == len(per_scene.results) == got.counts["queries"]
        for a, b in zip(reused.results, per_scene.results):
            assert [s for _, s in a.detections] == [s for _, s in b.detections]
            assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a.detections, b.detections))
        for a, b in zip(reused.scenes[1:], per_scene.scenes[1:]):
            assert a.det0 is not b.det0 and np.array_equal(a.det0.data, b.det0.data)

    def test_a_scene_of_another_model_is_refused(self, tiny_corpus):
        a, b = tiny_model(seed=0), tiny_model(seed=0)
        image = tiny_corpus.load_scene(tiny_corpus.scene_ids("val")[0])
        with no_grad():
            theirs = b.encode_scene(image)
            with pytest.raises(ValueError, match="only for the model that made it"):
                a.encode_scene(image, det0_from=theirs)
            with pytest.raises(ValueError, match="expected an EncodedScene, got ndarray"):
                a.encode_scene(image, det0_from=image)
