import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc import data
from sgloc.data import (
    CLASS_NAMES,
    DataConfig,
    Dataset,
    DatasetError,
    PlacementError,
    derive_seed,
    generate_dataset,
    generate_scene,
    read_pgm,
    read_ppm,
    render_sketch,
    sketch_path,
    splitmix64,
    write_pgm,
    write_ppm,
)


# ---------------------------------------------------------------------------
# oracles: the renderers as first written, one polygon edge and one stroke
# segment at a time. The pinned corpus digests see only the 8-bit bytes after
# rounding, so a 1-ulp drift would pass them; these compare the floats.


def rasterize_loop(loops, w=64, h=64):
    """Oracle: toggle, edge by edge, every pixel whose centre lies left of the
    edge's crossing with its row."""
    xs = np.arange(w) + 0.5
    ys = np.arange(h) + 0.5
    px = xs[None, :]
    py = ys[:, None]
    inside = np.zeros((h, w), dtype=bool)
    for loop in loops:
        x1 = loop[:, 0]
        y1 = loop[:, 1]
        x2 = np.roll(x1, -1)
        y2 = np.roll(y1, -1)
        for e in range(len(loop)):
            if y1[e] == y2[e]:
                continue
            cond = (y1[e] > py) != (y2[e] > py)
            with np.errstate(over="ignore"):  # at a nearly horizontal edge; `cond` drops those rows
                xint = x1[e] + (py - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
            inside ^= cond & (px < xint)
    return inside


def draw_segment_loop(img, a, b, width):
    """Oracle: raise `img` to one segment's stroke inside its clipped box."""
    h, w = img.shape
    x0 = max(0, int(math.floor(min(a[0], b[0]) - width)))
    x1 = min(w, int(math.ceil(max(a[0], b[0]) + width)) + 1)
    y0 = max(0, int(math.floor(min(a[1], b[1]) - width)))
    y1 = min(h, int(math.ceil(max(a[1], b[1]) + width)) + 1)
    if x0 >= x1 or y0 >= y1:
        return
    xs = np.arange(x0, x1) + 0.5
    ys = np.arange(y0, y1) + 0.5
    px, py = np.meshgrid(xs, ys)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0:
        t = np.zeros_like(px)
    else:
        t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
    dx = px - (a[0] + t * ab[0])
    dy = py - (a[1] + t * ab[1])
    dist = np.sqrt(dx * dx + dy * dy)
    val = np.clip(width / 2.0 + 0.5 - dist, 0.0, 1.0)
    region = img[y0:y1, x0:x1]
    np.maximum(region, val, out=region)


def subdivide_loop(loop, max_step):
    """Oracle: split each edge into equal steps, one edge and one step at a time."""
    out = []
    n = len(loop)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        steps = max(1, int(math.ceil(np.linalg.norm(b - a) / max_step)))
        for k in range(steps):
            out.append(a + (b - a) * (k / steps))
    return np.array(out)


def render_sketch_loop(cls, seed):
    """Oracle: `render_sketch` drawing each segment right after its gap draw."""
    rng = np.random.default_rng(seed)
    size = data.IMAGE_SIZE
    draw_size = float(rng.uniform(*data.SKETCH_SCALE_RANGE)) * size
    half = draw_size / 2.0
    center = size / 2.0 + rng.uniform(-data.SKETCH_OFFSET_PX, data.SKETCH_OFFSET_PX, 2)
    rot = math.radians(rng.uniform(-data.SKETCH_ROT_DEG, data.SKETCH_ROT_DEG))
    loops = data._transform(data._OUTLINES[CLASS_NAMES[cls]](), rot, (half, half), center)
    img = np.zeros((size, size), dtype=np.float64)
    width = float(rng.uniform(*data.SKETCH_WIDTH_RANGE))
    sigma = data.SKETCH_JITTER * draw_size
    for loop in loops:
        pts = subdivide_loop(loop, max_step=5.0)
        pts = pts + rng.normal(0.0, sigma, pts.shape)
        n = len(pts)
        for i in range(n):
            if rng.random() < data.SKETCH_GAP_PROB:
                continue
            draw_segment_loop(img, pts[i], pts[(i + 1) % n], width)
    return np.clip(img, 0.0, 1.0)


class TestSeeds:
    def test_splitmix_deterministic_and_spread(self):
        a = splitmix64(1)
        b = splitmix64(2)
        assert a == splitmix64(1)
        assert a != b

    def test_derive_seed_sensitivity(self):
        assert derive_seed(0, "scene", 1) != derive_seed(0, "scene", 2)
        assert derive_seed(0, "scene", 1) != derive_seed(1, "scene", 1)
        assert derive_seed(0, "a") != derive_seed(0, "b")

    @pytest.mark.parametrize("master", [1.5, 1.0, True, np.True_, "3", None, np.float64(3.0)])
    def test_derive_seed_refuses_a_master_that_is_not_an_integer(self, master):
        with pytest.raises(ValueError, match="a seed must be an integer"):
            derive_seed(master, "scene", 1)

    def test_derive_seed_takes_numpy_integers(self):
        assert derive_seed(np.int64(3), "scene", 1) == derive_seed(np.uint8(3), "scene", 1) == derive_seed(3, "scene", 1)


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(123)
        b = generate_scene(123)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.boxes, b.boxes)
        assert a.classes == b.classes

    def test_single_instance_config(self, monkeypatch):
        monkeypatch.setattr(data, "INSTANCES", (1, 1))
        s = generate_scene(7)
        assert len(s.classes) == 1 and s.boxes.shape == (1, 4)

    def test_boxes_tight_by_pixel_scan(self):
        for i in range(60):
            s = generate_scene(derive_seed(5, "scene", i))
            for box, mask in zip(s.boxes, s.masks):
                ys, xs = np.nonzero(mask)
                scan = (xs.min(), ys.min(), xs.max() + 1, ys.max() + 1)
                assert all(abs(int(box[k]) - scan[k]) <= 1 for k in range(4))

    def test_pixels_in_unit_range(self):
        s = generate_scene(11)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_overlap_bounded(self, monkeypatch):
        from sgloc.boxes import iou

        monkeypatch.setattr(data, "INSTANCES", (4, 4))
        for i in range(20):
            s = generate_scene(derive_seed(9, "scene", i))
            table = iou(s.boxes, s.boxes)
            for a in range(len(s.boxes)):
                for b in range(a + 1, len(s.boxes)):
                    assert table[a, b] <= data.OVERLAP_MAX + 1e-9

    def test_unsatisfiable_placement(self, monkeypatch):
        monkeypatch.setattr(data, "INSTANCES", (4, 4))
        monkeypatch.setattr(data, "SIZE_RANGE", (58.0, 60.0))
        monkeypatch.setattr(data, "OVERLAP_MAX", 0.0)
        with pytest.raises(PlacementError):
            for i in range(5):
                generate_scene(derive_seed(1, "scene", i))

    def test_class_pool_respected(self, monkeypatch):
        monkeypatch.setattr(data, "INSTANCES", (2, 4))
        for i in range(20):
            s = generate_scene(derive_seed(3, "scene", i), classes=[0, 1, 2])
            assert set(s.classes) <= {0, 1, 2}


class TestRenderSketch:
    def test_deterministic(self):
        a = render_sketch(4, 99)
        b = render_sketch(4, 99)
        assert np.array_equal(a, b)

    def test_zero_jitter_is_seed_independent(self, monkeypatch):
        for name, value in [("JITTER", 0.0), ("ROT_DEG", 0.0), ("WIDTH_RANGE", (1.5, 1.5)),
                            ("GAP_PROB", 0.0), ("SCALE_RANGE", (0.75, 0.75)), ("OFFSET_PX", 0.0)]:
            monkeypatch.setattr(data, "SKETCH_" + name, value)
        imgs = [render_sketch(2, seed) for seed in (1, 2, 3)]
        assert (imgs[0] > 0.5).sum() > 50
        assert np.array_equal(imgs[0], imgs[1]) and np.array_equal(imgs[1], imgs[2])

    def test_values_in_range(self):
        img = render_sketch(0, 5)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_distinct_classes_distinct_sketches(self):
        a = render_sketch(0, 7)
        b = render_sketch(1, 7)
        assert np.max(np.abs(a - b)) > 0.5

    def test_nearest_centroid_class_signal(self):
        # sketches must carry enough class signal for a trivial classifier
        feats, labels = [], []
        for cls in range(12):
            for i in range(100):
                img = render_sketch(cls, derive_seed(77, "sig", cls, i))
                small = img.reshape(16, 4, 16, 4).mean(axis=(1, 3)).reshape(-1)
                feats.append(small)
                labels.append(cls)
        feats = np.array(feats)
        labels = np.array(labels)
        fit = np.arange(len(feats)) % 100 < 50
        centroids = np.array([feats[fit & (labels == c)].mean(axis=0) for c in range(12)])
        test_x, test_y = feats[~fit], labels[~fit]
        d = ((test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        acc = (d.argmin(axis=1) == test_y).mean()
        assert acc > 0.8, f"nearest-centroid accuracy {acc:.3f}"


def _strokes(segments, width):
    """(`_draw_strokes` raster, oracle raster) of a list of (a, b) segments."""
    a = np.array([seg[0] for seg in segments], dtype=np.float64).reshape(-1, 2)
    b = np.array([seg[1] for seg in segments], dtype=np.float64).reshape(-1, 2)
    got, want = data._draw_strokes(a, b, width), np.zeros((64, 64))
    for p, q in zip(a, b):
        draw_segment_loop(want, p, q, width)
    return got, want


# coordinates off the raster, on pixel centres, on pixel edges, and between
_coord = st.one_of(
    st.floats(-12.0, 76.0),
    st.integers(-12, 76).map(lambda v: v + 0.5),
    st.integers(-12, 76).map(float),
)
_loop = st.lists(st.tuples(_coord, _coord), min_size=3, max_size=10).map(np.array)


class TestRenderersMatchTheirOracles:
    def test_scenes(self, monkeypatch):
        cases = [(derive_seed(21, "scene", i), [2, 5, 9] if i % 3 == 0 else None) for i in range(240)]
        got = [generate_scene(seed, pool) for seed, pool in cases]
        monkeypatch.setattr(data, "_rasterize", rasterize_loop)
        for (seed, pool), g in zip(cases, got):
            want = generate_scene(seed, pool)
            assert g.classes == want.classes, seed
            assert np.array_equal(g.image, want.image), seed
            assert np.array_equal(g.boxes, want.boxes), seed
            assert len(g.masks) == len(want.masks)
            assert all(np.array_equal(m, n) for m, n in zip(g.masks, want.masks)), seed

    def test_sketches(self):
        for cls in range(len(CLASS_NAMES)):
            for i in range(8):
                seed = derive_seed(21, "sketch", cls, i)
                assert np.array_equal(render_sketch(cls, seed), render_sketch_loop(cls, seed)), (cls, i)

    @settings(max_examples=150, deadline=None)
    @given(loops=st.lists(_loop, min_size=1, max_size=3))
    def test_fill_of_any_loops(self, loops):
        assert np.array_equal(data._rasterize(loops), rasterize_loop(loops))

    @settings(max_examples=100, deadline=None)
    @given(loop=_loop, max_step=st.sampled_from([0.5, 5.0]))
    def test_subdivision_of_any_loop(self, loop, max_step):
        assert np.array_equal(data._subdivide(loop, max_step), subdivide_loop(loop, max_step))

    @settings(max_examples=150, deadline=None)
    @given(
        segments=st.lists(st.tuples(st.tuples(_coord, _coord), st.tuples(_coord, _coord)), max_size=6),
        width=st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.1, 4.0)),
    )
    def test_strokes_of_any_segments(self, segments, width):
        got, want = _strokes(segments, width)
        assert np.array_equal(got, want)

    def test_zero_length_stroke_is_a_dot(self):
        got, want = _strokes([((20.3, 30.7), (20.3, 30.7))], 1.5)
        assert np.array_equal(got, want)
        assert got[30, 20] > 0.9 and np.count_nonzero(got) < 25

    def test_stroke_off_the_raster_draws_nothing(self):
        got, want = _strokes([((-10.0, -10.0), (-7.5, -9.0)), ((70.0, 5.0), (90.0, 40.0))], 1.0)
        assert np.array_equal(got, want) and not got.any()

    def test_stroke_clipped_at_the_border(self):
        got, want = _strokes([((-2.0, 10.0), (5.0, 62.5)), ((40.0, 63.8), (70.0, 63.8))], 2.0)
        assert np.array_equal(got, want)
        assert got[:, 0].any() and got[63, 40:].any()

    def test_every_segment_a_gap_leaves_a_blank_raster(self, monkeypatch):
        monkeypatch.setattr(data, "SKETCH_GAP_PROB", 1.0)
        img = render_sketch(3, 5)
        assert img.shape == (64, 64) and not img.any()
        assert np.array_equal(img, render_sketch_loop(3, 5))

    def test_horizontal_loop_fills_nothing_without_warnings(self):
        loop = np.array([(3.0, 10.5), (40.0, 10.5), (20.0, 10.5)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            mask = data._rasterize([loop])
        assert mask.shape == (64, 64) and not mask.any()

    def test_nearly_horizontal_edge_renders_without_warnings(self):
        # its y-extent of 1e-306 would overflow (y - y1) / (y2 - y1) at every row
        loop = np.array([(3.0, 1e-306), (40.0, 0.0), (20.0, 50.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = data._rasterize([loop])
        assert mask.any() and np.array_equal(mask, rasterize_loop([loop]))

    def test_vertices_on_pixel_centre_rows(self):
        square = np.array([(10.2, 10.5), (30.7, 10.5), (30.7, 30.5), (10.2, 30.5)])
        kite = np.array([(40.0, 20.5), (50.5, 30.5), (40.0, 40.5), (35.0, 30.5)])
        for loop in (square, kite):
            assert np.array_equal(data._rasterize([loop]), rasterize_loop([loop]))
        mask = data._rasterize([square])
        assert mask[10:30, 10:31].all() and mask.sum() == 20 * 21

    def test_ring_has_a_hole(self):
        loops = data._transform(data._OUTLINES["ring"](), 0.3, (20.0, 18.0), (32.0, 31.0))
        mask = data._rasterize(loops)
        assert np.array_equal(mask, rasterize_loop(loops))
        assert not mask[31, 32] and mask[31, 32 + 15]


class TestClassIds:
    @pytest.mark.parametrize("bad", [-1, len(CLASS_NAMES), True, False])
    def test_sketch_of_an_unknown_class(self, bad):
        with pytest.raises(ValueError, match=rf"class id {bad} is outside 0\.\.11"):
            render_sketch(bad, 1)

    @pytest.mark.parametrize("pool", [[-1], [0, 3, len(CLASS_NAMES)], [True], [2, False]])
    def test_scene_pool_with_an_unknown_class(self, pool):
        with pytest.raises(ValueError, match=rf"class id {pool[-1]} is outside"):
            generate_scene(1, classes=pool)

    def test_empty_scene_pool(self):
        with pytest.raises(ValueError, match="class pool is empty"):
            generate_scene(1, classes=[])

    def test_numpy_ids_are_class_ids(self):
        s = generate_scene(4, classes=np.array([6, 7]))
        assert set(s.classes) <= {6, 7}
        assert np.array_equal(render_sketch(np.int64(6), 2), render_sketch(6, 2))


class TestSplits:
    def test_closed_world_empty_unseen(self, tmp_path):
        cfg = DataConfig(n_train=1, n_val=1, sketches_per_class=3)
        ds = generate_dataset(cfg, str(tmp_path))
        assert cfg.unseen == () and cfg.seen == list(range(12))
        assert all(ds.sketch_pool(c, "train") == [sketch_path(c, 0)] for c in range(12))

    def test_open_world_pools(self, small_open_dataset):
        ds, _, _ = small_open_dataset  # unseen 10 and 11; 6 sketches a class, 2 of them val
        assert ds.config.seen == list(range(10))
        for c in (10, 11):
            with pytest.raises(DatasetError, match=f"empty train sketch pool for class {c}"):
                ds.sketch_pool(c, "train")
            assert ds.sketch_pool(c, "val") == [sketch_path(c, 4), sketch_path(c, 5)]
        assert ds.sketch_pool(0, "train") == [sketch_path(0, i) for i in range(4)]
        assert not set(ds.sketch_pool(0, "train")) & set(ds.sketch_pool(0, "val"))

    def test_invalid_unseen_rejected(self):
        with pytest.raises(DatasetError, match=r"invalid unseen class ids \(10, 10\)"):
            DataConfig(unseen=(10, 10)).validate()
        with pytest.raises(DatasetError, match=r"invalid unseen class ids \(99,\)"):
            DataConfig(unseen=(99,)).validate()
        with pytest.raises(DatasetError, match="fewer than half of all classes"):
            DataConfig(unseen=(0, 1, 2, 3, 4, 5)).validate()

    def test_unseen_classes_alone_make_the_world_open(self, tmp_path):
        cfg = DataConfig(n_train=1, n_val=1, unseen=(3,), sketches_per_class=3)
        ds = generate_dataset(cfg, str(tmp_path))
        assert ds.config.unseen == (3,) and 3 not in ds.config.seen
        with pytest.raises(DatasetError, match="empty train sketch pool for class 3"):
            ds.sketch_pool(3, "train")
        assert ds.sketch_pool(3, "val")

    @pytest.mark.parametrize("field, value", [("n_train", 0), ("n_train", -3), ("n_val", 0), ("n_val", -1)])
    def test_non_positive_scene_count_is_named(self, field, value):
        with pytest.raises(DatasetError, match=f"config field {field} must be positive, got {value}"):
            DataConfig(**{field: value}).validate()

    @pytest.mark.parametrize("pool, want", [(3, 2), (6, 2), (9, 3), (24, 8)])
    def test_default_val_pool_is_a_third_of_the_pool_at_least_two(self, pool, want):
        cfg = DataConfig(sketches_per_class=pool)
        cfg.validate()
        assert cfg.n_val_sketches == want

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("n_train", True, "'n_train' True is not an int"),
            ("seed", 1.0, "'seed' 1.0 is not an int"),
            ("val_sketches_per_class", False, "'val_sketches_per_class' False is not an int"),
            ("unseen", (True,), r"'unseen' \(True,\) is not a list of class ids"),
            ("unseen", "10", "'unseen' '10' is not a list of class ids"),
        ],
    )
    def test_a_field_of_the_wrong_type_is_named(self, field, value, match):
        with pytest.raises(DatasetError, match=match):
            DataConfig(**{field: value}).validate()

    def test_numpy_integers_are_integers(self, tmp_path):
        i = np.int64
        cfg = DataConfig(n_train=i(2), n_val=i(1), unseen=(i(11),), sketches_per_class=i(3),
                         val_sketches_per_class=i(1), seed=i(5))
        ds = generate_dataset(cfg, str(tmp_path / "numpy"))
        plain = generate_dataset(DataConfig(2, 1, (11,), 3, 1, 5), str(tmp_path / "plain"))
        assert ds.config == plain.config
        assert corpus_digest(str(tmp_path / "numpy")) == corpus_digest(str(tmp_path / "plain"))

    @pytest.mark.parametrize("cls", [12, -1, 99])
    def test_a_class_id_past_the_classes_has_no_pool(self, small_open_dataset, cls):
        ds, _, _ = small_open_dataset
        for subset in ("train", "val"):
            with pytest.raises(DatasetError, match=f"empty {subset} sketch pool for class {cls}"):
                ds.sketch_pool(cls, subset)

    @pytest.mark.parametrize("cls", [True, 1.5, 1.0, "1"])
    def test_a_class_id_that_is_not_an_integer_has_no_pool(self, small_open_dataset, cls):
        ds, _, _ = small_open_dataset
        for subset in ("train", "val"):
            with pytest.raises(DatasetError, match=f"empty {subset} sketch pool for class {cls}"):
                ds.sketch_pool(cls, subset)
            with pytest.raises(DatasetError, match=f"empty {subset} sketch pool for class {cls}"):
                ds.draw_sketches(np.random.default_rng(0), cls, subset, 1)
        assert ds.sketch_pool(np.int64(1), "val") == ds.sketch_pool(1, "val")


class TestPnm:
    def test_ppm_roundtrip_bit_exact(self, tmp_path, rng):
        img = rng.random((64, 64, 3))
        p = str(tmp_path / "x.ppm")
        write_ppm(p, img)
        back = read_ppm(p)
        write_ppm(str(tmp_path / "y.ppm"), back)
        assert Path(p).read_bytes() == (tmp_path / "y.ppm").read_bytes()

    def test_pgm_roundtrip_bit_exact(self, tmp_path, rng):
        img = rng.random((64, 64))
        p = str(tmp_path / "x.pgm")
        write_pgm(p, img)
        back = read_pgm(p)
        assert np.array_equal(np.rint(back * 255), np.rint(read_pgm(p) * 255))

    def test_writer_rejects_wrong_channel_count(self, tmp_path, rng):
        with pytest.raises(ValueError, match="as P5"):
            write_pgm(str(tmp_path / "x.pgm"), rng.random((8, 8, 3)))
        with pytest.raises(ValueError, match="as P6"):
            write_ppm(str(tmp_path / "x.ppm"), rng.random((8, 8)))

    def test_wrong_magic(self, tmp_path, rng):
        p = str(tmp_path / "x.pgm")
        write_ppm(str(tmp_path / "x.pgm"), rng.random((8, 8, 3)))
        with pytest.raises(DatasetError):
            read_pgm(p)

    @pytest.mark.parametrize(
        "blob, match",
        [
            (b"P5\n4 4\n65535\n" + bytes(32), "maxval 65535 is outside 1..255"),
            (b"P5\n4 4\n0\n" + bytes(16), "maxval 0 is outside 1..255"),
            (b"P5\n-4 64\n255\n" + bytes(4096), "header field b'-4' is not a decimal number"),
            (b"P5\nfour 4\n255\n" + bytes(16), "header field b'four' is not a decimal number"),
            (b"P5\n0 4\n255\n", "extents 0x4 are not positive"),
            (b"P5\n4 4", "header ends after 2 of 3 fields"),
            (b"P5\n4 4\n255", "header ends without the whitespace after maxval"),
            (b"P5\n4 4\n255\n" + bytes(15), "raster holds 15 bytes, a 4x4 PGM needs 16"),
        ],
        ids=["maxval-16bit", "maxval-0", "negative-width", "word-width", "zero-width",
             "header-cut-in-fields", "header-cut-after-maxval", "short-raster"],
    )
    def test_malformed_pgm_names_path_and_fault(self, tmp_path, blob, match):
        p = str(tmp_path / "bad.pgm")
        with open(p, "wb") as f:
            f.write(blob)
        with pytest.raises(DatasetError, match=match) as err:
            read_pgm(p)
        assert str(err.value).startswith(p + ": ")

    def test_short_ppm_raster(self, tmp_path):
        p = str(tmp_path / "bad.ppm")
        with open(p, "wb") as f:
            f.write(b"P6\n4 4\n255\n" + bytes(47))
        with pytest.raises(DatasetError, match="raster holds 47 bytes, a 4x4 PPM needs 48"):
            read_ppm(p)

    @pytest.mark.parametrize("reader, magic, channels", [(read_pgm, b"P5", 1), (read_ppm, b"P6", 3)],
                             ids=["pgm", "ppm"])
    def test_sample_above_maxval_rejected(self, tmp_path, reader, magic, channels):
        p = str(tmp_path / "bright")
        with open(p, "wb") as f:
            f.write(magic + b"\n2 1\n100\n" + bytes([7] * (2 * channels - 1) + [100]))
        assert reader(p).max() == 1.0  # a sample equal to maxval is full scale
        with open(p, "wb") as f:
            f.write(magic + b"\n2 1\n100\n" + bytes([200] * 2 * channels))
        with pytest.raises(DatasetError, match="sample 200 exceeds maxval 100") as err:
            reader(p)
        assert str(err.value).startswith(p + ": ")

    @settings(max_examples=300, deadline=None)
    @given(reader=st.sampled_from([read_pgm, read_ppm]), data=st.data())
    def test_damaged_file_reads_or_raises_dataset_error(self, pnm_dir, reader, data):
        channels = 3 if reader is read_ppm else 1
        blob = bytearray(b"P%d\n# comment\n8 8\n255\n" % (6 if channels == 3 else 5))
        blob += bytes(range(64 * channels))
        if data.draw(st.booleans(), label="truncate"):
            del blob[data.draw(st.integers(0, len(blob) - 1), label="cut"):]
        else:
            at = data.draw(st.one_of(st.integers(0, 24), st.integers(0, len(blob) - 1)), label="at")
            blob[at] = data.draw(st.integers(0, 255), label="byte")
        path = os.path.join(pnm_dir, "damaged")
        with open(path, "wb") as f:
            f.write(blob)
        try:
            out = reader(path)
        except DatasetError as e:
            assert str(e).startswith(path + ": ")
        else:
            assert out.dtype == np.float64 and out.ndim == (3 if channels == 3 else 2)
            assert 0.0 <= out.min() and out.max() <= 1.0


@pytest.fixture(scope="module")
def pnm_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("pnm"))


@pytest.fixture(scope="module")
def small_open_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    cfg = DataConfig(n_train=24, n_val=8, unseen=(10, 11), seed=13,
                     sketches_per_class=6, val_sketches_per_class=2)
    return generate_dataset(cfg, out), cfg, out


class TestDatasetDirectory:
    def test_layout(self, small_open_dataset):
        _, cfg, out = small_open_dataset
        assert os.path.exists(os.path.join(out, "scenes/000000.ppm"))
        assert os.path.exists(os.path.join(out, "sketches/circle/0000.pgm"))
        assert os.path.exists(os.path.join(out, "annotations.jsonl"))
        assert os.path.exists(os.path.join(out, "split.json"))

    def test_split_json_is_the_config(self, small_open_dataset):
        ds, cfg, out = small_open_dataset
        with open(os.path.join(out, "split.json")) as f:
            assert json.load(f) == {**asdict(cfg), "unseen": [10, 11]}
        assert ds.config == cfg

    def test_annotation_schema(self, small_open_dataset):
        _, cfg, out = small_open_dataset
        with open(os.path.join(out, "annotations.jsonl")) as f:
            for line in f:
                rec = json.loads(line)
                assert set(rec) == {"boxes", "classes"}
                assert len(rec["boxes"]) == len(rec["classes"])
                for b in rec["boxes"]:
                    assert b[0] < b[2] and b[1] < b[3]

    def test_open_world_hygiene_exhaustive(self, small_open_dataset):
        ds, cfg, _ = small_open_dataset
        unseen = set(ds.config.unseen)
        for sid in ds.scene_ids("train"):
            assert not (set(ds.annotation(sid).classes) & unseen)
        for c in unseen:
            with pytest.raises(DatasetError, match="empty train sketch pool"):
                ds.sketch_pool(c, "train")

    def test_val_scenes_cover_unseen(self, small_open_dataset):
        ds, _, _ = small_open_dataset
        seen_classes = set()
        for sid in ds.scene_ids("val"):
            seen_classes |= set(ds.annotation(sid).classes)
        assert seen_classes & set(ds.config.unseen)

    def test_scene_roundtrip(self, small_open_dataset):
        ds, cfg, _ = small_open_dataset
        sid = ds.scene_ids("train")[0]
        img = ds.load_scene(sid)
        regen = generate_scene(derive_seed(cfg.seed, "scene", sid), classes=ds.config.seen)
        assert np.max(np.abs(img - regen.image)) <= 1.0 / 255.0 + 1e-9

    def test_deterministic_regeneration(self, small_open_dataset, tmp_path):
        _, cfg, out = small_open_dataset
        out2 = str(tmp_path / "again")
        generate_dataset(cfg, out2)
        a = Path(out, "scenes/000003.ppm").read_bytes()
        b = Path(out2, "scenes/000003.ppm").read_bytes()
        assert a == b

    def test_non_empty_directory_is_refused_and_left_as_it_was(self, small_open_dataset):
        _, cfg, out = small_open_dataset
        before = sorted(os.walk(out))
        with pytest.raises(DatasetError, match=re.escape(f"{out}: exists and is not an empty directory")):
            generate_dataset(DataConfig(n_train=3, n_val=1, sketches_per_class=3), out)
        assert sorted(os.walk(out)) == before

    def test_a_file_in_the_way_is_refused(self, tmp_path):
        out = tmp_path / "corpus"
        out.write_text("not a directory")
        with pytest.raises(DatasetError, match="exists and is not an empty directory"):
            generate_dataset(DataConfig(n_train=3, n_val=1, sketches_per_class=3), str(out))

    def test_empty_pool_raises(self, small_open_dataset):
        ds, _, _ = small_open_dataset
        with pytest.raises(DatasetError):
            ds.sketch_pool(10, "train")

    @pytest.mark.parametrize("subset, n", [("train", 1), ("train", 4), ("val", 5)])
    def test_draw_sketches_repeats_a_path_only_when_the_pool_runs_out(self, small_open_dataset,
                                                                       subset, n):
        ds, _, _ = small_open_dataset
        pool = ds.sketch_pool(2, subset)  # 4 train sketches, 2 val ones
        got = ds.draw_sketches(np.random.default_rng(9), 2, subset, n)
        assert len(got) == n and set(got) <= set(pool)
        if n <= len(pool):
            assert len(set(got)) == n
        # the rng calls that `sgloc eval` and training made before the rule had one home
        rng = np.random.default_rng(9)
        assert got == [pool[i] for i in rng.choice(len(pool), size=n, replace=len(pool) < n)]

    @pytest.mark.parametrize("subset", ["test", "Val", ""])
    def test_unknown_subset_raises(self, small_open_dataset, subset):
        ds, _, _ = small_open_dataset
        for lookup in (lambda: ds.sketch_pool(0, subset), lambda: ds.scene_ids(subset)):
            with pytest.raises(DatasetError, match=f"unknown subset {subset!r}"):
                lookup()


@pytest.mark.parametrize("kind", ["scene", "sketch"])
def test_a_wrongly_sized_raster_is_named_when_read(tmp_path, kind):
    ds = generate_dataset(DataConfig(n_train=3, n_val=1, sketches_per_class=3), str(tmp_path))
    if kind == "scene":
        path, want = os.path.join(str(tmp_path), data.scene_path(0)), (64, 64, 3)
        write_ppm(path, np.zeros((32, 32, 3)))
        load = lambda: ds.load_scene(0)
    else:
        path, want = os.path.join(str(tmp_path), "sketches", "circle", "0001.pgm"), (64, 64)
        write_pgm(path, np.zeros((32, 32)))
        load = lambda: ds.load_sketch(os.path.join("sketches", "circle", "0001.pgm"))
    with pytest.raises(DatasetError) as err:
        load()
    got = (32, 32, 3) if kind == "scene" else (32, 32)
    assert str(err.value) == f"{path}: raster shape {got}, the corpus needs {want}"


@pytest.fixture(scope="module")
def metadata(tmp_path_factory):
    """The split.json and annotations.jsonl texts of an 8-scene corpus, and
    the corpus directory, whose sketches the damaged copies link to."""
    out = tmp_path_factory.mktemp("metadata")
    generate_dataset(DataConfig(n_train=6, n_val=2, sketches_per_class=3, val_sketches_per_class=1), str(out))
    files = {}
    for name in ("split.json", "annotations.jsonl"):
        with open(out / name) as f:
            files[name] = f.read()
    return files, str(out)


def _write_corpus(root: str, files: dict, source: str) -> None:
    """`files` under `root`, next to a link to the sketches of `source`."""
    for name, blob in files.items():
        with open(os.path.join(root, name), "wb" if isinstance(blob, bytes) else "w") as f:
            f.write(blob)
    if not os.path.exists(os.path.join(root, "sketches")):
        os.symlink(os.path.join(source, "sketches"), os.path.join(root, "sketches"))


def _edit_line(n: int, edit):
    """Apply `edit` to the record on line `n` of annotations.jsonl."""
    def apply(files):
        lines = files["annotations.jsonl"].splitlines()
        lines[n - 1] = edit(lines[n - 1])
        files["annotations.jsonl"] = "\n".join(lines) + "\n"
    return apply


def _edit_record(n: int, edit):
    return _edit_line(n, lambda line: json.dumps(edit(json.loads(line))))


def _edit_split(edit):
    def apply(files):
        files["split.json"] = json.dumps(edit(json.loads(files["split.json"])))
    return apply


def _without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


# split.json as written before it held the DataConfig (n_train=6, n_val=2, 3 sketches, 1 for val)
_EXPANDED_SPLIT = json.dumps({
    "seen": list(range(12)), "unseen": [], "train_scenes": list(range(6)), "val_scenes": [6, 7],
    "train_sketches": {str(c): [f"sketches/{n}/{i:04d}.pgm" for i in range(2)] for c, n in enumerate(CLASS_NAMES)},
    "val_sketches": {str(c): [f"sketches/{n}/0002.pgm"] for c, n in enumerate(CLASS_NAMES)},
    "class_names": CLASS_NAMES, "mode": "closed", "seed": 0,
})


@pytest.mark.parametrize(
    "damage, where, match",
    [
        (lambda files: files.update({"split.json": '{"n_train": 6'}), "split.json", "not valid JSON"),
        (_edit_split(_without("n_train")), "split.json", "missing key 'n_train'"),
        (_edit_split(lambda s: {**s, "class_names": CLASS_NAMES}), "split.json", "unknown key 'class_names'"),
        (lambda files: files.update({"split.json": _EXPANDED_SPLIT}), "split.json", "missing key 'n_train'"),
        (_edit_line(2, lambda line: line[:-3]), "annotations.jsonl line 2", "not valid JSON"),
        (_edit_line(2, lambda line: "[1, 2]"), "annotations.jsonl line 2", "expected a JSON object"),
        (_edit_record(3, _without("boxes")), "annotations.jsonl line 3", "missing key 'boxes'"),
        (_edit_record(1, lambda r: {**r, "boxes": [b[:3] for b in r["boxes"]]}),
         "annotations.jsonl line 1", r"boxes have shape \(\d+, 3\), not \(n, 4\)"),
        (_edit_record(1, lambda r: {**r, "boxes": [[1, 2], [3, 4, 5, 6]]}),
         "annotations.jsonl line 1", r"boxes are not an \(n, 4\) array of numbers"),
        (_edit_record(1, lambda r: {**r, "boxes": r["boxes"] + [[1, 1, 5, 5]]}),
         "annotations.jsonl line 1", "boxes but classes"),
        (_edit_record(4, lambda r: {**r, "classes": [12] * len(r["classes"])}),
         "annotations.jsonl line 4", r"class id 12 is outside 0\.\.11"),
        (_edit_record(4, lambda r: {**r, "classes": [-1] * len(r["classes"])}),
         "annotations.jsonl line 4", r"class id -1 is outside 0\.\.11"),
        (_edit_record(5, lambda r: {**r, "boxes": [[10, math.nan, 20, 30]] + r["boxes"][1:]}),
         "annotations.jsonl line 5",
         r"box \[10, nan, 20, 30\] is not 0 <= x0 < x1 <= 64 and 0 <= y0 < y1 <= 64"),
        (_edit_record(5, lambda r: {**r, "boxes": [[50, 50, 10, 10]] + r["boxes"][1:]}),
         "annotations.jsonl line 5", r"box \[50, 50, 10, 10\] is not 0 <= x0 < x1"),
        (_edit_record(5, lambda r: {**r, "boxes": r["boxes"][:-1] + [[40, 40, 65, 60]]}),
         "annotations.jsonl line 5", r"box \[40, 40, 65, 60\] is not 0 <= x0 < x1 <= 64"),
        (_edit_split(lambda s: {**s, "n_train": 0, "n_val": 8}), "split.json",
         "config field n_train must be positive, got 0"),
        (_edit_split(lambda s: {**s, "n_val": 3}), "split.json",
         r"n_train \+ n_val is 9, but .*annotations\.jsonl holds 8 annotations"),
        (_edit_line(8, lambda line: ""), "split.json",
         r"n_train \+ n_val is 8, but .*annotations\.jsonl holds 7 annotations"),
        (_edit_split(lambda s: {**s, "n_val": "2"}), "split.json", "'n_val' '2' is not an int"),
        (_edit_split(lambda s: {**s, "n_train": True}), "split.json", "'n_train' True is not an int"),
        (_edit_split(lambda s: {**s, "sketches_per_class": 3.0}), "split.json",
         "'sketches_per_class' 3.0 is not an int"),
        (_edit_split(lambda s: {**s, "val_sketches_per_class": 3}), "split.json",
         "val sketch count must be positive and below the pool size"),
        (_edit_split(lambda s: {**s, "sketches_per_class": 4}), "split.json",
         r"sketches_per_class is 4, but there is no .*sketches/circle/0003\.pgm"),
        (_edit_split(lambda s: {**s, "unseen": 3}), "split.json", "'unseen' 3 is not a list of class ids"),
        (_edit_split(lambda s: {**s, "unseen": ["10"]}), "split.json",
         r"'unseen' \['10'\] is not a list of class ids"),
        (_edit_split(lambda s: {**s, "unseen": [12]}), "split.json", r"invalid unseen class ids \(12,\)"),
        (_edit_split(lambda s: {**s, "unseen": [10, 10]}), "split.json", r"invalid unseen class ids \(10, 10\)"),
        (lambda files: files.update({"split.json": files["split.json"].encode().replace(b"seed", b"s\xe9ed")}),
         "split.json", r"not UTF-8 text \(byte \d+: invalid continuation byte\)"),
        (lambda files: files.update({"annotations.jsonl": b"\xff" + files["annotations.jsonl"].encode()}),
         "annotations.jsonl", r"not UTF-8 text \(byte 0: invalid start byte\)"),
    ],
    ids=["split-json", "split-missing-n-train", "split-unknown-key", "split-expanded-format", "line-json",
         "line-not-object", "line-missing-boxes", "boxes-n-by-3", "boxes-ragged", "boxes-outnumber-classes",
         "class-id-too-large", "class-id-negative", "box-nan", "box-inverted", "box-past-the-raster",
         "n-train-zero", "annotation-count-mismatch",
         "annotation-line-missing", "count-a-string", "count-a-bool", "count-a-float", "val-pool-too-large",
         "sketch-pool-past-the-files", "unseen-a-number", "unseen-holds-a-string", "unseen-id-past-the-end",
         "unseen-id-repeated", "split-not-utf8", "annotations-not-utf8"],
)
def test_malformed_metadata_names_file_and_fault(metadata, tmp_path, damage, where, match):
    files, source = metadata
    files = dict(files)
    damage(files)
    _write_corpus(str(tmp_path), files, source)
    with pytest.raises(DatasetError, match=match) as err:
        Dataset(str(tmp_path))
    assert str(err.value).startswith(os.path.join(str(tmp_path), where) + ": ")


def test_a_missing_val_pool_size_defaults(metadata, tmp_path):
    files, source = metadata
    files = dict(files)
    _edit_split(lambda s: {**s, "val_sketches_per_class": None})(files)
    _write_corpus(str(tmp_path), files, source)
    ds = Dataset(str(tmp_path))
    assert ds.config.val_sketches_per_class is None
    assert ds.sketch_pool(0, "train") == [sketch_path(0, 0)]
    assert ds.sketch_pool(0, "val") == [sketch_path(0, 1), sketch_path(0, 2)]


def test_an_image_key_in_a_record_is_ignored(metadata, tmp_path):
    # corpora written before the key was dropped held each scene's path there;
    # the scene is read from its fixed path whatever the key says
    files, source = metadata
    files = dict(files)
    for n in range(1, 9):
        _edit_record(n, lambda r: {**r, "image": "/etc/passwd"})(files)
    _write_corpus(str(tmp_path), files, source)
    os.symlink(os.path.join(source, "scenes"), os.path.join(str(tmp_path), "scenes"))
    ds = Dataset(str(tmp_path))
    assert np.array_equal(ds.load_scene(7), Dataset(source).load_scene(7))


@pytest.fixture(scope="module")
def damaged_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("damaged"))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["split.json", "annotations.jsonl"]), data=st.data())
def test_damaged_metadata_loads_or_raises_dataset_error(metadata, damaged_dir, name, data):
    files, source = metadata
    blob = bytearray(files[name].encode())
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="cut"):]
    else:
        blob[data.draw(st.integers(0, len(blob) - 1), label="at")] = data.draw(st.integers(0, 255), label="byte")
    _write_corpus(damaged_dir, {**files, name: bytes(blob)}, source)
    path = os.path.join(damaged_dir, name)
    try:
        ds = Dataset(damaged_dir)
    except DatasetError as e:
        assert path in str(e)
    else:
        assert len(ds.annotations) == ds.config.n_train + ds.config.n_val


def corpus_digest(root: str) -> str:
    """sha256 over every file under `root`: sorted relative paths, each with
    its byte length and its bytes."""
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, n), root) for d, _, ns in os.walk(root) for n in ns)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as f:
            blob = f.read()
        h.update(rel.encode() + b"\0" + len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest()


@pytest.mark.parametrize(
    "kw, want",
    [
        (dict(seed=3), "7666c38a3f6a79305e747f66fea5ceb998c541d830a143f7fda3e87fa2e052dc"),
        (dict(seed=13, unseen=(10, 11)),
         "a362b430779d7cb9dbc63fcbea62e99c496c71676f9651307c49f3f0a82e0152"),
    ],
    ids=["closed", "open"],
)
def test_corpus_bytes_are_pinned(tmp_path, kw, want):
    # the recipe's every pixel and box, and the recorded config: a change to the corpus
    # must change these digests on purpose
    cfg = DataConfig(n_train=6, n_val=2, sketches_per_class=3, val_sketches_per_class=1, **kw)
    generate_dataset(cfg, str(tmp_path))
    assert corpus_digest(str(tmp_path)) == want
