"""Procedural scenes, sketch queries, and closed/open-world dataset splits.

Scenes are 64x64 RGB rasters with 1..4 filled, textured shape instances over
a cluttered background; sketches are 64x64 white-on-black jittered outline
drawings of a single shape class. Every artifact is a pure function of
(master seed, config); per-item seeds derive from the master seed with a
splitmix64 mix so generation order never matters.

The recipe is fixed, as the paper's evaluation data is: `DataConfig` sets
only the corpus's size, split and seed. The scene recipe is `INSTANCES`,
`SIZE_RANGE`, `OVERLAP_MAX` and `ROT_DEG`; the sketch recipe is
`SKETCH_JITTER`, `SKETCH_ROT_DEG`, `SKETCH_WIDTH_RANGE`, `SKETCH_GAP_PROB`,
`SKETCH_SCALE_RANGE` and `SKETCH_OFFSET_PX`. `generate_scene` and
`render_sketch` read them when called. There are `len(CLASS_NAMES)` = 12
classes.

Both renderers work on whole arrays. A shape is filled by crossing parity
per row: a pixel is inside when an odd number of its outline's edges cross
its row of pixel centres strictly right of its centre. A stroke segment
a -> b gives a pixel centre p the value clip(width / 2 + 0.5 - |p - q|, 0, 1),
with q the point of the segment nearest p, within the segment's box grown by
the width; overlapping strokes keep the maximum. Both are bit-identical to
evaluating these per-pixel formulas edge by edge and segment by segment, as
the first renderers did.

On-disk layout:
    scenes/NNNNNN.ppm          binary P6
    sketches/CLASS/NNNN.pgm    binary P5
    annotations.jsonl          {"boxes": [[x0,y0,x1,y1],..], "classes": [..]}, one line per scene, in id order
    split.json                 the DataConfig, as a JSON object of its six fields

A corpus is a pure function of its `DataConfig`, so `split.json` stores only
that. `Dataset` derives the seen/unseen classes, scene ids and sketch pools
from `Dataset.config` when asked, and `scene_path` and `sketch_path` name the
files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .boxes import iou

IMAGE_SIZE = 64
SCENE_SHAPE = (IMAGE_SIZE, IMAGE_SIZE, 3)
SKETCH_SHAPE = (IMAGE_SIZE, IMAGE_SIZE)

# scene recipe
INSTANCES = (1, 4)  # inclusive range of shapes per scene
SIZE_RANGE = (8.0, 40.0)  # drawn size in pixels, before placement retries shrink it
OVERLAP_MAX = 0.3  # largest IoU between two boxes of one scene
ROT_DEG = 15.0  # largest rotation either way

# sketch recipe
SKETCH_JITTER = 0.06  # vertex noise as a fraction of the drawn size
SKETCH_ROT_DEG = 15.0
SKETCH_WIDTH_RANGE = (1.0, 2.0)  # stroke width in pixels
SKETCH_GAP_PROB = 0.08  # chance that a stroke segment is left out
SKETCH_SCALE_RANGE = (0.66, 0.84)  # drawn size as a fraction of the raster
SKETCH_OFFSET_PX = 2.5  # largest shift of the centre along each axis

class PlacementError(RuntimeError):
    """Raised when instances cannot be placed within the retry budget."""


class DatasetError(RuntimeError):
    """Raised for malformed dataset directories or split configs."""


# ---------------------------------------------------------------------------
# seed derivation


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(master: int, *salts) -> int:
    """Independent child seed from an integer master seed and a salt tuple."""
    if not _is_int(master):
        raise ValueError(f"a seed must be an integer, got {master!r}")
    x = splitmix64(int(master) & 0xFFFFFFFFFFFFFFFF)
    for s in salts:
        if isinstance(s, str):
            for ch in s.encode():
                x = splitmix64(x ^ ch)
        else:
            x = splitmix64(x ^ (int(s) & 0xFFFFFFFFFFFFFFFF))
    return x


# ---------------------------------------------------------------------------
# shape outlines: every class is one or more closed loops in a [-1, 1] frame,
# filled with the even-odd rule (the ring's hole is its second loop)


def _circle_loop(r: float, n: int = 40, cx: float = 0.0, cy: float = 0.0) -> np.ndarray:
    a = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([cx + r * np.cos(a), cy + r * np.sin(a)], axis=1)


def _star_loop() -> np.ndarray:
    pts = []
    for i in range(10):
        r = 1.0 if i % 2 == 0 else 0.45
        a = math.pi / 2 + i * math.pi / 5
        pts.append((r * math.cos(a), r * math.sin(a)))
    return np.array(pts)


def _crescent_loop() -> np.ndarray:
    # outer disc minus an offset cutter disc; boundary = two arcs
    r1, (cx, r2) = 1.0, (0.5, 0.85)
    xi = (cx * cx + r1 * r1 - r2 * r2) / (2.0 * cx)
    yi = math.sqrt(max(0.0, r1 * r1 - xi * xi))
    a = math.atan2(yi, xi)
    outer = np.linspace(a, 2.0 * math.pi - a, 40)
    pts = [(math.cos(t), math.sin(t)) for t in outer]
    # cutter arc from the lower intersection back up the left side to the upper one
    b_lo = math.atan2(-yi, xi - cx)
    b_hi = math.atan2(yi, xi - cx)
    cutter = np.linspace(b_lo, b_hi - 2.0 * math.pi, 30)
    pts += [(cx + r2 * math.cos(t), r2 * math.sin(t)) for t in cutter[1:-1]]
    return np.array(pts)


def _zigzag_loop() -> np.ndarray:
    spine = np.array([(-1.0, 0.55), (-0.5, -0.55), (0.0, 0.55), (0.5, -0.55), (1.0, 0.55)])
    t = 0.24
    top = spine + np.array([0.0, -t])
    bottom = (spine + np.array([0.0, t]))[::-1]
    return np.concatenate([top, bottom], axis=0)


_OUTLINES = {
    "circle": lambda: [_circle_loop(1.0)],
    "square": lambda: [np.array([(-0.9, -0.9), (0.9, -0.9), (0.9, 0.9), (-0.9, 0.9)])],
    "triangle": lambda: [np.array([(0.0, -1.0), (0.95, 0.8), (-0.95, 0.8)])],
    "star": lambda: [_star_loop()],
    "cross": lambda: [
        np.array(
            [
                (-0.3, -1.0), (0.3, -1.0), (0.3, -0.3), (1.0, -0.3), (1.0, 0.3),
                (0.3, 0.3), (0.3, 1.0), (-0.3, 1.0), (-0.3, 0.3), (-1.0, 0.3),
                (-1.0, -0.3), (-0.3, -0.3),
            ]
        )
    ],
    "ring": lambda: [_circle_loop(1.0), _circle_loop(0.55)],
    "arrow": lambda: [
        np.array(
            [
                (-1.0, -0.28), (0.15, -0.28), (0.15, -0.62), (1.0, 0.0),
                (0.15, 0.62), (0.15, 0.28), (-1.0, 0.28),
            ]
        )
    ],
    "crescent": lambda: [_crescent_loop()],
    "trapezoid": lambda: [np.array([(-0.55, -0.8), (0.55, -0.8), (1.0, 0.8), (-1.0, 0.8)])],
    "l_shape": lambda: [
        np.array(
            [(-0.8, -1.0), (-0.2, -1.0), (-0.2, 0.4), (0.8, 0.4), (0.8, 1.0), (-0.8, 1.0)]
        )
    ],
    "t_shape": lambda: [
        np.array(
            [
                (-1.0, -1.0), (1.0, -1.0), (1.0, -0.4), (0.3, -0.4), (0.3, 1.0),
                (-0.3, 1.0), (-0.3, -0.4), (-1.0, -0.4),
            ]
        )
    ],
    "zigzag": lambda: [_zigzag_loop()],
}


CLASS_NAMES = list(_OUTLINES)  # class id = index


def _transform(loops, rot: float, scale_xy, center) -> list:
    c, s = math.cos(rot), math.sin(rot)
    rotm = np.array([[c, -s], [s, c]])
    sx, sy = scale_xy
    out = []
    for loop in loops:
        pts = loop @ rotm.T
        pts = pts * np.array([sx, sy]) + np.asarray(center)
        out.append(pts)
    return out


def _rasterize(loops, w: int = IMAGE_SIZE, h: int = IMAGE_SIZE) -> np.ndarray:
    """Even-odd fill of closed loops onto a pixel-center grid, by crossing
    parity per row.

    Every non-horizontal edge crosses the row of pixel centres at height y
    when exactly one of its ends lies below y, at x = x1 + (y - y1)(x2 - x1) /
    (y2 - y1). A pixel is inside when an odd number of its row's crossings
    lie strictly right of its centre. All edges and rows are one (E, h)
    array, so the mask is bit-identical to toggling, edge by edge, every
    pixel whose centre lies left of that edge's crossing.
    """
    xs = np.arange(w) + 0.5
    ys = np.arange(h) + 0.5
    x1, y1 = np.concatenate(loops).T
    x2, y2 = np.concatenate([np.roll(loop, -1, axis=0) for loop in loops]).T
    # (edge, row) of each crossing. Only these divide: a horizontal edge
    # crosses no row, and a nearly horizontal one would overflow at the rows
    # it does not cross.
    e, rows = np.nonzero((y1[:, None] > ys) != (y2[:, None] > ys))
    xint = x1[e] + (ys[rows] - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
    left = np.searchsorted(xs, xint, side="left")  # centres left of each crossing
    counts = np.bincount(rows * (w + 1) + left, minlength=h * (w + 1)).reshape(h, w + 1)
    right = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]  # [i, j]: crossings right of centre j - 1
    return (right[:, 1:] & 1).astype(bool)


def _tight_box(mask: np.ndarray):
    ys, xs = np.nonzero(mask)
    if len(xs) == 0:
        return None
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


# ---------------------------------------------------------------------------
# scenes


_PALETTE = np.array(
    [
        (0.90, 0.15, 0.15), (0.15, 0.60, 0.90), (0.20, 0.80, 0.25), (0.95, 0.80, 0.10),
        (0.80, 0.25, 0.85), (0.95, 0.55, 0.10), (0.10, 0.85, 0.80), (0.90, 0.30, 0.55),
        (0.55, 0.40, 0.95), (0.70, 0.90, 0.20),
    ]
)


@dataclass
class DataConfig:
    n_train: int = 400  # train scenes, ids 0..n_train-1
    n_val: int = 100  # val scenes, the ids after the train ones
    unseen: tuple = ()  # class ids kept out of train scenes and sketches; empty: closed world
    sketches_per_class: int = 24  # the last val_sketches_per_class of them are val sketches
    val_sketches_per_class: int | None = None  # None: a third of the pool, at least 2
    seed: int = 0

    @property
    def seen(self) -> list:
        """The class ids that train scenes and sketches may hold."""
        return [c for c in range(len(CLASS_NAMES)) if c not in self.unseen]

    @property
    def n_val_sketches(self) -> int:
        n = self.val_sketches_per_class
        return max(2, self.sketches_per_class // 3) if n is None else n

    def validate(self) -> None:
        """Raise a DatasetError for the first field that no corpus can have.
        Fields are integers (numpy's too, bools not), `unseen` a list or tuple
        of distinct class ids, fewer than half the classes, and
        `val_sketches_per_class` may be None. The scene counts are positive
        and the val pool is a non-empty, proper part of each class's pool."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "unseen":
                if not (isinstance(v, (list, tuple)) and all(map(_is_int, v))):
                    raise DatasetError(f"'unseen' {v!r} is not a list of class ids")
            elif not (_is_int(v) or (v is None and f.name == "val_sketches_per_class")):
                raise DatasetError(f"{f.name!r} {v!r} is not an int")
        for name in ("n_train", "n_val"):
            if getattr(self, name) <= 0:
                raise DatasetError(f"config field {name} must be positive, got {getattr(self, name)}")
        unseen = self.unseen
        if len(set(unseen)) != len(unseen) or not all(0 <= u < len(CLASS_NAMES) for u in unseen):
            raise DatasetError(f"invalid unseen class ids {tuple(unseen)}")
        if len(unseen) >= len(CLASS_NAMES) / 2:
            raise DatasetError("unseen classes must be fewer than half of all classes")
        if not 0 < self.n_val_sketches < self.sketches_per_class:
            raise DatasetError("val sketch count must be positive and below the pool size")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def scene_path(sid: int) -> str:
    """Where scene `sid` lies, relative to the corpus root."""
    return f"scenes/{sid:06d}.ppm"


def sketch_path(cls: int, i: int) -> str:
    """Where sketch `i` of class `cls` lies, relative to the corpus root."""
    return f"sketches/{CLASS_NAMES[cls]}/{i:04d}.pgm"


@dataclass
class SceneSample:
    image: np.ndarray  # (64, 64, 3) float in [0, 1]
    boxes: np.ndarray  # (n, 4) int corner boxes, x1/y1 exclusive
    classes: list
    masks: list  # per-instance painted-pixel masks


@dataclass
class Annotation:
    boxes: np.ndarray
    classes: list


def generate_scene(seed: int, classes=None) -> SceneSample:
    """Deterministic scene: cluttered background plus 1..4 textured shapes,
    each drawn from `classes` (default: every class) and filled with
    `_rasterize`'s crossing-parity rule. Raises ValueError for an empty pool
    or a class id outside 0..11."""
    if classes is None:
        pool = list(range(len(CLASS_NAMES)))
    else:
        pool = [_class_id(c) for c in classes]
        if not pool:
            raise ValueError("the class pool is empty")
    rng = np.random.default_rng(seed)
    size = IMAGE_SIZE

    base = rng.uniform(0.25, 0.65, 3)
    img = np.tile(base, (size, size, 1))
    gx, gy = rng.uniform(-1, 1, 2)
    ramp = (np.arange(size) / size - 0.5)
    img += 0.10 * (gx * ramp[None, :, None] + gy * ramp[:, None, None])
    cells = np.arange(size)
    for _ in range(rng.integers(2, 5)):
        cx, cy = rng.uniform(0, size, 2)
        sig = rng.uniform(6, 18)
        amp = rng.uniform(-0.09, 0.09, 3)
        blob = np.exp(-((cells[None, :] - cx) ** 2 + (cells[:, None] - cy) ** 2) / (2 * sig * sig))
        img += blob[:, :, None] * amp
    img += rng.uniform(-0.05, 0.05, (size, size, 3))

    n_inst = int(rng.integers(INSTANCES[0], INSTANCES[1] + 1))
    boxes, cls_ids, masks = [], [], []
    for _ in range(n_inst):
        cls = int(rng.choice(pool))
        name = CLASS_NAMES[cls]
        outline = _OUTLINES[name]()
        placed = False
        s = float(rng.uniform(*SIZE_RANGE))
        for attempt in range(80):
            if attempt and attempt % 10 == 0:
                s = max(SIZE_RANGE[0], s * 0.85)
            half = s / 2.0
            cx = rng.uniform(half + 1, size - half - 1)
            cy = rng.uniform(half + 1, size - half - 1)
            rot = math.radians(rng.uniform(-ROT_DEG, ROT_DEG))
            stretch = rng.uniform(0.85, 1.15)
            loops = _transform(outline, rot, (half, half * stretch), (cx, cy))
            mask = _rasterize(loops)
            box = _tight_box(mask)
            if box is None:
                continue
            if boxes and iou([box], boxes).max() > OVERLAP_MAX:
                continue
            color = _PALETTE[rng.integers(len(_PALETTE))] + rng.uniform(-0.08, 0.08, 3)
            texture = rng.uniform(-0.07, 0.07, (size, size))
            img[mask] = color[None, :] + texture[mask][:, None]
            boxes.append(box)
            cls_ids.append(cls)
            masks.append(mask)
            placed = True
            break
        if not placed:
            raise PlacementError(
                f"could not place a {name} of size ~{s:.0f}px after 80 attempts"
            )
    np.clip(img, 0.0, 1.0, out=img)
    return SceneSample(img, np.array(boxes, dtype=np.float64), cls_ids, masks)


# ---------------------------------------------------------------------------
# sketches


def _class_id(cls) -> int:
    """`cls` as an int class id, or a ValueError naming it; bools are not ids."""
    if not _is_int(cls) or not 0 <= cls < len(CLASS_NAMES):
        raise ValueError(f"class id {cls!r} is outside 0..{len(CLASS_NAMES) - 1}")
    return int(cls)


def render_sketch(cls: int, seed: int) -> np.ndarray:
    """White-on-black jittered outline drawing of one shape class.

    Each loop is subdivided, jittered, and cut into segments, some of which
    are left out as gaps; `_draw_strokes` draws the rest in one pass. Raises
    ValueError for a class id outside 0..11.
    """
    name = CLASS_NAMES[_class_id(cls)]
    rng = np.random.default_rng(seed)
    size = IMAGE_SIZE
    draw_size = float(rng.uniform(*SKETCH_SCALE_RANGE)) * size
    half = draw_size / 2.0
    center = size / 2.0 + rng.uniform(-SKETCH_OFFSET_PX, SKETCH_OFFSET_PX, 2)
    rot = math.radians(rng.uniform(-SKETCH_ROT_DEG, SKETCH_ROT_DEG))
    loops = _transform(_OUTLINES[name](), rot, (half, half), center)

    width = float(rng.uniform(*SKETCH_WIDTH_RANGE))
    sigma = SKETCH_JITTER * draw_size
    starts, ends = [], []
    for loop in loops:
        pts = _subdivide(loop, max_step=5.0)
        pts = pts + rng.normal(0.0, sigma, pts.shape)
        kept = rng.random(len(pts)) >= SKETCH_GAP_PROB  # segment i runs from point i to i + 1
        starts.append(pts[kept])
        ends.append(np.roll(pts, -1, axis=0)[kept])
    img = _draw_strokes(np.concatenate(starts), np.concatenate(ends), width)
    return np.clip(img, 0.0, 1.0)


def _subdivide(loop: np.ndarray, max_step: float) -> np.ndarray:
    """Split each edge of `loop` into ceil(|b - a| / max_step) equal steps,
    at least one; the points are a + (b - a) * (k / steps)."""
    ab = np.roll(loop, -1, axis=0) - loop
    length = np.sqrt((ab[:, None, :] @ ab[:, :, None]).reshape(-1))  # np.linalg.norm's dot, per edge
    steps = np.maximum(1, np.ceil(length / max_step).astype(np.int64))
    edge = np.repeat(np.arange(len(loop)), steps)
    k = np.arange(len(edge)) - np.repeat(np.cumsum(steps) - steps, steps)
    return loop[edge] + ab[edge] * (k / steps[edge])[:, None]


def _draw_strokes(a: np.ndarray, b: np.ndarray, width: float) -> np.ndarray:
    """The raster of the strokes of segments a[k] -> b[k], drawn all at once.

    A segment's stroke value at a pixel centre p is clip(width / 2 + 0.5 -
    |p - q|, 0, 1), with q the point of the segment nearest p (q = a when
    a = b). It is computed only inside the segment's box, grown by `width`
    and clipped to the raster, and folded in with a maximum. The boxes are
    padded to the largest one, so every segment is a window of one
    (K, Wy, Wx) field; the values are bit-identical to drawing the segments
    one by one.
    """
    size = IMAGE_SIZE
    img = np.zeros(size * size)
    lo = np.floor(np.minimum(a, b) - width).astype(np.int64)
    hi = np.ceil(np.maximum(a, b) + width).astype(np.int64) + 1
    x0, y0 = np.maximum(lo, 0).T
    x1, y1 = np.minimum(hi, size).T
    on_raster = (x0 < x1) & (y0 < y1)
    if not on_raster.any():
        return img.reshape(size, size)
    a, b, x0, y0, x1, y1 = (v[on_raster] for v in (a, b, x0, y0, x1, y1))
    ix = np.arange((x1 - x0).max())
    iy = np.arange((y1 - y0).max())
    cols = (x0[:, None] + ix)[:, None, :]  # (K, 1, Wx)
    rows = (y0[:, None] + iy)[:, :, None]  # (K, Wy, 1)
    px = cols + 0.5
    py = rows + 0.5
    ab = b - a
    # ab @ ab per segment, the BLAS dot; ab0 * ab0 + ab1 * ab1 can differ in the last bit
    denom = (ab[:, None, :] @ ab[:, :, None]).reshape(-1, 1, 1)
    a0, a1 = a[:, 0, None, None], a[:, 1, None, None]
    ab0, ab1 = ab[:, 0, None, None], ab[:, 1, None, None]
    # a point segment (ab = 0) divides 0 by 1 instead, so its t is 0
    t = np.clip(((px - a0) * ab0 + (py - a1) * ab1) / np.where(denom == 0, 1.0, denom), 0.0, 1.0)
    dx = px - (a0 + t * ab0)
    dy = py - (a1 + t * ab1)
    dist = np.sqrt(dx * dx + dy * dy)
    val = np.clip(width / 2.0 + 0.5 - dist, 0.0, 1.0)
    window = (cols < x1[:, None, None]) & (rows < y1[:, None, None])
    flat = np.broadcast_to(rows * size + cols, val.shape)[window]
    np.maximum.at(img, flat, val[window])
    return img.reshape(size, size)


# ---------------------------------------------------------------------------
# PPM / PGM


def _write_pnm(path: str, img: np.ndarray, magic: str, channels: tuple) -> None:
    arr = np.clip(np.rint(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    h, w, *rest = arr.shape
    if tuple(rest) != channels:
        raise ValueError(f"{path}: cannot write an array of shape {arr.shape} as {magic}")
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode())
        f.write(arr.tobytes())


def write_ppm(path: str, img: np.ndarray) -> None:
    _write_pnm(path, img, "P6", (3,))


def read_ppm(path: str) -> np.ndarray:
    return _read_pnm(path, b"P6", "PPM", (3,))


def write_pgm(path: str, img: np.ndarray) -> None:
    _write_pnm(path, img, "P5", ())


def read_pgm(path: str) -> np.ndarray:
    return _read_pnm(path, b"P5", "PGM", ())


def _read_pnm(path: str, magic: bytes, kind: str, channels: tuple) -> np.ndarray:
    """An 8-bit binary PNM raster as floats in [0, 1]; bytes after the raster
    are ignored."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] != magic:
        raise DatasetError(f"{path}: not a binary {kind}")
    w, h, maxval, start = _parse_pnm_header(data, path)
    shape = (h, w) + channels
    n = math.prod(shape)
    if len(data) - start < n:
        raise DatasetError(f"{path}: raster holds {len(data) - start} bytes, a {w}x{h} {kind} needs {n}")
    arr = np.frombuffer(data, dtype=np.uint8, count=n, offset=start).reshape(shape)
    top = int(arr.max())
    if top > maxval:
        raise DatasetError(f"{path}: sample {top} exceeds maxval {maxval}")
    return arr.astype(np.float64) / float(maxval)


def _parse_pnm_header(data: bytes, path: str) -> tuple:
    """(width, height, maxval, raster offset) of the header after the magic."""
    fields = []
    i = 2
    while len(fields) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if i == j:
            raise DatasetError(f"{path}: header ends after {len(fields)} of 3 fields")
        if not data[i:j].isdigit():
            raise DatasetError(f"{path}: header field {data[i:j]!r} is not a decimal number")
        fields.append(int(data[i:j]))
        i = j
    if i == len(data):
        raise DatasetError(f"{path}: header ends without the whitespace after maxval")
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise DatasetError(f"{path}: extents {w}x{h} are not positive")
    if not 1 <= maxval <= 255:
        raise DatasetError(f"{path}: maxval {maxval} is outside 1..255 (only 8-bit rasters are read)")
    return w, h, maxval, i + 1  # one whitespace byte follows maxval


# ---------------------------------------------------------------------------
# dataset directories


def generate_dataset(config: DataConfig, out_dir: str) -> "Dataset":
    """Generate and write a full corpus into `out_dir`, which must be new or
    empty, so that no file of an earlier corpus stays behind; returns the
    loaded Dataset."""
    config.validate()
    if os.path.exists(out_dir) and (not os.path.isdir(out_dir) or os.listdir(out_dir)):
        raise DatasetError(f"{out_dir}: exists and is not an empty directory")
    os.makedirs(os.path.join(out_dir, "scenes"), exist_ok=True)
    for name in CLASS_NAMES:
        os.makedirs(os.path.join(out_dir, "sketches", name), exist_ok=True)

    lines = []
    for sid in range(config.n_train + config.n_val):
        pool = config.seen if sid < config.n_train else None
        sample = generate_scene(derive_seed(config.seed, "scene", sid), classes=pool)
        write_ppm(os.path.join(out_dir, scene_path(sid)), sample.image)
        boxes = [[int(v) for v in b] for b in sample.boxes]
        lines.append(json.dumps({"boxes": boxes, "classes": [int(c) for c in sample.classes]}))
    with open(os.path.join(out_dir, "annotations.jsonl"), "w") as f:
        f.write("\n".join(lines) + "\n")

    for c in range(len(CLASS_NAMES)):
        for i in range(config.sketches_per_class):
            img = render_sketch(c, derive_seed(config.seed, "sketch", c, i))
            write_pgm(os.path.join(out_dir, sketch_path(c, i)), img)

    with open(os.path.join(out_dir, "split.json"), "w") as f:
        json.dump(asdict(config), f, indent=1, default=int)  # default: numpy integers
    return Dataset(out_dir)


def _read_text(path: str) -> str:
    """The UTF-8 text of `path`, or a DatasetError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise DatasetError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None


def read_raster(read, path: str, shape: tuple, needs: str = "the corpus") -> np.ndarray:
    """`read(path)`, or a DatasetError naming `path` when the raster's shape
    is not `shape`, the one that `needs` takes."""
    got = read(path)
    if got.shape != shape:
        raise DatasetError(f"{path}: raster shape {got.shape}, {needs} needs {shape}")
    return got


def _json_record(text: str, where: str, keys: tuple) -> dict:
    """A JSON object holding at least `keys`, or a DatasetError naming `where`."""
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetError(f"{where}: not valid JSON: {e}") from None
    if not isinstance(rec, dict):
        raise DatasetError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in rec:
            raise DatasetError(f"{where}: missing key {key!r}")
    return rec


def _annotation(rec: dict, where: str) -> Annotation:
    """The boxes and class ids of one annotation record, checked: each box
    must be one that `_tight_box` can write, 0 <= x0 < x1 <= 64 and
    0 <= y0 < y1 <= 64 (NaN fails every comparison)."""
    try:
        boxes = np.array(rec["boxes"], dtype=np.float64)
    except (TypeError, ValueError):
        raise DatasetError(f"{where}: boxes are not an (n, 4) array of numbers") from None
    if boxes.shape == (0,):
        boxes = boxes.reshape(0, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise DatasetError(f"{where}: boxes have shape {boxes.shape}, not (n, 4)")
    x0, y0, x1, y1 = boxes.T
    inside = (0 <= x0) & (x0 < x1) & (x1 <= IMAGE_SIZE) & (0 <= y0) & (y0 < y1) & (y1 <= IMAGE_SIZE)
    if not inside.all():
        box = rec["boxes"][int(np.argmin(inside))]
        raise DatasetError(f"{where}: box {box!r} is not 0 <= x0 < x1 <= 64 and 0 <= y0 < y1 <= 64")
    classes = rec["classes"]
    if not isinstance(classes, list) or len(classes) != len(boxes):
        raise DatasetError(f"{where}: {len(boxes)} boxes but classes {classes!r}")
    for c in classes:
        if not (type(c) is int and 0 <= c < len(CLASS_NAMES)):
            raise DatasetError(f"{where}: class id {c!r} is outside 0..{len(CLASS_NAMES) - 1}")
    return Annotation(boxes, classes)


def _data_config(text: str, where: str) -> DataConfig:
    """The DataConfig that split.json text records: exactly its fields,
    passing `DataConfig.validate`, with `unseen` as a tuple."""
    names = [f.name for f in fields(DataConfig)]
    raw = _json_record(text, where, names)
    for key in raw:
        if key not in names:
            raise DatasetError(f"{where}: unknown key {key!r}")
    config = DataConfig(**raw)
    try:
        config.validate()
    except DatasetError as e:
        raise DatasetError(f"{where}: {e}") from None
    return replace(config, unseen=tuple(config.unseen))


class Dataset:
    """Read access to a generated corpus directory. `load_scene` and
    `load_sketch` read their file at every call."""

    image_size = IMAGE_SIZE
    class_names = CLASS_NAMES

    def __init__(self, root: str):
        self.root = root
        split_path = os.path.join(root, "split.json")
        if not os.path.exists(split_path):
            raise DatasetError(f"no split.json under {root}")
        self.config = _data_config(_read_text(split_path), split_path)
        self.annotations = []
        ann_path = os.path.join(root, "annotations.jsonl")
        for lineno, line in enumerate(_read_text(ann_path).split("\n"), 1):
            if line.strip():
                where = f"{ann_path} line {lineno}"
                self.annotations.append(_annotation(_json_record(line, where, ("boxes", "classes")), where))
        n_scenes = self.config.n_train + self.config.n_val
        if len(self.annotations) != n_scenes:
            raise DatasetError(
                f"{split_path}: n_train + n_val is {n_scenes}, but {ann_path} "
                f"holds {len(self.annotations)} annotations"
            )
        n_sk = self.config.sketches_per_class
        last = os.path.join(root, sketch_path(0, n_sk - 1))
        if not os.path.exists(last):
            raise DatasetError(f"{split_path}: sketches_per_class is {n_sk}, but there is no {last}")

    def scene_ids(self, subset: str) -> list:
        n_train = self.config.n_train
        if subset == "train":
            return list(range(n_train))
        if subset == "val":
            return list(range(n_train, n_train + self.config.n_val))
        raise DatasetError(f"unknown subset {subset!r}")

    def annotation(self, sid: int) -> Annotation:
        return self.annotations[sid]

    def load_scene(self, sid: int) -> np.ndarray:
        return read_raster(read_ppm, os.path.join(self.root, scene_path(sid)), SCENE_SHAPE)

    def sketch_pool(self, cls: int, subset: str) -> list:
        """Class `cls`'s `subset` sketch paths: the last `n_val_sketches` of
        its pool for val, the rest for train unless the class is unseen."""
        if subset not in ("train", "val"):
            raise DatasetError(f"unknown subset {subset!r}")
        n_sk = self.config.sketches_per_class
        cut = n_sk - self.config.n_val_sketches
        ids = range(cut, n_sk) if subset == "val" else range(0 if cls in self.config.unseen else cut)
        if not ids or not _is_int(cls) or not 0 <= cls < len(CLASS_NAMES):
            raise DatasetError(f"empty {subset} sketch pool for class {cls}")
        return [sketch_path(int(cls), i) for i in ids]

    def draw_sketches(self, rng, cls: int, subset: str, n: int) -> list:
        """`n` paths drawn by `rng` from the `subset` sketch pool of class
        `cls`, without replacement unless the pool holds fewer than `n`."""
        pool = self.sketch_pool(cls, subset)
        return [pool[i] for i in rng.choice(len(pool), size=n, replace=len(pool) < n)]

    def load_sketch(self, rel_path: str) -> np.ndarray:
        return read_raster(read_pgm, os.path.join(self.root, rel_path), SKETCH_SHAPE)
