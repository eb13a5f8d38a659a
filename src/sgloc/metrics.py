"""Average precision and query-set evaluation.

AP uses COCO-style conventions at desk scale: greedy score-ordered matching,
101-point interpolation, an IoU sweep of .50:.05:.95 for mAP, and a
large-object bucket (area >= 400 px^2 at 64x64) for the AP^L analog.
Detections are pooled per query class across scenes; reported aggregates are
means over the queried classes. Box areas and IoUs come from `boxes`, one
IoU table per AP call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .boxes import area, cxcywh_to_corners, iou
from .data import derive_seed

IOU_SWEEP = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))
LARGE_AREA = 400.0  # px^2; the COCO 32^2 threshold mapped onto 64x64 scenes


@dataclass
class Detection:
    box: np.ndarray  # corner form (x0, y0, x1, y1), pixels
    score: float
    scene: int


@dataclass
class MetricsReport:
    map: float
    ap50: float
    ap_large: float
    per_class: dict
    counts: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "map": round(self.map, 6),
                "ap50": round(self.ap50, 6),
                "ap_large": round(self.ap_large, 6),
                "per_class": {
                    k: {m: round(v, 6) for m, v in d.items()}
                    for k, d in sorted(self.per_class.items())
                },
            }
        )

    def to_table(self) -> str:
        rows = [("class", "mAP", "AP@50", "AP^L")]
        for name, d in sorted(self.per_class.items()):
            rows.append(
                (name, f"{d['map']:.3f}", f"{d['ap50']:.3f}",
                 f"{d['ap_large']:.3f}" if d["ap_large"] >= 0 else "-")
            )
        rows.append(("ALL", f"{self.map:.3f}", f"{self.ap50:.3f}", f"{self.ap_large:.3f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def average_precision(dets, gts, iou_thresh, area_range=None) -> float:
    """AP for one class: greedy highest-score-first matching, each ground truth
    used at most once, 101-point interpolated precision envelope.

    `gts` maps scene id -> (G, 4) corner boxes. With `area_range = (lo, hi)`,
    ground truths outside the range are ignored rather than counted, and
    unmatched detections whose own area falls outside the range do not count
    as false positives (COCO size-bucket convention).
    """
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
    table = iou(det_boxes, gt_boxes)
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


def evaluate_queries(
    model,
    dataset,
    protocol: str = "1Q",
    subset: str = "val",
    seed: int = 0,
    restrict_classes=None,
    sketch_class_map=None,
    max_scenes=None,
) -> MetricsReport:
    """Query every (scene, present class) pair of a split and score detections
    against the queried class only.

    `sketch_class_map` substitutes the sketch class used for a queried class
    (the shuffled-query control); ground truths stay those of the queried class.
    """
    protocol = protocol.upper()
    if protocol not in ("1Q", "5Q"):
        raise ValueError(f"unknown protocol {protocol!r}")
    n_query = 5 if protocol == "5Q" else 1
    scene_ids = dataset.scene_ids(subset)
    if max_scenes is not None:
        scene_ids = scene_ids[:max_scenes]

    dets_by_class: dict = {}
    gts_by_class: dict = {}
    n_queries = 0
    size = float(dataset.image_size)
    for sid in scene_ids:
        ann = dataset.annotation(sid)
        present = sorted(set(ann.classes))
        image = dataset.load_scene(sid)
        for cls in present:
            if restrict_classes is not None and cls not in restrict_classes:
                continue
            query_cls = cls if sketch_class_map is None else sketch_class_map[cls]
            rng = np.random.default_rng(derive_seed(seed, "eval", sid, cls))
            pool = dataset.sketch_pool(query_cls, subset)
            pick = rng.choice(len(pool), size=n_query, replace=len(pool) < n_query)
            sketches = [dataset.load_sketch(pool[i]) for i in pick]
            result = model.localize(image, sketches, threshold=0.0)
            n_queries += 1
            corners = cxcywh_to_corners(np.reshape([b for b, _ in result.detections], (-1, 4))) * size
            dets_by_class.setdefault(cls, []).extend(
                Detection(c, score, sid) for c, (_, score) in zip(corners, result.detections)
            )
            mask = [c == cls for c in ann.classes]
            gts_by_class.setdefault(cls, {})[sid] = ann.boxes[mask]

    per_class = {}
    large = (LARGE_AREA, np.inf)
    for cls in sorted(gts_by_class):
        dets = dets_by_class.get(cls, [])
        gts = gts_by_class[cls]
        sweep = [average_precision(dets, gts, t) for t in IOU_SWEEP]
        has_large = any((area(boxes) >= LARGE_AREA).any() for boxes in gts.values())
        ap_l = (
            float(np.mean([average_precision(dets, gts, t, large) for t in IOU_SWEEP]))
            if has_large
            else -1.0
        )
        per_class[dataset.class_names[cls]] = {
            "map": float(np.mean(sweep)),
            "ap50": float(sweep[0]),
            "ap_large": ap_l,
        }

    if not per_class:
        raise ValueError("empty split: no queries evaluated")
    maps = [d["map"] for d in per_class.values()]
    ap50s = [d["ap50"] for d in per_class.values()]
    larges = [d["ap_large"] for d in per_class.values() if d["ap_large"] >= 0]
    return MetricsReport(
        map=float(np.mean(maps)),
        ap50=float(np.mean(ap50s)),
        ap_large=float(np.mean(larges)) if larges else 0.0,
        per_class=per_class,
        counts={"queries": n_queries, "scenes": len(scene_ids), "classes": len(per_class)},
    )
