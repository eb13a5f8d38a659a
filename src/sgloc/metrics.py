"""IoU, average precision, and query-set evaluation.

AP uses COCO-style conventions at desk scale: greedy score-ordered matching,
101-point interpolation, an IoU sweep of .50:.05:.95 for mAP, and a
large-object bucket (area >= 400 px^2 at 64x64) for the AP^L analog.
Detections are pooled per query class across scenes; reported aggregates are
means over the queried classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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


def iou(a, b) -> float:
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


def _box_area(b) -> float:
    return max(0.0, float(b[2]) - float(b[0])) * max(0.0, float(b[3]) - float(b[1]))


def average_precision(dets, gts, iou_thresh, area_range=None) -> float:
    """AP for one class: greedy highest-score-first matching, each ground truth
    used at most once, 101-point interpolated precision envelope.

    `gts` maps scene id -> (G, 4) corner boxes. With `area_range = (lo, hi)`,
    ground truths outside the range are ignored rather than counted, and
    unmatched detections whose own area falls outside the range do not count
    as false positives (COCO size-bucket convention).
    """
    lo, hi = area_range if area_range is not None else (0.0, np.inf)

    gt_boxes = {s: np.asarray(b, dtype=np.float64).reshape(-1, 4) for s, b in gts.items()}
    gt_in_range = {
        s: np.array([lo <= _box_area(bb) < hi for bb in b], dtype=bool)
        for s, b in gt_boxes.items()
    }
    n_pos = int(sum(m.sum() for m in gt_in_range.values()))
    if n_pos == 0:
        return 0.0

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    used = {s: np.zeros(len(b), dtype=bool) for s, b in gt_boxes.items()}
    flags = []  # 1 = TP, 0 = FP; ignored detections are left out
    for i in order:
        det = dets[i]
        boxes = gt_boxes.get(det.scene)
        best_j, best_iou = -1, iou_thresh
        best_ign_j, best_ign_iou = -1, iou_thresh
        if boxes is not None:
            for j in range(len(boxes)):
                if used[det.scene][j]:
                    continue
                v = iou(det.box, boxes[j])
                if gt_in_range[det.scene][j]:
                    if v >= best_iou:
                        best_iou, best_j = v, j
                elif v >= best_ign_iou:
                    best_ign_iou, best_ign_j = v, j
        if best_j >= 0:
            used[det.scene][best_j] = True
            flags.append(1)
        elif best_ign_j >= 0:
            used[det.scene][best_ign_j] = True  # matched an out-of-range gt: ignore
        elif lo <= _box_area(det.box) < hi:
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
            dlist = dets_by_class.setdefault(cls, [])
            for box01, score in result.detections:
                x0 = (box01[0] - box01[2] / 2.0) * size
                y0 = (box01[1] - box01[3] / 2.0) * size
                x1 = (box01[0] + box01[2] / 2.0) * size
                y1 = (box01[1] + box01[3] / 2.0) * size
                dlist.append(Detection(np.array([x0, y0, x1, y1]), score, sid))
            mask = [c == cls for c in ann.classes]
            gts_by_class.setdefault(cls, {})[sid] = ann.boxes[mask]

    per_class = {}
    large = (LARGE_AREA, np.inf)
    for cls in sorted(gts_by_class):
        dets = dets_by_class.get(cls, [])
        gts = gts_by_class[cls]
        sweep = [average_precision(dets, gts, t) for t in IOU_SWEEP]
        has_large = any(
            any(_box_area(b) >= LARGE_AREA for b in boxes) for boxes in gts.values()
        )
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
