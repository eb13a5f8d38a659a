"""Average precision and query-set evaluation.

AP uses COCO-style conventions at desk scale: greedy score-ordered matching,
101-point interpolation, an IoU sweep of .50:.05:.95 for mAP, and a
large-object bucket (area >= 400 px^2 at 64x64) for the AP^L analog.
Detections are pooled per query class across scenes, as one `Detections`
set of arrays per class; reported aggregates are means over the queried
classes. Box areas and IoUs come from `boxes`, one IoU table per AP call.

Greedy matching walks the detections in (-score, index) order, and each
either takes a ground truth or does not. A ground truth is *live* for a
detection when it is unused, in the same scene and overlaps it with IoU at
or above the threshold. `average_precision` does not visit every detection:
it jumps from one *match event*, the next detection that has a live ground
truth, to the following one. The event takes the last of its maximal-IoU
in-range candidates (a true positive), else the last of its maximal
out-of-range ones (ignored). Every detection between two events is a false
positive if its own area is in range and is left out otherwise. Jumping is
exact because detections in different scenes never compete for a ground
truth, and the used set only grows: a detection with no live ground truth
when the walk reaches it would have had none at any later point either. Each
event uses up one ground truth, so the loop runs at most once per ground
truth, and the next event is found by keeping, for each live ground truth,
the first detection at or after the walk's position that it overlaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .boxes import area, cxcywh_to_corners, iou
from .data import derive_seed

IOU_SWEEP = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))
LARGE_AREA = 400.0  # px^2; the COCO 32^2 threshold mapped onto 64x64 scenes
RECALL_POINTS = np.linspace(0.0, 1.0, 101)  # of the interpolated precision envelope


@dataclass
class Detections:
    """The scored boxes of one class, pooled over scenes."""

    boxes: np.ndarray  # (N, 4) corner form (x0, y0, x1, y1), pixels
    scores: np.ndarray  # (N,)
    scenes: np.ndarray  # (N,) scene id of each box

    def __len__(self) -> int:
        return len(self.scores)

    @classmethod
    def concat(cls, parts: list) -> "Detections":
        return cls(
            np.concatenate([np.zeros((0, 4)), *(p.boxes for p in parts)]),
            np.concatenate([np.zeros(0), *(p.scores for p in parts)]),
            np.concatenate([np.zeros(0, dtype=np.int64), *(p.scenes for p in parts)]),
        )


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
                "counts": self.counts,
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


def average_precision(dets: Detections, gts, iou_thresh, area_range=None) -> float:
    """AP for one class: greedy highest-score-first matching, each ground truth
    used at most once, 101-point interpolated precision envelope.

    `gts` maps scene id -> (G, 4) corner boxes. With `area_range = (lo, hi)`,
    ground truths outside the range are ignored rather than counted, and
    unmatched detections whose own area falls outside the range do not count
    as false positives (COCO size-bucket convention). Matching jumps from one
    match event to the next, as the module docstring describes.
    """
    lo, hi = area_range if area_range is not None else (0.0, np.inf)

    per_scene = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b in gts.values()]
    gt_boxes = np.concatenate([np.zeros((0, 4)), *per_scene])
    gt_area = area(gt_boxes)
    gt_in_range = (lo <= gt_area) & (gt_area < hi)
    n_pos = int(gt_in_range.sum())
    if n_pos == 0:
        return 0.0

    gt_scene = np.repeat(list(gts), [len(b) for b in per_scene])
    order = np.argsort(-dets.scores, kind="stable")
    det_boxes = dets.boxes[order]
    table = iou(det_boxes, gt_boxes)
    n = len(dets)
    hits = (table >= iou_thresh) & (dets.scenes[order, None] == gt_scene[None, :])
    hits = np.concatenate([hits, np.ones((1, len(gt_scene)), dtype=bool)])  # row n: no more hits
    # first row at or after the walk's position that each live gt overlaps
    nxt = hits.argmax(axis=0)
    is_tp = np.zeros(n, dtype=bool)
    is_event = np.zeros(n, dtype=bool)
    while (r := int(nxt.min())) < n:
        cands = np.flatnonzero(nxt == r)
        pool = cands[gt_in_range[cands]]
        if len(pool) == 0:
            pool = cands  # only out-of-range gts: the detection is ignored
        v = table[r, pool]
        chosen = pool[len(v) - 1 - int(np.argmax(v[::-1]))]  # last of the maximal
        is_event[r] = True
        is_tp[r] = gt_in_range[chosen]
        nxt[chosen] = n
        rest = cands[cands != chosen]
        nxt[rest] = r + 1 + hits[r + 1 :, rest].argmax(axis=0)

    det_area = area(det_boxes)
    counted = is_tp | (~is_event & (lo <= det_area) & (det_area < hi))
    flags = is_tp[counted]  # True = TP, False = FP; ignored detections are left out
    if not len(flags):
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_pos
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope, then 101-point interpolation. The points are summed
    # left to right as Python floats: np.sum's pairwise order, or sum()'s
    # compensation from Python 3.12 on, could round the last bit differently.
    env = np.maximum.accumulate(precision[::-1])[::-1]
    k = np.searchsorted(recall, RECALL_POINTS, side="left")
    out = 0.0
    for x in np.where(k < len(env), env[np.minimum(k, len(env) - 1)], 0.0).tolist():
        out += x
    return out / 101.0


def evaluate_queries(
    model,
    dataset,
    protocol: str = "1Q",
    subset: str = "val",
    seed: int = 0,
) -> MetricsReport:
    """Query every (scene, present class) pair of a split and score detections
    against the queried class only."""
    protocol = protocol.upper()
    if protocol not in ("1Q", "5Q"):
        raise ValueError(f"unknown protocol {protocol!r}")
    n_query = 5 if protocol == "5Q" else 1
    scene_ids = dataset.scene_ids(subset)

    dets_by_class: dict = {}
    gts_by_class: dict = {}
    n_queries = 0
    size = float(dataset.image_size)
    for sid in scene_ids:
        ann = dataset.annotation(sid)
        present = sorted(set(ann.classes))
        image = dataset.load_scene(sid)
        for cls in present:
            rng = np.random.default_rng(derive_seed(seed, "eval", sid, cls))
            pool = dataset.sketch_pool(cls, subset)
            pick = rng.choice(len(pool), size=n_query, replace=len(pool) < n_query)
            sketches = [dataset.load_sketch(pool[i]) for i in pick]
            result = model.localize(image, sketches, threshold=0.0)
            n_queries += 1
            corners = cxcywh_to_corners(np.reshape([b for b, _ in result.detections], (-1, 4))) * size
            scores = np.array([score for _, score in result.detections], dtype=np.float64)
            dets_by_class.setdefault(cls, []).append(
                Detections(corners, scores, np.full(len(scores), sid, dtype=np.int64))
            )
            mask = [c == cls for c in ann.classes]
            gts_by_class.setdefault(cls, {})[sid] = ann.boxes[mask]

    per_class = {}
    large = (LARGE_AREA, np.inf)
    for cls in sorted(gts_by_class):
        dets = Detections.concat(dets_by_class[cls])
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
