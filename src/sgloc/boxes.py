"""Box geometry: form conversions, areas, and pairwise IoU and GIoU.

Corner form is (x0, y0, x1, y1); center-size form is (cx, cy, w, h). The
pairwise functions take (N, 4) and (M, 4) corner-form boxes and return an
(N, M) float64 table. Each entry is computed with the same float64 operations,
in the same order, as the one-pair formula, so it equals that formula's
result exactly: an extent is clipped at 0 before it enters an area, and an
empty union gives IoU 0.
"""

from __future__ import annotations

import numpy as np


def cxcywh_to_corners(b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    half_w = b[..., 2] / 2.0
    half_h = b[..., 3] / 2.0
    return np.stack(
        [b[..., 0] - half_w, b[..., 1] - half_h, b[..., 0] + half_w, b[..., 1] + half_h],
        axis=-1,
    )


def corners_to_cxcywh(b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    return np.stack(
        [
            (b[..., 0] + b[..., 2]) / 2.0,
            (b[..., 1] + b[..., 3]) / 2.0,
            b[..., 2] - b[..., 0],
            b[..., 3] - b[..., 1],
        ],
        axis=-1,
    )


def area(b) -> np.ndarray:
    """Area of each corner-form box; a negative extent counts as 0."""
    b = np.asarray(b, dtype=np.float64)
    return np.maximum(0.0, b[..., 2] - b[..., 0]) * np.maximum(0.0, b[..., 3] - b[..., 1])


def _pairs(a, b):
    """Coordinates of (N, 4) and (M, 4) boxes as (N, 1) and (1, M) columns,
    with the pairwise intersection and union areas, (N, M) each."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ca, cb = a.T[:, :, None], b.T[:, None, :]
    iw = np.maximum(0.0, np.minimum(ca[2], cb[2]) - np.maximum(ca[0], cb[0]))
    ih = np.maximum(0.0, np.minimum(ca[3], cb[3]) - np.maximum(ca[1], cb[1]))
    inter = iw * ih
    union = area(a)[:, None] + area(b)[None, :] - inter
    return ca, cb, inter, union


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def iou(a, b) -> np.ndarray:
    """Intersection over union of every (a, b) pair: (N, 4) x (M, 4) -> (N, M)."""
    _, _, inter, union = _pairs(a, b)
    return _ratio(inter, union)


def giou(a, b) -> np.ndarray:
    """Generalized IoU of every (a, b) pair, in (-1, 1]: IoU minus the fraction
    of the enclosing box not covered by the union. Where the enclosing box is
    empty, the entry is the IoU."""
    ca, cb, inter, union = _pairs(a, b)
    overlap = _ratio(inter, union)
    hull = (np.maximum(ca[2], cb[2]) - np.minimum(ca[0], cb[0])) * (
        np.maximum(ca[3], cb[3]) - np.minimum(ca[1], cb[1])
    )
    return np.where(hull > 0, overlap - _ratio(hull - union, hull), overlap)
