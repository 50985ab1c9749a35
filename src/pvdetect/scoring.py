"""Pixel- and object-level precision/recall evaluation.

Pixel scoring pools every pixel of the supplied maps and sweeps the
acceptance threshold over the distinct positive confidence values in
descending order (a pixel with confidence exactly at the threshold counts
as detected).  Zero-confidence pixels are never detected, so only the
positive ones are widened to float64 and sorted; annotated pixels and the
prevalence count every pixel.  Object scoring links detections to
annotations with the Jaccard overlap: a detection is judged against the
union of every annotation it touches, and an accepted detection marks all
of them as detected.

Objects and annotations are sets of flat pixel indices y * width + x of
their tile (see DetectionObject).  Whether a detection is accepted depends
on that detection and its tile's annotations only, so each detection is
judged once, on its own tile, for every Jaccard level: its Jaccard with
the annotations it touches is computed once, and each level is one
comparison.  One sort by confidence then yields every level's object
curve, as in the PASCAL VOC evaluation.

Both flavors report the positive-class prevalence as the random-detector
baseline: the positive pixel fraction at pixel level, and the precision
of the full candidate list at object level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import DetectionObject, check_map, run_pixels
from .errors import ConfigError, DataError
from .imagery import flat_pixels, read_text, write_atomic


@dataclass(frozen=True)
class PRCurve:
    """Points of a precision/recall sweep, thresholds strictly decreasing."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    prevalence: float

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        p = np.asarray(self.precision, dtype=np.float64)
        r = np.asarray(self.recall, dtype=np.float64)
        for name, arr in (("thresholds", t), ("precision", p), ("recall", r)):
            object.__setattr__(self, name, arr)
            if arr.shape != t.shape:
                raise DataError("curve arrays must have identical length")
        # every check is written so that NaN fails it
        if not 0.0 <= self.prevalence <= 1.0:
            raise DataError(f"prevalence {self.prevalence} outside [0, 1]")
        if not np.isfinite(t).all():
            raise DataError("thresholds must be finite")
        if not (np.diff(t) < 0).all():
            raise DataError("thresholds must be strictly decreasing")
        if not (np.diff(r) >= 0).all():
            raise DataError("recall must be non-decreasing along the sweep")
        for name, arr in (("precision", p), ("recall", r)):
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
                raise DataError(f"{name} outside [0, 1]")

    @property
    def max_recall(self) -> float:
        return float(self.recall[-1]) if self.recall.size else 0.0

    def best_precision_at(self, min_recall: float) -> float:
        """Highest precision among points with recall >= min_recall."""
        ok = self.recall >= min_recall
        return float(self.precision[ok].max()) if ok.any() else 0.0

    def best_recall_at(self, min_precision: float) -> float:
        """Highest recall among points with precision >= min_precision."""
        ok = self.precision >= min_precision
        return float(self.recall[ok].max()) if ok.any() else 0.0


def jaccard(pixels_a, pixels_b) -> float:
    """Jaccard overlap |A & B| / |A | B| of two sets of flat pixel indices."""
    a = np.unique(np.asarray(pixels_a, dtype=np.int64))
    b = np.unique(np.asarray(pixels_b, dtype=np.int64))
    if not a.size and not b.size:
        raise ValueError("jaccard of two empty sets is undefined")
    both = np.intersect1d(a, b, assume_unique=True).size
    return both / (a.size + b.size - both)


def pixel_pr(conf_maps: list[np.ndarray], positives: list[np.ndarray]) -> PRCurve:
    """Pooled pixel-level PR curve over paired maps and annotated pixels.

    positives holds each map's PV pixels as rasterize gives them, sorted
    flat indices y * width + x.  Every distinct positive confidence is a
    threshold, and its true positives are the positive pixels whose
    confidence is at or above it.  Pixels with zero confidence are never
    counted as detections, so only the pixels with confidence > 0 are
    sorted.  Maps are non-empty and 2-D, of finite values in [0, 1] (see
    check_map), and may be float32, the CMAP's precision, or anything
    float64 can hold.
    """
    if len(conf_maps) != len(positives) or not conf_maps:
        raise ConfigError("need one positive-pixel array per confidence map")
    confs, pos_confs = [], []
    n_pixels = 0
    for conf, pos in zip(conf_maps, positives):
        conf = check_map(conf, 0.0, 1.0)
        pos = flat_pixels(pos, conf.size)
        flat = conf.ravel()
        confs.append(flat[flat > 0.0].astype(np.float64, copy=False))
        pos_confs.append(flat[pos].astype(np.float64, copy=False))
        n_pixels += conf.size
    pos_conf = np.sort(np.concatenate(pos_confs))
    n_pos = pos_conf.size
    if n_pos == 0:
        raise DataError("ground truth contains no positive pixels")

    conf = np.sort(np.concatenate(confs))[::-1]
    # the last pixel of each distinct confidence; no positive pixel, no point
    ends = np.flatnonzero(np.append(conf[:-1] != conf[1:], conf.size > 0))
    tp = n_pos - np.searchsorted(pos_conf, conf[ends], side="left")
    return PRCurve(conf[ends], tp / (ends + 1), tp / n_pos, n_pos / n_pixels)


def judge_detections(
    detections: list[DetectionObject], annotation_pixels: list
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per detection, the annotations it touches and its Jaccard with them.

    Detections and annotations hold flat pixel indices of one tile.  The
    Jaccard is taken against the union of the touched annotations, and is
    0.0 for a detection touching none.  At level J* a detection is true
    when its Jaccard is >= J*; it then detects every annotation it touches.
    """
    anns = [np.asarray(a, dtype=np.int64) for a in annotation_pixels]
    # every annotation pixel with its owner, sorted by pixel; overlapping
    # annotations put several entries on one pixel
    owner = np.repeat(np.arange(len(anns)), [a.size for a in anns])
    flat = np.concatenate([np.empty(0, dtype=np.int64), *anns])
    order = np.argsort(flat, kind="stable")
    flat, owner = flat[order], owner[order]
    touched, overlap = [], np.zeros(len(detections))
    for i, det in enumerate(detections):
        lo = np.searchsorted(flat, det.pixels, side="left")
        hi = np.searchsorted(flat, det.pixels, side="right")
        n = hi - lo  # pixel k of the detection matches entries lo[k] .. hi[k]-1
        entries = run_pixels(lo, n)
        ids = np.unique(owner[entries])
        if ids.size:
            overlap[i] = jaccard(det.pixels, np.concatenate([anns[j] for j in ids]))
        touched.append(ids)
    return touched, overlap


def multi_tile_object_pr(
    detections_by_tile: dict,
    annotations_by_tile: dict,
    jaccard_levels,
) -> list[PRCurve]:
    """Object-level PR curves pooled over tiles, one per Jaccard level.

    Tiles are keyed by tile id.  Each detection is judged once, against its
    own tile's annotations, for every level.  At each distinct confidence
    t, precision is the true fraction of the detections with confidence
    >= t, and recall the fraction of annotations whose best true detection
    has confidence >= t.  The prevalence field is the precision of the full
    candidate list (the random-detector baseline); maximum recall stays
    below 1 if an annotation is missed.
    """
    levels = [float(level) for level in jaccard_levels]
    if not all(0.0 < level <= 1.0 for level in levels):
        raise ConfigError(f"jaccard thresholds must be in (0, 1], got {levels}")
    extra = set(detections_by_tile) - set(annotations_by_tile)
    if extra:
        raise DataError(f"detections reference unknown tiles: {sorted(extra)}")
    confidences, touched, overlaps = [], [], []
    n_annotations = 0
    for tile_id in sorted(annotations_by_tile):
        anns = annotations_by_tile[tile_id]
        dets = detections_by_tile.get(tile_id, [])
        confidences.extend(d.confidence for d in dets)
        ids, overlap = judge_detections(dets, anns)
        touched.extend(t + n_annotations for t in ids)
        overlaps.append(overlap)
        n_annotations += len(anns)
    if not n_annotations:
        raise DataError("object scoring requires at least one annotation")
    if not confidences:
        return [PRCurve(np.array([]), np.array([]), np.array([]), 0.0) for _ in levels]

    conf = np.array(confidences, dtype=np.float64)
    overlap = np.concatenate(overlaps)
    order = np.argsort(-conf, kind="stable")
    sorted_conf = conf[order]
    ends = np.flatnonzero(np.append(sorted_conf[:-1] != sorted_conf[1:], True))
    thresholds = sorted_conf[ends]
    hits = np.concatenate(touched)
    hit_by = np.repeat(np.arange(conf.size), [ids.size for ids in touched])
    curves = []
    for level in levels:
        true = overlap >= level
        cum_true = np.cumsum(true[order])
        best = np.full(n_annotations, -np.inf)
        kept = true[hit_by]
        np.maximum.at(best, hits[kept], conf[hit_by[kept]])
        n_detected = np.searchsorted(np.sort(-best), -thresholds, side="right")
        curves.append(PRCurve(
            thresholds,
            cum_true[ends] / (ends + 1),
            n_detected / n_annotations,
            int(cum_true[-1]) / conf.size,
        ))
    return curves


# ---------------------------------------------------------------------------
# PR curve CSV
# ---------------------------------------------------------------------------


def write_pr_csv(curve: PRCurve, path) -> None:
    """CSV with header threshold,precision,recall and 17-digit decimals.

    Prevalence rides along as a '#' comment line ahead of the header.
    """
    lines = [f"# prevalence={format(curve.prevalence, '.17g')}", "threshold,precision,recall"]
    rows = zip(curve.thresholds.tolist(), curve.precision.tolist(), curve.recall.tolist())
    lines += [f"{t:.17g},{p:.17g},{r:.17g}" for t, p, r in rows]
    write_atomic(path, "\n".join(lines) + "\n")


def write_pr_svg(curve: PRCurve, path, title: str = "") -> None:
    """Minimal standalone SVG of the curve, recall on x and precision on y."""
    width, height, margin = 480, 360, 48
    sx = width - 2 * margin
    sy = height - 2 * margin

    def px(r):
        return margin + r * sx

    def py(p):
        return height - margin - p * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">recall</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">precision</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle" font-size="10">{tick:g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{py(tick) + 3:.1f}" '
            f'text-anchor="end" font-size="10">{tick:g}</text>'
        )
    if title:
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-size="14">{text}</text>'
        )
    if curve.prevalence > 0:
        parts.append(
            f'<line x1="{px(0):.1f}" y1="{py(curve.prevalence):.1f}" '
            f'x2="{px(1):.1f}" y2="{py(curve.prevalence):.1f}" '
            f'stroke="gray" stroke-dasharray="4 3"/>'
        )
    if curve.recall.size:
        points = " ".join(
            f"{px(r):.2f},{py(p):.2f}" for r, p in zip(curve.recall, curve.precision)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="crimson" '
            f'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")


def read_pr_csv(path) -> PRCurve:
    text = read_text(path, "PR file")
    prevalence = 0.0
    rows = []
    saw_header = False
    try:
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("prevalence="):
                    prevalence = float(body.split("=", 1)[1])
                continue
            if not saw_header:
                if line != "threshold,precision,recall":
                    raise DataError(f"{path}: bad PR header {line!r}")
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{path}: bad PR row {line!r}")
            rows.append(tuple(float(v) for v in parts))
    except ValueError as exc:  # a field float() cannot read
        raise DataError(f"{path}: {exc}") from None
    if not saw_header:
        raise DataError(f"{path}: missing PR header")
    arr = np.array(rows, dtype=np.float64).reshape(-1, 3)
    return PRCurve(arr[:, 0], arr[:, 1], arr[:, 2], prevalence)
