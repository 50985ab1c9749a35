"""Confidence-map post-processing and object extraction.

The enhancement pass turns a raw per-pixel confidence map into a sparse
map of constant-valued grown regions:

1. non-maximum suppression over a clamped L_s x L_s window (plateau ties
   go to the lexicographically smallest (y, x) pixel);
2. removal of maxima below the global floor c_0 (equal values survive);
3. for each surviving maximum: crop a clamped L_g x L_g window, split it
   into foreground/background with a 256-bin Otsu threshold, keep the
   8-connected foreground component containing the maximum (the maximum
   itself always counts as foreground), and write that component into the
   output at the maximum's confidence, merging overlaps by max;
4. morphological closing by a disk of radius r_1, then dilation by a disk
   of radius r_2, applied to the nonzero support.  Original pixels keep
   their value; a pixel added by closing takes the maximum confidence
   within disk r_1, and a pixel added by dilation the maximum
   already-assigned value within disk r_2.  Closing is computed against
   the infinite plane, so it never loses support at tile borders.

No step loops over pixels or seeds in Python.  NMS is three separable
running-max filters (each doubling its span per pass): a pixel survives
when it equals its window maximum and strictly exceeds the window rows
above it and the window pixels left of it in its row, which is exactly the
(y, x) tie-break.  Step 3 runs on batches of seeds sized by SEED_CELLS: one
bincount gives every crop's histogram, the Otsu argmax is taken for all
crops at once (exactly, first maximum on ties; Otsu 1979), and the crops,
framed and stacked, take one labeling; regions merge by np.maximum.at,
which does not depend on order.  A disk filter takes one horizontal running
max per distinct half-width of the disk's rows, then combines its 2r + 1
row shifts.  One labeler serves step 3 and objects: searchsorted finds
neighbour pairs among the sorted flat indices of the support, and rounds of
hooking roots under smaller roots, each followed by pointer jumping
(Shiloach & Vishkin), label each pixel with the smallest flat index of its
component.

Maps stay float32 (as the CMAP stores them) or else float64 throughout.
Max, where, > 0 and x 256 are exact in float32 and c_0 is compared with
the maxima's values widened to float64 (NumPy 2 would round c_0 to float32
against a float32 array), so a float32 map and its float64 widening give
the same bytes.

Objects are the 8-connected components of the positive support of an
enhanced map; each object's confidence is its maximum pixel value.  Pixel
sets take one compact form, sorted flat indices y * width + x into their
tile: the maxima of step 1, the seeds of step 2, and each
DetectionObject's pixels from extraction through the detections CSV to
scoring.  An object's run-length text form (to_rle/from_rle) is the only
other pixel format, and decoding rejects runs outside the tile.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError, DataError
from .features import BAND_PIXELS
from .imagery import read_input, write_atomic

# step 3 grows seeds in batches of at most this many window cells
# (seeds x otsu_side**2, 45 seeds at the defaults), so its memory stays
# flat at any seed count; larger batches ran no faster
SEED_CELLS = BAND_PIXELS


@dataclass(frozen=True)
class PPParams:
    """Post-processing parameters."""

    nms_side: int = 9  # L_s
    confidence_floor: float = 0.375  # c_0
    otsu_side: int = 19  # L_g
    closing_radius: int = 5  # r_1
    dilation_radius: int = 2  # r_2

    def __post_init__(self):
        for name in ("nms_side", "otsu_side"):
            v = getattr(self, name)
            if v < 3 or v % 2 == 0:
                raise ConfigError(f"{name} must be odd and >= 3, got {v}")
        if not 0.0 < self.confidence_floor < 1.0:
            raise ConfigError(
                f"confidence_floor must be in (0, 1), got {self.confidence_floor}"
            )
        if self.closing_radius < 0 or self.dilation_radius < 0:
            raise ConfigError("structuring radii must be >= 0")


@dataclass(frozen=True, eq=False)
class DetectionObject:
    """One 8-connected detected region of a tile of the given (height, width).

    pixels holds the region's distinct flat indices y * width + x in
    ascending order, read-only; any integer sequence is accepted and
    normalized.  Every index must lie inside the tile, so a pixel can never
    alias onto another row.
    """

    pixels: np.ndarray
    confidence: float
    shape: tuple[int, int]

    def __post_init__(self):
        height, width = self.shape
        pixels = np.unique(np.asarray(self.pixels, dtype=np.int64))
        if pixels.size == 0:
            raise DataError("detection object must cover at least one pixel")
        if pixels[0] < 0 or pixels[-1] >= height * width:
            raise DataError(f"detection pixel outside its {width}x{height} tile")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)
        if not 0.0 < self.confidence <= 1.0:
            raise DataError(f"object confidence {self.confidence} outside (0, 1]")

    @property
    def area(self) -> int:
        return self.pixels.size

    @property
    def bbox(self) -> tuple[int, int, int, int]:
        ys, xs = np.divmod(self.pixels, self.shape[1])
        return int(xs.min()), int(ys[0]), int(xs.max()), int(ys[-1])

    def to_rle(self) -> str:
        """Row-major run-length encoding: 'y:x0-x1' runs joined by ';'."""
        ys, xs = np.divmod(self.pixels, self.shape[1])
        ends = np.flatnonzero((np.diff(ys) != 0) | (np.diff(xs) != 1))
        first, last = np.append(0, ends + 1), np.append(ends, xs.size - 1)
        runs = zip(ys[first].tolist(), xs[first].tolist(), xs[last].tolist())
        return ";".join(f"{y}:{x0}-{x1}" for y, x0, x1 in runs)

    @classmethod
    def from_rle(
        cls, text: str, confidence: float, shape: tuple[int, int]
    ) -> DetectionObject:
        """Inverse of to_rle; a run outside the tile raises DataError."""
        height, width = shape
        runs = []
        for run in text.split(";"):
            try:
                y_part, span = run.split(":")
                a, b = span.split("-")
                y, x0, x1 = int(y_part), int(a), int(b)
            except ValueError:
                raise DataError(f"bad pixel run {run!r}") from None
            if not (0 <= y < height and 0 <= x0 <= x1 < width):
                raise DataError(f"bad pixel run {run!r} in a {width}x{height} tile")
            runs.append(np.arange(y * width + x0, y * width + x1 + 1))
        return cls(np.concatenate(runs), confidence, shape)


def float_map(conf) -> np.ndarray:
    """conf as an array, float32 kept as it is and anything else as float64."""
    conf = np.asarray(conf)
    return conf if conf.dtype == np.float32 else conf.astype(np.float64, copy=False)


def _check_map(conf: np.ndarray) -> np.ndarray:
    conf = float_map(conf)
    if conf.ndim != 2 or conf.size == 0:
        raise DataError(f"confidence map must be non-empty 2-D, got {conf.shape}")
    if not np.isfinite(conf).all():
        raise DataError("confidence map holds NaN or infinite values")
    return conf


def nonmax_suppress(conf: np.ndarray, nms_side: int) -> np.ndarray:
    """Local maxima of conf over clamped nms_side x nms_side windows.

    A pixel survives when it attains the window maximum and is the
    lexicographically smallest (y, x) among window pixels attaining it,
    that is, when it is also strictly greater than the window's rows above
    it and than the window pixels to its left in its own row.  Returned as
    ascending int64 flat indices y * width + x.
    """
    conf = _check_map(conf)
    if nms_side < 3 or nms_side % 2 == 0:
        raise ConfigError(f"nms_side must be odd and >= 3, got {nms_side}")
    h, w = conf.shape
    # past a half-width of max(h, w) - 1 a clamped window is the whole map
    half = min(nms_side // 2, max(h, w))
    side = 2 * half + 1
    # off-map pixels read -inf, which no value (negative ones included) loses to
    padded = np.pad(conf, half, constant_values=-np.inf)
    keep = conf > _window_max(padded[half : half + h, : w + half - 1], half)
    rows = _window_max(padded, side)
    del padded
    keep &= conf > _window_max(rows[: h + half - 1].T, half).T
    keep &= conf == _window_max(rows.T, side).T
    return np.flatnonzero(keep)


def _window_max(values: np.ndarray, width: int) -> np.ndarray:
    """Running max along rows: out[:, i] = max(values[:, i : i + width]).

    Doubling: after k passes out[:, i] is the maximum of the 2**k values
    from i; two overlapping such spans then cover any width.
    """
    n = values.shape[1] - width + 1
    out, span = values, 1
    while 2 * span <= width:
        out = np.maximum(out[:, :-span], out[:, span:])
        span *= 2
    if span == width:
        return out[:, :n]
    return np.maximum(out[:, :n], out[:, width - span : width - span + n])


def filter_maxima(conf: np.ndarray, maxima: np.ndarray, floor: float) -> np.ndarray:
    """The flat indices of maxima whose value in conf is not below the floor.

    Values are widened to float64 first, so a float32 map is compared with
    the floor itself, not with its float32 rounding; equal values are kept.
    """
    return maxima[np.take(conf, maxima).astype(np.float64) >= floor]


def bin256(values: np.ndarray) -> np.ndarray:
    """Histogram bin index over 256 uniform bins of [0, 1]; 1.0 lands in 255."""
    return np.minimum(np.floor(np.asarray(values) * 256.0).astype(np.int64), 255)


def otsu_threshold(values: np.ndarray) -> float:
    """Otsu threshold over a fixed 256-bin histogram of [0, 1].

    Returns the bin edge k/256 maximizing the between-class variance, with
    ties resolved to the lowest edge; see _otsu_bins, which decides ties
    exactly.  When every value falls into a single bin the edge just above
    that bin is returned, making the foreground (values >= threshold, by
    bin) empty.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("otsu_threshold needs at least one value")
    return int(_otsu_bins(np.bincount(bin256(values), minlength=256)[None])[0]) / 256.0


def _max_filter(values: np.ndarray, radius: int, outside=0) -> np.ndarray:
    """Maximum of values over the disk of the given radius around each pixel.

    Pixels outside the array read `outside`, and the result is at least
    zero (False for a boolean mask, which makes this a binary dilation).
    Disk row dy spans dx in [-a, a] with a = isqrt(radius**2 - dy**2), so one
    horizontal running max per distinct a, taken at the 2 * radius + 1 row
    shifts, covers the disk.
    """
    h, w = values.shape
    padded = np.pad(values, radius, constant_values=outside)
    out = np.zeros_like(values)
    rows_of = {}
    for dy in range(-radius, radius + 1):
        rows_of.setdefault(math.isqrt(radius * radius - dy * dy), []).append(dy)
    for a, dys in rows_of.items():
        row_max = _window_max(padded[:, radius - a : radius + a + w], 2 * a + 1)
        for dy in dys:
            np.maximum(out, row_max[radius + dy : radius + dy + h], out=out)
    return out


def _close_support(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary closing against the infinite plane, restricted to the array.

    Padding by the radius before dilating keeps border support from being
    eroded away, so closing never shrinks the support.
    """
    if radius == 0 or not mask.any():
        return mask.copy()
    dilated = _max_filter(np.pad(mask, radius), radius)
    # erosion, with pixels outside the array as background
    closed = ~_max_filter(~dilated, radius, outside=True)
    return closed[radius:-radius, radius:-radius]


def _label(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-connected labeling: (pixels, labels) over the mask's support.

    pixels are the support's flat indices in ascending order; labels[i] is
    the smallest flat index in the component of pixels[i].  Neighbour pairs
    come from searchsorted; each round hooks every root under the smallest
    root it touches, then pointer-jumps until every pixel points at a root.
    Roots only ever move under smaller roots, so each component ends at
    its minimum.
    """
    w = mask.shape[1]
    pixels = np.flatnonzero(mask)
    n = pixels.size
    col = pixels % w
    position = np.arange(n)
    heads, tails = [], []
    # forward neighbours: right, below-left, below, below-right
    for step, valid in ((1, col < w - 1), (w - 1, col > 0), (w, True), (w + 1, col < w - 1)):
        target = pixels + step
        at = np.minimum(np.searchsorted(pixels, target), n - 1)
        hit = valid & (pixels[at] == target)
        heads.append(position[hit])
        tails.append(at[hit])
    a, b = np.concatenate(heads), np.concatenate(tails)
    root = position
    while True:
        ra, rb = root[a], root[b]
        live = ra != rb
        if not live.any():
            return pixels, pixels[root]
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _grow_regions(conf: np.ndarray, seeds: np.ndarray, side: int):
    """Step 3 for a batch of seeds: (flat tile indices, values) to merge by max.

    Off-tile cells of each side x side window are masked off (and counted in
    a dropped 257th histogram bin), which leaves exactly the clamped crop.
    Crops stack in one canvas with a background row under each.
    """
    h, w = conf.shape
    half, n = side // 2, seeds.size
    ys, xs = np.divmod(seeds, w)
    offsets = np.arange(side) - half
    rows, cols = ys[:, None] + offsets, xs[:, None] + offsets
    inside = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :]
    rows_in, cols_in = np.clip(rows, 0, h - 1), np.clip(cols, 0, w - 1)
    bins = bin256(conf[rows_in[:, :, None], cols_in[:, None, :]])
    hist = np.bincount(
        (np.where(inside, bins, 256) + 257 * np.arange(n)[:, None, None]).ravel(),
        minlength=257 * n,
    ).reshape(n, 257)[:, :256]
    foreground = inside & (bins >= _otsu_bins(hist)[:, None, None])
    foreground[:, half, half] = True  # the maximum is always foreground
    cell = (side + 1) * side
    pixels, labels = _label(np.pad(foreground, ((0, 0), (0, 1), (0, 0))).reshape(-1, side))
    seed_label = labels[np.searchsorted(pixels, np.arange(n) * cell + half * side + half)]
    owner = pixels // cell
    keep = labels == seed_label[owner]
    owner = owner[keep]
    r, c = np.divmod(pixels[keep] - owner * cell, side)
    return rows[owner, r] * w + cols[owner, c], np.take(conf, seeds)[owner]


def _otsu_bins(hist: np.ndarray) -> np.ndarray:
    """otsu_threshold's bin edge k (threshold k / 256) for each histogram row.

    Only edges right above an occupied bin can be a first maximum.  A float
    screen keeps every edge within 2**-40 of the row's largest between-class
    variance, which the exact maximum always is; rows left with several are
    settled in exact integers.  A row whose values share one bin gets the
    edge above that bin.
    """
    weights, sums = np.cumsum(hist, axis=1), np.cumsum(hist * np.arange(256), axis=1)
    w0, s0 = weights[:, :255], sums[:, :255]  # class 0 is the bins below k = 1 .. 255
    w1, s1 = weights[:, 255:] - w0, sums[:, 255:] - s0
    diff, den = s0 * w1 - s1 * w0, w0 * w1
    valid = (hist[:, :255] > 0) & (w1 > 0)
    sigma = np.where(valid, diff.astype(np.float64) ** 2 / np.maximum(den, 1), -1.0)
    near = valid & (sigma >= sigma.max(axis=1, keepdims=True) * (1.0 - 2.0**-40))
    one_bin = 256 - hist[:, ::-1].argmax(axis=1)  # the edge above the top bin
    k = np.where(valid.any(axis=1), near.argmax(axis=1) + 1, one_bin)
    for row in np.flatnonzero(near.sum(axis=1) > 1):
        best_num, best_den = -1, 1
        for j in np.flatnonzero(near[row]).tolist():
            num, d = int(diff[row, j]) ** 2, int(den[row, j])
            if num * best_den > best_num * d:
                best_num, best_den, k[row] = num, d, j + 1
    return k


def postprocess(conf: np.ndarray, params: PPParams) -> np.ndarray:
    """Enhanced confidence map per the region-growing algorithm above."""
    conf = _check_map(conf)
    if conf.min() < 0.0:
        raise DataError("confidence map holds negative values")
    h, w = conf.shape
    seeds = filter_maxima(
        conf, nonmax_suppress(conf, params.nms_side), params.confidence_floor
    )
    enhanced = np.zeros(h * w, dtype=conf.dtype)
    side = 2 * min(params.otsu_side // 2, max(h, w)) + 1  # clamped as in NMS
    step = max(1, SEED_CELLS // side**2)
    for at in range(0, seeds.size, step):
        np.maximum.at(enhanced, *_grow_regions(conf, seeds[at : at + step], side))
    enhanced = enhanced.reshape(h, w)

    support = enhanced > 0.0
    closed = _close_support(support, params.closing_radius)
    grown = np.where(closed, _max_filter(enhanced, params.closing_radius), 0.0)
    after_close = np.where(support, enhanced, grown)
    del enhanced, grown  # full-size maps: keep at most a few alive at once
    dilated = _max_filter(closed, params.dilation_radius)
    grown = np.where(dilated, _max_filter(after_close, params.dilation_radius), 0.0)
    return np.where(closed, after_close, grown)


def extract_objects(enhanced: np.ndarray) -> list[DetectionObject]:
    """Detected objects: 8-connected components of the positive support.

    Objects come in the order of their first pixel, row-major.
    """
    enhanced = _check_map(enhanced)
    pixels, labels = _label(enhanced > 0.0)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    values = enhanced.ravel()
    return [
        DetectionObject(flat, float(values[flat].max()), enhanced.shape)
        for flat in np.split(pixels[order], starts)
        if flat.size
    ]


# ---------------------------------------------------------------------------
# Confidence-map binary format (CMAP)
# ---------------------------------------------------------------------------

_CMAP_MAGIC = b"CMAP"
_CMAP_VERSION = 1


def encode_confidence_map(conf: np.ndarray) -> bytes:
    """CMAP bytes: magic, version byte, u32 width/height LE, f32 row-major."""
    conf = _check_map(conf)
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise DataError("confidence values must lie in [0, 1]")
    h, w = conf.shape
    header = _CMAP_MAGIC + bytes([_CMAP_VERSION]) + struct.pack("<II", w, h)
    return b"".join((header, np.ascontiguousarray(conf, dtype="<f4").data))


def decode_confidence_map(data: bytes) -> np.ndarray:
    """The stored float32 values, as a read-only (height, width) view of data."""
    if data[:4] != _CMAP_MAGIC:
        raise DataError(f"not a confidence map (magic {data[:4]!r})")
    if len(data) < 13:
        raise DataError("confidence map header truncated")
    version = data[4]
    if version != _CMAP_VERSION:
        raise DataError(f"unsupported confidence-map version {version}")
    w, h = struct.unpack("<II", data[5:13])
    if w < 1 or h < 1:
        raise DataError(f"confidence map declares empty size {w}x{h}")
    expected = 13 + 4 * w * h
    if len(data) != expected:
        raise DataError(
            f"confidence map payload is {len(data)} bytes, expected {expected}"
        )
    conf = np.frombuffer(data, dtype="<f4", offset=13).reshape(h, w)
    if not np.isfinite(conf).all() or conf.min() < 0.0 or conf.max() > 1.0:
        raise DataError("confidence values must lie in [0, 1]")
    return conf


def save_confidence_map(conf: np.ndarray, path) -> None:
    write_atomic(path, encode_confidence_map(conf))


def load_confidence_map(path) -> np.ndarray:
    return decode_confidence_map(read_input(path, "confidence map"))
