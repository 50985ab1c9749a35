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
   the infinite plane, so it never loses support at tile borders.  A
   dilation radius past hypot(h - 1, w - 1) changes nothing and is clamped.

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
row shifts.  Closing is the erosion of the dilation (Serra 1982), so step 4
is three disk filters: of the map padded by r_1, nonzero on the dilated
support and holding the values closing adds; of its zeros, the erosion;
and of the closed map, zero where no closed pixel lies within r_2.

postprocess runs steps 1-4 on row slabs, not on the whole map: for each
slab of rows [a, b) it runs them on rows [a - H, b + H) of the map (cut at
its edges) and keeps rows [a, b), so its scratch is a few times a slab's
size, not the map's.  Every step is local in rows.  Take nms and otsu the
map's clamped half-sides and r_2 its clamped dilation radius, and count
rows from a cut.  A map maximum is a slab maximum (the slab's window is
part of the map's); a slab maximum that is not one lies within nms rows of
the cut, and its region reaches otsu rows further.  A seed whose crop the
cut shortens lies within otsu rows of it, and a seed beyond it reaches
otsu rows past it; either changes rows within 2 otsu.  So step 3 gives the
map's rows from T = max(2 otsu, nms + otsu) rows on.  Closing reads those
within 2 r_1 rows (a dilation, then an erosion) and dilation reads the
closed rows within r_2, so H = T + 2 r_1 + r_2 (30 at the defaults).  No
term is loose: for each, some map changes with H - 1 rows.  A slab clamps
its windows and disk to its own extent, which changes no byte: a clamped
window or disk still covers the whole slab from every pixel.

One labeler serves step 3 and objects, over row runs, not pixels (He, Chao
& Suzuki 2008): searchsorted pairs runs that touch across rows, and rounds
of hooking roots under smaller roots, each followed by pointer jumping
(Shiloach & Vishkin), give each run its component's smallest flat index.
It hands back runs with their roots; step 3 keeps each seed's runs and
objects sort runs by root, and each expands only what it keeps to pixels.

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
other pixel format, and decoding rejects runs outside the tile.  This
module owns the detect stage's files: CMAP maps and the detections CSV.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
import numpy as np

from .errors import ConfigError, DataError, InputError
from .imagery import check_canvas, check_odd_side, flat_pixels, read_input, read_text, write_atomic

# step 3 grows seeds in batches of at most this many window cells
# (seeds x otsu_side**2, 45 seeds at the defaults), so its memory stays
# flat at any seed count; larger batches ran no faster
SEED_CELLS = 1 << 14

# postprocess enhances a map in slabs of at least this many cells (and at
# least 8 halos of rows), so its scratch follows a slab, not the map
SLAB_CELLS = 1 << 17


@dataclass(frozen=True)
class PPParams:
    """Post-processing parameters."""

    nms_side: int = 9  # L_s
    confidence_floor: float = 0.375  # c_0
    otsu_side: int = 19  # L_g
    closing_radius: int = 5  # r_1
    dilation_radius: int = 2  # r_2

    def __post_init__(self):
        check_odd_side("nms_side", self.nms_side)
        check_odd_side("otsu_side", self.otsu_side)
        if not 0.0 < self.confidence_floor < 1.0:
            raise ConfigError(
                f"confidence_floor must be in (0, 1), got {self.confidence_floor}"
            )
        if self.closing_radius < 0 or self.dilation_radius < 0:
            raise ConfigError("structuring radii must be >= 0")


@dataclass(frozen=True, eq=False)
class DetectionObject:
    """One 8-connected detected region of a tile of the given (height, width).

    pixels holds the region's flat indices y * width + x, at least one, as
    imagery.flat_pixels checks them: strictly increasing and inside the
    tile; pixels that break this raise DataError.  The object keeps a
    read-only copy.
    """

    pixels: np.ndarray
    confidence: float
    shape: tuple[int, int]

    def __post_init__(self):
        pixels = flat_pixels(np.array(self.pixels), self.shape[0] * self.shape[1])
        if pixels.size == 0:
            raise DataError("a detection needs at least one pixel")
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
        starts, lengths = _row_runs(self.pixels, self.shape[1])
        ys, xs = np.divmod(starts, self.shape[1])
        runs = zip(ys.tolist(), xs.tolist(), (xs + lengths - 1).tolist())
        return ";".join(f"{y}:{x0}-{x1}" for y, x0, x1 in runs)

    @classmethod
    def from_rle(
        cls, text: str, confidence: float, shape: tuple[int, int]
    ) -> DetectionObject:
        """Inverse of to_rle; a run outside the tile, out of row-major order
        or overlapping another raises DataError."""
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
            runs.append((y * width + x0, x1 - x0 + 1))
        return cls(run_pixels(*np.array(runs).T), confidence, shape)


_DETECTIONS_HEADER = (
    "tile_id,object_id,confidence,area,min_x,min_y,max_x,max_y,rle_pixels"
)


def check_tile_id(tile_id: str) -> None:
    """InputError when tile_id holds a comma or a line break, as no CSV row can."""
    if "," in tile_id or "".join(tile_id.splitlines()) != tile_id:
        raise InputError(f"tile id {tile_id!r} holds a comma or a line break")


def write_detections_csv(objects_by_tile: dict[str, list[DetectionObject]], path) -> None:
    lines = [_DETECTIONS_HEADER]
    for tile_id in sorted(objects_by_tile):
        check_tile_id(tile_id)
        for k, obj in enumerate(objects_by_tile[tile_id]):
            min_x, min_y, max_x, max_y = obj.bbox
            lines.append(
                f"{tile_id},{k},{format(obj.confidence, '.17g')},{obj.area},"
                f"{min_x},{min_y},{max_x},{max_y},{obj.to_rle()}"
            )
    write_atomic(path, "\n".join(lines) + "\n")


def read_detections_csv(
    path, shapes: dict[str, tuple[int, int]]
) -> dict[str, list[DetectionObject]]:
    """Detections by tile; shapes gives the (height, width) of each known tile.

    A row naming an unknown tile, a pixel outside its tile, or an area or
    bounding box that disagrees with the pixel runs raises DataError.
    """
    lines = read_text(path, "detections file").splitlines()
    if not lines or lines[0] != _DETECTIONS_HEADER:
        raise DataError(f"{path}: missing detections header")
    by_tile: dict[str, list[DetectionObject]] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise DataError(f"{path}:{lineno}: expected 9 fields, got {len(parts)}")
        tile_id = parts[0]
        if tile_id not in shapes:
            raise DataError(f"{path}:{lineno}: unknown tile {tile_id!r}")
        try:
            confidence = float(parts[2])
            area, *bbox = (int(v) for v in parts[3:8])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad confidence, area or bounding box") from None
        try:
            obj = DetectionObject.from_rle(parts[8], confidence, shapes[tile_id])
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if obj.area != area or obj.bbox != tuple(bbox):
            raise DataError(f"{path}:{lineno}: area or bounding box does not match pixel runs")
        by_tile.setdefault(tile_id, []).append(obj)
    return by_tile


def check_map(conf, low: float = -np.inf, high: float = np.inf) -> np.ndarray:
    """conf as a non-empty 2-D map of finite values in [low, high], or DataError.

    float32 is kept as it is and anything else becomes float64.  The map's
    min and max decide, and NaN carries through both, so no mask is built.
    """
    conf = np.asarray(conf)
    conf = conf if conf.dtype == np.float32 else conf.astype(np.float64, copy=False)
    if conf.ndim != 2 or conf.size == 0:
        raise DataError(f"confidence map must be non-empty 2-D, got {conf.shape}")
    lo, hi = conf.min(), conf.max()
    if not (-np.inf < lo and low <= lo and hi <= high and hi < np.inf):
        raise DataError(f"confidence map spans [{lo}, {hi}], not finite in [{low}, {high}]")
    return conf


def nonmax_suppress(conf: np.ndarray, nms_side: int) -> np.ndarray:
    """Local maxima of conf over clamped nms_side x nms_side windows.

    A pixel survives when it attains the window maximum and is the
    lexicographically smallest (y, x) among window pixels attaining it,
    that is, when it is also strictly greater than the window's rows above
    it and than the window pixels to its left in its own row.  Returned as
    ascending int64 flat indices y * width + x.
    """
    conf = check_map(conf)
    check_odd_side("nms_side", nms_side)
    h, w = conf.shape
    half = _clamped_half(nms_side, h, w)
    side = 2 * half + 1
    # off-map pixels read -inf, which no value (negative ones included) loses to
    padded = np.pad(conf, half, constant_values=-np.inf)
    keep = conf > _window_max(padded[half : half + h, : w + half - 1], half)
    rows = _window_max(padded, side)
    del padded
    keep &= conf > _window_max(rows[: h + half - 1].T, half).T
    keep &= conf == _window_max(rows.T, side).T
    return np.flatnonzero(keep)


def _clamped_half(side: int, h: int, w: int) -> int:
    """The half-width of a side x side window clamped to an h x w map: past
    max(h, w) - 1 a clamped window is the whole map."""
    return min(side // 2, max(h, w))


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


def _max_filter(values: np.ndarray, radius: int) -> np.ndarray:
    """Maximum of values over the disk of the given radius around each pixel.

    Pixels outside the array read zero, and the result is at least zero
    (False for a boolean mask, which makes this a binary dilation).  Step 4
    is three of these: of the r_1-padded map, of its zeros, of the closed map.
    Disk row dy spans dx in [-a, a] with a = isqrt(radius**2 - dy**2), so one
    horizontal running max per distinct a, taken at the 2 * radius + 1 row
    shifts, covers the disk.
    """
    h, w = values.shape
    padded = np.pad(values, radius)
    out = np.zeros_like(values)
    rows_of = {}
    for dy in range(-radius, radius + 1):
        rows_of.setdefault(math.isqrt(radius * radius - dy * dy), []).append(dy)
    for a, dys in rows_of.items():
        row_max = _window_max(padded[:, radius - a : radius + a + w], 2 * a + 1)
        for dy in dys:
            np.maximum(out, row_max[radius + dy : radius + dy + h], out=out)
    return out


def _row_runs(pixels: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted flat indices as row runs, (first pixel, length) per run; a run
    breaks where the index skips or a row begins."""
    first = np.flatnonzero((np.diff(pixels, prepend=-2) != 1) | (pixels % width == 0))
    return pixels[first], np.diff(first, append=pixels.size)


def run_pixels(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The flat indices of runs (first index, length), run after run."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _label(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-connected labeling of the mask's row runs: (starts, lengths, roots).

    The support's runs come in ascending order, as _row_runs cuts them;
    roots[k] is the smallest flat index in the component of run k.  Two
    searchsorted calls pair each run with the next row's runs that touch
    it, with a column of slack at each end, clamped to that row.  Each
    round hooks every root run under the smallest root run it touches, then
    pointer-jumps; roots only move under smaller roots, so each component
    ends at its first run.  Nothing returned is per pixel."""
    w = mask.shape[1]
    starts, lengths = _row_runs(np.flatnonzero(mask), w)
    ends = starts + lengths - 1
    below = (starts // w + 1) * w  # the first pixel of the next row
    lo = np.searchsorted(ends, np.maximum(starts + w - 1, below))
    hi = np.searchsorted(starts, np.minimum(ends + w + 1, below + w - 1), side="right")
    counts = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(starts.size), counts)
    b = run_pixels(lo, counts)
    root = np.arange(starts.size)
    while True:
        ra, rb = root[a], root[b]
        live = ra != rb
        if not live.any():
            return starts, lengths, starts[root]
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
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
    starts, lengths, roots = _label(np.pad(foreground, ((0, 0), (0, 1), (0, 0))).reshape(-1, side))
    seed_run = np.searchsorted(starts, np.arange(n) * cell + half * side + half, "right") - 1
    owner = starts // cell
    keep = roots == roots[seed_run][owner]
    owner, lengths = owner[keep], lengths[keep]
    r, c = np.divmod(starts[keep] - owner * cell, side)
    pixels = run_pixels(rows[owner, r] * w + cols[owner, c], lengths)
    return pixels, np.repeat(np.take(conf, seeds)[owner], lengths)


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
    """Enhanced confidence map per the region-growing algorithm above.

    Closing works on a canvas of (h + 4 r_1) x (w + 4 r_1) cells, which no
    clamp can shrink (closing is taken against the infinite plane), so a
    closing radius must pass imagery.check_canvas with a margin of 2 r_1
    before anything is allocated; any r_1 up to 8, the default 5 included,
    passes on every map.  Map values must be finite and >= 0.  The map is
    enhanced in row slabs (see slab_plan), with the bytes of one whole pass.
    """
    conf = check_map(conf, low=0.0)
    r1 = params.closing_radius
    check_canvas(*conf.shape, 2 * r1, f"closing_radius {r1}")
    rows = slab_plan(conf.shape, params)[1]
    return _postprocess_slabs(conf, params, rows, halo(conf.shape, params))


def halo(shape: tuple[int, int], params: PPParams) -> int:
    """Rows above and below a slab that decide its enhanced rows, H:
    max(2 otsu, nms + otsu) + 2 r_1 + r_2, with the map's clamped half-sides
    nms and otsu and its clamped r_2 (30 at the defaults).  See the module
    docstring for the derivation."""
    h, w = shape
    nms, otsu = _clamped_half(params.nms_side, h, w), _clamped_half(params.otsu_side, h, w)
    r2 = _clamped_radius(params.dilation_radius, h, w)
    return max(2 * otsu, nms + otsu) + 2 * params.closing_radius + r2


def slab_plan(shape: tuple[int, int], params: PPParams) -> tuple[int, int]:
    """(count, rows): postprocess's slabs of an h x w map, each `rows` rows
    but the last.  A slab has at least max(8 H, ceil(SLAB_CELLS / w)) rows,
    so halos add at most a quarter to the rows enhanced and a slab is never
    a thin strip; a map shorter than two such slabs is one slab."""
    h, w = shape
    least = max(8 * halo(shape, params), -(-SLAB_CELLS // w))
    count = max(1, h // least)
    return count, -(-h // count)


def _postprocess_slabs(
    conf: np.ndarray, params: PPParams, rows: int, halo_rows: int
) -> np.ndarray:
    """_postprocess_whole on each slab [a - halo_rows, b + halo_rows) of the
    map, keeping its rows [a, b); slabs of `rows` rows."""
    h, w = conf.shape
    if rows >= h:
        return _postprocess_whole(conf, params)
    out = np.empty((h, w), dtype=conf.dtype)
    for a in range(0, h, rows):
        b = min(a + rows, h)
        lo, hi = max(a - halo_rows, 0), min(b + halo_rows, h)
        out[a:b] = _postprocess_whole(conf[lo:hi], params)[a - lo : b - lo]
    return out


def _clamped_radius(radius: int, h: int, w: int) -> int:
    """A disk radius clamped to an h x w map: from any pixel, a disk of
    radius hypot(h - 1, w - 1) covers the map."""
    return min(radius, math.ceil(math.hypot(h - 1, w - 1)))


def _postprocess_whole(conf: np.ndarray, params: PPParams) -> np.ndarray:
    """Steps 1-4 in one pass over a checked map."""
    h, w = conf.shape
    r1 = params.closing_radius
    seeds = filter_maxima(
        conf, nonmax_suppress(conf, params.nms_side), params.confidence_floor
    )
    enhanced = np.zeros(h * w, dtype=conf.dtype)
    side = 2 * _clamped_half(params.otsu_side, h, w) + 1
    step = max(1, SEED_CELLS // side**2)
    for at in range(0, seeds.size, step):
        np.maximum.at(enhanced, *_grow_regions(conf, seeds[at : at + step], side))
    enhanced = enhanced.reshape(h, w)

    r2 = _clamped_radius(params.dilation_radius, h, w)
    near = _max_filter(np.pad(enhanced, r1), r1)
    closed = ~_max_filter(near == 0, r1)[r1 : r1 + h, r1 : r1 + w]
    near = near[r1 : r1 + h, r1 : r1 + w]
    after_close = np.where(closed & (enhanced == 0), near, enhanced)
    del enhanced, near  # slab-sized arrays: keep at most a few alive at once
    return np.where(closed, after_close, _max_filter(after_close, r2))


def extract_objects(enhanced: np.ndarray) -> list[DetectionObject]:
    """Detected objects: 8-connected components of the positive support.

    Objects come in the order of their first pixel, row-major.
    """
    enhanced = check_map(enhanced)
    starts, lengths, roots = _label(enhanced > 0.0)
    order = np.argsort(roots, kind="stable")  # keeps each object's runs in order
    lengths = lengths[order]
    cuts = np.cumsum(lengths)[np.flatnonzero(np.diff(roots[order]))]
    values = enhanced.ravel()
    return [
        DetectionObject(flat, float(values[flat].max()), enhanced.shape)
        for flat in np.split(run_pixels(starts[order], lengths), cuts)
        if flat.size
    ]


# ---------------------------------------------------------------------------
# Confidence-map binary format (CMAP)
# ---------------------------------------------------------------------------

_CMAP_MAGIC = b"CMAP"
_CMAP_VERSION = 1


def encode_confidence_map(conf: np.ndarray) -> tuple[bytes, memoryview]:
    """A CMAP file as two chunks, whose b"".join is its bytes.

    The header holds the magic, a version byte and u32 width/height LE; the
    payload is the f32 row-major values, a view of conf itself when conf is
    already C-contiguous float32.
    """
    conf = check_map(conf, 0.0, 1.0)
    h, w = conf.shape
    header = _CMAP_MAGIC + bytes([_CMAP_VERSION]) + struct.pack("<II", w, h)
    return header, np.ascontiguousarray(conf, dtype="<f4").data


def decode_confidence_map(data: bytes | memoryview) -> np.ndarray:
    """The stored float32 values, as a read-only (height, width) view of data."""
    if data[:4] != _CMAP_MAGIC:
        raise DataError(f"not a confidence map (magic {bytes(data[:4])!r})")
    if len(data) < 13:
        raise DataError("confidence map header truncated")
    version = data[4]
    if version != _CMAP_VERSION:
        raise DataError(f"unsupported confidence-map version {version}")
    w, h = struct.unpack("<II", data[5:13])
    expected = 13 + 4 * w * h
    if len(data) != expected:
        raise DataError(
            f"confidence map payload is {len(data)} bytes, expected {expected}"
        )
    conf = np.frombuffer(data, dtype="<f4", offset=13).reshape(h, w)
    check_map(conf, 0.0, 1.0)
    return conf


def save_confidence_map(conf: np.ndarray, path) -> None:
    write_atomic(path, encode_confidence_map(conf))


def load_confidence_map(path) -> np.ndarray:
    """The map of a CMAP file, read so that its float32 payload is aligned."""
    return decode_confidence_map(read_input(path, "confidence map", aligned_at=13))
