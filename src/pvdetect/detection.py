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

Objects are the 8-connected components of the positive support of an
enhanced map; each object's confidence is its maximum pixel value.  A
DetectionObject stores its pixels in the one compact form used from
extraction through the detections CSV to scoring: sorted flat indices
y * width + x into its tile.  Its run-length text form (to_rle/from_rle)
is the only other pixel format, and decoding rejects runs outside the tile.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InputError


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


def _check_map(conf: np.ndarray) -> np.ndarray:
    conf = np.asarray(conf, dtype=np.float64)
    if conf.ndim != 2 or conf.size == 0:
        raise DataError(f"confidence map must be non-empty 2-D, got {conf.shape}")
    return conf


def nonmax_suppress(conf: np.ndarray, nms_side: int) -> list[tuple[int, int, float]]:
    """Local maxima of conf over clamped nms_side x nms_side windows.

    A pixel survives when it attains the window maximum and is the
    lexicographically smallest (y, x) among window pixels attaining it.
    Returned as (x, y, value) in row-major order.
    """
    conf = _check_map(conf)
    if nms_side < 3 or nms_side % 2 == 0:
        raise ConfigError(f"nms_side must be odd and >= 3, got {nms_side}")
    h, w = conf.shape
    # rank pixels by (value desc, y asc, x asc); the window minimum of the
    # rank is then exactly the tie-broken window maximum of the value
    ys, xs = np.divmod(np.arange(h * w), w)
    order = np.lexsort((xs, ys, -conf.ravel()))
    rank = np.empty(h * w, dtype=np.int64)
    rank[order] = np.arange(h * w)
    best = _window_min(rank.reshape(h, w), nms_side)
    keep_y, keep_x = np.nonzero(rank.reshape(h, w) == best)
    return [(int(x), int(y), float(conf[y, x])) for y, x in zip(keep_y, keep_x)]


def _window_min(values: np.ndarray, side: int) -> np.ndarray:
    """Separable sliding-window minimum with edge-clamped windows."""
    half = side // 2
    h, w = values.shape
    padded = np.pad(values, ((half, half), (half, half)), mode="edge")
    rows = padded[0:h]
    for dy in range(1, side):
        rows = np.minimum(rows, padded[dy : dy + h])
    out = rows[:, 0:w]
    for dx in range(1, side):
        out = np.minimum(out, rows[:, dx : dx + w])
    return out


def filter_maxima(
    maxima: list[tuple[int, int, float]], confidence_floor: float
) -> list[tuple[int, int, float]]:
    """Drop maxima strictly below the floor; equal values are kept."""
    return [m for m in maxima if m[2] >= confidence_floor]


def bin256(values: np.ndarray) -> np.ndarray:
    """Histogram bin index over 256 uniform bins of [0, 1]; 1.0 lands in 255."""
    return np.minimum(np.floor(np.asarray(values) * 256.0).astype(np.int64), 255)


def otsu_threshold(values: np.ndarray) -> float:
    """Otsu threshold over a fixed 256-bin histogram of [0, 1].

    Returns the bin edge k/256 maximizing the between-class variance, with
    ties resolved to the lowest edge.  Class statistics are compared in
    exact integer arithmetic, so the argmax is reproducible bit for bit.
    When every value falls into a single bin the edge just above that bin
    is returned, making the foreground (values >= threshold, by bin) empty.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("otsu_threshold needs at least one value")
    hist = np.bincount(bin256(values), minlength=256)
    counts = hist.tolist()
    total = int(values.size)
    weighted_total = sum(i * c for i, c in enumerate(counts))

    best_k = None
    # sigma_b = w0*w1*(mu0-mu1)^2 = (s0*w1 - s1*w0)^2 / (w0*w1); compare
    # candidates by cross-multiplied integers to avoid float ties
    best_num, best_den = -1, 1
    w0 = 0
    s0 = 0
    for k in range(1, 256):
        w0 += counts[k - 1]
        s0 += (k - 1) * counts[k - 1]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        s1 = weighted_total - s0
        num = (s0 * w1 - s1 * w0) ** 2
        den = w0 * w1
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            best_k = k
    if best_k is None:
        # all values share one bin
        only_bin = int(bin256(values[:1])[0])
        return (only_bin + 1) / 256.0
    return best_k / 256.0


def disk_element(radius: int) -> list[tuple[int, int]]:
    """Offsets (dx, dy) of the discrete disk dx**2 + dy**2 <= radius**2."""
    if radius < 0:
        raise ConfigError(f"disk radius must be >= 0, got {radius}")
    r2 = radius * radius
    return [
        (dx, dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dx * dx + dy * dy <= r2
    ]


def _shift_windows(h: int, w: int, dx: int, dy: int):
    """dst/src slice pairs so dst[p] reads src[p + (dy, dx)], or None.

    Offsets larger than the array yield no overlap; the guard keeps the
    slices non-negative (a negative stop would wrap in Python).
    """
    dst_y0, dst_y1 = max(0, -dy), min(h, h - dy)
    dst_x0, dst_x1 = max(0, -dx), min(w, w - dx)
    if dst_y1 <= dst_y0 or dst_x1 <= dst_x0:
        return None
    return (
        (slice(dst_y0, dst_y1), slice(dst_x0, dst_x1)),
        (slice(dst_y0 + dy, dst_y1 + dy), slice(dst_x0 + dx, dst_x1 + dx)),
    )


def _dilate(mask: np.ndarray, offsets: list[tuple[int, int]]) -> np.ndarray:
    """Binary dilation; pixels outside the array are background."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    for dx, dy in offsets:
        windows = _shift_windows(h, w, -dx, -dy)  # dst[p] |= mask[p - off]
        if windows is not None:
            dst, src = windows
            out[dst] |= mask[src]
    return out


def _erode(mask: np.ndarray, offsets: list[tuple[int, int]]) -> np.ndarray:
    """Binary erosion; pixels outside the array are background."""
    h, w = mask.shape
    out = np.ones_like(mask)
    for dx, dy in offsets:
        shifted = np.zeros_like(mask)
        windows = _shift_windows(h, w, dx, dy)  # shifted[p] = mask[p + off]
        if windows is not None:
            dst, src = windows
            shifted[dst] = mask[src]
        out &= shifted
    return out


def _max_filter(values: np.ndarray, offsets: list[tuple[int, int]]) -> np.ndarray:
    """Per-pixel maximum of values over the offset neighborhood (0 outside)."""
    h, w = values.shape
    out = np.zeros_like(values)
    for dx, dy in offsets:
        windows = _shift_windows(h, w, dx, dy)
        if windows is not None:
            dst, src = windows
            np.maximum(out[dst], values[src], out=out[dst])
    return out


def _close_support(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary closing against the infinite plane, restricted to the array.

    Padding by the radius before dilating keeps border support from being
    eroded away, so closing never shrinks the support.
    """
    if radius == 0 or not mask.any():
        return mask.copy()
    offsets = disk_element(radius)
    padded = np.pad(mask, radius)
    closed = _erode(_dilate(padded, offsets), offsets)
    return closed[radius:-radius, radius:-radius]


def _component_containing(
    mask: np.ndarray, seed_y: int, seed_x: int
) -> np.ndarray:
    """8-connected component of mask containing the seed pixel."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    stack = [(seed_y, seed_x)]
    out[seed_y, seed_x] = True
    while stack:
        y, x = stack.pop()
        for ny in range(max(0, y - 1), min(h, y + 2)):
            for nx in range(max(0, x - 1), min(w, x + 2)):
                if mask[ny, nx] and not out[ny, nx]:
                    out[ny, nx] = True
                    stack.append((ny, nx))
    return out


def postprocess(conf: np.ndarray, params: PPParams) -> np.ndarray:
    """Enhanced confidence map per the region-growing algorithm above."""
    conf = _check_map(conf)
    h, w = conf.shape
    maxima = filter_maxima(
        nonmax_suppress(conf, params.nms_side), params.confidence_floor
    )
    enhanced = np.zeros_like(conf)
    half = params.otsu_side // 2
    for x, y, value in maxima:
        ax, bx = max(0, x - half), min(w - 1, x + half)
        ay, by = max(0, y - half), min(h - 1, y + half)
        crop = conf[ay : by + 1, ax : bx + 1]
        threshold = otsu_threshold(crop.ravel())
        k = int(round(threshold * 256.0))
        foreground = bin256(crop) >= k
        foreground[y - ay, x - ax] = True  # the maximum is always foreground
        component = _component_containing(foreground, y - ay, x - ax)
        region = enhanced[ay : by + 1, ax : bx + 1]
        np.maximum(region, np.where(component, value, 0.0), out=region)

    support = enhanced > 0.0
    closed = _close_support(support, params.closing_radius)
    grown_values = _max_filter(enhanced, disk_element(params.closing_radius))
    after_close = np.where(
        support, enhanced, np.where(closed, grown_values, 0.0)
    )
    dilated = _dilate(closed, disk_element(params.dilation_radius))
    dilated_values = _max_filter(after_close, disk_element(params.dilation_radius))
    return np.where(closed, after_close, np.where(dilated, dilated_values, 0.0))


def connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a boolean mask.

    Each component is an (n, 2) array of (y, x) pixel coordinates; the
    component order follows the row-major position of each component's
    first pixel.
    """
    h, w = mask.shape
    seen = np.zeros_like(mask)
    components = []
    for sy, sx in zip(*np.nonzero(mask)):
        if seen[sy, sx]:
            continue
        seen[sy, sx] = True
        stack = [(int(sy), int(sx))]
        pixels = []
        while stack:
            y, x = stack.pop()
            pixels.append((y, x))
            for ny in range(max(0, y - 1), min(h, y + 2)):
                for nx in range(max(0, x - 1), min(w, x + 2)):
                    if mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
        components.append(np.array(pixels, dtype=np.int64))
    return components


def extract_objects(enhanced: np.ndarray) -> list[DetectionObject]:
    """Detected objects: 8-connected components of the positive support."""
    enhanced = _check_map(enhanced)
    width = enhanced.shape[1]
    values = enhanced.ravel()
    objects = []
    for pixels in connected_components(enhanced > 0.0):
        flat = pixels[:, 0] * width + pixels[:, 1]
        objects.append(
            DetectionObject(flat, float(values[flat].max()), enhanced.shape)
        )
    return objects


# ---------------------------------------------------------------------------
# Confidence-map binary format (CMAP)
# ---------------------------------------------------------------------------

_CMAP_MAGIC = b"CMAP"
_CMAP_VERSION = 1


def encode_confidence_map(conf: np.ndarray) -> bytes:
    """CMAP bytes: magic, version byte, u32 width/height LE, f32 row-major."""
    conf = _check_map(conf)
    if not np.isfinite(conf).all() or conf.min() < 0.0 or conf.max() > 1.0:
        raise DataError("confidence values must lie in [0, 1]")
    h, w = conf.shape
    header = _CMAP_MAGIC + bytes([_CMAP_VERSION]) + struct.pack("<II", w, h)
    return header + conf.astype("<f4").tobytes()


def decode_confidence_map(data: bytes) -> np.ndarray:
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
    conf = (
        np.frombuffer(data[13:], dtype="<f4").reshape(h, w).astype(np.float64)
    )
    if not np.isfinite(conf).all() or conf.min() < 0.0 or conf.max() > 1.0:
        raise DataError("confidence values must lie in [0, 1]")
    return conf


def save_confidence_map(conf: np.ndarray, path) -> None:
    from pathlib import Path

    Path(path).write_bytes(encode_confidence_map(conf))


def load_confidence_map(path) -> np.ndarray:
    from pathlib import Path

    path = Path(path)
    if not path.is_file():
        raise InputError(f"confidence map not found: {path}")
    return decode_confidence_map(path.read_bytes())
