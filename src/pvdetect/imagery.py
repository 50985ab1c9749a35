"""Raster tiles, polygon annotations, annotated pixels, dataset manifests,
and the readers and atomic writer (read_input, read_text, write_atomic) of
every pvdetect file.

The canonical raster format is binary PPM (P6, maxval 255).  Annotations
are simple polygons with fractional pixel coordinates, stored one per CSV
line as ``tile_id,polygon_id,x1,y1,x2,y2,...``.  Rasterization samples
pixel centers (i + 0.5, j + 0.5) with the even-odd rule; points exactly on
a polygon edge count as inside.  Annotated pixels, like detected ones, are
the sorted flat indices y * width + x of their tile (see flat_pixels).
"""

from __future__ import annotations

import mmap
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AnnotationError,
    ChannelCountError,
    ConfigError,
    DataError,
    InputError,
    RasterFormatError,
    TruncatedRasterError,
)


@dataclass(frozen=True)
class ImageTile:
    """An 8-bit RGB raster tile, the unit of ingestion and prediction."""

    pixels: np.ndarray  # (height, width, 3) uint8, row-major
    tile_id: str = ""

    def __post_init__(self):
        px = self.pixels
        if px.ndim != 3 or px.shape[2] != 3:
            raise ChannelCountError(
                f"tile must have exactly 3 channels, got shape {px.shape}"
            )
        if px.dtype != np.uint8:
            raise DataError(f"tile samples must be uint8, got {px.dtype}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise DataError("tile must be at least 1x1")
        px.setflags(write=False)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def check_canvas(h: int, w: int, margin: int, what: str) -> None:
    """The one bound on padded canvases (feature planes, closing): ConfigError
    when an h x w map grown by margin on every side needs more cells than
    4 (h + 16)(w + 16) + 2**20.  Memory stays within a constant factor of
    the map's, and any margin up to 16 passes on every map, however thin."""
    if (h + 2 * margin) * (w + 2 * margin) > 4 * (h + 16) * (w + 16) + 2**20:
        raise ConfigError(
            f"{what}: a {w}x{h} map grown by {margin} goes past 4 (h + 16)(w + 16) + 2**20 cells"
        )


def check_odd_side(name: str, side: int) -> None:
    """The one window-side rule (feature windows, NMS, Otsu crops): odd and >= 3."""
    if side < 3 or side % 2 == 0:
        raise ConfigError(f"{name} must be odd and >= 3, got {side}")


@dataclass(frozen=True)
class PolygonAnnotation:
    """A simple polygon over fractional pixel coordinates of one tile."""

    tile_id: str
    polygon_id: str
    vertices: np.ndarray  # (V, 2) float64, columns (x, y)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 2:
            raise AnnotationError("vertices must be an (V, 2) array")
        if v.shape[0] < 3:
            raise AnnotationError(
                f"polygon {self.polygon_id!r} has {v.shape[0]} vertices, need >= 3"
            )
        # past any tile, and small enough that no product below can overflow
        if not (np.abs(v) <= 1e9).all():
            raise AnnotationError(f"polygon {self.polygon_id!r} has a vertex outside ±1e9")
        _check_simple(v, self.polygon_id)
        v.setflags(write=False)


def _orient(ax, ay, bx, by, cx, cy) -> float:
    """Signed area of triangle abc (positive = counter-clockwise)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    """Point p lies on the closed segment ab (assumes collinearity)."""
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_intersect(p1, p2, p3, p4) -> bool:
    """Closed-segment intersection test, including collinear overlap."""
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    return (
        (d1 == 0 and _on_segment(*p3, *p4, *p1))
        or (d2 == 0 and _on_segment(*p3, *p4, *p2))
        or (d3 == 0 and _on_segment(*p1, *p2, *p3))
        or (d4 == 0 and _on_segment(*p1, *p2, *p4))
    )


def _check_simple(v: np.ndarray, polygon_id: str) -> None:
    """Reject self-intersecting, self-touching or degenerate polygons."""
    n = v.shape[0]
    seen = {(float(x), float(y)) for x, y in v}
    if len(seen) != n:
        raise AnnotationError(f"polygon {polygon_id!r} repeats a vertex")
    edges = [(tuple(v[i]), tuple(v[(i + 1) % n])) for i in range(n)]
    for i in range(n):
        a1, a2 = edges[i]
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            b1, b2 = edges[j]
            if adjacent:
                # shared endpoint is fine; a spike folding back onto the
                # previous edge is not
                shared = a2 if j == i + 1 else a1
                other_a = a1 if j == i + 1 else a2
                other_b = b2 if j == i + 1 else b1
                if _orient(*other_a, *shared, *other_b) == 0 and (
                    _on_segment(*other_a, *shared, *other_b)
                    or _on_segment(*shared, *other_b, *other_a)
                ):
                    raise AnnotationError(
                        f"polygon {polygon_id!r} folds back on itself"
                    )
            elif _segments_intersect(a1, a2, b1, b2):
                raise AnnotationError(f"polygon {polygon_id!r} self-intersects")


# ---------------------------------------------------------------------------
# File reading and writing
# ---------------------------------------------------------------------------


def _input_file(path: str | Path, what: str) -> Path:
    """path as a Path, or the InputError that read_input describes."""
    path = Path(path)
    if not os.path.isfile(path):
        raise InputError(f"{what} not found: {path}")
    return path


def read_input(path: str | Path, what: str, aligned_at: int = 0) -> bytes | memoryview:
    """The bytes of an input file; InputError names `what` if it is missing
    or its path cannot name a file (a NUL byte, a name too long).

    With aligned_at, the file is read once into a buffer placed so that
    byte aligned_at lies on an 8-byte boundary, and a read-only memoryview
    of it is returned: an array viewed from that byte on is aligned.
    """
    path = _input_file(path, what)
    if not aligned_at:
        return path.read_bytes()
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        buffer = np.empty(size + 8, dtype=np.uint8)
        start = -(buffer.ctypes.data + aligned_at) % 8
        size = handle.readinto(buffer[start : start + size])
    return memoryview(buffer[start : start + size]).toreadonly()


def read_text(path: str | Path, what: str, error=DataError) -> str:
    """The UTF-8 text of an input file; other bytes raise error."""
    try:
        return read_input(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def write_atomic(path: str | Path, data) -> None:
    """Write data to path by temp file and rename.

    data is a str, written as UTF-8, a bytes-like object, or a list or tuple
    of bytes-like chunks written one after another, so that a large buffer
    is written where it lies instead of being joined into a copy.  The
    directory is made if missing.  A reader sees the old file or the
    whole new one, and a failed write leaves no temp file behind.  The file
    is created with mode 0o666 less the umask, as open() would create it.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = data if isinstance(data, (list, tuple)) else (data,)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


# ---------------------------------------------------------------------------
# P6 raster I/O
# ---------------------------------------------------------------------------

_GRAYSCALE_MAGICS = {b"P1", b"P2", b"P4", b"P5"}


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise RasterFormatError("unexpected end of header")
    return data[start:pos], pos


def _p6_layout(data, path: Path) -> tuple[int, int, int]:
    """(width, height, offset of the first sample) of a P6 file's bytes, or
    of a read-only mmap of the file, whose size must match its header.

    Raises RasterFormatError for malformed headers and for trailing bytes,
    ChannelCountError for grayscale/bitmap inputs and TruncatedRasterError
    when the pixel payload is shorter than the header declares.
    """
    magic = data[:2]
    if magic in _GRAYSCALE_MAGICS:
        raise ChannelCountError(f"{path}: 1-channel raster, need 3-channel P6")
    if magic != b"P6":
        raise RasterFormatError(f"{path}: not a P6 raster (magic {magic!r})")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_header_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise RasterFormatError(f"{path}: non-numeric {name} {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise RasterFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise RasterFormatError(f"{path}: unsupported maxval {maxval}, need 255")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise RasterFormatError(f"{path}: missing whitespace after maxval")
    pos += 1
    expected = width * height * 3
    found = len(data) - pos
    if found < expected:
        raise TruncatedRasterError(f"{path}: expected {expected} sample bytes, found {found}")
    if found > expected:
        raise RasterFormatError(f"{path}: {found - expected} trailing bytes")
    return width, height, pos


def load_tile(path: str | Path) -> ImageTile:
    """Load a binary PPM (P6) tile whose id is the file's stem.

    The pixels are a read-only view of the file's bytes, not a copy.  A
    malformed file raises as _p6_layout says.
    """
    path = Path(path)
    data = read_input(path, "raster")
    width, height, pos = _p6_layout(data, path)
    pixels = np.frombuffer(data, np.uint8, count=width * height * 3, offset=pos)
    return ImageTile(pixels.reshape(height, width, 3), path.stem)


def load_tile_shape(path: str | Path) -> tuple[int, int]:
    """(height, width) of a P6 tile, from its header and its file size.

    The file is mapped, not read, so only the header's pages are touched;
    a file that load_tile would reject raises the same error here.
    """
    path = _input_file(path, "raster")
    with path.open("rb") as handle:
        if not os.fstat(handle.fileno()).st_size:
            _p6_layout(b"", path)  # raises: an empty file has no magic
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as data:
            width, height, _ = _p6_layout(data, path)
    return height, width


def encode_tile(tile: ImageTile) -> tuple[bytes, memoryview]:
    """Canonical P6 chunks (header, view of the pixels); b"".join is the file."""
    header = f"P6\n{tile.width} {tile.height}\n255\n".encode("ascii")
    return header, np.ascontiguousarray(tile.pixels).data


def save_tile(tile: ImageTile, path: str | Path) -> None:
    """Write encode_tile's chunks where they lie; only strided pixels are copied."""
    write_atomic(path, encode_tile(tile))


# ---------------------------------------------------------------------------
# Annotation CSV
# ---------------------------------------------------------------------------


def load_annotations(path: str | Path) -> list[PolygonAnnotation]:
    """Parse an annotation CSV file.

    One record per line: ``tile_id,polygon_id,x1,y1,x2,y2,...``; blank
    lines and lines starting with '#' are ignored.
    """
    path = Path(path)
    text = read_text(path, "annotation file")
    annotations = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2:
            raise AnnotationError(f"{path}:{lineno}: missing polygon_id")
        tile_id, polygon_id = parts[0], parts[1]
        coords = parts[2:]
        if len(coords) % 2 != 0:
            raise AnnotationError(
                f"{path}:{lineno}: odd coordinate count ({len(coords)})"
            )
        if len(coords) < 6:
            raise AnnotationError(
                f"{path}:{lineno}: polygon needs >= 3 vertices, got {len(coords) // 2}"
            )
        try:
            values = [float(c) for c in coords]
        except ValueError as exc:
            raise AnnotationError(f"{path}:{lineno}: {exc}") from None
        vertices = np.array(values, dtype=np.float64).reshape(-1, 2)
        annotations.append(PolygonAnnotation(tile_id, polygon_id, vertices))
    return annotations


def save_annotations(annotations: list[PolygonAnnotation], path: str | Path) -> None:
    lines = []
    for a in annotations:
        coords = ",".join(format(c, ".17g") for c in a.vertices.ravel())
        lines.append(f"{a.tile_id},{a.polygon_id},{coords}")
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------


def _polygon_hits(vertices: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Even-odd containment of points (px, py); edge points count as inside."""
    inside = np.zeros(px.shape, dtype=bool)
    on_edge = np.zeros(px.shape, dtype=bool)
    n = vertices.shape[0]
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        # half-open vertical span so a vertex on the scan line counts once
        spans = (y1 > py) != (y2 > py)
        if spans.any():
            x_hit = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= spans & (px < x_hit)
        dx, dy = x2 - x1, y2 - y1
        cross = dx * (py - y1) - dy * (px - x1)
        t = dx * (px - x1) + dy * (py - y1)
        on_edge |= (cross == 0) & (t >= 0) & (t <= dx * dx + dy * dy)
    return inside | on_edge


def polygon_pixels(ann: PolygonAnnotation, width: int, height: int) -> np.ndarray:
    """Sorted flat indices y*width + x of the pixels one polygon covers.

    A pixel (x, y) is covered when its center (x + 0.5, y + 0.5) falls inside
    the polygon by the even-odd rule; centers exactly on an edge count as
    inside.  Only the polygon's bounding box, clipped to the grid, is tested.
    """
    v = ann.vertices
    x0 = max(0, int(np.floor(v[:, 0].min() - 0.5)))
    x1 = min(width - 1, int(np.ceil(v[:, 0].max() - 0.5)))
    y0 = max(0, int(np.floor(v[:, 1].min() - 0.5)))
    y1 = min(height - 1, int(np.ceil(v[:, 1].max() - 0.5)))
    if x0 > x1 or y0 > y1:
        return np.empty(0, dtype=np.int64)
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1].astype(np.int64)
    hits = _polygon_hits(v, xs + 0.5, ys + 0.5)
    return ys[hits] * width + xs[hits]  # row-major, hence sorted


def rasterize(annotations: list[PolygonAnnotation], width: int, height: int) -> np.ndarray:
    """Sorted, distinct int64 flat indices of the pixels that polygon_pixels
    of at least one polygon holds; no tile-sized mask is built."""
    return pixel_union([polygon_pixels(ann, width, height) for ann in annotations])


def pixel_union(parts: list[np.ndarray]) -> np.ndarray:
    """Sorted, distinct int64 union of arrays of flat pixel indices.  Not
    np.unique: its first call imports numpy.ma, 1 MB held through training,
    and on sorted, distinct int64 arrays it took 27.7 us to this 7.7 us at
    150 values and 30.0 ms to 1.0 ms at 90,000 (numpy 2.4.6)."""
    flat = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *parts]))
    return flat[np.flatnonzero(np.append(flat[:-1] != flat[1:], flat.size > 0))]


def flat_pixels(pixels, size: int) -> np.ndarray:
    """pixels as int64 flat indices y * width + x of a tile of size pixels:
    a 1-D, strictly increasing (so sorted and distinct) array of integers in
    [0, size), so none can alias onto another row, or DataError."""
    flat = np.asarray(pixels)
    if flat.ndim != 1:
        raise DataError(f"pixel indices must be 1-D, got shape {flat.shape}")
    if flat.size and flat.dtype.kind not in "iu":
        raise DataError(f"pixel indices must be integers, got {flat.dtype}")
    flat = flat.astype(np.int64, copy=False)
    if not (flat[1:] > flat[:-1]).all():
        raise DataError("pixel indices must be strictly increasing")
    if flat.size and (flat[0] < 0 or flat[-1] >= size):
        raise DataError(f"pixel index outside its tile of {size} pixels")
    return flat


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

_ROLES = ("train", "test")


@dataclass(frozen=True)
class ManifestEntry:
    role: str
    image_path: Path
    annotation_path: Path

    @property
    def tile_id(self) -> str:
        return self.image_path.stem


@dataclass(frozen=True)
class DatasetManifest:
    """Role-tagged (image, annotation) pairs with unique tile ids."""

    entries: tuple[ManifestEntry, ...] = field(default_factory=tuple)

    def __post_init__(self):
        counts = Counter(e.tile_id for e in self.entries)
        if len(counts) != len(self.entries):
            dup = sorted(i for i, n in counts.items() if n > 1)
            raise DataError(f"duplicate tile ids in manifest: {dup}")

    def subset(self, role: str) -> tuple[ManifestEntry, ...]:
        return tuple(e for e in self.entries if e.role == role)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse a manifest: one ``train|test,<image_path>,<annotation_path>`` per line.

    Relative paths are resolved against the manifest's directory.
    """
    path = Path(path)
    text = read_text(path, "manifest")
    base = path.parent
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        role, image_path, annotation_path = parts
        if role not in _ROLES:
            raise DataError(f"{path}:{lineno}: unknown role {role!r}")
        entries.append(
            ManifestEntry(role, base / image_path, base / annotation_path)
        )
    return DatasetManifest(tuple(entries))


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest with paths relative to its own directory when possible."""
    path = Path(path)
    base = path.parent
    lines = []
    for e in manifest.entries:
        try:
            img = e.image_path.relative_to(base)
            ann = e.annotation_path.relative_to(base)
        except ValueError:
            img, ann = e.image_path, e.annotation_path
        lines.append(f"{e.role},{img},{ann}")
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def load_entry(entry: ManifestEntry) -> tuple[ImageTile, list[PolygonAnnotation]]:
    """Load one manifest entry's tile and entry_annotations."""
    return load_tile(entry.image_path), entry_annotations(entry)


def entry_annotations(entry: ManifestEntry) -> list[PolygonAnnotation]:
    """One manifest entry's annotations; every one must reference its tile."""
    annotations = load_annotations(entry.annotation_path)
    for a in annotations:
        if a.tile_id != entry.tile_id:
            raise AnnotationError(
                f"{entry.annotation_path}: annotation for {a.tile_id!r} "
                f"does not belong to tile {entry.tile_id!r}"
            )
    return annotations
