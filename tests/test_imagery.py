import os
import stat
import time

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvdetect import imagery
from pvdetect.errors import (
    AnnotationError,
    ChannelCountError,
    DataError,
    InputError,
    PVDetectError,
    RasterFormatError,
    TruncatedRasterError,
)
from pvdetect.imagery import (
    DatasetManifest,
    ImageTile,
    ManifestEntry,
    PolygonAnnotation,
    encode_tile,
    load_annotations,
    load_entry,
    load_manifest,
    load_tile,
    load_tile_shape,
    polygon_pixels,
    rasterize,
    read_input,
    save_annotations,
    save_manifest,
    save_tile,
    write_atomic,
)
from oracles import point_in_polygon
from test_detection import _run_under_limit


def square(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=np.float64)


def oracle_pixels(vertices, width, height):
    """np.flatnonzero of the mask of pixel centers point_in_polygon puts inside."""
    mask = np.array(
        [[point_in_polygon(vertices, x + 0.5, y + 0.5) for x in range(width)]
         for y in range(height)],
        dtype=bool,
    )
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# P6 raster I/O
# ---------------------------------------------------------------------------


def test_load_tile_handwritten_p6(tmp_path):
    # 2x2 image: red, green / blue, black
    data = b"P6\n2 2\n255\n" + bytes(
        [255, 0, 0, 0, 255, 0, 0, 0, 255, 0, 0, 0]
    )
    path = tmp_path / "t.ppm"
    path.write_bytes(data)
    tile = load_tile(path)
    assert tile.width == 2 and tile.height == 2
    assert tile.tile_id == "t"
    expected = np.array(
        [[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [0, 0, 0]]], dtype=np.uint8
    )
    assert np.array_equal(tile.pixels, expected)


def test_load_tile_header_comments(tmp_path):
    data = b"P6\n# a comment\n2 1 # trailing\n255\n" + bytes(6)
    path = tmp_path / "c.ppm"
    path.write_bytes(data)
    tile = load_tile(path)
    assert (tile.width, tile.height) == (2, 1)


def test_load_tile_pixels_are_read_only_payload(tmp_path):
    payload = np.random.default_rng(3).integers(0, 256, 5 * 4 * 3, dtype=np.uint8).tobytes()
    path = tmp_path / "v.ppm"
    path.write_bytes(b"P6\n# odd header length\n4 5\n255\n" + payload)
    tile = load_tile(path)
    assert tile.pixels.shape == (5, 4, 3)
    assert tile.pixels.tobytes() == payload
    assert not tile.pixels.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tile.pixels[0, 0, 0] = 1


def test_load_tile_truncated(tmp_path):
    # declares 4 pixels, contains 3
    data = b"P6\n2 2\n255\n" + bytes(9)
    path = tmp_path / "short.ppm"
    path.write_bytes(data)
    with pytest.raises(TruncatedRasterError, match="expected 12 sample bytes, found 9"):
        load_tile(path)


def test_load_tile_grayscale_rejected(tmp_path):
    path = tmp_path / "gray.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(ChannelCountError):
        load_tile(path)


def test_load_tile_bad_magic_and_maxval(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"XY junk")
    with pytest.raises(RasterFormatError):
        load_tile(path)
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(RasterFormatError):
        load_tile(path)
    path.write_bytes(b"P6\n2 two\n255\n" + bytes(12))
    with pytest.raises(RasterFormatError):
        load_tile(path)


def test_load_tile_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes(5))
    with pytest.raises(RasterFormatError, match="2 trailing bytes"):
        load_tile(path)


def test_load_tile_shape_reads_what_load_tile_reads(tmp_path):
    """load_tile_shape gives the shape of every file load_tile loads, and
    raises load_tile's error, message and all, for every file it rejects."""
    path = tmp_path / "s.ppm"
    files = [
        b"P6\n2 3\n255\n" + bytes(18),
        b"P6\n# a comment\n2 1 # trailing\n255\n" + bytes(6),
        b"P6 1 1 255 " + bytes(3),
        b"P6\n2 2\n255\n" + bytes(9),
        b"P6\n1 1\n255\n" + bytes(5),
        b"P5\n2 2\n255\n" + bytes(4),
        b"XY junk",
        b"",
        b"P6\n2 2\n65535\n" + bytes(24),
        b"P6\n2 two\n255\n" + bytes(12),
        b"P6\n0 2\n255\n",
        b"P6\n1 1\n255",
        b"P6\n1 1",
    ]
    shapes = []
    for data in files:
        path.write_bytes(data)
        try:
            tile = load_tile(path)
        except DataError as exc:
            with pytest.raises(type(exc)) as raised:
                load_tile_shape(path)
            assert str(raised.value) == str(exc)
        else:
            shapes.append(load_tile_shape(path))
            assert shapes[-1] == (tile.height, tile.width)
    assert shapes == [(3, 2), (1, 2), (1, 1)]
    with pytest.raises(InputError, match="raster not found"):
        load_tile_shape(tmp_path / "missing.ppm")


def test_load_tile_missing_file(tmp_path):
    # a NUL byte or a name past the file system's limit names no file either
    for path in ("/nonexistent/nowhere.ppm", tmp_path / "t\x00.ppm", tmp_path / ("x" * 300)):
        with pytest.raises(InputError, match="not found"):
            load_tile(path)


def test_tile_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    tile = ImageTile(px, "rt")
    path = tmp_path / "rt.ppm"
    save_tile(tile, path)
    again = load_tile(path)
    assert np.array_equal(again.pixels, tile.pixels)
    assert encode_tile(again) == encode_tile(tile)


def test_encoded_chunks_join_to_the_file_and_strided_pixels_encode_as_their_copy(tmp_path):
    """b"".join(encode_tile(t)) is the P6 file, and load_tile reads it back.
    A tile on a strided view of an array encodes to the bytes of its
    contiguous copy; contiguous pixels are written where they lie."""
    rng = np.random.default_rng(2)
    base = rng.integers(0, 256, size=(9, 14, 3), dtype=np.uint8)
    for view in (base[::2, 1::3], base[:, :, ::-1], base.transpose(1, 0, 2), base[3:4]):
        tile, copy = ImageTile(view, "v"), ImageTile(np.ascontiguousarray(view), "v")
        data = b"".join(encode_tile(tile))
        assert data == b"".join(encode_tile(copy))
        assert data.startswith(b"P6\n%d %d\n255\n" % (tile.width, tile.height))
        save_tile(tile, tmp_path / "v.ppm")
        assert (tmp_path / "v.ppm").read_bytes() == data
        assert np.array_equal(load_tile(tmp_path / "v.ppm").pixels, view)
        assert np.shares_memory(np.asarray(encode_tile(copy)[1]), copy.pixels)


_SAVE_5000 = """
import numpy as np
from pvdetect.imagery import ImageTile, save_tile

pixels = np.empty((5000, 5000, 3), np.uint8)
pixels[...] = (np.arange(5000) % 251).astype(np.uint8)[:, None, None]
save_tile(ImageTile(pixels, "big"), {path!r})
del pixels
header = b"P6\\n5000 5000\\n255\\n"
with open({path!r}, "rb") as f:
    assert f.read(len(header)) == header
    for y in (0, 2500, 4999):
        f.seek(len(header) + 15000 * y)
        assert f.read(15000) == bytes([y % 251]) * 15000
    assert f.seek(0, 2) == len(header) + 75_000_000
"""


def test_save_tile_of_a_5000_tile_runs_in_240_mib(tmp_path):
    """A 5000x5000 tile is saved in a child that may map 240 MiB.

    Its 75 MB of pixels are written where they lie; joining the header to a
    copy of them held three copies and raised MemoryError there.
    """
    _run_under_limit(_SAVE_5000.format(path=str(tmp_path / "big.ppm")), 240 << 20)


_P6_ODD = st.sampled_from([b"-1", b"+2", b"1_0", b"x", b"\xff", b"99999999999", b"P6", b"#"])
_P6_GAP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"#c\n", b"\x0b", b""])


@st.composite
def p6_bytes(draw):
    """Near-P6 files: a magic, three header fields with up to two odd tokens
    inserted or swapped in, gaps, and a payload near the declared size."""
    w, h = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    fields = [b"%d" % w, b"%d" % h, draw(st.sampled_from([b"255", b"255", b"256", b"0"]))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(fields)))
        fields[i:i + draw(st.integers(0, 1))] = [draw(_P6_ODD)]
    magic = draw(st.sampled_from([b"P6", b"P6", b"P6", b"P5", b"P3", b"P7"]))
    header = magic + b"".join(draw(_P6_GAP) + f for f in fields) + draw(_P6_GAP)
    n = max(w * h * 3 + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    return header + draw(st.binary(min_size=n, max_size=n))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.binary() | p6_bytes())
def test_load_tile_fuzz(data):
    """Any bytes load as a tile of the declared size or raise a PVDetectError."""
    try:
        with mock.patch.object(imagery, "read_input", return_value=data):
            tile = load_tile("t.ppm")
    except PVDetectError:
        return
    assert tile.pixels.tobytes() == data[len(data) - tile.pixels.size :]


def test_tile_invariants():
    with pytest.raises(ChannelCountError):
        ImageTile(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ChannelCountError):
        ImageTile(np.zeros((4, 4, 1), dtype=np.uint8))
    with pytest.raises(DataError):
        ImageTile(np.zeros((0, 4, 3), dtype=np.uint8))
    tile = ImageTile(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        tile.pixels[0, 0, 0] = 1  # immutable after construction


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------


def test_load_annotations_square(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("t1,p1,0,0,4,0,4,4,0,4\n")
    anns = load_annotations(path)
    assert len(anns) == 1
    assert anns[0].tile_id == "t1" and anns[0].polygon_id == "p1"
    assert np.array_equal(anns[0].vertices, square(0, 0, 4, 4))


def test_load_annotations_empty_and_comments(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_annotations(path) == []
    path.write_text("# just a comment\n\n")
    assert load_annotations(path) == []


def test_load_annotations_odd_coordinates(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("t1,p1,0,0,4,0,4\n")
    with pytest.raises(AnnotationError):
        load_annotations(path)


def test_load_annotations_too_few_vertices(tmp_path):
    path = tmp_path / "few.csv"
    path.write_text("t1,p1,0,0,4,0\n")
    with pytest.raises(AnnotationError):
        load_annotations(path)


def test_load_annotations_bad_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t1,p1,0,0,4,zero,4,4\n")
    with pytest.raises(AnnotationError):
        load_annotations(path)


def test_self_intersecting_polygon_rejected():
    bowtie = np.array([[0, 0], [4, 4], [4, 0], [0, 4]], dtype=np.float64)
    with pytest.raises(AnnotationError):
        PolygonAnnotation("t", "p", bowtie)


@pytest.mark.parametrize("far", [1e10, 1e308, float("inf"), float("nan")])
def test_far_or_non_finite_vertex_rejected(far):
    verts = np.array([[-far, -far], [far, -far], [0, far]], dtype=np.float64)
    with pytest.raises(AnnotationError):
        PolygonAnnotation("t", "p", verts)


def test_vertices_out_to_1e9_rasterize_exactly():
    # with vertices at 1e308 the containment arithmetic overflowed, and a
    # triangle holding the whole tile rasterized to no pixel at all
    verts = np.array([[-1e9, -1e9], [1e9, -1e9], [0, 1e9]])
    assert np.array_equal(rasterize([PolygonAnnotation("t", "p", verts)], 8, 6), np.arange(48))


def test_repeated_vertex_rejected():
    verts = np.array([[0, 0], [2, 0], [2, 2], [0, 0]], dtype=np.float64)
    with pytest.raises(AnnotationError):
        PolygonAnnotation("t", "p", verts)


def test_annotations_roundtrip(tmp_path):
    anns = [
        PolygonAnnotation("t", "p0", square(0.5, 0.25, 3.5, 2.75)),
        PolygonAnnotation("t", "p1", np.array([[5, 5], [9, 5], [7, 9.5]])),
    ]
    path = tmp_path / "rt.csv"
    save_annotations(anns, path)
    again = load_annotations(path)
    assert len(again) == 2
    for a, b in zip(anns, again):
        assert np.array_equal(a.vertices, b.vertices)
        assert (a.tile_id, a.polygon_id) == (b.tile_id, b.polygon_id)


# coordinates on, between and beyond the centers of an 8 x 6 tile's pixels
_COORD = (st.floats(-3, 11) | st.integers(-6, 22).map(lambda i: i / 2)).map(repr)
_FIELD = _COORD | st.floats().map(repr) | st.text("0123456789.-+einaf", max_size=4)


@st.composite
def annotation_texts(draw):
    """Polygon rows, half of them well formed, with comment and blank lines."""
    rows = []
    for k in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            n = draw(st.sampled_from([6, 6, 8, 10]))
            coords = draw(st.lists(_COORD, min_size=n, max_size=n))
        else:
            coords = draw(st.lists(_FIELD, max_size=10))
        rows.append(",".join([draw(st.sampled_from(["t", "", " t "])), f"p{k}", *coords]))
        rows += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=1))
    return "\n".join(rows)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.text() | annotation_texts())
def test_load_annotations_fuzz(text):
    """Any text parses or raises a PVDetectError, and every polygon that
    parses rasterizes to the point-in-polygon oracle's pixels."""
    try:
        with mock.patch.object(imagery, "read_text", return_value=text):
            annotations = load_annotations("t.csv")
    except PVDetectError:
        return
    for ann in annotations:
        got = rasterize([ann], 8, 6)
        assert got.dtype == np.int64 and (np.diff(got) > 0).all()
        assert got.size == 0 or 0 <= got[0] <= got[-1] < 8 * 6
        assert np.array_equal(got, oracle_pixels(ann.vertices, 8, 6)), ann.vertices


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------


def test_rasterize_unit_square_on_6x6():
    got = rasterize([PolygonAnnotation("t", "p", square(0, 0, 4, 4))], 6, 6)
    expected = np.zeros((6, 6), dtype=bool)
    expected[0:4, 0:4] = True
    assert got.dtype == np.int64
    assert np.array_equal(got, np.flatnonzero(expected))


def test_rasterize_empty_and_union_idempotent():
    empty = rasterize([], 6, 6)
    assert empty.dtype == np.int64 and empty.size == 0
    one = rasterize([PolygonAnnotation("t", "p", square(1, 1, 4, 3))], 8, 8)
    two = rasterize(
        [
            PolygonAnnotation("t", "p", square(1, 1, 4, 3)),
            PolygonAnnotation("t", "q", square(1, 1, 4, 3)),
        ],
        8,
        8,
    )
    assert np.array_equal(one, two)


def test_rasterize_on_edge_counts_inside():
    # pixel centers at 0.5 land exactly on this polygon's boundary
    got = rasterize([PolygonAnnotation("t", "p", square(0.5, 0.5, 3.5, 3.5))], 6, 6)
    assert got[0] == 0 and got[-1] == 3 * 6 + 3
    assert got.size == 16


def test_rasterize_clips_out_of_bounds():
    got = rasterize([PolygonAnnotation("t", "p", square(-5, -5, 3, 3))], 6, 6)
    expected = np.zeros((6, 6), dtype=bool)
    expected[0:3, 0:3] = True
    assert np.array_equal(got, np.flatnonzero(expected))


def test_rasterize_order_independent_and_union_property():
    rng = np.random.default_rng(42)
    polys = []
    for k in range(6):
        # random triangles are always simple
        while True:
            v = rng.uniform(0, 12, size=(3, 2))
            area = abs(
                (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
                - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
            )
            if area > 1e-6:
                break
        polys.append(PolygonAnnotation("t", f"p{k}", v))
    forward = rasterize(polys, 12, 12)
    backward = rasterize(polys[::-1], 12, 12)
    assert np.array_equal(forward, backward)
    assert (np.diff(forward) > 0).all()
    a, b = polys[:3], polys[3:]
    assert np.array_equal(
        forward, np.union1d(rasterize(a, 12, 12), rasterize(b, 12, 12))
    )


def test_rasterize_concave_polygon():
    # L-shape: the 3x3 notch in the top-right corner stays empty
    ell = np.array(
        [[0, 0], [6, 0], [6, 3], [3, 3], [3, 6], [0, 6]], dtype=np.float64
    )
    got = rasterize([PolygonAnnotation("t", "p", ell)], 8, 8)
    expected = np.zeros((8, 8), dtype=bool)
    expected[0:3, 0:6] = True
    expected[3:6, 0:3] = True
    assert np.array_equal(got, np.flatnonzero(expected))
    assert np.array_equal(got, oracle_pixels(ell, 8, 8))


def test_rasterize_matches_point_in_polygon_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        while True:
            v = rng.uniform(-1, 9, size=(3, 2))
            area = abs(
                (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
                - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
            )
            if area > 1e-6:
                break
        got = rasterize([PolygonAnnotation("t", "p", v)], 8, 8)
        assert np.array_equal(got, oracle_pixels(v, 8, 8)), v


def test_polygon_pixels_match_rasterized_mask():
    rng = np.random.default_rng(17)
    w, h = 11, 9
    off_tile = 0
    for trial in range(300):
        # star-shaped around a center that may lie beyond the tile, so
        # polygons are clipped by, or lie wholly outside, its edge
        while True:
            n = int(rng.integers(3, 8))
            cx, cy = rng.uniform(-6, w + 6), rng.uniform(-6, h + 6)
            angle = np.sort(rng.uniform(0, 2 * np.pi, size=n))
            radius = rng.uniform(0.5, 6, size=n)
            v = np.column_stack([cx + radius * np.cos(angle), cy + radius * np.sin(angle)])
            if trial % 3 == 0:
                v = np.round(v * 2) / 2  # vertices and edges through pixel centers
            try:
                ann = PolygonAnnotation("t", f"p{trial}", v)
                break
            except AnnotationError:
                continue
        got = polygon_pixels(ann, w, h)
        assert got.dtype == np.int64
        assert np.array_equal(got, rasterize([ann], w, h)), trial
        assert np.array_equal(got, oracle_pixels(ann.vertices, w, h)), trial
        off_tile += got.size == 0
    assert 0 < off_tile < 300


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _write_dataset(tmp_path, tile_id="t0"):
    px = np.full((4, 4, 3), 9, dtype=np.uint8)
    save_tile(ImageTile(px, tile_id), tmp_path / f"{tile_id}.ppm")
    (tmp_path / f"{tile_id}.csv").write_text(f"{tile_id},p0,0,0,2,0,2,2,0,2\n")


def test_manifest_roundtrip_and_roles(tmp_path):
    _write_dataset(tmp_path, "t0")
    _write_dataset(tmp_path, "t1")
    path = tmp_path / "manifest.txt"
    path.write_text("train,t0.ppm,t0.csv\ntest,t1.ppm,t1.csv\n")
    manifest = load_manifest(path)
    assert [e.role for e in manifest.entries] == ["train", "test"]
    assert [e.tile_id for e in manifest.entries] == ["t0", "t1"]
    save_manifest(manifest, tmp_path / "again.txt")
    again = load_manifest(tmp_path / "again.txt")
    assert again == manifest

    tile, anns = load_entry(manifest.entries[0])
    assert tile.tile_id == "t0" and len(anns) == 1


def test_manifest_duplicate_tile_ids(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("train,t0.ppm,t0.csv\ntest,t0.ppm,t0.csv\n")
    with pytest.raises(DataError):
        load_manifest(path)


def test_manifest_duplicate_tile_id_found_in_linear_time():
    # counting each id with list.count took 4.6 s at 20,001 entries
    entries = [ManifestEntry("train", Path(f"t{i}.ppm"), Path(f"t{i}.csv"))
               for i in range(200_000)]
    entries.append(ManifestEntry("test", Path("x/t7.ppm"), Path("x/t7.csv")))
    t0 = time.perf_counter()
    with pytest.raises(DataError, match=r"duplicate tile ids in manifest: \['t7'\]"):
        DatasetManifest(tuple(entries))
    assert time.perf_counter() - t0 < 1.0


def test_manifest_bad_role_and_fields(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("validate,t0.ppm,t0.csv\n")
    with pytest.raises(DataError):
        load_manifest(path)
    path.write_text("train,t0.ppm\n")
    with pytest.raises(DataError):
        load_manifest(path)


def test_load_entry_mismatched_tile_id(tmp_path):
    _write_dataset(tmp_path, "t0")
    (tmp_path / "t0.csv").write_text("other,p0,0,0,2,0,2,2,0,2\n")
    entry = ManifestEntry("train", tmp_path / "t0.ppm", tmp_path / "t0.csv")
    with pytest.raises(AnnotationError):
        load_entry(entry)


# names of the files fuzz_dataset writes, and of files and paths it does not
_MANIFEST_NAME = st.sampled_from([
    "t0.ppm", "t1.ppm", "bad.ppm", "t0.csv", "t1.csv", "bad.csv", "missing.ppm",
    "sub", "sub/../t0.ppm", "/", "", "t0.ppm\x00", "x" * 300, "t0.ppm/x",
])
_MANIFEST_FIELD = st.sampled_from(["train", "test", "Train", " test "]) | _MANIFEST_NAME


@st.composite
def manifest_bytes(draw):
    """Manifest rows, half of them role, image and annotation, with comment
    and blank lines, a tail that may break UTF-8, and now and then a flipped bit."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            role = draw(st.sampled_from(["train", "test"]))
            rows.append(",".join([role, draw(_MANIFEST_NAME), draw(_MANIFEST_NAME)]))
        else:
            fields = draw(st.lists(_MANIFEST_FIELD | st.text(max_size=5), max_size=4))
            rows.append(",".join(fields))
        rows += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=1))
    data = bytearray("\n".join(rows).encode())
    data += draw(st.sampled_from([b"", b"", b"\n", b"\n", b"\xff", b"\r\n#"]))
    if data and draw(st.integers(0, 3)) == 0:
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """Two good tiles with their annotations, a broken tile and CSV, a directory."""
    root = tmp_path_factory.mktemp("fuzz_dataset")
    _write_dataset(root, "t0")
    _write_dataset(root, "t1")
    (root / "bad.ppm").write_bytes(b"P6\n4 4\n255\n\x00")
    (root / "bad.csv").write_text("t0,p0,0,0,2\n")
    (root / "sub").mkdir()
    return root


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.binary() | manifest_bytes())
def test_load_manifest_and_entries_fuzz(fuzz_dataset, data):
    """Any manifest bytes load, with every entry, or raise a PVDetectError.

    The manifest's bytes are served from memory; its entries name real
    files and paths beside it."""
    read = imagery.read_input
    served = lambda path, what, *rest: data if what == "manifest" else read(path, what, *rest)
    try:
        with mock.patch.object(imagery, "read_input", served):
            manifest = load_manifest(fuzz_dataset / "manifest.txt")
            loaded = [load_entry(entry) for entry in manifest.entries]
    except PVDetectError:
        return
    for entry, (tile, annotations) in zip(manifest.entries, loaded):
        assert entry.role in ("train", "test")
        assert tile.tile_id == entry.tile_id
        assert all(a.tile_id == tile.tile_id for a in annotations)


# ---------------------------------------------------------------------------
# Reading text and writing files
# ---------------------------------------------------------------------------


def test_load_annotations_non_utf8_is_data_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"t,p,0,0,1,0,1,1\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_annotations(path)


def test_load_manifest_non_utf8_is_data_error(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_bytes(b"test,t\xff.ppm,t.csv\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_manifest(path)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_atomic_honours_umask(tmp_path, umask, mode):
    path = tmp_path / "out" / "file.txt"
    old = os.umask(umask)
    try:
        write_atomic(path, "text\n")
        write_atomic(path, b"again\n")  # replacing keeps the mode rule
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"again\n"
    assert os.listdir(path.parent) == ["file.txt"]


def test_write_atomic_writes_chunks_in_order(tmp_path):
    """A list or tuple of bytes-like chunks is written as their concatenation."""
    values = np.arange(6, dtype="<f4").reshape(2, 3)
    for chunks in ([b"head", values.data, bytearray(b"!")], (memoryview(b"xy"),), []):
        path = tmp_path / "chunks.bin"
        write_atomic(path, chunks)
        assert path.read_bytes() == b"".join(chunks)
    assert os.listdir(tmp_path) == ["chunks.bin"]


@pytest.mark.parametrize("size", [0, 1, 12, 13, 14, 17, 1000])
def test_read_input_aligned_at(tmp_path, size):
    """Byte aligned_at of the read-only view lies on an 8-byte boundary."""
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert read_input(path, "input") == data
    for at in (1, 5, 13):
        view = read_input(path, "input", aligned_at=at)
        assert view.readonly and view == data
        if size:  # an empty view has no address of its own
            assert (np.frombuffer(view, dtype=np.uint8).ctypes.data + at) % 8 == 0
