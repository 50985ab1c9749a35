import numpy as np
import pytest

from pvdetect.errors import (
    AnnotationError,
    ChannelCountError,
    DataError,
    InputError,
    RasterFormatError,
    TruncatedRasterError,
)
from pvdetect.imagery import (
    ImageTile,
    ManifestEntry,
    PolygonAnnotation,
    encode_tile,
    load_annotations,
    load_entry,
    load_manifest,
    load_tile,
    polygon_pixels,
    rasterize,
    save_annotations,
    save_manifest,
    save_tile,
)
from oracles import point_in_polygon


def square(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=np.float64)


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


def test_load_tile_truncated(tmp_path):
    # declares 4 pixels, contains 3
    data = b"P6\n2 2\n255\n" + bytes(9)
    path = tmp_path / "short.ppm"
    path.write_bytes(data)
    with pytest.raises(TruncatedRasterError):
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
    with pytest.raises(RasterFormatError):
        load_tile(path)


def test_load_tile_missing_file():
    with pytest.raises(InputError):
        load_tile("/nonexistent/nowhere.ppm")


def test_tile_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    tile = ImageTile(px, "rt")
    path = tmp_path / "rt.ppm"
    save_tile(tile, path)
    again = load_tile(path)
    assert np.array_equal(again.pixels, tile.pixels)
    assert encode_tile(again) == encode_tile(tile)


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


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------


def test_rasterize_unit_square_on_6x6():
    mask = rasterize([PolygonAnnotation("t", "p", square(0, 0, 4, 4))], 6, 6)
    expected = np.zeros((6, 6), dtype=bool)
    expected[0:4, 0:4] = True
    assert np.array_equal(mask, expected)
    assert mask.sum() == 16


def test_rasterize_empty_and_union_idempotent():
    assert not rasterize([], 6, 6).any()
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
    mask = rasterize([PolygonAnnotation("t", "p", square(0.5, 0.5, 3.5, 3.5))], 6, 6)
    assert bool(mask[0, 0]) and bool(mask[3, 3])
    assert mask.sum() == 16


def test_rasterize_clips_out_of_bounds():
    mask = rasterize([PolygonAnnotation("t", "p", square(-5, -5, 3, 3))], 6, 6)
    expected = np.zeros((6, 6), dtype=bool)
    expected[0:3, 0:3] = True
    assert np.array_equal(mask, expected)


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
    a, b = polys[:3], polys[3:]
    assert np.array_equal(
        forward, rasterize(a, 12, 12) | rasterize(b, 12, 12)
    )


def test_rasterize_concave_polygon():
    # L-shape: the 3x3 notch in the top-right corner stays empty
    ell = np.array(
        [[0, 0], [6, 0], [6, 3], [3, 3], [3, 6], [0, 6]], dtype=np.float64
    )
    mask = rasterize([PolygonAnnotation("t", "p", ell)], 8, 8)
    expected = np.zeros((8, 8), dtype=bool)
    expected[0:3, 0:6] = True
    expected[3:6, 0:3] = True
    assert np.array_equal(mask, expected)
    for y in range(8):
        for x in range(8):
            assert mask[y, x] == point_in_polygon(ell, x + 0.5, y + 0.5)


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
        mask = rasterize([PolygonAnnotation("t", "p", v)], 8, 8)
        for y in range(8):
            for x in range(8):
                assert mask[y, x] == point_in_polygon(v, x + 0.5, y + 0.5), (v, x, y)


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
        assert np.array_equal(got, np.flatnonzero(rasterize([ann], w, h))), trial
        want = [
            y * w + x
            for y in range(h)
            for x in range(w)
            if point_in_polygon(ann.vertices, x + 0.5, y + 0.5)
        ]
        assert got.tolist() == want, trial
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
