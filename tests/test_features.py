import numpy as np
import pytest

from pvdetect.errors import ConfigError
from pvdetect.features import FeatureSpec, feature_planes, integral_tables, ring_offsets
from pvdetect.imagery import ImageTile
from oracles import (
    feature_rows,
    naive_pixel_features,
    naive_window_stats,
    prefix_table_by_matmul,
)


def random_tile(rng, h, w, tile_id="t"):
    return ImageTile(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8), tile_id)


def window_at(tile, side, cx, cy):
    """(mean, variance) of the side x side window centered at (cx, cy).

    Read from the feature row of a pixel (cx - dx, cy - dy) inside the tile
    whose ring holds the window offset (dx, dy), so centers outside the tile
    are reached through a ring window.
    """
    for r in range(1, max(tile.width, tile.height) + 1):
        spec = FeatureSpec(window_side=side, ring_radii=(r,))
        for k, (dx, dy) in enumerate(spec.window_offsets()):
            x, y = cx - dx, cy - dy
            if 0 <= x < tile.width and 0 <= y < tile.height:
                vec = feature_rows(tile, spec, y, y + 1)[0, x, 6 * k : 6 * k + 6]
                return vec[:3], vec[3:]
    raise ValueError(f"no pixel reaches window center ({cx}, {cy})")


# ---------------------------------------------------------------------------
# FeatureSpec and ring offsets
# ---------------------------------------------------------------------------


def test_default_spec():
    spec = FeatureSpec()
    assert spec.window_side == 3
    assert spec.ring_radii == (2, 4)
    assert spec.feature_count == 102
    assert len(spec.window_offsets()) == 17
    assert spec.fingerprint() == "w3:r2,4"


def test_feature_count_formula():
    assert FeatureSpec(ring_radii=(2,)).feature_count == 54
    assert FeatureSpec(ring_radii=(1, 2, 3)).feature_count == 150
    for radii in [(2,), (2, 4), (1, 2, 3), (3, 5, 7, 9)]:
        spec = FeatureSpec(ring_radii=radii)
        assert spec.feature_count == 9 * 6 * len(radii) - 6 * (len(radii) - 1)
        assert 6 * len(spec.window_offsets()) == spec.feature_count


def test_spec_invariants():
    with pytest.raises(ConfigError):
        FeatureSpec(window_side=4)
    with pytest.raises(ConfigError):
        FeatureSpec(window_side=1)
    with pytest.raises(ConfigError):
        FeatureSpec(ring_radii=(4, 2))
    with pytest.raises(ConfigError):
        FeatureSpec(ring_radii=(0, 2))
    with pytest.raises(ConfigError):
        FeatureSpec(ring_radii=())


def test_ring_offsets_r2_exact_order():
    assert ring_offsets(2) == [
        (0, 0),
        (0, -2),
        (0, 2),
        (-2, 0),
        (-2, -2),
        (-2, 2),
        (2, 0),
        (2, -2),
        (2, 2),
    ]


def test_ring_offsets_r1_and_r4():
    assert set(ring_offsets(1)) == {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    assert ring_offsets(4) == [(4 * x, 4 * y) for x, y in [(a, b) for a in (0, -1, 1) for b in (0, -1, 1)]]


# ---------------------------------------------------------------------------
# Integral images
# ---------------------------------------------------------------------------


def test_integral_1x1():
    sums, sq_sums = integral_tables(np.array([[[5, 0, 7]]], dtype=np.uint8))
    assert sums[1, 1].tolist() == [5, 0, 7]
    assert sq_sums[1, 1].tolist() == [25, 0, 49]
    assert sums[0].sum() == 0 and sums[:, 0].sum() == 0


def test_integral_all_zero():
    sums, sq_sums = integral_tables(np.zeros((3, 4, 3), dtype=np.uint8))
    assert sums.shape == sq_sums.shape == (4, 5, 3)
    assert not sums.any()
    assert not sq_sums.any()


def test_integral_matches_matmul_prefix_oracle():
    rng = np.random.default_rng(1)
    tile = random_tile(rng, 16, 16)
    sums, sq_sums = integral_tables(tile.pixels)
    assert sums.dtype == sq_sums.dtype == np.int64
    for c in range(3):
        channel = tile.pixels[:, :, c].astype(np.int64)
        assert np.array_equal(sums[:, :, c], prefix_table_by_matmul(channel))
        assert np.array_equal(sq_sums[:, :, c], prefix_table_by_matmul(channel * channel))


def test_rect_sum_matches_slice_sums():
    rng = np.random.default_rng(2)
    tile = random_tile(rng, 16, 12)
    sums, sq_sums = integral_tables(tile.pixels)
    px = tile.pixels.astype(np.int64)
    for _ in range(200):
        x0, x1 = sorted(rng.integers(0, 12, size=2).tolist())
        y0, y1 = sorted(rng.integers(0, 16, size=2).tolist())
        for table, values in ((sums, px), (sq_sums, px * px)):
            # four-term inclusion-exclusion over the exclusive prefix table
            got = (
                table[y1 + 1, x1 + 1]
                - table[y0, x1 + 1]
                - table[y1 + 1, x0]
                + table[y0, x0]
            )
            want = values[y0 : y1 + 1, x0 : x1 + 1].sum(axis=(0, 1))
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Window statistics
# ---------------------------------------------------------------------------


def test_window_stats_constant_region():
    tile = ImageTile(np.full((9, 9, 3), 7, dtype=np.uint8))
    mean, variance = window_at(tile, 3, 4, 4)
    assert mean.tolist() == [7.0, 7.0, 7.0]
    assert variance.tolist() == [0.0, 0.0, 0.0]


def test_window_stats_values_0_to_8():
    px = np.zeros((3, 3, 3), dtype=np.uint8)
    px[:, :, 0] = np.arange(9).reshape(3, 3)
    mean, variance = window_at(ImageTile(px), 3, 1, 1)
    assert mean[0] == 4.0
    assert variance[0] == pytest.approx(60.0 / 9.0, abs=1e-12)


def test_window_stats_border_clamp_matches_naive():
    rng = np.random.default_rng(3)
    tile = random_tile(rng, 8, 6)
    centers = [(0, 0), (5, 7), (0, 7), (5, 0), (2, 3), (-3, -4), (9, 11), (-2, 4)]
    for cx, cy in centers:
        mean, variance = window_at(tile, 3, cx, cy)
        want_mean, want_var = naive_window_stats(tile.pixels, cx, cy, 3)
        assert np.allclose(mean, want_mean, rtol=1e-12, atol=0)
        assert np.allclose(variance, want_var, rtol=1e-9, atol=1e-12)


def test_window_stats_5x5_window():
    rng = np.random.default_rng(4)
    tile = random_tile(rng, 10, 10)
    for cx, cy in [(0, 0), (4, 4), (9, 9), (1, 8)]:
        mean, variance = window_at(tile, 5, cx, cy)
        want_mean, want_var = naive_window_stats(tile.pixels, cx, cy, 5)
        assert np.allclose(mean, want_mean, rtol=1e-12, atol=0)
        assert np.allclose(variance, want_var, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


def test_feature_vector_length_default():
    rng = np.random.default_rng(5)
    tile = random_tile(rng, 12, 12)
    rows = feature_rows(tile, FeatureSpec(), 6, 7)
    assert rows.shape == (1, 12, 102)
    assert rows[0, 6].shape == (102,)


def test_constant_tile_features():
    tile = ImageTile(np.full((16, 16, 3), 33, dtype=np.uint8))
    image = feature_rows(tile, FeatureSpec(), 0, 16)
    means = image.reshape(16, 16, -1, 6)[:, :, :, :3]
    variances = image.reshape(16, 16, -1, 6)[:, :, :, 3:]
    assert (means == 33.0).all()
    assert (variances == 0.0).all()


def test_pixel_features_match_naive_oracle():
    rng = np.random.default_rng(6)
    spec = FeatureSpec()
    offsets = spec.window_offsets()
    for _ in range(5):
        tile = random_tile(rng, 14, 11)
        image = feature_rows(tile, spec, 0, tile.height)
        for _ in range(20):
            x = int(rng.integers(0, 11))
            y = int(rng.integers(0, 14))
            want = naive_pixel_features(tile.pixels, offsets, 3, x, y)
            assert np.allclose(image[y, x], want, rtol=1e-9, atol=1e-12)


def test_feature_image_equals_pixel_path_bitwise():
    """Banded rows equal the per-pixel loop oracle bit for bit."""
    rng = np.random.default_rng(7)
    spec = FeatureSpec()
    offsets = spec.window_offsets()
    tile = random_tile(rng, 12, 9)
    image = np.concatenate(
        [feature_rows(tile, spec, y0, min(y0 + 5, 12)) for y0 in range(0, 12, 5)]
    )
    assert image.shape == (12, 9, 102)
    for y in range(12):
        for x in range(9):
            vec = naive_pixel_features(tile.pixels, offsets, 3, x, y)
            assert np.array_equal(image[y, x], vec), (x, y)


def test_feature_rows_banding_matches_whole_image():
    rng = np.random.default_rng(8)
    spec = FeatureSpec()
    tile = random_tile(rng, 23, 9)
    whole = feature_rows(tile, spec, 0, 23)
    banded = np.concatenate(
        [feature_rows(tile, spec, y0, min(y0 + 7, 23)) for y0 in range(0, 23, 7)]
    )
    assert np.array_equal(whole, banded)


def test_translation_equivariance_away_from_borders():
    rng = np.random.default_rng(9)
    spec = FeatureSpec()
    base = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
    a = ImageTile(base[0:32, 0:32].copy())
    b = ImageTile(base[2:34, 3:35].copy())  # content shifted by (dy=2, dx=3)
    fa = feature_rows(a, spec, 0, 32)
    fb = feature_rows(b, spec, 0, 32)
    margin = max(spec.ring_radii) + 1
    for y in range(2 + margin, 32 - margin):
        for x in range(3 + margin, 32 - margin):
            assert np.array_equal(fa[y, x], fb[y - 2, x - 3])


def test_nondefault_spec_matches_naive_oracle():
    rng = np.random.default_rng(12)
    spec = FeatureSpec(window_side=5, ring_radii=(1, 3))
    offsets = spec.window_offsets()
    assert spec.feature_count == 6 * len(offsets) == 102
    tile = random_tile(rng, 17, 13)
    image = feature_rows(tile, spec, 0, tile.height)
    for x, y in [(0, 0), (12, 16), (6, 8), (0, 16), (12, 0)]:
        want = naive_pixel_features(tile.pixels, offsets, 5, x, y)
        assert np.array_equal(image[y, x], want)


def test_tile_smaller_than_ring_support():
    rng = np.random.default_rng(13)
    spec = FeatureSpec()
    tile = random_tile(rng, 4, 3)  # rings reach far outside the tile
    offsets = spec.window_offsets()
    image = feature_rows(tile, spec, 0, tile.height)
    assert image.shape == (4, 3, 102)
    for y in range(4):
        row = feature_rows(tile, spec, y, y + 1)
        for x in range(3):
            want = naive_pixel_features(tile.pixels, offsets, 3, x, y)
            assert np.array_equal(image[y, x], want)
            assert np.array_equal(row[0, x], want)


def test_variances_nonnegative():
    rng = np.random.default_rng(10)
    spec = FeatureSpec()
    tile = random_tile(rng, 16, 16)
    image = feature_rows(tile, spec, 0, 16)
    variances = image.reshape(16, 16, -1, 6)[:, :, :, 3:]
    assert (variances >= 0.0).all()


def test_bad_row_range_rejected():
    rng = np.random.default_rng(11)
    tile = random_tile(rng, 6, 6)
    for start, stop in [(0, 0), (3, 2), (-1, 2), (0, 7), (6, 7)]:
        with pytest.raises(ValueError, match="bad row range"):
            feature_planes(tile, FeatureSpec(), start, stop)
