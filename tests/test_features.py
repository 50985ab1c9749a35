import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pvdetect.errors import ConfigError
from pvdetect.features import FeatureSpec, _box_sums, _window_sum, feature_planes, ring_offsets
from pvdetect.imagery import ImageTile
from oracles import (
    feature_rows,
    naive_pixel_features,
    naive_window_stats,
    slice_feature_planes,
    slice_window_sums,
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
# Running window sums
# ---------------------------------------------------------------------------


def _channels_and_squares(pixels, dtype):
    """Each channel of pixels, then its squares, as dtype arrays."""
    channels = [pixels[:, :, c].astype(dtype) for c in range(3)]
    return channels + [v * v for v in channels]


def test_window_sums_1x1():
    """A 1x1 tile pads to one value per channel: every window sums 9 of them."""
    px = np.array([[[5, 0, 7]]], dtype=np.uint8)
    for v, want in zip(_channels_and_squares(np.repeat(np.repeat(px, 5, 0), 4, 1), np.int32),
                       [5, 0, 7, 25, 0, 49]):
        sums = _box_sums(v, 3)
        assert sums.shape == (3, 2) and sums.dtype == np.int32
        assert (sums == 9 * want).all()
    values, base, offsets = feature_planes(ImageTile(px), FeatureSpec(), 0, 1)
    planes = values.reshape(6, -1)
    assert (planes[:3] == [[5.0], [0.0], [7.0]]).all() and not planes[3:].any()
    assert values[base[:, None] + offsets].reshape(-1, 6)[:, :3].tolist() == [[5.0, 0.0, 7.0]] * 17


def test_window_sums_all_zero():
    for dtype in (np.int32, np.int64):
        for v in _channels_and_squares(np.zeros((3, 4, 3), dtype=np.uint8), dtype):
            sums = _box_sums(v, 3)
            assert sums.shape == (1, 2) and sums.dtype == dtype
            assert not sums.any()
            assert _window_sum(v, 4).shape == (3, 1) and not _window_sum(v, 4).any()


def test_window_sums_match_slice_oracle():
    """Every window of every side up to the tile's, in both dtypes."""
    rng = np.random.default_rng(1)
    tile = random_tile(rng, 16, 16)
    for side in range(3, 17, 2):
        for v in _channels_and_squares(tile.pixels, np.int64):
            want = slice_window_sums(v, side, side)
            for dtype in (np.int32, np.int64):
                sums = _box_sums(v.astype(dtype), side)
                assert sums.dtype == dtype
                assert np.array_equal(sums, want), (side, dtype)


def test_window_sum_along_columns_of_a_view():
    """feature_planes' use: the column pass runs on a transposed view, and
    the strided channel views of one tile all sum as their copies do."""
    rng = np.random.default_rng(3)
    tile = random_tile(rng, 9, 13)
    for c in range(3):
        channel = tile.pixels[:, :, c].astype(np.int32)
        for width in range(1, 10):
            down = _window_sum(channel.T, width).T
            assert np.array_equal(down, slice_window_sums(channel, width, 1))
            strided = _window_sum(tile.pixels.astype(np.int32)[:, :, c], width)
            assert np.array_equal(strided, slice_window_sums(channel, 1, width))


def test_rect_sum_matches_slice_sums():
    """Window sums of any width, odd or even, along both axes."""
    rng = np.random.default_rng(2)
    tile = random_tile(rng, 16, 12)
    px = tile.pixels.astype(np.int64)
    for _ in range(200):
        x0, x1 = sorted(rng.integers(0, 12, size=2).tolist())
        y0, y1 = sorted(rng.integers(0, 16, size=2).tolist())
        for values in (px, px * px):
            for c in range(3):
                v = values[:, :, c]
                sums = _window_sum(_window_sum(v.T, y1 - y0 + 1).T, x1 - x0 + 1)
                assert sums.shape == (16 - (y1 - y0), 12 - (x1 - x0))
                assert sums[y0, x0] == v[y0 : y1 + 1, x0 : x1 + 1].sum()


@st.composite
def band_cases(draw):
    """A tile, 1xN and Nx1 among them, a band of it, a channel subset and a
    spec whose window side sits on either side of the int32 rule."""
    side = draw(st.sampled_from([3, 5, 181, 183]))
    radii = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    h, w = draw(st.sampled_from([(h, w), (h, w), (1, w), (h, 1)]))
    # samples of 253..255 give windows of squares past 2**31 at side 183, and
    # a variance that a wrapped int32 sum would clamp to zero
    low = draw(st.sampled_from([0, 253]))
    pixels = draw(hnp.arrays(np.uint8, (h, w, 3), elements=st.integers(low, 255)))
    y0 = draw(st.integers(0, h - 1))
    y1 = draw(st.integers(y0 + 1, h))
    channels = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    return ImageTile(pixels), FeatureSpec(side, tuple(sorted(radii))), y0, y1, tuple(channels)


def _bright(side, h=1, w=7):
    """A tile of 255s with 253s on the diagonal, whose windows' variances
    are positive but whose sums of squares pass 2**31 at side 183."""
    pixels = np.full((h, w, 3), 255, dtype=np.uint8)
    pixels[np.arange(min(h, w)), np.arange(min(h, w))] = 253
    return ImageTile(pixels), FeatureSpec(side, (1,)), 0, h, (0, 1, 2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(band_cases())
@example(_bright(181))
@example(_bright(183))
@example(_bright(3, 6, 1))
def test_feature_planes_match_slice_oracle_bitwise(case):
    """Planes, and the features read from them, equal the per-window slice
    oracle bit for bit: in int32 up to side 181, where a window of 255**2
    still fits, and in int64 at 183, where it would wrap."""
    tile, spec, y0, y1, channels = case
    values, base, offsets = feature_planes(tile, spec, y0, y1, channels)
    want = slice_feature_planes(tile, spec, y0, y1, channels)
    assert values.tobytes() == want.tobytes()
    k, half = len(channels), spec.window_side // 2
    ys, xs = np.divmod(np.arange(base.size), tile.width)
    for w, (dx, dy) in enumerate(spec.window_offsets()):
        for s in range(2 * k):
            cells = want[s, ys + dy + spec.pad - half, xs + dx + spec.pad - half]
            assert values[base + offsets[2 * k * w + s]].tobytes() == cells.tobytes()


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


@pytest.mark.parametrize("spec", [FeatureSpec(), FeatureSpec(5, (1, 4))], ids=["default", "w5"])
def test_channel_planes_give_the_channels_features(spec):
    """Statistic s of window w from the planes of channels (c0, ..., ck-1)
    is, bit for bit, feature 6w + c_s (a mean) or 6w + 3 + c_(s-k) (a
    variance) of all three channels' planes, on any band."""
    rng = np.random.default_rng(13)
    tile = random_tile(rng, 17, 11)
    windows = len(spec.window_offsets())
    for y0, y1 in [(0, 17), (4, 9)]:
        values, base, offsets = feature_planes(tile, spec, y0, y1)
        full = values[base[:, None] + offsets]
        for channels in [(0,), (1,), (2,), (2, 0)]:
            k = len(channels)
            v, b, o = feature_planes(tile, spec, y0, y1, channels)
            assert v.size == 2 * k * values.size // 6 and o.size == 2 * k * windows
            stats = [*channels, *(3 + c for c in channels)]
            want = full[:, (6 * np.arange(windows)[:, None] + stats).ravel()]
            assert np.array_equal(b, base)
            assert v[b[:, None] + o].tobytes() == want.tobytes()


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


def test_padding_bound():
    """A spec whose padded tile stays within 4 (h + 16)(w + 16) + 2**20 cells runs.

    On a 40x40 tile the bound is 1,061,120 cells: pad 495 (ring radius 494
    with 3x3 windows) needs 1030**2 = 1,060,900 and pad 496 needs
    1032**2 = 1,065,024.  The check comes before the row range is padded.
    Any pad up to 8 passes on every tile, so the default spec runs on the
    thinnest tiles at any length: a 200,000x1 tile passes, where 4 h w +
    2**20 would stop a pad of 5 past 149,780 px.  The bound is on the whole
    tile, so one row of it is enough to check.
    """
    rng = np.random.default_rng(12)
    tile = random_tile(rng, 40, 40)
    widest = feature_planes(tile, FeatureSpec(ring_radii=(494,)), 0, 1)
    assert widest[0].size == 6 * (1 + 2 * 495 - 2) * (40 + 2 * 495 - 2)
    for spec in (FeatureSpec(ring_radii=(495,)), FeatureSpec(window_side=993, ring_radii=(1,))):
        with pytest.raises(ConfigError, match=r"4 \(h \+ 16\)\(w \+ 16\)"):
            feature_planes(tile, spec, 0, 1)
    thin = FeatureSpec(window_side=3, ring_radii=(7,))
    assert thin.pad == 8
    for h, w in [(1, 1), (1, 5000), (200_000, 1)]:
        tile = random_tile(rng, h, w)
        for spec in (thin, FeatureSpec()):
            assert feature_planes(tile, spec, 0, 1)[1].size == w
