import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvdetect.detection import (
    DetectionObject,
    PPParams,
    decode_confidence_map,
    encode_confidence_map,
    extract_objects,
    filter_maxima,
    load_confidence_map,
    nonmax_suppress,
    otsu_threshold,
    postprocess,
    save_confidence_map,
)
from pvdetect.errors import ConfigError, DataError, InputError
from pvdetect import detection
from oracles import (
    brute_nms,
    disk_element,
    exhaustive_otsu,
    flood_components,
    reference_postprocess,
    seedwise_postprocess,
)


# ---------------------------------------------------------------------------
# Non-maximum suppression
# ---------------------------------------------------------------------------


def brute_flat(conf, side, floor=-np.inf):
    """brute_nms's maxima not below floor, as flat indices; floor is a Python float."""
    return [y * conf.shape[1] + x for x, y, v in brute_nms(conf, side) if v >= floor]


def nms_flat(conf, side, floor=None):
    """nonmax_suppress, then filter_maxima when a floor is given, as a list."""
    maxima = nonmax_suppress(conf, side)
    assert maxima.dtype == np.int64 and (np.diff(maxima) > 0).all()
    return (maxima if floor is None else filter_maxima(conf, maxima, floor)).tolist()


def test_nms_single_strict_peak():
    conf = np.zeros((16, 16))
    conf[5, 9] = 0.8
    assert nms_flat(conf, 9, 0.5) == [5 * 16 + 9]


def test_nms_constant_small_map_keeps_origin():
    conf = np.full((5, 5), 0.7)
    assert nms_flat(conf, 9) == [0]


def test_nms_plateau_tiebreak_lex_smallest():
    conf = np.zeros((12, 12))
    conf[4:7, 4:7] = 0.9  # flat plateau
    plateau = [m for m in nms_flat(conf, 9) if conf.flat[m] == 0.9]
    assert plateau == [4 * 12 + 4]


# float32 maps drawn from each floor's float32 neighbours: float32(0.7) is
# below 0.7, so a comparison in float32 would keep the maxima sitting there
_FLOORS = (0.1, 0.3, 0.7)
_NEAR = np.float32(_FLOORS)
_FLOAT32_POOL = np.concatenate(
    [_NEAR, np.nextafter(_NEAR, np.float32(0)), np.nextafter(_NEAR, np.float32(1)),
     np.float32([0, 0.5, 1])]
)


def check_nms(values, side, float32_differs):
    """nonmax_suppress, and filter_maxima at each floor, against brute_nms.

    brute_flat filters on Python floats; float32_differs collects the floors
    at which a comparison in the map's own dtype would give another answer.
    """
    assert nms_flat(values, side) == brute_flat(values, side)
    for floor in _FLOORS:
        want = brute_flat(values, side, floor)
        assert nms_flat(values, side, floor) == want, floor
        own = [m for m in nms_flat(values, side) if values.flat[m] >= values.dtype.type(floor)]
        if own != want:
            float32_differs.add(floor)


def test_nms_matches_bruteforce_oracle():
    rng, rng32 = np.random.default_rng(0), np.random.default_rng(15)
    float32_differs = set()
    for trial in range(8):
        conf = rng.uniform(0, 1, size=(32, 32))
        if trial % 2:
            conf = np.round(conf, 1)  # coarse values force plateaus
        # shifted below -1 too, so a 0 or -1 fill for off-map pixels would lose
        for values in (conf, conf - 1.5, rng32.choice(_FLOAT32_POOL, size=(32, 32))):
            for side in (3, 5, 7, 9, 11):
                check_nms(values, side, float32_differs)
    assert float32_differs == {0.7}


def test_nms_non_square_map_matches_oracle():
    rng, rng32 = np.random.default_rng(12), np.random.default_rng(16)
    float32_differs = set()
    # (3, 4), (2, 1) and (1, 1) are smaller than the half-window of sides 9 and 11
    for shape in [(5, 40), (40, 5), (1, 30), (30, 1), (3, 4), (2, 1), (1, 1)]:
        conf = np.round(rng.uniform(0, 1, size=shape), 1)
        for values in (conf, conf - 1.5, rng32.choice(_FLOAT32_POOL, size=shape)):
            for side in (5, 7, 9, 11):
                check_nms(values, side, float32_differs)
    assert float32_differs == {0.7}


def test_nms_and_postprocess_reject_non_finite_maps():
    conf = np.round(np.random.default_rng(14).uniform(0, 1, size=(30, 30)), 1)
    for poison in (np.nan, np.inf, -np.inf):
        bad = conf.copy()
        bad[7, 11] = poison
        with pytest.raises(DataError):
            nonmax_suppress(bad, 9)
        with pytest.raises(DataError):
            postprocess(bad, PPParams())


def test_postprocess_crop_larger_than_map():
    rng = np.random.default_rng(13)
    conf = rng.uniform(0.4, 1.0, size=(7, 9))  # otsu_side 19 exceeds the map
    params = PPParams()
    assert np.array_equal(postprocess(conf, params), reference_postprocess(conf, params))


_OVERSIZE_SIDES = """
import resource
import numpy as np
from pvdetect.detection import PPParams, nonmax_suppress, postprocess

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
rng = np.random.default_rng(16)
for shape in [(40, 40), (40, 23), (9, 40)]:
    conf = np.round(rng.uniform(0, 1, size=shape), 1).astype(np.float32)
    assert nonmax_suppress(conf, 100001).tolist() == nonmax_suppress(conf, 81).tolist()
    for key in ("nms_side", "otsu_side"):
        params = [PPParams(confidence_floor=0.1, **{key: side}) for side in (100001, 81)]
        huge, whole = (postprocess(conf, p) for p in params)
        assert huge.dtype == whole.dtype and huge.tobytes() == whole.tobytes(), key
        assert whole.any(), key
"""


def test_oversize_windows_run_bounded_with_the_bytes_of_whole_map_windows():
    """Sides of 100001 on maps up to 40 px give the bytes of side 81.

    From a half-width of max(h, w) - 1 on, a window clamped to the map is
    the whole map.  The child process may map at most 1 GiB, so a run that
    allocates for the nominal side fails fast with MemoryError.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _OVERSIZE_SIDES], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_nms_rejects_even_side():
    with pytest.raises(ConfigError):
        nonmax_suppress(np.zeros((4, 4)), 4)


def test_filter_maxima_boundary_kept():
    conf = np.array([[0.2, 0.375, 0.9, 0.5]])
    maxima = np.array([0, 1, 2])
    assert filter_maxima(conf, maxima, 0.375).tolist() == [1, 2]
    assert filter_maxima(conf, maxima[:0], 0.375).tolist() == []
    assert filter_maxima(conf, maxima, 0.0).tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Otsu
# ---------------------------------------------------------------------------


def test_otsu_two_groups():
    values = np.array([0.1] * 20 + [0.9] * 20)
    threshold = otsu_threshold(values)
    assert 0.1 < threshold <= 0.9
    assert (values >= threshold).sum() == 20
    assert threshold == exhaustive_otsu(values)


def test_otsu_degenerate_all_equal():
    threshold = otsu_threshold(np.full(10, 0.5))
    # bin of 0.5 is 128; the returned edge sits just above it
    assert threshold == 129.0 / 256.0
    assert not (np.full(10, 0.5) >= threshold).any()
    # all values in the top bin: the edge moves past 1.0 by bin arithmetic
    assert otsu_threshold(np.ones(5)) == 256.0 / 256.0


def test_otsu_single_value():
    assert otsu_threshold(np.array([0.0])) == 1.0 / 256.0
    with pytest.raises(ValueError):
        otsu_threshold(np.array([]))


def test_otsu_matches_exhaustive_oracle():
    rng = np.random.default_rng(1)
    for trial in range(200):
        n = int(rng.integers(1, 120))
        values = rng.uniform(0, 1, size=n)
        if trial % 3 == 0:
            values = np.round(values, 1)  # heavy ties
        if trial % 7 == 0:
            values = np.full(n, float(values[0]))  # degenerate
        assert otsu_threshold(values) == exhaustive_otsu(values), trial


# ---------------------------------------------------------------------------
# Structuring elements and morphology helpers
# ---------------------------------------------------------------------------


def test_disk_element_examples():
    assert disk_element(0) == [(0, 0)]
    assert sorted(disk_element(1)) == sorted([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    assert len(disk_element(2)) == 13
    assert all(dx * dx + dy * dy <= 4 for dx, dy in disk_element(2))
    with pytest.raises(ConfigError):
        disk_element(-1)
    # the disk filter's footprint around one pixel is exactly the disk
    for radius in range(7):
        impulse = np.zeros((2 * radius + 3, 2 * radius + 3))
        impulse[radius + 1, radius + 1] = 1.0
        footprint = detection._max_filter(impulse, radius)
        dy, dx = np.nonzero(footprint)
        offsets = zip((dx - radius - 1).tolist(), (dy - radius - 1).tolist())
        assert sorted(offsets) == sorted(disk_element(radius)), radius


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def test_postprocess_all_zero():
    out = postprocess(np.zeros((20, 20)), PPParams())
    assert not out.any()
    # idempotent on its own all-zero output
    assert not postprocess(out, PPParams()).any()


def test_postprocess_single_plateau():
    conf = np.zeros((25, 25))
    conf[10:15, 10:15] = 0.9
    params = PPParams()
    out = postprocess(conf, params)
    reference = reference_postprocess(conf, params)
    assert np.array_equal(out, reference)
    # one grown region at the plateau's confidence
    values = set(np.unique(out).tolist())
    assert values == {0.0, 0.9}
    assert out[10:15, 10:15].min() == 0.9  # plateau fully covered
    assert out.sum() > conf.sum()  # closing/dilation grew the support


def test_postprocess_below_floor_suppressed():
    conf = np.zeros((25, 25))
    conf[12, 12] = 0.3  # below the 0.375 floor
    assert not postprocess(conf, PPParams()).any()


def test_postprocess_seed_never_lost():
    rng = np.random.default_rng(2)
    conf = rng.uniform(0, 1, size=(40, 40))
    params = PPParams()
    out = postprocess(conf, params)
    kept = nms_flat(conf, params.nms_side, params.confidence_floor)
    assert kept and (out.ravel()[kept] > 0.0).all()


def test_postprocess_values_come_from_surviving_maxima():
    rng = np.random.default_rng(3)
    conf = rng.uniform(0, 1, size=(48, 48))
    params = PPParams()
    out = postprocess(conf, params)
    kept = set(conf.ravel()[nms_flat(conf, params.nms_side, params.confidence_floor)].tolist())
    assert set(np.unique(out[out > 0]).tolist()) <= kept


def test_postprocess_matches_reference_oracle():
    rng = np.random.default_rng(4)
    for trial in range(6):
        conf = rng.uniform(0, 1, size=(32, 32))
        if trial % 2:
            conf = np.round(conf, 2)
        params = PPParams(
            nms_side=9,
            confidence_floor=0.375,
            otsu_side=19,
            closing_radius=3 if trial % 3 else 5,
            dilation_radius=trial % 3,
        )
        got = postprocess(conf, params)
        want = reference_postprocess(conf, params)
        assert np.array_equal(got, want), trial


def test_postprocess_structuring_radius_larger_than_map():
    # disk offsets exceed the map dimensions in the h < |dy| < 2h regime
    rng = np.random.default_rng(11)
    for h, w in [(3, 3), (1, 7), (5, 2), (4, 4)]:
        conf = rng.uniform(0.4, 1.0, size=(h, w))
        params = PPParams(closing_radius=5, dilation_radius=6)
        got = postprocess(conf, params)
        want = reference_postprocess(conf, params)
        assert np.array_equal(got, want), (h, w)


def test_postprocess_support_monotone_through_morphology():
    rng = np.random.default_rng(5)
    conf = rng.uniform(0, 1, size=(30, 30))
    grown_only = postprocess(conf, PPParams(closing_radius=0, dilation_radius=0))
    closed = postprocess(conf, PPParams(closing_radius=5, dilation_radius=0))
    dilated = postprocess(conf, PPParams(closing_radius=5, dilation_radius=2))
    assert ((grown_only > 0) <= (closed > 0)).all()
    assert ((closed > 0) <= (dilated > 0)).all()


def _speckled_map(rng, side=64):
    """float32 map: low speckle on 30% of pixels, blobs peaking above the
    floor, and a grid of isolated maxima exactly at the 0.375 floor."""
    conf = np.where(rng.random((side, side)) < 0.3, rng.uniform(0, 0.35, (side, side)), 0.0)
    for _ in range(8):
        y, x = rng.integers(0, side - 8, size=2)
        blob = conf[y : y + 8, x : x + 8]
        np.maximum(blob, rng.uniform(0.3, 1.0, (8, 8)), out=blob)
    conf[::17, ::13] = 0.375
    return conf.astype(np.float32)


def test_postprocess_and_objects_same_for_float32_map_and_its_widening():
    rng = np.random.default_rng(12)
    for trial in range(4):
        conf = _speckled_map(rng)
        params = PPParams(closing_radius=5 - trial, dilation_radius=trial % 3)
        enhanced32 = postprocess(conf, params)
        enhanced64 = postprocess(conf.astype(np.float64), params)
        assert (enhanced32.dtype, enhanced64.dtype) == (np.float32, np.float64)
        assert encode_confidence_map(enhanced32) == encode_confidence_map(enhanced64)
        assert np.array_equal(enhanced32, enhanced64)
        objects32, objects64 = extract_objects(enhanced32), extract_objects(enhanced64)
        assert len(objects32) >= 8
        assert [(o.to_rle(), o.confidence) for o in objects32] == [
            (o.to_rle(), o.confidence) for o in objects64
        ]


def test_floor_is_compared_in_float64():
    # float32(0.7) is 0.69999998...: below a 0.7 floor, although a float32
    # comparison would round the floor to that same value and keep it
    params = PPParams(confidence_floor=0.7)
    conf = np.zeros((15, 15), dtype=np.float32)
    conf[7, 7] = 0.7
    assert float(conf[7, 7]) < 0.7
    assert 7 * 15 + 7 in nonmax_suppress(conf, 9)
    assert filter_maxima(conf, nonmax_suppress(conf, 9), 0.7).tolist() == []
    assert not postprocess(conf, params).any()
    conf[7, 7] = np.nextafter(np.float32(0.7), np.float32(1.0))
    enhanced = postprocess(conf, params)
    assert enhanced[7, 7] == conf[7, 7]
    assert [o.confidence for o in extract_objects(enhanced)] == [float(conf[7, 7])]


@st.composite
def seeded_maps(draw):
    """(map, params, one seed per batch) for the seed-by-seed oracle.

    Values come from a small pool padded with zeros, so crops hold
    plateaus, ties and single bins; small maps put many seeds on borders
    and corners with overlapping crops.  otsu_side 85 runs on maps large
    enough that a crop holds more than 83**2 cells, past where the exact
    Otsu numerator fits in int64.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    side = draw(st.sampled_from([3, 5, 19, 85]))
    limit = 96 if side == 85 else 40
    shape = (draw(st.integers(1, limit)), draw(st.integers(1, limit)))
    values = st.floats(0.0, 1.0, width=32 if dtype is np.float32 else 64)
    pool = draw(st.lists(values, min_size=1, max_size=6)) + [0.0] * draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conf = rng.choice(np.array(pool, dtype=dtype), size=shape)
    params = PPParams(
        nms_side=draw(st.sampled_from([3, 5, 9])),
        confidence_floor=draw(st.sampled_from([0.01, 0.375, 0.9])),
        otsu_side=side,
        closing_radius=draw(st.integers(0, 3)),
        dilation_radius=draw(st.integers(0, 2)),
    )
    return conf, params, draw(st.booleans())


_TIE = np.array([[0.0, 100.5 / 256, 200.5 / 256]])  # bins 0, 100, 200: k=1 ties k=101
_HALVES = np.zeros((90, 90))  # the peak's 85 x 85 crop: bins 0 and 255, numerator 1.1e19
_HALVES[:, 45:] = 0.999
_HALVES[45, 45] = 1.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seeded_maps())
@example((_TIE, PPParams(nms_side=3, otsu_side=5, closing_radius=0, dilation_radius=0), False))
@example((_HALVES, PPParams(otsu_side=85, closing_radius=0, dilation_radius=0), False))
@example((np.full((4, 6), 0.5, np.float32), PPParams(nms_side=3, otsu_side=3), True))
def test_postprocess_matches_seedwise_oracle_bit_for_bit(case):
    conf, params, one_seed_batches = case
    cells = 1 if one_seed_batches else detection.SEED_CELLS
    with mock.patch.object(detection, "SEED_CELLS", cells):
        got = postprocess(conf, params)
    want = seedwise_postprocess(conf, params)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_otsu_matches_exhaustive_oracle_on_histograms_past_int64():
    rng = np.random.default_rng(21)
    hists = [rng.integers(0, 3, 256) * (rng.random(256) < 0.05) for _ in range(100)]
    hists += [rng.integers(0, 2000, 256) * (rng.random(256) < 0.04) for _ in range(10)]
    hists += [np.bincount([0, 100, 200], minlength=256), np.bincount([7] * 5, minlength=256)]
    hists = [h for h in hists if h.any()]
    # a crop of more than 83 x 83 cells is past int64 for the exact numerator
    assert sum(h.sum() > 83 * 83 for h in hists) >= 5
    got = detection._otsu_bins(np.array(hists))
    for hist, k in zip(hists, got.tolist()):
        values = (np.repeat(np.arange(256), hist) + 0.5) / 256
        assert k / 256 == otsu_threshold(values) == exhaustive_otsu(values)


def test_postprocess_rejects_negative_maps():
    conf = np.full((9, 9), 0.5)
    conf[0, 0] = -0.25
    with pytest.raises(DataError):
        postprocess(conf, PPParams())


def test_ppparams_invariants():
    with pytest.raises(ConfigError):
        PPParams(nms_side=8)
    with pytest.raises(ConfigError):
        PPParams(otsu_side=1)
    with pytest.raises(ConfigError):
        PPParams(confidence_floor=0.0)
    with pytest.raises(ConfigError):
        PPParams(closing_radius=-1)


# ---------------------------------------------------------------------------
# Object extraction
# ---------------------------------------------------------------------------


def test_extract_objects_empty():
    assert extract_objects(np.zeros((10, 10))) == []


def test_extract_objects_two_blobs():
    enhanced = np.zeros((12, 12))
    enhanced[1:3, 1:3] = 0.6
    enhanced[8:11, 7:10] = 0.8
    objects = extract_objects(enhanced)
    assert len(objects) == 2
    by_conf = sorted(objects, key=lambda o: o.confidence)
    assert by_conf[0].confidence == 0.6 and by_conf[0].area == 4
    assert by_conf[1].confidence == 0.8 and by_conf[1].area == 9
    assert by_conf[0].bbox == (1, 1, 2, 2)
    assert by_conf[1].bbox == (7, 8, 9, 10)


def test_extract_objects_diagonal_is_8connected():
    enhanced = np.zeros((4, 4))
    enhanced[0, 0] = 0.5
    enhanced[1, 1] = 0.7
    objects = extract_objects(enhanced)
    assert len(objects) == 1
    assert objects[0].confidence == 0.7


def test_extract_objects_matches_flood_fill_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        enhanced = np.where(rng.uniform(0, 1, size=(24, 24)) > 0.7,
                            rng.uniform(0.1, 1.0, size=(24, 24)), 0.0)
        objects = extract_objects(enhanced)
        oracle = flood_components(enhanced > 0)
        # flat indices are sorted row-major, so divmod lists (y, x) in order
        got = sorted([divmod(p, 24) for p in o.pixels.tolist()] for o in objects)
        assert got == sorted(oracle)
        # partition property: disjoint and covering
        union = set()
        total = 0
        for o in objects:
            union |= set(o.pixels.tolist())
            total += o.area
        assert len(union) == total == int((enhanced > 0).sum())
        for o in objects:
            sub = [enhanced[y, x] for y, x in map(divmod, o.pixels, [24] * o.area)]
            assert o.confidence == max(sub)


def _components(mask):
    """extract_objects' components of a mask, as lists of (y, x) pixels."""
    objects = extract_objects(mask.astype(np.float64))
    return [list(map(divmod, o.pixels.tolist(), [mask.shape[1]] * o.area)) for o in objects]


def test_connected_components_order_is_first_pixel_row_major():
    mask = np.zeros((6, 6), dtype=bool)
    mask[4, 0] = True
    mask[0, 5] = True
    mask[5, 1] = True  # joins (4, 0), whose first pixel still comes after (0, 5)
    assert [c[0] for c in _components(mask)] == [(0, 5), (4, 0)]


def _serpentine(height, width):
    """Full rows joined at alternate ends: one path of about height*width/2."""
    mask = np.zeros((height, width), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def _spiral(side):
    """A one-pixel path spiralling inwards with one-pixel gaps."""
    mask = np.zeros((side, side), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    mask[0, 0] = True
    for length in [side - 1] + [n for n in range(side - 1, 0, -2) for _ in "ab"]:
        for _ in range(length):
            y, x = y + dy, x + dx
            mask[y, x] = True
        dy, dx = dx, -dy
    return mask


def _staggered_comb(levels):
    """Teeth on a bottom bar, ordered so that each hooking round merges pairs.

    Tooth i's top row ranks by how often 2 divides i (tooth 0 highest), so a
    labeler that hooks every root under its smallest neighbouring root
    needs levels + 1 rounds.
    """
    n = 2**levels
    twos = [levels + 1 if i == 0 else (i & -i).bit_length() for i in range(n)]
    mask = np.zeros((n + 2, 2 * n - 1), dtype=bool)
    mask[-1] = True
    for row, i in enumerate(sorted(range(n), key=lambda i: (-twos[i], i))):
        mask[row:, 2 * i] = True
    return mask


def test_connected_components_match_flood_fill_on_adversarial_masks():
    # long geodesic paths, diagonal-only links and degenerate shapes
    checkerboard = np.add.outer(np.arange(17), np.arange(23)) % 2 == 0
    two_serpentines = np.zeros((30, 50), dtype=bool)
    two_serpentines[:, :24] = _serpentine(30, 24)
    two_serpentines[:, 26:] = _serpentine(30, 24)[::-1, ::-1]
    masks = {
        "serpentine": _serpentine(41, 37),
        "two serpentines": two_serpentines,
        "spiral": _spiral(40),
        "staggered comb": _staggered_comb(5),
        "checkerboard": checkerboard,
        "full": np.ones((19, 21), dtype=bool),
        "1xN strip": np.ones((1, 200), dtype=bool),
        "Nx1 strip": np.ones((200, 1), dtype=bool),
        "empty": np.zeros((9, 7), dtype=bool),
    }
    for name, mask in masks.items():
        assert _components(mask) == flood_components(mask), name
    assert len(flood_components(masks["spiral"])) == 1
    assert len(flood_components(checkerboard)) == 1
    assert len(flood_components(two_serpentines)) == 2


def test_detection_object_invariants():
    obj = DetectionObject([7, 2, 7, 3], 0.5, (3, 4))
    assert obj.pixels.tolist() == [2, 3, 7]  # sorted and distinct
    assert not obj.pixels.flags.writeable
    assert obj.area == 3 and obj.bbox == (2, 0, 3, 1)
    with pytest.raises(DataError):
        DetectionObject([], 0.5, (3, 4))
    with pytest.raises(DataError):
        DetectionObject([0], 0.0, (3, 4))
    with pytest.raises(DataError):
        DetectionObject([0], 1.5, (3, 4))
    with pytest.raises(DataError):
        DetectionObject([-1, 0], 0.5, (3, 4))  # negative index
    with pytest.raises(DataError):
        DetectionObject([12], 0.5, (3, 4))  # past the last row
    with pytest.raises(DataError):
        DetectionObject([0], 0.5, (0, 4))


# ---------------------------------------------------------------------------
# CMAP file format
# ---------------------------------------------------------------------------


def test_cmap_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    conf = rng.uniform(0, 1, size=(9, 13)).astype(np.float32).astype(np.float64)
    path = tmp_path / "m.cmap"
    save_confidence_map(conf, path)
    again = load_confidence_map(path)
    assert np.array_equal(conf, again)
    # encoding is canonical
    assert encode_confidence_map(again) == path.read_bytes()


def test_cmap_decodes_read_only_float32_and_encodes_canonically():
    rng = np.random.default_rng(8)
    conf = rng.uniform(0, 1, size=(5, 7)).astype(np.float32)
    data = encode_confidence_map(conf)
    assert data == encode_confidence_map(conf.astype(np.float64))
    again = decode_confidence_map(data)
    assert again.dtype == np.float32 and again.shape == (5, 7)
    assert not again.flags.writeable
    assert np.array_equal(again, conf)
    assert encode_confidence_map(again) == data
    # a non-contiguous float32 map encodes as its contiguous copy
    assert encode_confidence_map(conf.T) == encode_confidence_map(conf.T.copy())
    assert np.array_equal(decode_confidence_map(encode_confidence_map(conf.T)), conf.T)


def test_cmap_errors(tmp_path):
    with pytest.raises(DataError):
        decode_confidence_map(b"NOPE" + bytes(20))
    good = encode_confidence_map(np.full((2, 2), 0.5))
    with pytest.raises(DataError):
        decode_confidence_map(good[:10])  # truncated
    with pytest.raises(DataError):
        decode_confidence_map(good + b"x")  # trailing
    bad_version = good[:4] + bytes([9]) + good[5:]
    with pytest.raises(DataError):
        decode_confidence_map(bad_version)
    out_of_range = np.full((2, 2), 0.5)
    out_of_range[0, 0] = 1.5
    with pytest.raises(DataError):
        encode_confidence_map(out_of_range)
    for poison in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError):
            encode_confidence_map(np.full((2, 2), poison))
        partly = np.full((2, 2), 0.5)
        partly[1, 0] = poison
        with pytest.raises(DataError):
            encode_confidence_map(partly)
        payload = np.array([0.5, 0.5, poison, 0.5], dtype="<f4").tobytes()
        with pytest.raises(DataError):
            decode_confidence_map(good[:13] + payload)
    with pytest.raises(InputError):
        load_confidence_map(tmp_path / "missing.cmap")
