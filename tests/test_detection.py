import numpy as np
import pytest

from pvdetect.detection import (
    DetectionObject,
    PPParams,
    connected_components,
    decode_confidence_map,
    disk_element,
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
from oracles import brute_nms, exhaustive_otsu, flood_components, reference_postprocess


# ---------------------------------------------------------------------------
# Non-maximum suppression
# ---------------------------------------------------------------------------


def test_nms_single_strict_peak():
    conf = np.zeros((16, 16))
    conf[5, 9] = 0.8
    maxima = filter_maxima(nonmax_suppress(conf, 9), 0.5)
    assert maxima == [(9, 5, 0.8)]


def test_nms_constant_small_map_keeps_origin():
    conf = np.full((5, 5), 0.7)
    assert nonmax_suppress(conf, 9) == [(0, 0, 0.7)]


def test_nms_plateau_tiebreak_lex_smallest():
    conf = np.zeros((12, 12))
    conf[4:7, 4:7] = 0.9  # flat plateau
    maxima = nonmax_suppress(conf, 9)
    plateau = [m for m in maxima if m[2] == 0.9]
    assert plateau == [(4, 4, 0.9)]


def test_nms_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for trial in range(8):
        conf = rng.uniform(0, 1, size=(32, 32))
        if trial % 2:
            conf = np.round(conf, 1)  # coarse values force plateaus
        for side in (3, 9):
            assert nonmax_suppress(conf, side) == brute_nms(conf, side), (trial, side)


def test_nms_non_square_map_matches_oracle():
    rng = np.random.default_rng(12)
    for shape in [(5, 40), (40, 5), (1, 30), (30, 1)]:
        conf = np.round(rng.uniform(0, 1, size=shape), 1)
        assert nonmax_suppress(conf, 9) == brute_nms(conf, 9), shape


def test_postprocess_crop_larger_than_map():
    rng = np.random.default_rng(13)
    conf = rng.uniform(0.4, 1.0, size=(7, 9))  # otsu_side 19 exceeds the map
    params = PPParams()
    assert np.array_equal(postprocess(conf, params), reference_postprocess(conf, params))


def test_nms_rejects_even_side():
    with pytest.raises(ConfigError):
        nonmax_suppress(np.zeros((4, 4)), 4)


def test_filter_maxima_boundary_kept():
    maxima = [(0, 0, 0.2), (1, 0, 0.375), (2, 0, 0.9)]
    assert filter_maxima(maxima, 0.375) == [(1, 0, 0.375), (2, 0, 0.9)]
    assert filter_maxima([], 0.375) == []
    assert filter_maxima(maxima, 0.0) == maxima


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
    kept = filter_maxima(nonmax_suppress(conf, params.nms_side), params.confidence_floor)
    for x, y, _ in kept:
        assert out[y, x] > 0.0


def test_postprocess_values_come_from_surviving_maxima():
    rng = np.random.default_rng(3)
    conf = rng.uniform(0, 1, size=(48, 48))
    params = PPParams()
    out = postprocess(conf, params)
    kept = {v for _, _, v in filter_maxima(
        nonmax_suppress(conf, params.nms_side), params.confidence_floor
    )}
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


def test_connected_components_order_is_first_pixel_row_major():
    mask = np.zeros((6, 6), dtype=bool)
    mask[4, 0] = True
    mask[0, 5] = True
    comps = connected_components(mask)
    assert [tuple(c[0]) for c in comps] == [(0, 5), (4, 0)]


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
    with pytest.raises(InputError):
        load_confidence_map(tmp_path / "missing.cmap")
