import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
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
    write_detections_csv,
)
from pvdetect.errors import ConfigError, DataError, InputError, PVDetectError
from pvdetect.rng import Stream
from pvdetect import detection
from oracles import (
    brute_nms,
    disk_element,
    exhaustive_otsu,
    flood_components,
    reference_postprocess,
    seedwise_postprocess,
)


def _cmap_file(conf) -> bytes:
    """The bytes of the CMAP file that save_confidence_map writes for conf."""
    return b"".join(encode_confidence_map(conf))


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
        with pytest.raises(DataError):
            extract_objects(bad)


def test_map_check_builds_no_map_sized_mask():
    """check_map decides from the map's min and max, so NaN and infinities
    are caught without a mask: a 2000x2000 float32 map (16 MB) is checked
    within 1 MB of traced allocations."""
    conf = np.random.default_rng(15).random((2000, 2000), dtype=np.float32)
    tracemalloc.start()
    try:
        assert detection.check_map(conf, 0.0, 1.0) is conf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    conf[1999, 1999] = np.nan
    with pytest.raises(DataError):
        detection.check_map(conf)


def test_postprocess_crop_larger_than_map():
    rng = np.random.default_rng(13)
    conf = rng.uniform(0.4, 1.0, size=(7, 9))  # otsu_side 19 exceeds the map
    params = PPParams()
    assert np.array_equal(postprocess(conf, params), reference_postprocess(conf, params))


ONE_GIB = 1 << 30


def _run_under_limit(script, limit):
    """Run script in a child Python that may map at most limit bytes.

    A run that allocates for a nominal 100001-pixel window or disk on a
    small map, or copies a big tile, then fails fast with MemoryError.
    """
    prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", prelude + script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


_OVERSIZE_SIDES = """
import numpy as np
from pvdetect.detection import PPParams, nonmax_suppress, postprocess

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
    the whole map.
    """
    _run_under_limit(_OVERSIZE_SIDES, ONE_GIB)


_OVERSIZE_DILATION = """
import math
import numpy as np
from pvdetect.detection import PPParams, postprocess

rng = np.random.default_rng(17)
for shape in [(40, 40), (1, 30), (17, 5), (1, 1), (9, 23)]:
    corner = np.zeros(shape, np.float32)
    corner[0, 0] = 0.9
    speckle = np.where(rng.random(shape) < 0.1, rng.uniform(0.4, 1, shape), 0.0)
    reach = math.ceil(math.hypot(shape[0] - 1, shape[1] - 1))
    for conf in (corner, np.maximum(corner, speckle).astype(np.float32)):
        params = [PPParams(closing_radius=1, dilation_radius=r) for r in (100001, reach)]
        huge, exact = (postprocess(conf, p) for p in params)
        assert huge.dtype == exact.dtype and huge.tobytes() == exact.tobytes(), shape
        assert exact.all(), shape
    # one pixel short, the lone corner seed no longer reaches the far corner
    if reach:
        short = postprocess(corner, PPParams(closing_radius=1, dilation_radius=reach - 1))
        assert short[-1, -1] == 0.0, shape
"""


def test_oversize_dilation_runs_bounded_with_the_bytes_of_the_reaching_disk():
    """A dilation radius of 100001 gives the bytes of radius ceil(hypot(h-1, w-1)).

    From any pixel, a disk of that radius already covers the whole map.
    """
    _run_under_limit(_OVERSIZE_DILATION, ONE_GIB)


_OVERSIZE_CLOSING = """
from pathlib import Path
import numpy as np
from pvdetect import cli
from pvdetect.detection import save_confidence_map

tmp = Path({tmp!r})
conf = np.zeros((40, 40), np.float32)
conf[20, 20] = 0.9
save_confidence_map(conf, tmp / "m.cmap")
(tmp / "run.cfg").write_text("closing_radius = 100001\\n")
argv = ["detect", "--config", str(tmp / "run.cfg"), "--out", str(tmp / "out")]
assert cli.main(argv + [str(tmp / "m.cmap")]) == 2
"""


def test_oversize_closing_exits_2_before_allocating(tmp_path):
    """pvdetect detect with closing_radius 100001 on a 40x40 map is a config error.

    Its closing canvas would need 149 GiB; no clamp gives the same bytes.
    """
    _run_under_limit(_OVERSIZE_CLOSING.format(tmp=str(tmp_path)), ONE_GIB)


_SPARSE_5000 = """
from pvdetect import cli
for threads in ("1", "2"):
    assert cli.main(["detect", "--threads", threads, "--out", {out!r} + threads, {path!r}]) == 0
"""


def test_detect_on_a_5000_map_runs_in_384_mib(tmp_path):
    """pvdetect detect on a sparse 5000 x 5000 float32 map (95 MiB) exits 0
    in a child that may map 384 MiB, at --threads 1 and 2.

    postprocess holds one slab's scratch, not a whole map's: post-processing
    the whole map at once peaked at 824 MB of RSS and ran out of the limit
    (exit 1, MemoryError on a 95 MiB array).
    """
    conf = np.zeros((5000, 5000), dtype=np.float32)
    conf[::50, ::50] = np.random.default_rng(21).random((100, 100), dtype=np.float32)
    save_confidence_map(conf, tmp_path / "square.cmap")
    del conf
    out = str(tmp_path / "out")
    _run_under_limit(_SPARSE_5000.format(out=out, path=str(tmp_path / "square.cmap")), 384 << 20)
    one, two = ((tmp_path / f"out{t}" / "detections.csv").read_bytes() for t in (1, 2))
    assert one == two and one.count(b"\n") > 1


_DENSE_EXTRACT = """
import hashlib
import numpy as np
from pvdetect.detection import extract_objects

rng = np.random.default_rng(23)
conf = rng.random((2000, 2000), dtype=np.float32)
conf[rng.random((2000, 2000)) < 0.003] = 0.0
conf[999] = conf[:, 1499] = 0.0  # four quadrants, each one object
support = int(np.count_nonzero(conf))
assert support == 3_984_022
objects = extract_objects(conf)
assert len(objects) == 4 and sum(o.area for o in objects) == support
text = "\\n".join(f"{o.confidence!r} {o.to_rle()}" for o in objects)
assert hashlib.sha256(text.encode()).hexdigest()[:16] == "f38471833fb2db06"
"""


def test_extract_objects_on_a_dense_2000_map_runs_in_one_gib():
    """Labeling memory follows the support's row runs, not its pixels.

    On a 2000x2000 float32 map with 99.6% support, per-pixel labeling raised
    RSS by about 1.4 GB; the objects are the same, byte for byte.
    """
    _run_under_limit(_DENSE_EXTRACT, ONE_GIB)


def test_closing_canvas_bound():
    """Closing passes imagery.check_canvas with a margin of 2 r1: a canvas
    (h + 4 r1)(w + 4 r1) up to 4 (h + 16)(w + 16) + 2**20 cells runs.

    On a 40x40 map the bound is 1,061,120 cells: r1 = 247 needs 1028**2 =
    1,056,784 and r1 = 248 needs 1032**2 = 1,065,024.
    """
    conf = np.zeros((40, 40), np.float32)
    conf[20, 20] = 0.9
    widest = postprocess(conf, PPParams(closing_radius=247))
    # closing leaves a lone pixel as it is, at any radius
    assert widest.tobytes() == postprocess(conf, PPParams(closing_radius=0)).tobytes()
    with pytest.raises(ConfigError, match="closing_radius 248"):
        postprocess(conf, PPParams(closing_radius=248))
    # radii up to 8, the default 5 included, run on the thinnest maps at
    # any length; 4 h w + 2**20 stopped r1 = 5 past about 61.7k px
    for shape in [(1, 1), (1, 5000), (5000, 1), (1, 70000), (70000, 1)]:
        assert postprocess(np.full(shape, 0.5), PPParams()).any(), shape
    assert postprocess(np.full((1, 70000), 0.5), PPParams(closing_radius=8)).any()


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
    """Every closing radius, zero included, against the straight-line oracle.

    Small sparse maps keep the oracle fast; single rows and columns put
    every pixel on a border, and an all-zero map has no support to close.
    One dense map holds many overlapping regions.
    """
    rng = np.random.default_rng(4)
    maps = [np.zeros((6, 9)), np.round(rng.uniform(0, 1, (32, 32)), 2)]
    for shape in [(20, 20), (1, 23), (23, 1), (7, 15)]:
        sparse = np.where(rng.random(shape) < 0.3, rng.uniform(0, 1, shape), 0.0)
        maps += [sparse, np.round(sparse, 1)]
    for r1 in (0, 1, 2, 5):
        for r2 in (0, 1, 3):
            params = PPParams(nms_side=5, closing_radius=r1, dilation_radius=r2)
            for conf in maps:
                got = postprocess(conf, params)
                want = reference_postprocess(conf, params)
                assert np.array_equal(got, want), (r1, r2, conf.shape)


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
        assert _cmap_file(enhanced32) == _cmap_file(enhanced64)
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
        closing_radius=draw(st.integers(0, 6)),
        dilation_radius=draw(st.integers(0, 6)),
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


# (nms_side, otsu_side, closing_radius, dilation_radius)
_SLAB_PARAMS = [(3, 3, 0, 0), (9, 19, 5, 2), (31, 41, 8, 4), (7, 3, 2, 6), (3, 11, 1, 0)]


def _slab_params(sides_radii, floor=0.375):
    nms, otsu, r1, r2 = sides_radii
    return PPParams(nms_side=nms, confidence_floor=floor, otsu_side=otsu,
                    closing_radius=r1, dilation_radius=r2)


def _thin(shape, seed=24):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shape) < 0.05, rng.uniform(0.4, 1, shape), 0.0)


@st.composite
def slab_cases(draw):
    """(map, params, slab rows): random, speckled, plateau or all-ones maps
    of up to 90 x 50, many narrower than otsu_side // 2, in slabs of 1, 7
    or 64 rows."""
    kind = draw(st.sampled_from(["random", "speckled", "plateau", "ones"]))
    shape = (draw(st.integers(1, 90)), draw(st.integers(1, 50)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        conf = rng.random(shape)
    elif kind == "speckled":
        conf = np.where(rng.random(shape) < 0.1, rng.uniform(0.3, 1, shape), 0.0)
    elif kind == "plateau":  # 4 x 4 blocks of four levels
        blocks = rng.choice([0.0, 0.2, 0.5, 0.9], (shape[0] // 4 + 1, shape[1] // 4 + 1))
        conf = np.kron(blocks, np.ones((4, 4)))[: shape[0], : shape[1]]
    else:
        conf = np.ones(shape)
    params = _slab_params(draw(st.sampled_from(_SLAB_PARAMS)),
                          draw(st.sampled_from([0.01, 0.375])))
    return conf.astype(dtype), params, draw(st.sampled_from([1, 7, 64]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(slab_cases())
@example((_thin((1, 70000)), _slab_params((3, 3, 0, 0)), 1))
@example((_thin((1, 70000)), _slab_params((31, 41, 8, 4)), 1))
@example((_thin((70000, 1)), _slab_params((3, 3, 0, 0)), 7))
@example((_thin((70000, 1)), _slab_params((31, 41, 8, 4)), 64))
@example((_thin((300, 5)), _slab_params((31, 41, 8, 4)), 7))
def test_slabs_give_the_bytes_of_one_whole_pass(case):
    """Rows [a, b) kept from slabs [a - H, b + H) are the whole pass's rows."""
    conf, params, rows = case
    want = detection._postprocess_whole(conf, params)
    got = detection._postprocess_slabs(conf, params, rows, detection.halo(conf.shape, params))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


_POOL = np.array([0.0, 0.2, 0.5, 0.9, 1.0])


# (nms_side, otsu_side, closing_radius, dilation_radius) and the first seed
# of _speckle whose map a halo of H - 1 rows changes: the steps 1-3 term in
# both of its branches (2 otsu and nms + otsu), then 2 r_1, r_2 and both
@pytest.mark.parametrize("sides_radii, seed, shape", [
    ((3, 3, 0, 0), 0, (24, 8)),
    ((3, 7, 0, 0), 180, (24, 8)),
    ((7, 3, 0, 0), 1, (24, 8)),
    ((3, 3, 1, 0), 37, (24, 8)),
    ((3, 3, 2, 0), 40, (24, 8)),
    ((3, 3, 3, 0), 397, (40, 10)),
    ((3, 3, 0, 1), 0, (24, 8)),
    ((3, 3, 0, 3), 0, (40, 10)),
    ((3, 3, 1, 1), 178, (24, 8)),
])
def test_every_term_of_the_halo_is_needed(sides_radii, seed, shape):
    """H = max(2 otsu, nms + otsu) + 2 r_1 + r_2 rows give the whole pass's
    bytes on one-row slabs; H - 1 rows do not, for some map of each term."""
    rng = np.random.default_rng(seed)
    conf = np.where(rng.random(shape) < 0.3, rng.choice(_POOL, shape), 0.0)
    params = _slab_params(sides_radii, floor=0.1)
    nms_side, otsu_side, r1, r2 = sides_radii
    nms, otsu = nms_side // 2, otsu_side // 2
    halo = detection.halo(conf.shape, params)
    assert halo == max(2 * otsu, nms + otsu) + 2 * r1 + r2
    want = detection._postprocess_whole(conf, params).tobytes()
    assert detection._postprocess_slabs(conf, params, 1, halo).tobytes() == want
    assert detection._postprocess_slabs(conf, params, 1, halo - 1).tobytes() != want


def test_slab_plan():
    """Slabs of at least max(8 H, ceil(2**17 / w)) rows, H = 30 at the defaults:
    eval-default's 256 x 256 maps and the 5000 x 64 strip are one slab each,
    score-dense's 512 x 512 maps two."""
    params = PPParams()
    assert detection.halo((512, 512), params) == 30
    assert detection.slab_plan((256, 256), params) == (1, 256)
    assert detection.slab_plan((64, 5000), params) == (1, 64)
    assert detection.slab_plan((512, 512), params) == (2, 256)
    assert detection.slab_plan((479, 5000), params) == (1, 479)
    assert detection.slab_plan((5000, 5000), params) == (20, 250)
    assert detection.slab_plan((70000, 1), params) == (1, 70000)
    # a clamped window or disk gives a clamped halo: one slab on small maps
    assert detection.halo((40, 9), _slab_params((100001, 3, 0, 100001))) == 40 + 1 + 40


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


def _golden_map(side=256):
    """float32 map drawn from pvdetect.rng, so independent of NumPy's generators.

    Low speckle on a quarter of the pixels, bright speckle on 0.5%, and
    sixteen disk plateaus at confidences 0.4 + k / 20.
    """
    stream = Stream(2026)
    u = stream.uniforms(side * side).reshape(side, side)
    v = stream.uniforms(side * side).reshape(side, side)
    conf = np.where(u < 0.25, 0.35 * v, 0.0)
    conf = np.where(u < 0.005, 0.4 + 0.6 * v, conf)
    ys, xs = np.ogrid[:side, :side]
    n = 16
    centres_y, centres_x = stream.integers(side, n).tolist(), stream.integers(side, n).tolist()
    radii, levels = (2 + stream.integers(9, n)).tolist(), stream.integers(13, n).tolist()
    for y, x, r, level in zip(centres_y, centres_x, radii, levels):
        disk = (ys - y) ** 2 + (xs - x) ** 2 <= r * r
        conf[disk] = np.maximum(conf[disk], 0.4 + level / 20)
    return conf.astype(np.float32)


def test_golden_detect_bytes(tmp_path):
    """The enhanced map and detections CSV of a fixed map keep their bytes."""
    enhanced = postprocess(_golden_map(), PPParams())
    digest = hashlib.sha256(_cmap_file(enhanced)).hexdigest()
    assert digest == "88a4dd6a7a1b0b1a925317ae57aa790e361bffaa9f632149fd88d748600ef4e9"
    objects = extract_objects(enhanced)
    assert len(objects) == 206
    write_detections_csv({"golden": objects}, tmp_path / "detections.csv")
    digest = hashlib.sha256((tmp_path / "detections.csv").read_bytes()).hexdigest()
    assert digest == "a72e54be691443abbe27326c70ec31dee12ebf8b660e82b63d3ebc9835478f4c"


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


def _adversarial_masks():
    """Long geodesic paths, diagonal-only links and degenerate shapes."""
    checkerboard = np.add.outer(np.arange(17), np.arange(23)) % 2 == 0
    two_serpentines = np.zeros((30, 50), dtype=bool)
    two_serpentines[:, :24] = _serpentine(30, 24)
    two_serpentines[:, 26:] = _serpentine(30, 24)[::-1, ::-1]
    return {
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


def test_connected_components_match_flood_fill_on_adversarial_masks():
    masks = _adversarial_masks()
    for name, mask in masks.items():
        assert _components(mask) == flood_components(mask), name
    assert len(flood_components(masks["spiral"])) == 1
    assert len(flood_components(masks["checkerboard"])) == 1
    assert len(flood_components(masks["two serpentines"])) == 2


def test_label_gives_each_pixel_the_smallest_flat_index_of_its_component():
    """_label's contract itself: its runs, expanded, are the support in
    ascending order, and each run's root is the smallest flat index of its
    component.  extract_objects and step 3 only need the roots to partition
    the runs, so they would not see other roots."""
    rng = np.random.default_rng(24)
    masks = list(_adversarial_masks().values())
    masks += [rng.random(rng.integers(1, 30, 2)) < rng.random() for _ in range(200)]
    for mask in masks:
        w = mask.shape[1]
        want = np.zeros(mask.shape, dtype=np.int64)
        for component in flood_components(mask):  # each sorted, so [0] is smallest
            for y, x in component:
                want[y, x] = component[0][0] * w + component[0][1]
        starts, lengths, roots = detection._label(mask)
        pixels = detection.run_pixels(starts, lengths)
        assert pixels.tolist() == np.flatnonzero(mask).tolist()
        assert np.repeat(roots, lengths).tolist() == want.ravel()[pixels].tolist()


def test_extract_objects_holds_at_most_32_bytes_per_support_pixel():
    """Objects split by row runs, expanded once, so extraction's traced
    peak on a 1000x1000 float32 map with 99.4% support stays within 32 B
    per support pixel (splitting every pixel's label took about 40 B)."""
    rng = np.random.default_rng(23)
    conf = rng.uniform(0.05, 0.95, (1000, 1000)).astype(np.float32)
    conf[rng.random(conf.shape) < 0.004] = 0.0
    conf[500], conf[:, 500] = 0.0, 0.0
    support = int(np.count_nonzero(conf))
    tracemalloc.start()
    try:
        objects = extract_objects(conf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(o.area for o in objects) == support
    assert peak <= 32 * support, peak / support


def test_detection_object_invariants():
    source = np.array([2, 3, 7])
    obj = DetectionObject(source, 0.5, (3, 4))
    assert obj.pixels.tolist() == [2, 3, 7]
    assert not obj.pixels.flags.writeable
    source[0] = 0  # the object holds its own copy
    assert obj.pixels.tolist() == [2, 3, 7]
    assert obj.area == 3 and obj.bbox == (2, 0, 3, 1)
    # pixels are checked, not normalized: unsorted or repeated ones are refused
    for pixels in ([7, 2, 3], [2, 3, 3, 7], [[2, 3, 7]]):
        with pytest.raises(DataError):
            DetectionObject(pixels, 0.5, (3, 4))
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
    # the payload at byte 13 is read into place aligned, and stays read-only
    assert again.dtype == np.float32 and again.flags.aligned
    assert not again.flags.writeable
    # encoding is canonical
    assert _cmap_file(again) == path.read_bytes()


def test_cmap_decodes_read_only_float32_and_encodes_canonically():
    rng = np.random.default_rng(8)
    conf = rng.uniform(0, 1, size=(5, 7)).astype(np.float32)
    data = _cmap_file(conf)
    assert data == _cmap_file(conf.astype(np.float64))
    again = decode_confidence_map(data)
    assert again.dtype == np.float32 and again.shape == (5, 7)
    assert not again.flags.writeable
    assert np.array_equal(again, conf)
    assert _cmap_file(again) == data
    # a C-contiguous float32 map is written from its own buffer
    header, payload = encode_confidence_map(conf)
    assert header == data[:13] and payload.obj is conf
    # a non-contiguous float32 map encodes as its contiguous copy
    assert _cmap_file(conf.T) == _cmap_file(conf.T.copy())
    assert np.array_equal(decode_confidence_map(_cmap_file(conf.T)), conf.T)


@st.composite
def cmap_bytes(draw):
    """CMAP files of odd floats, some with one part broken: the magic, the
    version, the size fields, the float count or a trailing byte."""
    broken = draw(st.sampled_from([None, None, None, "magic", "version", "size", "count", "tail"]))
    w, h = draw(st.sampled_from([1, 2, 3, 0, 2**32 - 1])), draw(st.sampled_from([1, 2, 0, 2**31]))
    n = min(w * h, 8) + (draw(st.sampled_from([-1, 1])) if broken == "count" else 0)
    odd = st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 1.5, -1e-45])
    floats = st.floats(0.0, 1.0, width=32) | odd | st.floats(width=32)
    values = draw(st.lists(floats, min_size=max(n, 0), max_size=max(n, 0)))
    return b"".join(
        [
            b"CMAx" if broken == "magic" else b"CMAP",
            bytes([draw(st.sampled_from([0, 2, 255]))]) if broken == "version" else b"\x01",
            struct.pack("<II", w, h)[: 3 if broken == "size" else 8],
            np.array(values, dtype="<f4").tobytes(),
            b"x" if broken == "tail" else b"",
        ]
    )


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.binary() | cmap_bytes())
def test_decode_confidence_map_fuzz(data):
    """Any bytes decode to a map in [0, 1] that re-encodes to them, or raise a PVDetectError."""
    try:
        conf = decode_confidence_map(data)
    except PVDetectError:
        return
    assert np.isfinite(conf).all() and 0.0 <= conf.min() <= conf.max() <= 1.0
    assert _cmap_file(conf) == data


def test_cmap_errors(tmp_path):
    with pytest.raises(DataError):
        decode_confidence_map(b"NOPE" + bytes(20))
    good = _cmap_file(np.full((2, 2), 0.5))
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
