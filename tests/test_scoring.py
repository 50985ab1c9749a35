import errno
import os
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import SetDetection, full_sort_pixel_pr
from oracles import multi_tile_object_pr as oracle_multi_tile_object_pr
from pvdetect import scoring
from pvdetect.detection import DetectionObject
from pvdetect.errors import ConfigError, DataError
from pvdetect.scoring import (
    PRCurve,
    jaccard,
    judge_detections,
    multi_tile_object_pr,
    pixel_pr,
    read_pr_csv,
    write_pr_csv,
    write_pr_svg,
)

# object tests run on tiles of this width; pixels are flat indices y * W + x
W = 32


def flat(pixels):
    """Flat indices of (x, y) pixels on a W-wide tile."""
    return np.array(sorted(y * W + x for x, y in pixels), dtype=np.int64)


def obj(pixels, confidence):
    return DetectionObject(flat(pixels), confidence, (W, W))


def rect(x0, y0, x1, y1):
    return {(x, y) for x in range(x0, x1) for y in range(y0, y1)}


def object_pr(detections, annotation_pixels, threshold):
    """Object PR curve of a single tile at one Jaccard level."""
    (curve,) = multi_tile_object_pr({"t": detections}, {"t": annotation_pixels}, [threshold])
    return curve


def judge(detections, annotations, threshold):
    """Per detection, the annotations it detects at the threshold, as lists."""
    touched, overlap = judge_detections(detections, [flat(a) for a in annotations])
    return [ids.tolist() if j >= threshold else [] for ids, j in zip(touched, overlap)]


# ---------------------------------------------------------------------------
# Jaccard
# ---------------------------------------------------------------------------


def test_jaccard_identity_and_disjoint():
    a = flat({(0, 0), (1, 0)})
    assert jaccard(a, a) == 1.0
    assert jaccard(a, flat({(5, 5)})) == 0.0
    assert jaccard(a, []) == 0.0


def test_jaccard_partial_overlap():
    a = flat(rect(0, 0, 2, 2))
    b = flat(rect(1, 0, 3, 2))
    assert jaccard(a, b) == pytest.approx(1.0 / 3.0)


def test_jaccard_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 36, size=8)
        b = rng.integers(0, 36, size=8)
        j = jaccard(a, b)
        assert j == jaccard(b, a)
        assert 0.0 <= j <= 1.0
        assert (j == 1.0) == (set(a.tolist()) == set(b.tolist()))


def test_jaccard_both_empty_is_error():
    with pytest.raises(ValueError):
        jaccard([], [])


# ---------------------------------------------------------------------------
# Pixel PR
# ---------------------------------------------------------------------------


def test_pixel_pr_four_pixel_worked_example():
    conf = np.array([[0.9, 0.8, 0.7, 0.1]])
    curve = pixel_pr([conf], [np.array([0, 2])])
    assert curve.thresholds.tolist() == [0.9, 0.8, 0.7, 0.1]
    assert curve.precision.tolist() == [1.0, 0.5, 2.0 / 3.0, 0.5]
    assert curve.recall.tolist() == [0.5, 0.5, 1.0, 1.0]
    assert curve.prevalence == 0.5


def test_pixel_pr_perfect_detector_single_point():
    mask = np.zeros((8, 8), dtype=bool)
    mask[2:4, 2:5] = True
    curve = pixel_pr([mask.astype(np.float64)], [np.flatnonzero(mask)])
    assert curve.thresholds.tolist() == [1.0]
    assert curve.precision.tolist() == [1.0]
    assert curve.recall.tolist() == [1.0]


def test_pixel_pr_prevalence_baseline():
    # 7 positive pixels in 10000: a random detector scores P = 0.0007
    conf = np.zeros((100, 100))
    conf[0, :7] = 0.9
    curve = pixel_pr([conf], [np.arange(7)])
    assert curve.prevalence == 0.0007


def test_pixel_pr_recall_monotone_and_final_recall_one():
    rng = np.random.default_rng(1)
    conf = rng.uniform(0.01, 1.0, size=(32, 32))
    pos = np.flatnonzero(rng.uniform(0, 1, size=32 * 32) < 0.1)
    assert pos.size
    curve = pixel_pr([conf], [pos])
    assert (np.diff(curve.thresholds) < 0).all()
    assert (np.diff(curve.recall) >= 0).all()
    assert curve.recall[-1] == 1.0  # sweep reaches the lowest positive confidence


def test_pixel_pr_pools_multiple_maps():
    c1 = np.array([[1.0, 0.0]])
    c2 = np.array([[0.5]])
    curve = pixel_pr([c1, c2], [np.array([0]), np.array([0])])
    assert curve.thresholds.tolist() == [1.0, 0.5]
    assert curve.recall.tolist() == [0.5, 1.0]
    assert curve.prevalence == pytest.approx(2.0 / 3.0)


def test_pixel_pr_zero_confidence_pixels_never_detected():
    conf = np.array([[0.9, 0.0, 0.0]])
    curve = pixel_pr([conf], [np.array([0, 1])])
    # the zero-confidence positive is unreachable: recall tops out at 0.5
    assert curve.thresholds.tolist() == [0.9]
    assert curve.recall.tolist() == [0.5]


def test_pixel_pr_errors():
    every = np.arange(4)
    with pytest.raises(DataError):
        pixel_pr([np.zeros((2, 2))], [np.empty(0, dtype=np.int64)])
    with pytest.raises(DataError):
        pixel_pr([np.zeros((2, 2))], [np.arange(9)])
    with pytest.raises(ConfigError):
        pixel_pr([], [])
    with pytest.raises(ConfigError):
        pixel_pr([np.zeros((2, 2))], [every, every])
    with pytest.raises(DataError):
        pixel_pr([np.full((2, 2), np.nan)], [every])
    with pytest.raises(DataError):
        pixel_pr([np.full((2, 2), 1.5)], [every])
    # maps are non-empty and 2-D, as every map consumer requires
    with pytest.raises(DataError, match="non-empty 2-D"):
        pixel_pr([np.full(4, 0.5)], [every])
    with pytest.raises(DataError, match="non-empty 2-D"):
        pixel_pr([np.full((2, 2), 0.5), np.zeros((0, 3))], [every, every[:0]])


def label_mask(draw, shape):
    """A label mask that is random, empty, every pixel but one, or only the
    first or the last pixel."""
    kind = draw(st.sampled_from(["random", "empty", "all but one", "first", "last"]))
    if kind == "random":
        return draw(hnp.arrays(bool, shape))
    mask = np.zeros(shape, dtype=bool)
    if kind == "all but one":
        mask[...] = True
        mask.flat[draw(st.integers(0, mask.size - 1))] = False
    elif kind != "empty":
        mask.flat[0 if kind == "first" else -1] = True
    return mask


@st.composite
def pixel_cases(draw):
    """Float32 or float64 maps of few distinct values, many exact zeros and
    whole all-zero tiles, each with a label_mask."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    values = st.floats(0.0, 1.0, width=width)
    pool = draw(st.lists(values, min_size=1, max_size=4)) + [0.0] * draw(st.integers(0, 4))
    confs, masks = [], []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=7))
        conf = draw(hnp.arrays(dtype, shape, elements=st.sampled_from(pool)))
        confs.append(conf * dtype(0) if draw(st.booleans()) else conf)
        masks.append(label_mask(draw, shape))
    return confs, masks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pixel_cases())
def test_pixel_pr_matches_full_sort_oracle_bit_for_bit(case):
    confs, masks = case
    positives = [np.flatnonzero(m) for m in masks]
    if not any(p.size for p in positives):
        with pytest.raises(DataError):
            pixel_pr(confs, positives)
        return
    got = pixel_pr(confs, positives)
    want = full_sort_pixel_pr(confs, masks)
    for name in ("thresholds", "precision", "recall"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.prevalence == want.prevalence


# ---------------------------------------------------------------------------
# Object matching
# ---------------------------------------------------------------------------


def test_match_exact_detection():
    annotation = rect(2, 2, 5, 5)
    assert judge([obj(annotation, 0.9)], [annotation], 1.0) == [[0]]


def test_match_union_rule_spanning_two_annotations():
    a1 = rect(0, 0, 2, 1)  # (0,0) (1,0)
    a2 = rect(2, 0, 4, 1)  # (2,0) (3,0)
    detection = obj(a1 | a2 | {(4, 0)}, 0.8)
    assert jaccard(detection.pixels, flat(a1 | a2)) == 0.8
    assert judge([detection], [a1, a2], 0.5) == [[0, 1]]


def test_match_below_threshold_is_false_detection():
    annotation = rect(0, 0, 10, 1)
    detection = obj(rect(0, 0, 3, 1), 0.9)  # J = 0.3
    assert judge([detection], [annotation], 0.5) == [[]]


def test_match_no_overlap_is_false_detection():
    assert judge([obj({(9, 9)}, 0.6)], [rect(0, 0, 2, 2)], 0.1) == [[]]


def test_match_order_independent():
    annotations = [rect(0, 0, 3, 3), rect(5, 5, 9, 9), rect(0, 6, 2, 9)]
    detections = [
        obj(rect(0, 0, 3, 2), 0.9),
        obj(rect(5, 5, 9, 8), 0.7),
        obj(rect(7, 0, 9, 2), 0.5),
    ]
    base = judge(detections, annotations, 0.3)
    assert base == [[0], [1], []]
    perm = [2, 0, 1]
    shuffled = judge([detections[i] for i in perm], annotations, 0.3)
    assert [shuffled[perm.index(i)] for i in range(3)] == base


def test_match_annotation_order_independent():
    annotations = [rect(0, 0, 3, 3), rect(5, 5, 9, 9), rect(0, 6, 2, 9)]
    detections = [obj(rect(0, 0, 3, 2) | rect(5, 5, 9, 8), 0.9)]
    base = judge(detections, annotations, 0.3)
    assert base == [[0, 1]]
    perm = [2, 1, 0]
    shuffled = judge(detections, [annotations[i] for i in perm], 0.3)
    # annotation k of the shuffled list is annotation perm[k] of the original
    assert [sorted(perm[k] for k in ids) for ids in shuffled] == base


def test_match_monotone_in_threshold():
    annotations = [rect(0, 0, 4, 4)]
    detections = [obj(rect(0, 0, 4, 3), 0.9), obj(rect(0, 0, 1, 1), 0.8)]
    for lo, hi in [(0.1, 0.5), (0.5, 0.9), (0.2, 1.0)]:
        low = judge(detections, annotations, lo)
        high = judge(detections, annotations, hi)
        for a, b in zip(high, low):
            assert (not a) or b  # accepted at high implies accepted at low


def test_match_threshold_validation():
    with pytest.raises(ConfigError):
        object_pr([], [flat(rect(0, 0, 1, 1))], 0.0)
    with pytest.raises(ConfigError):
        object_pr([], [flat(rect(0, 0, 1, 1))], 1.5)
    with pytest.raises(ConfigError):
        multi_tile_object_pr({}, {"t": [flat(rect(0, 0, 1, 1))]}, [0.5, np.nan])


# ---------------------------------------------------------------------------
# Object PR
# ---------------------------------------------------------------------------


def test_object_pr_worked_example():
    annotation = rect(0, 0, 3, 3)
    detections = [obj(annotation, 0.9), obj(rect(10, 10, 12, 12), 0.4)]
    curve = object_pr(detections, [flat(annotation)], 0.5)
    assert curve.thresholds.tolist() == [0.9, 0.4]
    assert curve.precision.tolist() == [1.0, 0.5]
    assert curve.recall.tolist() == [1.0, 1.0]
    assert curve.prevalence == 0.5


def test_object_pr_empty_detections():
    curve = object_pr([], [flat(rect(0, 0, 2, 2))], 0.5)
    assert curve.thresholds.size == 0
    assert curve.max_recall == 0.0


def test_object_pr_no_annotations_is_error():
    with pytest.raises(DataError):
        object_pr([obj({(0, 0)}, 0.5)], [], 0.5)


def test_object_pr_max_recall_monotone_in_jaccard_level():
    rects = [rect(0, 0, 4, 4), rect(8, 0, 12, 5), rect(0, 8, 5, 12)]
    annotations = [flat(a) for a in rects]
    detections = [
        obj(rect(0, 0, 4, 3), 0.9),
        obj(rect(8, 0, 12, 5), 0.8),
        obj(rect(0, 8, 3, 10), 0.7),
        obj(rect(20, 20, 22, 22), 0.6),
    ]
    recalls = [
        object_pr(detections, annotations, j).max_recall
        for j in (0.1, 0.3, 0.5, 0.7, 1.0)
    ]
    assert recalls == sorted(recalls, reverse=True)


def test_multi_tile_object_pr_keeps_tiles_apart():
    ann = rect(0, 0, 2, 2)
    # identical coordinates on two tiles must not interact
    detections = {"a": [obj(ann, 0.9)], "b": [obj(ann, 0.8)]}
    annotations = {"a": [flat(ann)], "b": [flat(rect(10, 10, 12, 12))]}
    (curve,) = multi_tile_object_pr(detections, annotations, [0.5])
    assert curve.max_recall == 0.5  # tile b's annotation is never covered
    assert curve.precision[-1] == 0.5
    with pytest.raises(DataError):
        multi_tile_object_pr({"zz": []}, annotations, [0.5])
    with pytest.raises(DataError):
        multi_tile_object_pr(detections, {"a": [], "b": []}, [0.5])


def _random_rect(rng, height, width, max_side):
    x0, y0 = int(rng.integers(0, width)), int(rng.integers(0, height))
    x1 = min(width, x0 + int(rng.integers(1, max_side + 1)))
    y1 = min(height, y0 + int(rng.integers(1, max_side + 1)))
    ys, xs = np.mgrid[y0:y1, x0:x1]
    return (ys * width + xs).ravel()


def _random_tile(rng):
    """(shape, annotations, detections) of one tile, as flat indices.

    Annotation rectangles overlap freely and may be empty; confidences are
    often drawn from four values so that ties occur; some detections are
    partial copies of an annotation and others touch nothing.
    """
    height, width = int(rng.integers(4, 24)), int(rng.integers(4, 24))
    annotations = [
        _random_rect(rng, height, width, 7)
        for _ in range(int(rng.integers(0, 6)))
    ]
    if annotations and rng.uniform() < 0.1:
        annotations[0] = annotations[0][:0]
    detections = []
    for _ in range(int(rng.integers(0, 9))):
        if annotations and rng.uniform() < 0.6:
            base = annotations[int(rng.integers(len(annotations)))]
            pixels = np.unique(
                np.concatenate(
                    [
                        base[rng.uniform(size=base.size) < 0.8],
                        _random_rect(rng, height, width, 3),
                    ]
                )
            )
        else:
            pixels = _random_rect(rng, height, width, 5)
        if rng.uniform() < 0.5:
            confidence = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        else:
            confidence = float(rng.uniform(0.01, 1.0))
        detections.append(DetectionObject(pixels, confidence, (height, width)))
    return (height, width), annotations, detections


def _as_sets(pixels, width):
    return frozenset(zip((pixels % width).tolist(), (pixels // width).tolist()))


def test_object_pr_matches_rematching_oracle():
    """The single sweep equals the per-confidence re-matching reference."""
    rng = np.random.default_rng(8)
    cases = 0
    while cases < 300:
        tiles = {f"t{k}": _random_tile(rng) for k in range(int(rng.integers(1, 4)))}
        if not any(anns for _, anns, _ in tiles.values()):
            continue
        detections = {t: dets for t, (_, _, dets) in tiles.items() if dets}
        annotations = {t: anns for t, (_, anns, _) in tiles.items()}
        oracle_detections = {
            t: [SetDetection(_as_sets(d.pixels, w), d.confidence) for d in dets]
            for t, dets in detections.items()
            for w in [tiles[t][0][1]]
        }
        oracle_annotations = {
            t: [_as_sets(a, shape[1]) for a in anns]
            for t, (shape, anns, _) in tiles.items()
        }
        levels = (0.1, 0.3, 0.5, 0.7, 1.0)
        curves = multi_tile_object_pr(detections, annotations, levels)
        assert len(curves) == len(levels)
        for level, got in zip(levels, curves):
            want = oracle_multi_tile_object_pr(
                oracle_detections, oracle_annotations, level
            )
            assert np.array_equal(got.thresholds, want.thresholds)
            assert np.array_equal(got.precision, want.precision)
            assert np.array_equal(got.recall, want.recall)
            assert got.prevalence == want.prevalence
        cases += 1


# ---------------------------------------------------------------------------
# PR CSV
# ---------------------------------------------------------------------------


def test_pr_csv_roundtrip(tmp_path):
    curve = PRCurve(
        np.array([0.9, 0.5, 0.1]),
        np.array([1.0, 0.75, 1.0 / 3.0]),
        np.array([0.25, 0.5, 1.0]),
        prevalence=0.0007,
    )
    path = tmp_path / "pr.csv"
    write_pr_csv(curve, path)
    text = path.read_text()
    assert text.splitlines()[:2] == [
        "# prevalence=0.00069999999999999999",
        "threshold,precision,recall",
    ]
    again = read_pr_csv(path)
    assert np.array_equal(again.thresholds, curve.thresholds)
    assert np.array_equal(again.precision, curve.precision)
    assert np.array_equal(again.recall, curve.recall)
    assert again.prevalence == curve.prevalence
    # other '#' lines, such as a sweep tag in older files, are skipped
    old = tmp_path / "old.csv"
    old.write_text(text.replace("\nthreshold", "\n# sweep=quantized\nthreshold"))
    for name in ("thresholds", "precision", "recall", "prevalence"):
        assert np.array_equal(getattr(read_pr_csv(old), name), getattr(curve, name))


def test_pr_csv_row_text_is_pinned(tmp_path):
    curve = PRCurve(
        np.array([1.0, 1.0 / 3.0, 5e-324]),
        np.array([0.0, 1.0 / 3.0, 1.0]),
        np.array([1.0 / 3.0, 0.5, 1.0]),
        prevalence=0.0,
    )
    path = tmp_path / "pr.csv"
    write_pr_csv(curve, path)
    assert path.read_text().splitlines()[2:] == [
        "1,0,0.33333333333333331",
        "0.33333333333333331,0.33333333333333331,0.5",
        "4.9406564584124654e-324,1,1",
    ]


def test_read_pr_csv_non_utf8_is_data_error(tmp_path):
    path = tmp_path / "pr.csv"
    path.write_bytes(b"# prevalence=0.1\nthreshold,precision,recall\n0.5,1,1\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        read_pr_csv(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("# prevalence=0.1\nthreshold,precision,recall\n0.5,x,1\n", "'x'"),
        ("# prevalence=abc\nthreshold,precision,recall\n0.5,1,1\n", "'abc'"),
    ],
    ids=["row", "prevalence"],
)
def test_read_pr_csv_non_numeric_is_data_error(tmp_path, text, match):
    path = tmp_path / "pr.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=match):
        read_pr_csv(path)


@pytest.mark.parametrize(
    "text, match",
    [
        ("# prevalence=0.1\nthreshold,precision,recall\n0.5,nan,1\n", "precision"),
        ("# prevalence=0.1\nthreshold,precision,recall\n0.5,1,nan\n", "recall"),
        ("# prevalence=0.1\nthreshold,precision,recall\ninf,1,1\n", "finite"),
        ("# prevalence=0.1\nthreshold,precision,recall\nnan,1,1\n", "finite"),
        ("# prevalence=-3\nthreshold,precision,recall\n0.5,1,1\n", "prevalence"),
        ("# prevalence=nan\nthreshold,precision,recall\n0.5,1,1\n", "prevalence"),
        ("# prevalence=1.5\nthreshold,precision,recall\n", "prevalence"),
    ],
    ids=["nan-precision", "nan-recall", "inf-threshold", "nan-threshold",
         "negative-prevalence", "nan-prevalence", "prevalence-above-one"],
)
def test_read_pr_csv_rejects_values_a_curve_cannot_hold(tmp_path, text, match):
    path = tmp_path / "pr.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=match):
        read_pr_csv(path)


# values in [0, 1], with -0.0 and subnormals among them
_UNIT = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1.0]) | st.floats(0, 1)
_FINITE = st.sampled_from([-0.0, -5e-324, 5e-324]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def pr_curves(draw):
    """Every valid PRCurve: strictly decreasing finite thresholds, precision
    in [0, 1] and non-decreasing recall in [0, 1]."""
    thresholds = sorted(set(draw(st.lists(_FINITE, max_size=8))), reverse=True)
    n = len(thresholds)
    precision = draw(st.lists(_UNIT, min_size=n, max_size=n))
    recall = sorted(draw(st.lists(_UNIT, min_size=n, max_size=n)))
    arrays = (np.array(v, dtype=np.float64) for v in (thresholds, precision, recall))
    return PRCurve(*arrays, prevalence=draw(_UNIT))


# the property tests below keep files in a dict: the codecs are text, and
# test_pr_csv_roundtrip already goes through the disk


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pr_curves())
def test_pr_csv_roundtrip_is_bit_exact(curve):
    files = {}
    with mock.patch.object(scoring, "write_atomic", files.__setitem__), \
            mock.patch.object(scoring, "read_text", lambda path, what: files[path]):
        write_pr_csv(curve, "pr.csv")
        again = read_pr_csv("pr.csv")
    for name in ("thresholds", "precision", "recall"):
        assert getattr(again, name).tobytes() == getattr(curve, name).tobytes(), name
    assert np.float64(again.prevalence).tobytes() == np.float64(curve.prevalence).tobytes()


_PR_TEXT = st.text() | st.text("#prevalence=thresholdcisionrcal,0123456789.-+eEnaif\n ")


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.booleans(), _PR_TEXT)
def test_read_pr_csv_raises_only_data_error(with_header, text):
    text = ("threshold,precision,recall\n" if with_header else "") + text
    try:
        with mock.patch.object(scoring, "read_text", return_value=text):
            read_pr_csv("pr.csv")
    except DataError:
        pass


def test_pr_csv_write_failing_part_way_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "pr_pixel.csv"
    write_pr_csv(PRCurve(np.array([0.5]), np.array([1.0]), np.array([1.0]), 0.1), path)
    old = path.read_bytes()
    fdopen = os.fdopen

    class HalfWrite:
        """A file handle whose write stores half its data, then finds the disk full."""

        def __init__(self, fd, mode):
            self.handle = fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            self.handle.write(data[: len(data) // 2])
            self.handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fdopen", HalfWrite)
    curve = PRCurve(
        np.array([0.9, 0.5, 0.1]),
        np.array([1.0, 0.75, 1.0 / 3.0]),
        np.array([0.25, 0.5, 1.0]),
        prevalence=0.2,
    )
    with pytest.raises(OSError, match="No space"):
        write_pr_csv(curve, path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["pr_pixel.csv"]  # no temp file left


def test_pr_svg_is_valid_xml(tmp_path):
    curve = PRCurve(
        np.array([0.9, 0.5, 0.1]),
        np.array([1.0, 0.75, 1.0 / 3.0]),
        np.array([0.25, 0.5, 1.0]),
        prevalence=0.1,
    )
    title = 'pixels & objects <J*=0.5> "test"'
    path = tmp_path / "pr.svg"
    write_pr_svg(curve, path, title)
    svg = "{http://www.w3.org/2000/svg}"
    root = ElementTree.parse(path).getroot()
    assert root.tag == svg + "svg"
    (polyline,) = root.findall(svg + "polyline")
    assert len(polyline.get("points").split()) == 3
    assert title in [text.text for text in root.iter(svg + "text")]
    write_pr_svg(PRCurve(np.array([]), np.array([]), np.array([]), 0.0), path)
    assert ElementTree.parse(path).getroot().findall(svg + "polyline") == []


def test_pr_curve_invariants():
    with pytest.raises(DataError):
        PRCurve(np.array([0.5, 0.9]), np.array([1.0, 1.0]), np.array([0.1, 0.2]), 0.1)
    with pytest.raises(DataError):
        PRCurve(np.array([0.9, 0.5]), np.array([1.0, 1.0]), np.array([0.5, 0.2]), 0.1)
    with pytest.raises(DataError):
        PRCurve(np.array([0.9]), np.array([1.5]), np.array([0.5]), 0.1)


def test_pr_curve_helpers():
    curve = PRCurve(
        np.array([0.9, 0.5, 0.1]),
        np.array([1.0, 0.8, 0.3]),
        np.array([0.4, 0.7, 0.9]),
        prevalence=0.01,
    )
    assert curve.max_recall == 0.9
    assert curve.best_precision_at(0.5) == 0.8
    assert curve.best_recall_at(0.8) == 0.7
    assert curve.best_recall_at(0.99) == 0.4
    assert curve.best_precision_at(0.9) == 0.3
    assert curve.best_precision_at(0.95) == 0.0  # recall 0.95 never reached
    assert PRCurve(np.array([]), np.array([]), np.array([]), 0.0).max_recall == 0.0
