import os
import signal
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pvdetect.errors import (
    ConfigError,
    DataError,
    ModelChecksumError,
    ModelFormatError,
    ModelVersionError,
)
from pvdetect import forest as forest_module
from pvdetect.cli import fork_map, thread_map
from pvdetect.features import FeatureSpec, feature_planes
from pvdetect.forest import (
    RFParams,
    RandomForest,
    TrainingSet,
    best_split,
    dump_model,
    gini,
    grow_tree,
    loads_model,
    predict_tile,
    sample_training_pixels,
    train,
)
from pvdetect.imagery import ImageTile
from pvdetect.synth import SceneParams, generate_scene
from pvdetect.imagery import rasterize
from oracles import (
    argsort_best_split,
    cart_predict,
    decode_rows,
    exhaustive_cart,
    feature_rows,
    mask_training_set,
    naive_pixel_features,
    predict_rows,
    route_and_read,
    rows_training_set,
    scalar_predict,
    tree_depth,
)


def all_features(n):
    return lambda node_id: np.arange(n)


def ten_sample_set():
    X = np.array([[0.0]] * 5 + [[1.0]] * 5)
    y = np.array([False] * 5 + [True] * 5)
    return rows_training_set(X, y)


# ---------------------------------------------------------------------------
# Gini and split search
# ---------------------------------------------------------------------------


def test_gini_examples():
    assert gini(10, 0) == 0.0
    assert gini(5, 5) == 0.5
    assert gini(3, 1) == 0.375
    with pytest.raises(ValueError):
        gini(0, 0)


def test_best_split_ten_samples():
    ts = ten_sample_set()
    got = best_split(np.arange(10), [0], ts, min_leaf=5)
    assert got == (0, 0.5)


def test_best_split_pure_node_returns_none():
    """A node whose rows share one label splits nowhere, on both counting
    paths: the column has 200 distinct values, so 10 rows are sorted
    (4 * 10 < 200) and 100 rows are binned.  A node without positives
    gathers no positive keys, and one of positives only gathers them all."""
    X = np.arange(10, dtype=float).reshape(-1, 1)
    ts = rows_training_set(np.vstack([X, X]), np.array([True] * 10 + [False] * 10))
    pure = best_split(np.arange(10), [0], ts, min_leaf=1)
    assert pure is None  # first ten rows are all positive
    X = np.arange(200, dtype=float).reshape(-1, 1)
    ts = rows_training_set(X, np.arange(200) < 100)
    for n in (10, 100):
        assert best_split(np.arange(n), [0], ts, min_leaf=1) is None
        assert best_split(np.arange(100, 100 + n), [0], ts, min_leaf=1) is None


def test_best_split_min_leaf_blocks_all_candidates():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    y = np.array([False] * 5 + [True])
    ts = rows_training_set(X, y)
    assert best_split(np.arange(6), [0], ts, min_leaf=5) is None


def test_best_split_tie_prefers_lowest_feature_and_threshold():
    # two identical columns: feature 0 must win the tie
    col = np.array([0.0, 0.0, 1.0, 1.0])
    ts = rows_training_set(np.column_stack([col, col]), np.array([False, False, True, True]))
    assert best_split(np.arange(4), [1, 0], ts, min_leaf=1) == (0, 0.5)
    # symmetric labels: two thresholds tie, the lower one must win
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([False, True, False])
    ts2 = rows_training_set(X, y)
    feature, threshold = best_split(np.arange(3), [0], ts2, min_leaf=1)
    assert (feature, threshold) == (0, 0.5)


def test_best_split_matches_exhaustive_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(4, 40))
        min_leaf = int(rng.integers(1, 6))
        X = np.round(rng.uniform(0, 1, size=(n, 3)), int(rng.integers(1, 4)))
        y = rng.uniform(0, 1, size=n) < 0.5
        if y.all() or not y.any():
            continue
        ts = rows_training_set(X, y)
        got = best_split(np.arange(n), [0, 1, 2], ts, min_leaf=min_leaf)
        oracle = exhaustive_cart(X, y, min_leaf=min_leaf)
        if oracle["leaf"]:
            assert got is None, trial
        else:
            assert got == (oracle["feature"], oracle["threshold"]), trial


def random_column(rng, n):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return np.full(n, float(rng.normal()))  # one distinct value
    if kind == 1:
        return rng.integers(0, 3, size=n).astype(float)  # heavy duplicates
    if kind == 2:
        return np.round(rng.normal(size=n), 2)  # some duplicates, and -0.0
    return rng.normal(size=n) * 1e3  # every value distinct


def test_best_split_matches_argsort_oracle(monkeypatch):
    """Random nodes, against the float argsort search the rank codes replaced.

    Tables about as large as the node send small groups to the sort path;
    few distinct values send them to the bincount.  BAND_PIXELS sets how
    many features share a group: one, a few, or all.
    """
    rng = np.random.default_rng(17)
    for band_pixels in (1, 64, 1 << 14):
        monkeypatch.setattr(forest_module, "BAND_PIXELS", band_pixels)
        for trial in range(60):
            N = int(rng.integers(2, 200))
            M = int(rng.integers(1, 7))
            X = np.column_stack([random_column(rng, N) for _ in range(M)])
            y = rng.uniform(size=N) < rng.uniform(0.1, 0.9)
            y[:2] = [True, False]
            ts = rows_training_set(X, y)
            for node in range(6):
                if node == 0:
                    idx = np.full(int(rng.integers(2, 20)), rng.integers(N))  # one row
                else:
                    # bootstrap-like: rows repeat
                    idx = rng.integers(0, N, size=int(rng.integers(1, 2 * N)))
                subset = rng.permutation(M)[: int(rng.integers(1, M + 1))]
                half = idx.size // 2
                for min_leaf in sorted({1, max(1, half), half + 1, int(rng.integers(1, half + 2))}):
                    got = best_split(idx, subset, ts, min_leaf)
                    want = argsort_best_split(idx, subset, X, y, min_leaf)
                    assert got == want, (band_pixels, trial, node, min_leaf)


def test_best_split_int32_codes_match_oracle():
    rng = np.random.default_rng(18)
    N = 70_000  # column 1 has more distinct values than uint16 can rank
    X = np.column_stack([rng.integers(0, 50, N) / 7.0, rng.permutation(N) / 3.0])
    y = rng.uniform(size=N) < (X[:, 0] + X[:, 1] / N) / 9.0
    # column 0's codes are uint16 until column 1 widens them
    ts = rows_training_set(X, y)
    assert ts.codes.dtype == np.int32 and ts.values[1].size == N
    assert_bitwise_equal(decode_rows(ts), X)
    for n in (N, 5000, 300, 30):
        idx = rng.integers(0, N, size=n)
        for subset, min_leaf in (([0, 1], 1), ([1], 5), ([1, 0], n // 2)):
            got = best_split(idx, subset, ts, min_leaf)
            assert got == argsort_best_split(idx, subset, X, y, min_leaf), (n, subset)


def _check_float_partition(tree, X, rows, node=0):
    """Each node's count equals its rows under value <= threshold routing."""
    assert tree.count[node] == rows.size
    if tree.feature[node] >= 0:
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        _check_float_partition(tree, X, rows[go_left], tree.left[node])
        _check_float_partition(tree, X, rows[~go_left], tree.right[node])


def test_grow_tree_midpoint_of_adjacent_floats():
    up = np.nextafter(1.0, 2.0)
    for lo, hi in ((1.0, up), (up, np.nextafter(up, 2.0))):
        # feature 1 splits lo | hi best at the root; feature 0 then splits
        # whatever the root's threshold sent left
        X = np.array([[0.0, lo]] * 3 + [[1.0, hi]] * 3 + [[0.0, 5.0]] * 3)
        y = np.array([True] * 3 + [False] * 6)
        ts = rows_training_set(X, y)
        threshold = (lo + hi) / 2.0
        if threshold == hi:
            threshold = lo
        assert best_split(np.arange(9), [0, 1], ts, 1) == (1, threshold)
        tree = grow_tree(np.arange(9), ts, RFParams(min_leaf=1), all_features(2))
        assert tree.threshold[0] == threshold
        _check_float_partition(tree, X, np.arange(9))
        oracle = exhaustive_cart(X, y, min_leaf=1)
        for row in X:
            assert route_and_read(tree, row) == cart_predict(oracle, row)
    # the second pair's midpoint rounds up to hi, so the threshold is lo
    assert threshold == lo
    assert tree.count[tree.left[0]] == 3


_UP = float(np.nextafter(1.0, 2.0))


@pytest.mark.parametrize("lo, hi", [(_UP, float(np.nextafter(_UP, 2.0))), (1e308, 1.5e308)])
def test_grow_tree_ends_when_midpoint_is_not_below_hi(lo, hi):
    """grow_tree returns when the midpoint of lo and hi rounds up or overflows."""
    # a threshold of hi or inf sends every row left, into the same node again
    assert not (lo + hi) / 2.0 < hi
    X = np.array([[lo]] * 3 + [[hi]] * 3)
    y = np.array([True] * 3 + [False] * 3)

    def hang(signum, frame):
        raise TimeoutError("grow_tree did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        tree = grow_tree(np.arange(6), rows_training_set(X, y), RFParams(min_leaf=1), all_features(1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert tree.n_nodes == 3
    assert tree.threshold[0] == lo
    assert tree.prob[tree.left[0]] == 1.0 and tree.prob[tree.right[0]] == 0.0


# ---------------------------------------------------------------------------
# Tree growth
# ---------------------------------------------------------------------------


def test_grow_tree_single_class_bootstrap():
    ts = ten_sample_set()
    tree = grow_tree(np.array([5, 6, 7, 8, 9]), ts, RFParams(min_leaf=1), all_features(1))
    assert tree.n_nodes == 1
    assert tree.prob[0] == 1.0
    assert tree.count[0] == 5


def test_grow_tree_ten_samples_depth_one():
    ts = ten_sample_set()
    tree = grow_tree(np.arange(10), ts, RFParams(min_leaf=5), all_features(1))
    assert tree.n_nodes == 3
    assert tree.feature[0] == 0 and tree.threshold[0] == 0.5
    assert route_and_read(tree, np.array([0.0])) == 0.0
    assert route_and_read(tree, np.array([1.0])) == 1.0


def test_grow_tree_equals_exhaustive_cart_oracle():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(8, 50))
        d = int(rng.integers(2, 5))
        X = np.round(rng.uniform(0, 1, size=(n, d)), 2)  # duplicates likely
        y = (X[:, 0] + rng.normal(0, 0.2, size=n)) > 0.5
        if y.all() or not y.any():
            continue
        ts = rows_training_set(X, y)
        tree = grow_tree(np.arange(n), ts, RFParams(min_leaf=1), all_features(d))
        oracle = exhaustive_cart(X, y, min_leaf=1)
        for row in X:
            assert route_and_read(tree, row) == cart_predict(oracle, row), trial


def test_grow_tree_leaf_counts_respect_min_leaf():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(200, 4))
    y = rng.uniform(0, 1, size=200) < 0.4
    ts = rows_training_set(X, y)
    for min_leaf in (1, 5, 20):
        tree = grow_tree(
            np.arange(200), ts, RFParams(min_leaf=min_leaf), all_features(4)
        )
        leaves = tree.feature < 0
        assert (tree.count[leaves] >= min_leaf).all()


def test_grow_tree_routing_invariant_under_monotone_rescale():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(80, 3))
    y = (X[:, 0] + X[:, 1]) > 1.0
    params = RFParams(min_leaf=3)
    sampler = all_features(3)
    base = grow_tree(np.arange(80), rows_training_set(X, y), params, sampler)
    warped = grow_tree(
        np.arange(80), rows_training_set(np.exp(X), y), params, sampler
    )
    assert np.array_equal(base.feature, warped.feature)
    assert np.array_equal(base.left, warped.left)
    assert np.array_equal(base.prob, warped.prob)
    for row in X:
        a = route_and_read(base, row)
        b = route_and_read(warped, np.exp(row))
        assert a == b


# ---------------------------------------------------------------------------
# Forest training and prediction
# ---------------------------------------------------------------------------


def test_train_single_tree_prediction():
    # min_leaf=1 so any two-class bootstrap splits the step function exactly
    model = train(ten_sample_set(), RFParams(n_trees=1, min_leaf=1, seed=1), "rows")
    assert scalar_predict(model, np.array([0.0])) == 0.0
    assert scalar_predict(model, np.array([1.0])) == 1.0
    assert predict_rows(model, np.array([[0.0], [1.0]])).tolist() == [0.0, 1.0]


def test_train_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(300, 5))
    y = X[:, 0] > 0.5
    ts = rows_training_set(X, y)
    a = dump_model(train(ts, RFParams(n_trees=5, seed=7), "rows"))
    b = dump_model(train(ts, RFParams(n_trees=5, seed=7), "rows"))
    c = dump_model(train(ts, RFParams(n_trees=5, seed=8), "rows"))
    assert a == b
    assert a != c


def test_train_worker_pool_matches_serial(monkeypatch):
    rng = np.random.default_rng(15)
    X = rng.uniform(0, 1, size=(400, 8))
    y = X[:, 0] + X[:, 3] * X[:, 5] > 0.6
    ts = rows_training_set(X, y)
    params = RFParams(n_trees=7, min_leaf=2, seed=9)
    serial = dump_model(train(ts, params, "f"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the three workers finely
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = dump_model(train(ts, params, "f", map=pool.map))
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial
    # forked workers, 7 trees spread unevenly; lift the core cap so that
    # 3 processes really run on a host with fewer cores
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for workers in (2, 3):
        forked = dump_model(train(ts, params, "f", map=fork_map(workers)))
        assert forked == serial, f"{workers} forked workers changed the model"


def test_train_separable_2d_accuracy():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(1000, 2))
    y = X[:, 0] + X[:, 1] > 0
    model = train(rows_training_set(X[:700], y[:700]), RFParams(n_trees=30, seed=0), "rows")
    held_out = predict_rows(model, X[700:]) > 0.5
    assert (held_out == y[700:]).mean() >= 0.95


def test_train_applies_the_forest_size_bound():
    """A library caller's forest past check_forest_size's bound is a
    ConfigError before any tree grows: its map is never called."""
    calls = []

    def spy(fn, *iterables):
        calls.append(fn)
        return map(fn, *iterables)

    with pytest.raises(ConfigError, match="2\\*\\*27"):
        train(ten_sample_set(), RFParams(n_trees=10**8), "rows", map=spy)
    assert calls == []
    assert train(ten_sample_set(), RFParams(n_trees=2, min_leaf=1), "rows", map=spy).n_trees == 2
    assert len(calls) == 1


def test_train_validates_inputs():
    ts = ten_sample_set()
    with pytest.raises(ConfigError):
        train(ts, RFParams(n_trees=1, min_leaf=6), "rows")  # N=10 < 2*6
    with pytest.raises(DataError, match="both classes"):
        rows_training_set(np.zeros((4, 2)), np.array([True] * 4))
    with pytest.raises(DataError, match="inconsistent"):
        rows_training_set(np.zeros((4, 2)), np.array([True, False] * 3))
    with pytest.raises(ConfigError):
        RFParams(n_trees=0)
    with pytest.raises(ConfigError):
        train(ts, RFParams(features_per_node=2), "rows")  # only 1 feature available


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_training_set_holds_one_column_major_copy():
    rng = np.random.default_rng(16)
    X = rng.uniform(0, 1, size=(7, 3))
    X[2, 1] = X[5, 1]  # a repeated value shares one rank
    y = np.array([True, False] * 3 + [True])
    # the codes are their own 21 uint16, and the matrix is left as it was
    columns = X.T.copy()
    ts = TrainingSet([(range(3), columns)], y, 3)
    assert not np.shares_memory(ts.codes, columns) and np.array_equal(columns, X.T)
    assert ts.codes.dtype == np.uint16
    assert ts.codes.shape == (3, 7) and ts.codes.flags.c_contiguous
    assert [t.size for t in ts.values] == [7, 6, 7]
    assert all((np.diff(t) > 0).all() for t in ts.values)
    assert_bitwise_equal(decode_rows(ts), X)


_ROWS = np.arange(12.0).reshape(6, 2)
_LABELS = np.array([True, False] * 3)


@pytest.mark.parametrize(
    "columns",
    [
        np.arange(6.0),  # 1-D
        np.array(_ROWS.T, dtype=np.float32, order="C"),
        _ROWS.T.tolist(),
    ],
    ids=["1-D", "float32", "list"],
)
def test_training_set_rejects_a_matrix_it_cannot_take_over(columns):
    with pytest.raises(DataError, match="2-D float64"):
        TrainingSet([(range(2), columns)], _LABELS, 2)
    assert TrainingSet([(range(2), _ROWS.T.copy())], _LABELS, 2).codes.shape == (2, 6)


@pytest.mark.parametrize(
    "columns",
    [
        _ROWS.T,  # a transposed view
        np.array(_ROWS.T, order="F"),
        _ROWS.T.copy()[:, :],  # C-contiguous, not its own memory
    ],
    ids=["transposed", "fortran", "view"],
)
def test_training_set_encodes_any_float64_layout(columns):
    """The encoder reads a block's rows and writes its own codes, so any
    layout of a 2-D float64 matrix gives the same set and is left as it was."""
    before = np.array(columns)
    got = TrainingSet([(range(2), columns)], _LABELS, 2)
    want = TrainingSet([(range(2), _ROWS.T.copy())], _LABELS, 2)
    _assert_same_training_set(got, want)
    assert np.array_equal(columns, before)


def test_training_set_takes_columns_in_blocks():
    """Blocks of columns in any order give the set of the whole matrix; a
    block must match the labels, and the blocks must give every column."""
    rng = np.random.default_rng(42)
    X = rng.integers(0, 9, size=(30, 5)).astype(np.float64)
    y = np.arange(30) % 4 == 0
    blocks = [([4, 1], X[:, [4, 1]].T), ([0, 3, 2], X[:, [0, 3, 2]].T)]
    _assert_same_training_set(TrainingSet(blocks, y, 5), rows_training_set(X, y))
    with pytest.raises(DataError, match="inconsistent"):
        TrainingSet([([0], X[:29, :1].T)], y, 1)
    with pytest.raises(KeyError):
        TrainingSet(blocks[:1], y, 5)


def test_training_set_checks_labels_before_drawing_a_block():
    def blocks():
        raise AssertionError("a block was drawn")
        yield

    with pytest.raises(DataError, match="both classes"):
        TrainingSet(blocks(), np.ones(4, dtype=bool), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_training_set_rejects_non_finite_rows(bad):
    X = _ROWS.copy()
    X[2, 1] = bad
    with pytest.raises(DataError, match="finite"):
        rows_training_set(X, _LABELS)


def _single_leaf_tree(prob, count=5):
    from pvdetect.forest import DecisionTree

    return DecisionTree(
        np.array([-1], dtype=np.int32),
        np.array([0.0]),
        np.array([-1], dtype=np.int32),
        np.array([-1], dtype=np.int32),
        np.array([prob]),
        np.array([count], dtype=np.int64),
    )


def test_predict_identities_and_errors():
    model = train(ten_sample_set(), RFParams(n_trees=1, min_leaf=1, seed=0), "rows")
    # constant features cannot split: one leaf carrying the class fraction
    leaf_only = train(
        rows_training_set(np.zeros((6, 1)), np.array([True] * 4 + [False] * 2)),
        RFParams(n_trees=1, min_leaf=3, seed=0),
        "rows",
    )
    assert leaf_only.trees[0].n_nodes == 1
    assert scalar_predict(leaf_only, np.array([123.0])) == leaf_only.trees[0].prob[0]
    assert predict_rows(leaf_only, np.array([[123.0]]))[0] == leaf_only.trees[0].prob[0]
    # a tile's 102 features cannot feed a one-feature forest
    tile = ImageTile(np.zeros((4, 4, 3), dtype=np.uint8), "t")
    with pytest.raises(DataError, match="102 features"):
        predict_tile(model, tile, FeatureSpec())


def test_predict_mean_of_two_trees():
    forest = RandomForest(
        [_single_leaf_tree(0.0), _single_leaf_tree(1.0)], 1, "rows"
    )
    assert scalar_predict(forest, np.array([0.0])) == 0.5
    assert predict_rows(forest, np.array([[0.0]]))[0] == 0.5
    single = RandomForest([_single_leaf_tree(0.375)], 1, "rows")
    assert scalar_predict(single, np.array([9.0])) == 0.375
    assert predict_rows(single, np.array([[9.0]]))[0] == 0.375


def test_predict_matches_route_and_read_oracle():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, size=(400, 4))
    y = (X[:, 1] > 0.6) | (X[:, 2] < 0.2)
    model = train(rows_training_set(X, y), RFParams(n_trees=7, seed=11), "rows")
    probe = rng.uniform(0, 1, size=(50, 4))
    batch = predict_rows(model, probe)
    for x, got in zip(probe, batch):
        probs = sorted(route_and_read(t, x) for t in model.trees)
        acc = 0.0
        for p in probs:
            acc += p
        assert got == acc / len(probs)


def test_predict_invariant_under_tree_permutation():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, size=(300, 3))
    y = X[:, 0] > 0.4
    model = train(rows_training_set(X, y), RFParams(n_trees=9, seed=2), "rows")
    shuffled = RandomForest(model.trees[::-1], model.n_features, "rows")
    probe = rng.uniform(0, 1, size=(40, 3))
    assert np.array_equal(predict_rows(model, probe), predict_rows(shuffled, probe))


def test_row_routing_matches_scalar_predict_bitwise():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(200, 3))
    y = X[:, 0] + X[:, 2] > 1.0
    model = train(rows_training_set(X, y), RFParams(n_trees=6, seed=4), "rows")
    probe = rng.uniform(0, 1, size=(31, 3))
    batch = predict_rows(model, probe)
    for i in range(31):
        assert batch[i] == scalar_predict(model, probe[i])


def test_predict_tile_shape_and_range():
    rng = np.random.default_rng(9)
    spec = FeatureSpec()
    tile = ImageTile(rng.integers(0, 256, size=(6, 7, 3), dtype=np.uint8), "t")
    X = feature_rows(tile, spec, 0, 6).reshape(42, 102)
    y = rng.uniform(size=42) < 0.5
    model = train(rows_training_set(X, y), RFParams(n_trees=3, min_leaf=1, seed=5),
                  spec.fingerprint())
    conf = predict_tile(model, tile, spec)
    assert conf.shape == (6, 7) and conf.dtype == np.float32
    assert 0.0 <= conf.min() < conf.max() <= 1.0
    for i, row in enumerate(X):
        assert conf.flat[i] == np.float32(scalar_predict(model, row))
    with pytest.raises(DataError, match="expects 102"):
        predict_tile(model, tile, FeatureSpec(ring_radii=(2,)))  # 54 features
    with pytest.raises(DataError, match="trained for features"):
        predict_tile(model, tile, FeatureSpec(window_side=5, ring_radii=(1, 3)))


def test_predict_tile_requires_the_trained_spec():
    """A forest's fingerprint must equal the spec's; no label is a wildcard."""
    tile = ImageTile(np.zeros((3, 4, 3), dtype=np.uint8), "t")
    spec = FeatureSpec()
    for label in ("unspecified", "rows", "w3:r2"):
        forest = RandomForest([_single_leaf_tree(0.5)], spec.feature_count, label)
        with pytest.raises(DataError, match="trained for features"):
            predict_tile(forest, tile, spec)
    labelled = RandomForest([_single_leaf_tree(0.5)], spec.feature_count, spec.fingerprint())
    assert (predict_tile(labelled, tile, spec) == 0.5).all()


def test_predict_tile_banding_consistency(monkeypatch):
    rng = np.random.default_rng(10)
    tile = ImageTile(rng.integers(0, 256, size=(40, 30, 3), dtype=np.uint8), "t")
    spec = FeatureSpec()
    fi = feature_rows(tile, spec, 0, tile.height)
    X = fi.reshape(-1, 102)
    y = X[:, 0] > np.median(X[:, 0])
    model = train(rows_training_set(X[:600], y[:600]), RFParams(n_trees=3, seed=6),
                  spec.fingerprint())
    whole = predict_rows(model, X).reshape(40, 30)
    # three bands of at most 8 * 52 = 416 pixels: 14 + 14 + 12 rows, each
    # bit-identical in float64
    monkeypatch.setattr(forest_module, "BAND_PIXELS", 52)
    assert forest_module._band_rows(40, 30) == 14
    assert np.array_equal(_float64_bands(model, tile, spec), whole)
    banded = predict_tile(model, tile, spec)
    assert banded.dtype == np.float32
    assert np.array_equal(whole.astype(np.float32), banded)
    # the same uneven bands routed by two workers; a pool's map that does
    # not say how many threads it runs is refused, not run as one band
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = predict_tile(model, tile, spec, map=_sized_map(1, pool.map))
        with pytest.raises(TypeError, match="map.workers"):
            predict_tile(model, tile, spec, map=pool.map)
    assert np.array_equal(banded, pooled)
    with pytest.raises(DataError):
        predict_tile(model, tile, FeatureSpec(ring_radii=(2,)))


def test_plane_routing_matches_scalar_oracle():
    """Routing on feature planes equals scalar_predict on the naive features."""
    rng = np.random.default_rng(14)
    cases = [
        (FeatureSpec(), 23, 19),
        (FeatureSpec(), 9, 41),
        (FeatureSpec(window_side=5, ring_radii=(1, 3)), 17, 13),
        (FeatureSpec(), 4, 3),  # rings reach far outside the tile
    ]
    for spec, h, w in cases:
        tile = ImageTile(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8), "t")
        X = feature_rows(tile, spec, 0, h).reshape(h * w, -1)
        # random labels grow deep trees that split on many features
        y = np.arange(h * w) % 2 == 0
        rng.shuffle(y)
        model = train(
            rows_training_set(X, y), RFParams(n_trees=4, min_leaf=1, seed=3), spec.fingerprint()
        )
        conf = predict_tile(model, tile, spec)
        values, base, offsets = feature_planes(tile, spec, 0, h)
        picks = rng.choice(h * w, size=min(h * w, 40), replace=False)
        naive = [
            naive_pixel_features(
                tile.pixels, spec.window_offsets(), spec.window_side, p % w, p // w
            )
            for p in picks
        ]
        expected = [scalar_predict(model, x) for x in naive]
        means = forest_module._mean_leaf_prob(model, values, base[picks], offsets)
        assert means.tolist() == expected
        assert conf[picks // w, picks % w].tolist() == np.float32(expected).tolist()
        for tree in model.trees:
            # the mean of one tree is its leaf probability, exactly
            one = RandomForest([tree], model.n_features, model.feature_fingerprint)
            leaves = forest_module._mean_leaf_prob(one, values, base[picks], offsets)
            assert leaves.tolist() == [route_and_read(tree, x) for x in naive]


def _sized_map(workers, fn=map):
    """fn as a map that gives its thread count as map.workers, like cli.thread_map."""

    def run(*args):
        return fn(*args)

    run.workers = workers
    return run


def _float64_bands(model, tile, spec, workers=1):
    """The float64 means that predict_tile rounds into its map, band by band."""
    rows = forest_module._band_rows(tile.height, tile.width, workers)
    bands = [
        forest_module._mean_leaf_prob(
            model, *feature_planes(tile, spec, y0, min(y0 + rows, tile.height))
        )
        for y0 in range(0, tile.height, rows)
    ]
    return np.concatenate(bands).reshape(tile.height, tile.width)


def _mixed_depth_forest(X, y, fingerprint="rows"):
    """Five trees: deep, a lone leaf, shallow, deep, and a one-split stump."""
    ts = rows_training_set(X, y)
    deep = train(ts, RFParams(n_trees=2, min_leaf=1, seed=5), "rows").trees
    shallow = train(ts, RFParams(n_trees=1, min_leaf=40, seed=6), "rows").trees
    stump = grow_tree(np.arange(y.size), ts, RFParams(min_leaf=y.size // 2 - 1),
                      all_features(X.shape[1]))
    trees = [deep[0], _single_leaf_tree(0.625), shallow[0], deep[1], stump]
    depths = [tree_depth(t) for t in trees]
    assert depths[1] == 0 and max(depths) >= 6 and 1 <= min(depths[2], depths[4]) <= 3
    return RandomForest(trees, X.shape[1], fingerprint)


def test_tree_depth_matches_recursive_oracle():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(300, 4))
    y = X[:, 0] * X[:, 1] > 0.1
    for tree in _mixed_depth_forest(X, y).trees:
        assert tree.depth == tree_depth(tree)


@pytest.mark.parametrize("band_pixels", [4, 8, 16, 1 << 14])
def test_forest_router_matches_scalar_oracle(monkeypatch, band_pixels):
    """Routed rows and each predict_tile band equal scalar_predict bit for bit.

    On a 60-row, 4-wide tile, BAND_PIXELS 4, 8, 16 and 1 << 14 give bands
    of at most 32, 64, 128 and 131072 pixels: 8 rows (seven bands and a
    short last one), 15, 30 and all 60 rows; for two workers, 8, 15, 30 and
    30 rows.  Each band is routed whole, every tree depth first over the
    band's pixels, and predict_rows routes all 240 rows at once.  The
    float64 means of every band are checked; predict_tile's map holds them
    rounded to float32, serially and on two threads.
    """
    rng = np.random.default_rng(21)
    spec = FeatureSpec()
    tile = ImageTile(rng.integers(0, 256, size=(60, 4, 3), dtype=np.uint8), "t")
    X = feature_rows(tile, spec, 0, tile.height).reshape(-1, spec.feature_count)
    y = np.arange(X.shape[0]) % 3 == 0
    rng.shuffle(y)
    model = _mixed_depth_forest(X, y, spec.fingerprint())
    expected = np.array([scalar_predict(model, x) for x in X])
    monkeypatch.setattr(forest_module, "BAND_PIXELS", band_pixels)
    rows = {4: (8, 8), 8: (15, 15), 16: (30, 30), 1 << 14: (60, 30)}[band_pixels]
    assert tuple(forest_module._band_rows(60, 4, workers) for workers in (1, 2)) == rows
    assert np.array_equal(predict_rows(model, X), expected)
    for workers in (1, 2):
        bands = _float64_bands(model, tile, spec, workers)
        assert np.array_equal(bands.ravel(), expected)
    conf = predict_tile(model, tile, spec)
    assert conf.dtype == np.float32
    assert np.array_equal(conf.ravel(), expected.astype(np.float32))
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = predict_tile(model, tile, spec, map=_sized_map(2, pool.map))
    assert np.array_equal(pooled.ravel(), expected.astype(np.float32))


@pytest.mark.parametrize(
    "spec, workers, sample_rows",
    [
        (FeatureSpec(), 1, 10),
        (FeatureSpec(), 2, 10),
        (FeatureSpec(), 3, 12),
        (FeatureSpec(5, (1, 4)), 1, 12),
        (FeatureSpec(5, (1, 4)), 2, 12),
        (FeatureSpec(5, (1, 4)), 3, 12),
    ],
)
def test_plane_bands_match_whole_tile(monkeypatch, spec, workers, sample_rows):
    """Bands give whole-tile bits in predict_tile and sample_training_pixels.

    On a 25-row, 20-wide tile, BAND_PIXELS is 20 * sample_rows (200 or
    240), so predict_tile's bands may hold 1600 or 1920 pixels, more than
    the tile's 500.  Its bands are as few as that allows, rounded up to a
    multiple of workers, and share one height: all 25 rows, 13 + 12 and
    9 + 9 + 7 rows for 1, 2 and 3 workers.  Each band's planes are built
    once and all its pixels are routed in one call, serially and on a pool
    of `workers` threads.  sample_training_pixels' bands hold BAND_PIXELS,
    that is sample_rows rows, which is at least their 2 * pad rows of
    padding (pad 5 for the default spec, 6 for FeatureSpec(5, (1, 4)));
    25 rows is a multiple of neither 10 nor 12, so the last sampling band
    is short.
    """
    h, w = 25, 20
    rng = np.random.default_rng(23 + workers)
    tile = ImageTile(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8), "t")
    X = feature_rows(tile, spec, 0, h).reshape(h * w, -1)
    y = np.arange(h * w) % 3 == 0
    rng.shuffle(y)
    model = _mixed_depth_forest(X, y, spec.fingerprint())
    expected = np.array([scalar_predict(model, x) for x in X])
    positives = np.flatnonzero(y)
    n_total = positives.size + 150
    want = mask_training_set([tile], [y.reshape(h, w)], spec, n_total, seed=4)

    planes, routed = [], []
    route = forest_module._mean_leaf_prob

    def recorded_planes(*args):
        planes.append(args[2:])
        return feature_planes(*args)

    def recorded_route(*args):
        means = route(*args)
        routed.append(means)
        return means

    monkeypatch.setattr(forest_module, "BAND_PIXELS", w * sample_rows)
    monkeypatch.setattr(forest_module, "feature_planes", recorded_planes)
    monkeypatch.setattr(forest_module, "_mean_leaf_prob", recorded_route)
    bands = {1: [(0, 25)], 2: [(0, 13), (13, 25)], 3: [(0, 9), (9, 18), (18, 25)]}[workers]

    conf = predict_tile(model, tile, spec, map=_sized_map(workers))
    assert planes == bands
    assert [m.size for m in routed] == [(y1 - y0) * w for y0, y1 in bands]
    assert np.array_equal(np.concatenate(routed), expected)
    assert np.array_equal(conf.ravel(), expected.astype(np.float32))
    planes.clear()
    routed.clear()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pooled = predict_tile(model, tile, spec, map=_sized_map(workers, pool.map))
    assert sorted(planes) == bands
    assert sorted(m.size for m in routed) == sorted((y1 - y0) * w for y0, y1 in bands)
    assert pooled.tobytes() == conf.tobytes()
    planes.clear()
    ts = sample_training_pixels([tile], [positives], spec, n_total, seed=4)
    # one band's planes per colour channel
    assert planes == [(y0, y1, (c,)) for c in range(3) for y0, y1 in
                      [(0, sample_rows), (sample_rows, 2 * sample_rows), (2 * sample_rows, h)]]
    assert_bitwise_equal(decode_rows(ts), decode_rows(want))
    assert np.array_equal(ts.labels, want.labels)


def test_predict_tile_builds_the_routing_layout_once(monkeypatch):
    """The forest-wide table of distinct leaf probabilities, the one
    np.unique of routing, is built once per forest, not once per band.

    BAND_PIXELS 4 cuts the 24-row, 4-wide tile into three 8-row bands."""
    rng = np.random.default_rng(26)
    spec = FeatureSpec()
    tile = ImageTile(rng.integers(0, 256, size=(24, 4, 3), dtype=np.uint8), "t")
    X = feature_rows(tile, spec, 0, tile.height).reshape(-1, spec.feature_count)
    y = np.arange(X.shape[0]) % 3 == 0
    rng.shuffle(y)
    trees = _mixed_depth_forest(X, y, spec.fingerprint()).trees
    sizes, unique = [], np.unique

    def counted_unique(a, *args, **kwargs):
        sizes.append(np.size(a))
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(forest_module, "BAND_PIXELS", 4)
    assert len(forest_module._pool_bands(map, tile.height, tile.width)) == 3
    model = RandomForest(trees, spec.feature_count, spec.fingerprint())
    conf = predict_tile(model, tile, spec)
    assert sizes == [sum(int((t.feature < 0).sum()) for t in trees)]
    expected = [scalar_predict(model, x) for x in X]
    assert conf.ravel().tolist() == np.float32(expected).tolist()


def test_forest_router_sends_nan_right():
    """The router's test is value <= threshold -> left, so NaN goes right."""
    rng = np.random.default_rng(22)
    X = rng.uniform(0, 1, size=(240, 3))
    y = X[:, 0] + X[:, 1] > 1.0
    model = _mixed_depth_forest(X, y)
    probe = rng.uniform(0, 1, size=(60, 3))
    probe[rng.random(probe.shape) < 0.3] = np.nan
    P, M = probe.shape
    got = forest_module._mean_leaf_prob(model, probe.ravel(), np.arange(P) * M, np.arange(M))
    assert got.tolist() == [scalar_predict(model, x) for x in probe]


def _hand_tree(nodes):
    """A DecisionTree from ("I", feature, threshold, left, right) and
    ("L", prob) records, node k being nodes[k]."""
    from pvdetect.forest import DecisionTree

    n = len(nodes)
    feature, left, right = (np.full(n, -1, dtype=np.int32) for _ in range(3))
    threshold, prob = np.zeros(n), np.zeros(n)
    for k, node in enumerate(nodes):
        if node[0] == "I":
            feature[k], threshold[k], left[k], right[k] = node[1:]
        else:
            prob[k] = node[1]
    return DecisionTree(feature, threshold, left, right, prob, np.ones(n, dtype=np.int64))


def _chain_tree(thresholds, probs):
    """A chain on feature 0: node 2k tests x <= thresholds[k], its left child
    is a leaf of probs[k] and its right the next test; the last right child
    is a leaf of probs[-1]."""
    nodes = []
    for k, t in enumerate(thresholds):
        nodes += [("I", 0, t, 2 * k + 1, 2 * k + 2), ("L", probs[k])]
    return _hand_tree(nodes + [("L", probs[len(thresholds)])])


class _CountedReads(np.ndarray):
    """Feature values that record how many pixels each take() reads."""

    reads: list = []

    def take(self, indices, *args, **kwargs):
        _CountedReads.reads.append(indices.size)
        return np.asarray(self).take(indices, *args, **kwargs)


def _route_counted(model, X):
    """predict_rows on X, and the pixel count of every feature read."""
    P, M = X.shape
    _CountedReads.reads = []
    values = np.ascontiguousarray(X, dtype=np.float64).ravel().view(_CountedReads)
    means = forest_module._mean_leaf_prob(model, values, np.arange(P) * M, np.arange(M))
    return means, _CountedReads.reads


def test_forest_router_skips_nodes_no_pixel_reaches():
    """An internal node that no pixel reaches is never read; means stay exact.

    Node 1 tests x0 <= 0.7 on pixels with x0 <= 0.5, so its right child,
    internal node 4, receives no pixels.  Node 0 sends NaN right.
    """
    rng = np.random.default_rng(25)
    tree = _hand_tree([
        ("I", 0, 0.5, 1, 2), ("I", 0, 0.7, 3, 4), ("L", 0.875), ("L", 0.125),
        ("I", 1, 0.3, 5, 6), ("L", 0.25), ("L", 0.375),
    ])
    model = RandomForest([tree, _single_leaf_tree(0.5)], 2, "rows")
    X = rng.uniform(0, 1, size=(50, 2))
    X[::7, 0] = np.nan
    means, reads = _route_counted(model, X)
    assert means.tolist() == [scalar_predict(model, x) for x in X]
    assert reads == [50, int(np.count_nonzero(X[:, 0] <= 0.5))]
    # with every pixel right of node 0, node 1 is not read either
    means, reads = _route_counted(model, X[~(X[:, 0] <= 0.5)])
    assert set(means.tolist()) == {(0.5 + 0.875) / 2} and reads == [means.size]


def test_lone_leaf_forest_matches_scalar_oracle():
    """A forest of lone leaves reads no feature, NaN or not, and is exact."""
    rng = np.random.default_rng(26)
    model = RandomForest([_single_leaf_tree(p) for p in (0.7, 0.1, 0.7, 0.3, 0.9)], 2, "rows")
    X = rng.uniform(0, 1, size=(9, 2))
    X[::2, 0] = np.nan
    means, reads = _route_counted(model, X)
    assert means.tolist() == [scalar_predict(model, x) for x in X]
    assert reads == []


def test_forest_router_ranks_wider_than_a_byte():
    """More than 256 distinct leaf probabilities take 16-bit ranks, exactly.

    Six chains of 60 leaves each and a lone leaf hold 361 distinct
    probabilities; a rank kept in 8 bits would wrap and break the means.
    """
    rng = np.random.default_rng(27)
    probs = rng.permutation(np.arange(361) / 360)
    trees = [
        _chain_tree(np.sort(rng.uniform(0, 1, 59)), probs[60 * k : 60 * k + 60])
        for k in range(6)
    ] + [_single_leaf_tree(probs[360])]
    model = RandomForest(trees, 1, "rows")
    leaf_probs = np.concatenate([t.prob[t.feature < 0] for t in trees])
    assert np.unique(leaf_probs).size == 361
    X = rng.uniform(-0.1, 1.1, size=(400, 1))
    X[::13] = np.nan
    assert predict_rows(model, X).tolist() == [scalar_predict(model, x) for x in X]


# ---------------------------------------------------------------------------
# Training-pixel sampling
# ---------------------------------------------------------------------------


def _scene_with_positives(seed):
    params = SceneParams(
        width=64, height=64, n_panels=2, panel_side_min=6, panel_side_max=8,
        panel_gap=8, seed=seed,
    )
    tile, anns = generate_scene(params, f"s{seed}")
    return tile, rasterize(anns, 64, 64)


def test_sample_training_pixels_contract():
    spec = FeatureSpec()
    tiles, positives = zip(*[_scene_with_positives(s) for s in (1, 2)])
    n_pos = sum(p.size for p in positives)
    ts = sample_training_pixels(list(tiles), list(positives), spec, n_pos + 300, seed=0)
    assert ts.codes.shape == (102, n_pos + 300)
    assert ts.codes.dtype == np.uint16 and ts.codes.flags.c_contiguous
    assert decode_rows(ts).shape == (n_pos + 300, 102)
    assert int(ts.labels.sum()) == n_pos
    assert ts.labels[:n_pos].all() and not ts.labels[n_pos:].any()
    # deterministic
    again = sample_training_pixels(list(tiles), list(positives), spec, n_pos + 300, seed=0)
    assert np.array_equal(ts.codes, again.codes)
    assert_bitwise_equal(decode_rows(ts), decode_rows(again))
    other = sample_training_pixels(list(tiles), list(positives), spec, n_pos + 300, seed=1)
    assert not np.array_equal(decode_rows(ts), decode_rows(other))


def test_sample_training_pixels_features_match_extraction(monkeypatch):
    spec = FeatureSpec()
    tile, pos = _scene_with_positives(3)
    n_pos = pos.size
    ts = sample_training_pixels([tile], [pos], spec, n_pos + 50, seed=0)
    assert ts.codes.dtype == np.uint16
    rows = decode_rows(ts)
    fi = feature_rows(tile, spec, 0, tile.height).reshape(tile.height * tile.width, -1)
    assert_bitwise_equal(rows[:n_pos], fi[pos])
    # bands of 13 rows (4 * 13 + 12) give the same rows as one band over the
    # 64-row tile
    monkeypatch.setattr(forest_module, "BAND_PIXELS", 13 * 64)
    banded = sample_training_pixels([tile], [pos], spec, n_pos + 50, seed=0)
    assert_bitwise_equal(rows, decode_rows(banded))
    # negatives are distinct non-PV pixels
    neg_rows = rows[n_pos:]
    all_rows = {tuple(r) for r in np.delete(fi, pos, axis=0)}
    assert all(tuple(r) in all_rows for r in neg_rows)
    assert len({tuple(r) for r in neg_rows}) == 50


def test_sample_training_pixels_holds_one_channel_of_floats():
    """Sampling 20,000 rows of 102 features allocates, at its peak, no more
    than the set it returns (uint16 codes and tables of distinct values),
    one channel's float64 block of 34 columns and a slack of 4 MiB.  The
    slack holds one band's gathered rows with their int64 indices (on these
    512-wide tiles a band is 32 rows, about 2,500 sampled rows or 1.3 MiB),
    the sampler's int64 index arrays, one band's planes and the encoder's
    temporaries.  On pixels of eight levels the tables are small, and the
    bound is below the 15.6 MiB float64 matrix of all 102 columns, which the
    sampler never builds."""
    rng = np.random.default_rng(43)
    spec = FeatureSpec()
    tiles = [ImageTile(32 * rng.integers(0, 8, size=(128, 512, 3), dtype=np.uint8), f"t{i}")
             for i in range(2)]
    positives = [np.flatnonzero(rng.random(128 * 512) < 0.05) for _ in tiles]
    M, N = spec.feature_count, 20_000
    tracemalloc.start()
    try:
        ts = sample_training_pixels(tiles, positives, spec, N, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.codes.shape == (M, N) and ts.codes.dtype == np.uint16
    kept = ts.codes.nbytes + sum(t.nbytes for t in ts.values)
    assert peak < kept + (M // 3) * N * 8 + 4 * 2**20 < M * N * 8


def test_sample_training_pixels_errors():
    spec = FeatureSpec()
    tile, pos = _scene_with_positives(4)
    n_pos = pos.size
    with pytest.raises(ConfigError):
        sample_training_pixels([tile], [pos], spec, n_pos - 1, seed=0)
    with pytest.raises(ConfigError):
        sample_training_pixels([tile], [pos], spec, n_pos, seed=0)
    with pytest.raises(ConfigError):
        sample_training_pixels([tile], [pos, pos], spec, n_pos + 10, seed=0)
    with pytest.raises(DataError):
        sample_training_pixels([tile], [np.append(pos, 64 * 64)], spec, n_pos + 10, seed=0)


def _assert_same_training_set(got, want):
    assert got.codes.dtype == want.codes.dtype and np.array_equal(got.codes, want.codes)
    assert [t.tobytes() for t in got.values] == [t.tobytes() for t in want.values]
    assert np.array_equal(got.labels, want.labels)


def test_sampling_bands_across_tiles_match_the_mask_sampler(monkeypatch):
    """Rows sampled from three tiles of widths 20, 13 and 9, the second
    without positives, equal the mask sampler's bit for bit, on the builtin
    map and on two threads.  BAND_PIXELS 100 makes sampling bands of
    2 * pad = 10 rows on the first two tiles and 12 rows on the third, so
    each tile's rows are written from several bands."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = np.random.default_rng(27)
    spec = FeatureSpec()
    shapes = [(24, 20), (30, 13), (22, 9)]
    tiles = [ImageTile(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8), f"t{i}")
             for i, (h, w) in enumerate(shapes)]
    masks = [rng.random(shape) < 0.2 for shape in shapes]
    masks[1][:] = False
    positives = [np.flatnonzero(m) for m in masks]
    n_total = sum(p.size for p in positives) + 600
    want = mask_training_set(tiles, masks, spec, n_total, seed=7)
    bands = []

    def recorded_planes(tile, spec, y0, y1, channels):
        bands.append((tile.tile_id, y0, y1, channels))
        return feature_planes(tile, spec, y0, y1, channels)

    monkeypatch.setattr(forest_module, "BAND_PIXELS", 100)
    monkeypatch.setattr(forest_module, "feature_planes", recorded_planes)
    for pool in (map, thread_map(2)):
        bands.clear()
        got = sample_training_pixels(tiles, positives, spec, n_total, seed=7, map=pool)
        # each band's planes once per colour channel
        assert sorted(bands) == sorted((tile, y0, y1, (c,)) for c in range(3) for tile, y0, y1 in [
            ("t0", 0, 10), ("t0", 10, 20), ("t0", 20, 24),
            ("t1", 0, 10), ("t1", 10, 20), ("t1", 20, 30),
            ("t2", 0, 12), ("t2", 12, 22),
        ])
        _assert_same_training_set(got, want)


def test_sampling_fills_rows_on_the_calling_thread(monkeypatch):
    """On a 2-thread map, every band's planes are still built on the calling
    thread, channel by channel, tile by tile and band by band; only the
    encoding runs on the pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = FeatureSpec()
    tiles, positives = zip(*[_scene_with_positives(s) for s in (1, 2)])
    calls = []

    def recorded_planes(tile, spec, y0, y1, channels):
        calls.append((threading.get_ident(), channels, tile.tile_id, y0))
        return feature_planes(tile, spec, y0, y1, channels)

    monkeypatch.setattr(forest_module, "BAND_PIXELS", 16 * 64)
    monkeypatch.setattr(forest_module, "feature_planes", recorded_planes)
    sample_training_pixels(list(tiles), list(positives), spec,
                           sum(p.size for p in positives) + 300, seed=0, map=thread_map(2))
    assert calls == [(threading.get_ident(), (c,), tile.tile_id, y0)
                     for c in range(3) for tile in tiles for y0 in range(0, 64, 16)]


@pytest.mark.parametrize("threads", [2, 3])
def test_pooled_row_preparation_matches_serial(monkeypatch, threads):
    """Sampling and encoding through a thread pool's map give the serial
    training set, and every pool thread is joined before they return.

    A 3-thread pool runs on a host made to have three cores.  The encoded
    matrix has 70,000 rows and, in its fifth column, 70,000 distinct values,
    so the codes turn int32 midway; a NaN in a later column raises
    DataError.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pool = thread_map(threads)
    assert pool.workers == threads
    before = threading.active_count()
    spec = FeatureSpec()
    tiles, positives = zip(*[_scene_with_positives(s) for s in (1, 2, 5)])
    n_total = sum(p.size for p in positives) + 2000
    serial = sample_training_pixels(list(tiles), list(positives), spec, n_total, seed=0)
    pooled = sample_training_pixels(list(tiles), list(positives), spec, n_total, seed=0,
                                    map=pool)
    assert threading.active_count() == before
    assert serial.codes.dtype == np.uint16
    _assert_same_training_set(pooled, serial)

    rng = np.random.default_rng(41)
    X = rng.integers(0, 50, size=(9, 70_000)).astype(np.float64)
    X[4] = rng.permutation(70_000) / 7.0
    labels = np.arange(70_000) % 5 == 0
    serial = rows_training_set(X.T, labels)
    pooled = rows_training_set(X.T, labels, map=pool)
    assert threading.active_count() == before
    assert serial.codes.dtype == np.int32 and serial.values[4].size == 70_000
    _assert_same_training_set(pooled, serial)
    X[6, 123] = np.nan
    with pytest.raises(DataError, match="finite"):
        rows_training_set(X.T, labels, map=pool)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

GOLDEN_MODEL = """PVFOREST v1
M 3
T 1
SPEC w3:r2,4
TREE 0 5
I 0 5.3200000000000003 1 2
I 0 3.7549999999999999 3 4
L 1 4
L 0 5
L 0.33333333333333331 3
CHECKSUM 34a26f242a46042d4e326b37cbe004d1ae6d8ac67598241446b35c1970d93863
"""

# leaf probabilities read by walking the golden tree by hand
GOLDEN_PREDICTIONS = [
    ([4.68, 9.65, 8.98], 0.3333333333333333),
    ([0.79, 2.45, 1.85], 0.0),
    ([9.05, 5.54, 3.72], 1.0),
    ([8.34, 3.49, 6.82], 1.0),
    ([2.28, 0.24, 6.96], 0.0),
]


def test_model_roundtrip_byte_identical():
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, size=(150, 4))
    y = X[:, 3] > 0.5
    model = train(rows_training_set(X, y), RFParams(n_trees=4, seed=12), "w3:r2,4")
    blob = dump_model(model)
    again = dump_model(loads_model(blob))
    assert blob == again


def test_golden_model_loads_and_predicts():
    model = loads_model(GOLDEN_MODEL.encode())
    assert model.n_features == 3 and model.n_trees == 1
    assert model.feature_fingerprint == "w3:r2,4"
    for x, want in GOLDEN_PREDICTIONS:
        assert scalar_predict(model, np.array(x)) == want
    batch = predict_rows(model, np.array([x for x, _ in GOLDEN_PREDICTIONS]))
    assert batch.tolist() == [want for _, want in GOLDEN_PREDICTIONS]


def test_model_version_error():
    blob = GOLDEN_MODEL.replace("PVFOREST v1", "PVFOREST v2").encode()
    with pytest.raises(ModelVersionError):
        loads_model(blob)
    with pytest.raises(ModelFormatError):
        loads_model(b"not a model at all\n")


def test_model_checksum_error():
    tampered = GOLDEN_MODEL.replace("L 0 5", "L 1 5").encode()
    with pytest.raises(ModelChecksumError):
        loads_model(tampered)


def test_model_malformed_nodes():
    # child index out of range: recompute the checksum so parsing reaches
    # structural validation
    import hashlib

    body = GOLDEN_MODEL[: GOLDEN_MODEL.index("CHECKSUM")]
    bad_body = body.replace("I 0 5.3200000000000003 1 2", "I 0 5.3200000000000003 1 9")
    digest = hashlib.sha256(bad_body.encode()).hexdigest()
    with pytest.raises(ModelFormatError):
        loads_model((bad_body + f"CHECKSUM {digest}\n").encode())
    # each record below is well sealed, so the parser itself must reject it
    for good, bad in [
        ("L 0 5", "L 0"),
        ("L 0 5", "L nan 5"),  # NaN passes neither p < 0 nor p > 1
        ("L 1 4", "L inf 4"),
        ("TREE 0 5", "TREE zero 5"),
        ("TREE 0 5", "TREE 0 five"),
        ("TREE 0 5", "TREE 0 1000000000000"),  # more nodes than lines
        ("I 0 5.3200000000000003 1 2", "I 99999999999 5.3200000000000003 1 2"),
        ("I 0 5.3200000000000003 1 2", "I -1 5.3200000000000003 1 2"),
        ("I 0 5.3200000000000003 1 2", "I 0 5.3200000000000003 1 2147483648"),  # past int32
        ("L 0 5", "L 0 99999999999999999999999"),
    ]:
        bad_body = body.replace(good, bad)
        assert bad_body != body
        digest = hashlib.sha256(bad_body.encode()).hexdigest()
        with pytest.raises(ModelFormatError):
            loads_model((bad_body + f"CHECKSUM {digest}\n").encode())
