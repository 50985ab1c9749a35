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
from pvdetect.features import FeatureSpec, extract_feature_rows
from pvdetect.forest import (
    RFParams,
    RandomForest,
    TrainingSet,
    best_split,
    dump_model,
    gini,
    grow_tree,
    loads_model,
    predict_batch,
    predict_tile,
    sample_training_pixels,
    train,
)
from pvdetect.imagery import ImageTile
from pvdetect.synth import SceneParams, generate_scene
from pvdetect.imagery import rasterize
from oracles import cart_predict, exhaustive_cart, route_and_read, scalar_predict


def all_features(n):
    return lambda node_id: np.arange(n)


def ten_sample_set():
    X = np.array([[0.0]] * 5 + [[1.0]] * 5)
    y = np.array([False] * 5 + [True] * 5)
    return TrainingSet(X, y)


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
    X = np.arange(10, dtype=float).reshape(-1, 1)
    ts = TrainingSet(np.vstack([X, X]), np.array([True] * 10 + [False] * 10))
    pure = best_split(np.arange(10), [0], ts, min_leaf=1)
    assert pure is None  # first ten rows are all positive


def test_best_split_min_leaf_blocks_all_candidates():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    y = np.array([False] * 5 + [True])
    ts = TrainingSet(X, y)
    assert best_split(np.arange(6), [0], ts, min_leaf=5) is None


def test_best_split_tie_prefers_lowest_feature_and_threshold():
    # two identical columns: feature 0 must win the tie
    col = np.array([0.0, 0.0, 1.0, 1.0])
    ts = TrainingSet(np.column_stack([col, col]), np.array([False, False, True, True]))
    assert best_split(np.arange(4), [1, 0], ts, min_leaf=1) == (0, 0.5)
    # symmetric labels: two thresholds tie, the lower one must win
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([False, True, False])
    ts2 = TrainingSet(X, y)
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
        ts = TrainingSet(X, y)
        got = best_split(np.arange(n), [0, 1, 2], ts, min_leaf=min_leaf)
        oracle = exhaustive_cart(X, y, min_leaf=min_leaf)
        if oracle["leaf"]:
            assert got is None, trial
        else:
            assert got == (oracle["feature"], oracle["threshold"]), trial


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
        ts = TrainingSet(X, y)
        tree = grow_tree(np.arange(n), ts, RFParams(min_leaf=1), all_features(d))
        oracle = exhaustive_cart(X, y, min_leaf=1)
        for row in X:
            assert route_and_read(tree, row) == cart_predict(oracle, row), trial


def test_grow_tree_leaf_counts_respect_min_leaf():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(200, 4))
    y = rng.uniform(0, 1, size=200) < 0.4
    ts = TrainingSet(X, y)
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
    base = grow_tree(np.arange(80), TrainingSet(X, y), params, sampler)
    warped = grow_tree(
        np.arange(80), TrainingSet(np.exp(X), y), params, sampler
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
    model = train(ten_sample_set(), RFParams(n_trees=1, min_leaf=1, seed=1))
    assert scalar_predict(model, np.array([0.0])) == 0.0
    assert scalar_predict(model, np.array([1.0])) == 1.0
    assert predict_batch(model, np.array([[0.0], [1.0]])).tolist() == [0.0, 1.0]


def test_train_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(300, 5))
    y = X[:, 0] > 0.5
    ts = TrainingSet(X, y)
    a = dump_model(train(ts, RFParams(n_trees=5, seed=7)))
    b = dump_model(train(ts, RFParams(n_trees=5, seed=7)))
    c = dump_model(train(ts, RFParams(n_trees=5, seed=8)))
    assert a == b
    assert a != c


def test_train_separable_2d_accuracy():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(1000, 2))
    y = X[:, 0] + X[:, 1] > 0
    model = train(TrainingSet(X[:700], y[:700]), RFParams(n_trees=30, seed=0))
    held_out = predict_batch(model, X[700:]) > 0.5
    assert (held_out == y[700:]).mean() >= 0.95


def test_train_validates_inputs():
    ts = ten_sample_set()
    with pytest.raises(ConfigError):
        train(ts, RFParams(n_trees=1, min_leaf=6))  # N=10 < 2*6
    with pytest.raises(DataError):
        TrainingSet(np.zeros((4, 2)), np.array([True] * 4))
    with pytest.raises(ConfigError):
        RFParams(n_trees=0)
    with pytest.raises(ConfigError):
        train(ts, RFParams(features_per_node=2))  # only 1 feature available


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
    model = train(ten_sample_set(), RFParams(n_trees=1, min_leaf=1, seed=0))
    # constant features cannot split: one leaf carrying the class fraction
    leaf_only = train(
        TrainingSet(np.zeros((6, 1)), np.array([True] * 4 + [False] * 2)),
        RFParams(n_trees=1, min_leaf=3, seed=0),
    )
    assert leaf_only.trees[0].n_nodes == 1
    assert scalar_predict(leaf_only, np.array([123.0])) == leaf_only.trees[0].prob[0]
    assert predict_batch(leaf_only, np.array([[123.0]]))[0] == leaf_only.trees[0].prob[0]
    with pytest.raises(DataError):
        predict_batch(model, np.array([[1.0, 2.0]]))


def test_predict_mean_of_two_trees():
    forest = RandomForest(
        [_single_leaf_tree(0.0), _single_leaf_tree(1.0)], 1, "unspecified"
    )
    assert scalar_predict(forest, np.array([0.0])) == 0.5
    assert predict_batch(forest, np.array([[0.0]]))[0] == 0.5
    single = RandomForest([_single_leaf_tree(0.375)], 1, "unspecified")
    assert scalar_predict(single, np.array([9.0])) == 0.375
    assert predict_batch(single, np.array([[9.0]]))[0] == 0.375


def test_predict_matches_route_and_read_oracle():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, size=(400, 4))
    y = (X[:, 1] > 0.6) | (X[:, 2] < 0.2)
    model = train(TrainingSet(X, y), RFParams(n_trees=7, seed=11))
    probe = rng.uniform(0, 1, size=(50, 4))
    batch = predict_batch(model, probe)
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
    model = train(TrainingSet(X, y), RFParams(n_trees=9, seed=2))
    shuffled = RandomForest(model.trees[::-1], model.n_features, "unspecified")
    probe = rng.uniform(0, 1, size=(40, 3))
    assert np.array_equal(predict_batch(model, probe), predict_batch(shuffled, probe))


def test_predict_batch_matches_scalar_predict_bitwise():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(200, 3))
    y = X[:, 0] + X[:, 2] > 1.0
    model = train(TrainingSet(X, y), RFParams(n_trees=6, seed=4))
    probe = rng.uniform(0, 1, size=(31, 3))
    batch = predict_batch(model, probe)
    for i in range(31):
        assert batch[i] == scalar_predict(model, probe[i])


def test_predict_batch_shape_and_range():
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, size=(200, 102))
    y = X[:, 0] > 0.5
    model = train(TrainingSet(X, y), RFParams(n_trees=3, seed=5))
    feature_image = rng.uniform(0, 1, size=(6, 7, 102))
    conf = predict_batch(model, feature_image.reshape(42, 102))
    assert conf.shape == (42,)
    assert conf.min() >= 0.0 and conf.max() <= 1.0
    for i, row in enumerate(feature_image.reshape(42, 102)):
        assert conf[i] == scalar_predict(model, row)
    with pytest.raises(DataError):
        predict_batch(model, rng.uniform(0, 1, size=(42, 54)))
    with pytest.raises(DataError):
        predict_batch(model, feature_image)


def test_predict_tile_banding_consistency(monkeypatch):
    rng = np.random.default_rng(10)
    tile = ImageTile(rng.integers(0, 256, size=(40, 30, 3), dtype=np.uint8), "t")
    spec = FeatureSpec()
    fi = extract_feature_rows(tile, spec, 0, tile.height)
    X = fi.reshape(-1, 102)
    y = X[:, 0] > np.median(X[:, 0])
    model = train(TrainingSet(X[:600], y[:600]), RFParams(n_trees=3, seed=6))
    whole = predict_batch(model, X).reshape(40, 30)
    # bands of 13 rows: 13 + 13 + 13 + 1
    monkeypatch.setattr(forest_module, "BAND_PIXELS", 13 * 30 + 29)
    banded = predict_tile(model, tile, spec)
    assert np.array_equal(whole, banded)
    with pytest.raises(DataError):
        predict_tile(model, tile, FeatureSpec(ring_radii=(2,)))


# ---------------------------------------------------------------------------
# Training-pixel sampling
# ---------------------------------------------------------------------------


def _scene_with_mask(seed):
    params = SceneParams(
        width=64, height=64, n_panels=2, panel_side_min=6, panel_side_max=8,
        panel_gap=8, seed=seed,
    )
    tile, anns = generate_scene(params, f"s{seed}")
    return tile, rasterize(anns, 64, 64)


def test_sample_training_pixels_contract():
    spec = FeatureSpec()
    tiles, masks = zip(*[_scene_with_mask(s) for s in (1, 2)])
    n_pos = sum(int(m.sum()) for m in masks)
    ts = sample_training_pixels(list(tiles), list(masks), spec, n_pos + 300, seed=0)
    assert ts.features.shape == (n_pos + 300, 102)
    assert int(ts.labels.sum()) == n_pos
    assert ts.labels[:n_pos].all() and not ts.labels[n_pos:].any()
    # deterministic
    again = sample_training_pixels(list(tiles), list(masks), spec, n_pos + 300, seed=0)
    assert np.array_equal(ts.features, again.features)
    other = sample_training_pixels(list(tiles), list(masks), spec, n_pos + 300, seed=1)
    assert not np.array_equal(ts.features, other.features)


def test_sample_training_pixels_features_match_extraction(monkeypatch):
    spec = FeatureSpec()
    tile, mask = _scene_with_mask(3)
    n_pos = int(mask.sum())
    ts = sample_training_pixels([tile], [mask], spec, n_pos + 50, seed=0)
    fi = extract_feature_rows(tile, spec, 0, tile.height)
    ys, xs = np.nonzero(mask)
    assert np.array_equal(ts.features[:n_pos], fi[ys, xs])
    # bands of 5 rows give the same rows as one band over the 64-row tile
    monkeypatch.setattr(forest_module, "BAND_PIXELS", 5 * 64)
    banded = sample_training_pixels([tile], [mask], spec, n_pos + 50, seed=0)
    assert np.array_equal(ts.features, banded.features)
    # negatives are distinct non-PV pixels
    neg_rows = ts.features[n_pos:]
    all_rows = {tuple(r) for r in fi[~mask]}
    assert all(tuple(r) in all_rows for r in neg_rows)
    assert len({tuple(r) for r in neg_rows}) == 50


def test_sample_training_pixels_errors():
    spec = FeatureSpec()
    tile, mask = _scene_with_mask(4)
    n_pos = int(mask.sum())
    with pytest.raises(ConfigError):
        sample_training_pixels([tile], [mask], spec, n_pos - 1, seed=0)
    with pytest.raises(ConfigError):
        sample_training_pixels([tile], [mask], spec, n_pos, seed=0)
    with pytest.raises(DataError):
        sample_training_pixels([tile], [mask[:32]], spec, n_pos + 10, seed=0)


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
    model = train(TrainingSet(X, y), RFParams(n_trees=4, seed=12), "w3:r2,4")
    blob = dump_model(model)
    again = dump_model(loads_model(blob))
    assert blob == again


def test_golden_model_loads_and_predicts():
    model = loads_model(GOLDEN_MODEL.encode())
    assert model.n_features == 3 and model.n_trees == 1
    assert model.feature_fingerprint == "w3:r2,4"
    for x, want in GOLDEN_PREDICTIONS:
        assert scalar_predict(model, np.array(x)) == want
    batch = predict_batch(model, np.array([x for x, _ in GOLDEN_PREDICTIONS]))
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
        ("L 0 5", "L 0 99999999999999999999999"),
    ]:
        bad_body = body.replace(good, bad)
        assert bad_body != body
        digest = hashlib.sha256(bad_body.encode()).hexdigest()
        with pytest.raises(ModelFormatError):
            loads_model((bad_body + f"CHECKSUM {digest}\n").encode())
