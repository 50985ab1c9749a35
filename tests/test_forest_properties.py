"""Property tests of the forest router and of the model format."""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from pvdetect.errors import PVDetectError
from pvdetect.forest import RFParams, RandomForest, dump_model, grow_tree, loads_model
from oracles import predict_rows, rows_training_set, scalar_predict

# few distinct values, so grown trees split on ties and adjacent values
_VALUES = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0])


@st.composite
def forests_and_probes(draw):
    n_rows = draw(st.integers(8, 40))
    n_features = draw(st.integers(1, 4))
    X = np.array(
        draw(st.lists(_VALUES, min_size=n_rows * n_features, max_size=n_rows * n_features))
    ).reshape(n_rows, n_features)
    y = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    y[0], y[1] = True, False  # TrainingSet needs both classes
    ts = rows_training_set(X, y)
    trees = []
    for _ in range(draw(st.integers(1, 5))):
        rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows)))
        subset = np.array(
            draw(st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features,
                          unique=True))
        )
        params = RFParams(min_leaf=draw(st.integers(1, 3)))
        trees.append(grow_tree(rows, ts, params, lambda node_id: subset))
    forest = RandomForest(trees, n_features, "rows")
    # probe values: every threshold exactly, both zeros, and the data's values
    thresholds = sorted({float(t) for tree in trees for t in tree.threshold[tree.feature >= 0]})
    pool = st.sampled_from(thresholds + [-0.0, 0.0] + X.ravel().tolist())
    n_probes = draw(st.integers(1, 12))
    probes = np.array(
        draw(st.lists(pool, min_size=n_probes * n_features, max_size=n_probes * n_features))
    ).reshape(n_probes, n_features)
    return forest, probes


@settings(derandomize=True, max_examples=150, deadline=None)
@given(forests_and_probes())
def test_row_routing_matches_scalar_predict(case):
    forest, probes = case
    got = predict_rows(forest, probes)
    assert got.tolist() == [scalar_predict(forest, x) for x in probes]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(forests_and_probes())
def test_grown_forests_round_trip_the_model_format(case):
    """Every written field of every grown forest reads back bit for bit."""
    forest, _ = case
    blob = dump_model(forest)
    again = loads_model(blob)
    assert dump_model(again) == blob
    assert (again.n_features, again.feature_fingerprint) == (forest.n_features, "rows")
    for a, b in zip(forest.trees, again.trees, strict=True):
        leaf = a.feature < 0
        for name in ("feature", "left", "right"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.count[leaf], b.count[leaf])
        assert np.array_equal(a.prob[leaf].view(np.uint64), b.prob[leaf].view(np.uint64))
        assert np.array_equal(a.threshold[~leaf].view(np.uint64), b.threshold[~leaf].view(np.uint64))


def _signed(body: bytes) -> bytes:
    """body with the checksum line loads_model expects after it."""
    return body + b"CHECKSUM " + hashlib.sha256(body).hexdigest().encode() + b"\n"


# a grown two-split tree, as dump_model writes it, without its checksum line
_VALID_BODY = (
    b"PVFOREST v1\nM 2\nT 1\nSPEC w3:r2,4\nTREE 0 5\n"
    b"I 0 1.5 1 2\nL 1 2\nI 1 0.25 3 4\nL 1 1\nL 0 3\n"
)
# bytes that the parser treats specially, or that make numbers odd
_MODEL_BYTES = st.sampled_from(
    [b" ", b"\n", b"\r", b"-", b".", b"e", b"9", b"0", b"nan", b"inf", b"I", b"L",
     b"TREE", b"\xff", b"\x00", b"1e400", b"99999999999999999999"]
)
_MODEL_TEXT = st.text("0123456789 .-+eE\n", max_size=6).map(str.encode)


@st.composite
def mutated_models(draw):
    """A valid model body with a few spliced, dropped or repeated pieces, re-signed."""
    body = _VALID_BODY
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(body)))
        j = draw(st.integers(i, min(len(body), i + 12)))
        piece = draw(_MODEL_BYTES | _MODEL_TEXT | st.just(body[i:j] * 2))
        body = body[:i] + piece + body[j:]
    return _signed(body)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.binary() | mutated_models())
def test_loads_model_fuzz(data):
    """Arbitrary bytes, and re-signed mutations of a valid model, load or
    raise a PVDetectError; whatever loads writes back to a model that loads."""
    try:
        forest = loads_model(data)
    except PVDetectError:
        return
    assert loads_model(dump_model(forest)).n_trees == forest.n_trees
