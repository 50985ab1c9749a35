"""Property test of the forest router against the scalar oracle."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pvdetect.forest import RFParams, RandomForest, TrainingSet, grow_tree, predict_batch
from oracles import scalar_predict

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
    ts = TrainingSet(X, y)
    trees = []
    for _ in range(draw(st.integers(1, 5))):
        rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=n_rows)))
        subset = np.array(
            draw(st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features,
                          unique=True))
        )
        params = RFParams(min_leaf=draw(st.integers(1, 3)))
        trees.append(grow_tree(rows, ts, params, lambda node_id: subset))
    forest = RandomForest(trees, n_features, "unspecified")
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
def test_predict_batch_matches_scalar_predict(case):
    forest, probes = case
    got = predict_batch(forest, probes)
    assert got.tolist() == [scalar_predict(forest, x) for x in probes]
