"""Random forest pixel classifier: training, inference and serialization.

Trees are grown top-down on bootstrap samples.  Each node draws a random
subset of features, evaluates candidate thresholds at midpoints between
consecutive distinct values, and keeps the split with the largest Gini
decrease, subject to both children holding at least min_leaf samples.
Nodes where no candidate strictly decreases impurity become leaves whose
probability is the positive fraction of their samples.

Randomness is counter-based (see rng): the bootstrap of tree t and the
feature subset of node k depend only on (seed, t, k), so training is a
pure function of (training set, params) regardless of thread schedule.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InputError,
    ModelChecksumError,
    ModelFormatError,
    ModelVersionError,
)
from .features import BAND_PIXELS, FeatureSpec, extract_feature_rows
from .imagery import ImageTile
from .rng import Stream, counter_u64

_MODEL_HEADER = "PVFOREST v1"


@dataclass(frozen=True)
class RFParams:
    """Forest hyperparameters.

    features_per_node=None means the conventional floor(sqrt(M)), resolved
    when the feature count is known at training time.
    """

    n_trees: int = 30
    features_per_node: int | None = None
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.features_per_node is not None and self.features_per_node < 1:
            raise ConfigError("features_per_node must be >= 1 or None")
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")

    def resolve_m(self, n_features: int) -> int:
        m = self.features_per_node
        if m is None:
            m = int(math.floor(math.sqrt(n_features)))
        if not 1 <= m <= n_features:
            raise ConfigError(
                f"features_per_node {m} out of range for {n_features} features"
            )
        return m


@dataclass(frozen=True)
class TrainingSet:
    """Feature matrix plus boolean labels (True = PV pixel)."""

    features: np.ndarray  # (N, M) float64
    labels: np.ndarray  # (N,) bool

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=bool)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataError(
                f"features {X.shape} and labels {y.shape} are inconsistent"
            )
        if not np.isfinite(X).all():
            raise DataError("training features must be finite")
        n_pos = int(y.sum())
        if n_pos == 0 or n_pos == y.size:
            raise DataError("training set must contain both classes")
        object.__setattr__(self, "_columns", None)

    @property
    def columns(self) -> np.ndarray:
        """Transposed feature matrix, cached for fast per-feature gathers."""
        if self._columns is None:
            object.__setattr__(
                self, "_columns", np.ascontiguousarray(self.features.T)
            )
        return self._columns


def gini(n_pos: int, n_neg: int) -> float:
    """Gini impurity 1 - p_pos**2 - p_neg**2 of a two-class node."""
    n = n_pos + n_neg
    if n < 1:
        raise ValueError("gini of an empty node is undefined")
    p = n_pos / n
    q = n_neg / n
    return 1.0 - p * p - q * q


def best_split(
    sample_indices: np.ndarray,
    feature_subset,
    training_set: TrainingSet,
    min_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) by Gini decrease, or None.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values.  Splits leaving a child below min_leaf are rejected, as are
    splits without strictly positive decrease.  Ties resolve to the lowest
    feature index, then the lowest threshold.
    """
    columns = training_set.columns
    idx = np.asarray(sample_indices, dtype=np.int64)
    n = idx.size
    if n < 2 * min_leaf:
        return None
    labels = training_set.labels[idx]
    total_pos = int(labels.sum())
    parent = gini(total_pos, n - total_pos)
    best: tuple[int, float] | None = None
    best_dec = 0.0
    k = np.arange(1, n)
    size_ok = (k >= min_leaf) & (n - k >= min_leaf)
    for f in sorted(int(f) for f in feature_subset):
        col = columns[f][idx]
        # candidate statistics only depend on which samples fall on each
        # side of a distinct-value boundary, so tie order is irrelevant
        # and the default (unstable) sort is safe
        order = np.argsort(col)
        v = col[order]
        valid = size_ok & (v[1:] > v[:-1])
        if not valid.any():
            continue
        pos_prefix = np.cumsum(labels[order])
        kk = k[valid]
        n_left = kk.astype(np.float64)
        n_right = n - n_left
        pos_left = pos_prefix[kk - 1].astype(np.float64)
        pos_right = total_pos - pos_left
        pl = pos_left / n_left
        ql = (n_left - pos_left) / n_left
        pr = pos_right / n_right
        qr = (n_right - pos_right) / n_right
        gini_left = 1.0 - pl * pl - ql * ql
        gini_right = 1.0 - pr * pr - qr * qr
        decrease = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        j = int(np.argmax(decrease))  # first max = lowest threshold
        if decrease[j] > best_dec:
            best_dec = float(decrease[j])
            kj = int(kk[j])
            best = (f, (float(v[kj - 1]) + float(v[kj])) / 2.0)
    return best


@dataclass
class DecisionTree:
    """A CART tree in flat-array form; routing is value <= threshold -> left."""

    feature: np.ndarray  # int32, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray  # int32, -1 at leaves
    right: np.ndarray  # int32, -1 at leaves
    prob: np.ndarray  # float64, PV probability at leaves
    count: np.ndarray  # int64, training samples that reached the node

    def __post_init__(self):
        self.validate()

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def validate(self) -> None:
        n = self.n_nodes
        arrays = (self.feature, self.threshold, self.left, self.right, self.prob, self.count)
        if n < 1 or any(a.shape != (n,) for a in arrays):
            raise ModelFormatError("tree arrays are empty or inconsistent")
        internal = self.feature >= 0
        children = np.concatenate([self.left[internal], self.right[internal]])
        if children.size != n - 1:
            raise ModelFormatError("tree node/edge count mismatch")
        if children.size:
            if children.min() < 1 or children.max() >= n:
                raise ModelFormatError("tree child index out of range")
            if np.unique(children).size != children.size:
                raise ModelFormatError("tree node has multiple parents")
        leaves = ~internal
        if (self.count[leaves] < 1).any():
            raise ModelFormatError("leaf with empty training count")
        # written so that NaN fails the test too
        if not ((self.prob[leaves] >= 0.0) & (self.prob[leaves] <= 1.0)).all():
            raise ModelFormatError("leaf probability outside [0, 1]")
        if not np.isfinite(self.threshold[internal]).all():
            raise ModelFormatError("non-finite split threshold")

    def route_batch(self, X: np.ndarray) -> np.ndarray:
        """Leaf probabilities for an (P, M) matrix of feature vectors."""
        node = np.zeros(X.shape[0], dtype=np.int32)
        while True:
            f = self.feature[node]
            active = np.nonzero(f >= 0)[0]
            if active.size == 0:
                return self.prob[node]
            cur = node[active]
            go_left = X[active, f[active]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])


def grow_tree(
    bootstrap_indices: np.ndarray,
    training_set: TrainingSet,
    params: RFParams,
    feature_sampler,
) -> DecisionTree:
    """Grow one tree top-down from a bootstrap sample.

    feature_sampler(node_id) must return the candidate feature indices for
    that node; node ids are assigned in creation order starting at the
    root, deterministically for fixed inputs.
    """
    idx0 = np.asarray(bootstrap_indices, dtype=np.int64)
    if idx0.size == 0:
        raise DataError("bootstrap sample is empty")
    columns = training_set.columns
    y = training_set.labels
    min_leaf = params.min_leaf

    feature, threshold = [], []
    left, right = [], []
    prob, count = [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(0.0)
        count.append(0)
        return len(feature) - 1

    stack = [(new_node(), idx0)]
    while stack:
        node_id, idx = stack.pop()
        labels = y[idx]
        n = idx.size
        n_pos = int(labels.sum())
        count[node_id] = n
        split = None
        if n >= 2 * min_leaf and 0 < n_pos < n:
            split = best_split(idx, feature_sampler(node_id), training_set, min_leaf)
        if split is None:
            prob[node_id] = n_pos / n
            continue
        f, thr = split
        feature[node_id] = f
        threshold[node_id] = thr
        go_left = columns[f][idx] <= thr
        left_id, right_id = new_node(), new_node()
        left[node_id], right[node_id] = left_id, right_id
        stack.append((right_id, idx[~go_left]))
        stack.append((left_id, idx[go_left]))

    return DecisionTree(
        np.array(feature, dtype=np.int32),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(prob, dtype=np.float64),
        np.array(count, dtype=np.int64),
    )


@dataclass
class RandomForest:
    """An ensemble of trees over a fixed-width feature space."""

    trees: list[DecisionTree] = field(default_factory=list)
    n_features: int = 0
    feature_fingerprint: str = "unspecified"

    def __post_init__(self):
        if not self.trees:
            raise ModelFormatError("forest must contain at least one tree")
        for tree in self.trees:
            internal = tree.feature >= 0
            if internal.any() and tree.feature[internal].max() >= self.n_features:
                raise ModelFormatError("tree references feature beyond n_features")

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _node_feature_sampler(node_seed: int, n_features: int, m: int):
    """Counter-based per-node sampler of m distinct feature indices."""

    def sampler(node_id: int) -> np.ndarray:
        return Stream(counter_u64(node_seed, node_id)).sample_without_replacement(
            n_features, m
        )

    return sampler


def train(
    training_set: TrainingSet, params: RFParams, feature_fingerprint: str = "unspecified"
) -> RandomForest:
    """Train a forest; a pure function of (training_set, params).

    Tree t derives its seed as counter_u64(params.seed, t); its bootstrap
    indices and per-node feature subsets come from counters under that
    seed, so trees may be grown in any order or in parallel with identical
    results.
    """
    N, M = training_set.features.shape
    m = params.resolve_m(M)
    if N < 2 * params.min_leaf:
        raise ConfigError(
            f"training set of {N} rows cannot satisfy min_leaf={params.min_leaf}"
        )
    trees = []
    for t in range(params.n_trees):
        tree_seed = counter_u64(params.seed, t)
        bootstrap = Stream(counter_u64(tree_seed, 0)).integers(N, N)
        sampler = _node_feature_sampler(counter_u64(tree_seed, 1), M, m)
        trees.append(grow_tree(bootstrap, training_set, params, sampler))
    return RandomForest(trees, M, feature_fingerprint)


def predict_batch(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """Mean leaf probability across trees for each row of a (P, M) matrix.

    Each row's probabilities are sorted before accumulation, so the result
    is exactly invariant under permutation of the trees.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise DataError(
            f"feature matrix of shape {X.shape}, forest expects M={forest.n_features}"
        )
    probs = np.empty((X.shape[0], forest.n_trees))
    for t, tree in enumerate(forest.trees):
        probs[:, t] = tree.route_batch(X)
    probs.sort(axis=1)
    acc = np.zeros(X.shape[0])
    for t in range(forest.n_trees):
        acc += probs[:, t]
    return acc / forest.n_trees


def predict_tile(
    forest: RandomForest,
    tile: ImageTile,
    spec: FeatureSpec,
) -> np.ndarray:
    """Confidence map for a tile, extracting features in row bands.

    A band holds about BAND_PIXELS pixels, so memory stays flat at any tile
    size; banding is bit-identical to whole-tile extraction.
    """
    if spec.feature_count != forest.n_features:
        raise DataError(
            f"feature spec yields {spec.feature_count} features, "
            f"forest expects {forest.n_features}"
        )
    if forest.feature_fingerprint not in ("unspecified", spec.fingerprint()):
        raise DataError(
            f"forest was trained for features {forest.feature_fingerprint!r}, "
            f"not {spec.fingerprint()!r}"
        )
    out = np.empty((tile.height, tile.width))
    rows = max(1, BAND_PIXELS // tile.width)
    for y0 in range(0, tile.height, rows):
        y1 = min(y0 + rows, tile.height)
        band = extract_feature_rows(tile, spec, y0, y1)
        flat = band.reshape(-1, band.shape[2])
        out[y0:y1] = predict_batch(forest, flat).reshape(y1 - y0, tile.width)
    return out


def sample_training_pixels(
    tiles: list[ImageTile],
    masks: list[np.ndarray],
    spec: FeatureSpec,
    n_total: int,
    seed: int,
) -> TrainingSet:
    """Build a training set: every positive pixel plus sampled negatives.

    All PV pixels are included once, in (tile, row-major) order; the
    remaining n_total - n_positive rows are negatives drawn uniformly
    without replacement from the pooled non-PV pixels of all tiles,
    deterministically for a given seed.
    """
    if len(tiles) != len(masks) or not tiles:
        raise ConfigError("need one label mask per tile")
    for tile, mask in zip(tiles, masks):
        if mask.shape != (tile.height, tile.width):
            raise DataError(
                f"mask {mask.shape} does not match tile "
                f"{(tile.height, tile.width)} for {tile.tile_id!r}"
            )
    neg_counts = [int((~m).sum()) for m in masks]
    n_pos = sum(int(m.sum()) for m in masks)
    total_neg = sum(neg_counts)
    if n_total < n_pos:
        raise ConfigError(f"n_total={n_total} below the {n_pos} positive pixels")
    n_neg = n_total - n_pos
    if n_neg == 0:
        raise ConfigError("n_total leaves no room for negative examples")
    if n_neg > total_neg:
        raise ConfigError(f"only {total_neg} negative pixels available, need {n_neg}")

    draws = Stream(seed).sample_without_replacement(total_neg, n_neg)
    bounds = np.cumsum([0] + neg_counts)
    draw_tile = np.searchsorted(bounds, draws, side="right") - 1

    X = np.empty((n_total, spec.feature_count))
    labels = np.zeros(n_total, dtype=bool)
    labels[:n_pos] = True
    pos_starts = np.cumsum([0] + [int(m.sum()) for m in masks])
    for t, (tile, mask) in enumerate(zip(tiles, masks)):
        pos_y, pos_x = np.nonzero(mask)  # row-major order
        sel = np.nonzero(draw_tile == t)[0]
        neg_flat = np.nonzero(~mask.ravel())[0][draws[sel] - bounds[t]]
        neg_y, neg_x = np.divmod(neg_flat, mask.shape[1])
        ys = np.concatenate([pos_y, neg_y])
        xs = np.concatenate([pos_x, neg_x])
        out_rows = np.concatenate(
            [np.arange(pos_starts[t], pos_starts[t + 1]), n_pos + sel]
        )
        if ys.size == 0:
            continue
        order = np.argsort(ys, kind="stable")
        ys, xs, out_rows = ys[order], xs[order], out_rows[order]
        rows = max(1, BAND_PIXELS // tile.width)
        i = 0
        while i < ys.size:
            y0 = int(ys[i])
            y1 = min(y0 + rows, tile.height)
            feats = extract_feature_rows(tile, spec, y0, y1)
            j = int(np.searchsorted(ys, y1, side="left"))
            X[out_rows[i:j]] = feats[ys[i:j] - y0, xs[i:j]]
            i = j
    return TrainingSet(X, labels)


# ---------------------------------------------------------------------------
# Serialization: a line-oriented versioned text format with a checksum
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".17g")


def dump_model(forest: RandomForest) -> bytes:
    """Serialize a forest to its canonical byte representation."""
    lines = [
        _MODEL_HEADER,
        f"M {forest.n_features}",
        f"T {forest.n_trees}",
        f"SPEC {forest.feature_fingerprint}",
    ]
    for i, tree in enumerate(forest.trees):
        lines.append(f"TREE {i} {tree.n_nodes}")
        for k in range(tree.n_nodes):
            if tree.feature[k] >= 0:
                lines.append(
                    f"I {tree.feature[k]} {_fmt(tree.threshold[k])} "
                    f"{tree.left[k]} {tree.right[k]}"
                )
            else:
                lines.append(f"L {_fmt(tree.prob[k])} {tree.count[k]}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (body + f"CHECKSUM {digest}\n").encode("utf-8")


def save_model(forest: RandomForest, path) -> None:
    from pathlib import Path

    Path(path).write_bytes(dump_model(forest))


def _parse_tree(lines: list[str], start: int, n_nodes: int) -> tuple[DecisionTree, int]:
    feature = np.full(n_nodes, -1, dtype=np.int32)
    threshold = np.zeros(n_nodes, dtype=np.float64)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    prob = np.zeros(n_nodes, dtype=np.float64)
    count = np.zeros(n_nodes, dtype=np.int64)
    for k in range(n_nodes):
        if start + k >= len(lines):
            raise ModelFormatError("unexpected end of node records")
        parts = lines[start + k].split()
        try:
            if parts[0] == "I" and len(parts) == 5:
                feature[k] = int(parts[1])
                threshold[k] = float(parts[2])
                left[k] = int(parts[3])
                right[k] = int(parts[4])
                if feature[k] < 0:
                    raise ValueError("negative feature index")
            elif parts[0] == "L" and len(parts) == 3:
                prob[k] = float(parts[1])
                count[k] = int(parts[2])
            else:
                raise ValueError(f"bad node record {parts!r}")
        except (ValueError, IndexError, OverflowError) as exc:
            raise ModelFormatError(f"malformed node line {start + k + 1}: {exc}") from None
    return DecisionTree(feature, threshold, left, right, prob, count), start + n_nodes


def loads_model(data: bytes) -> RandomForest:
    """Parse and validate a serialized forest."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model is not UTF-8: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty model file")
    if lines[0] != _MODEL_HEADER:
        if lines[0].startswith("PVFOREST"):
            raise ModelVersionError(f"unsupported model version {lines[0]!r}")
        raise ModelFormatError(f"not a forest model (header {lines[0]!r})")
    if not lines[-1].startswith("CHECKSUM "):
        raise ModelFormatError("missing trailing checksum")
    stated = lines[-1].split(" ", 1)[1].strip()
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if stated != digest:
        raise ModelChecksumError(f"checksum mismatch: stated {stated}, actual {digest}")

    def header_int(line: str, key: str) -> int:
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ModelFormatError(f"expected '{key} <int>', got {line!r}")
        return int(parts[1])

    try:
        m = header_int(lines[1], "M")
        t = header_int(lines[2], "T")
    except (IndexError, ValueError) as exc:
        raise ModelFormatError(f"bad model header: {exc}") from None
    if len(lines) < 4 or not lines[3].startswith("SPEC "):
        raise ModelFormatError("missing SPEC header line")
    fingerprint = lines[3][5:].strip()
    trees = []
    pos = 4
    for i in range(t):
        if pos >= len(lines) - 1:
            raise ModelFormatError(f"expected {t} trees, found {i}")
        parts = lines[pos].split()
        if len(parts) != 3 or parts[0] != "TREE":
            raise ModelFormatError(f"expected TREE record, got {lines[pos]!r}")
        try:
            label, n_nodes = int(parts[1]), int(parts[2])
        except ValueError:
            raise ModelFormatError(f"bad TREE record {lines[pos]!r}") from None
        if label != i:
            raise ModelFormatError(f"tree {i} labeled {parts[1]}")
        # bounded by the lines present, so a bad count allocates nothing large
        if not 1 <= n_nodes <= len(lines) - 2 - pos:
            raise ModelFormatError(f"tree {i} declares {n_nodes} nodes")
        tree, pos = _parse_tree(lines, pos + 1, n_nodes)
        trees.append(tree)
    if pos != len(lines) - 1:
        raise ModelFormatError(f"{len(lines) - 1 - pos} unexpected trailing lines")
    return RandomForest(trees, m, fingerprint)


def load_model(path) -> RandomForest:
    from pathlib import Path

    path = Path(path)
    if not path.is_file():
        raise InputError(f"model not found: {path}")
    return loads_model(path.read_bytes())
