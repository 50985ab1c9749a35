"""Random forest pixel classifier: training, inference and serialization.

Trees are grown top-down on bootstrap samples.  Each node draws a random
subset of features, evaluates candidate thresholds at midpoints between
consecutive distinct values, and keeps the split with the largest Gini
decrease, subject to both children holding at least min_leaf samples.
Nodes where no candidate strictly decreases impurity become leaves whose
probability is the positive fraction of their samples.

Training never sorts floats per node.  The training set holds each feature
column once as ranks into its sorted distinct values (TrainingSet), and
split search counts samples and positives per rank (best_split): the same
integer counts, and so the same splits, as sorting the node's values would
give.  Only the chosen boundary is read back as a float threshold.

Inference routes all trees at once: (tree, pixel) pairs advance level by
level through one flat table of the forest's nodes (_mean_leaf_prob).

Randomness is counter-based (see rng): the bootstrap of tree t and the
feature subset of node k depend only on (seed, t, k), so training is a
pure function of (training set, params) however the trees are spread over
workers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ModelChecksumError,
    ModelFormatError,
    ModelVersionError,
)
from .features import BAND_PIXELS, FeatureSpec, feature_planes
from .imagery import ImageTile, read_input, write_atomic
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


class TrainingSet:
    """Training rows as per-column rank codes, plus labels (True = PV pixel).

    Built by taking over an (M, N) float64 matrix, one column of N rows per
    feature: each column is encoded once as ranks into its sorted distinct
    values.  values[f] is column f's table of distinct values and codes[f]
    its (N,) ranks, so values[f][codes[f]] is the column again, exactly.
    codes is one C-contiguous (M, N) array, uint16 when no column has more
    than 65,536 distinct values and int32 otherwise.  Split search and child
    partitions work on the codes; only thresholds read the tables.

    The codes are written over the matrix as it is read, and its memory
    then shrinks to theirs, so the floats and the codes are never held at
    once.  The matrix must be C-contiguous and own its memory, and is
    unusable afterwards.
    """

    def __init__(self, columns: np.ndarray, labels: np.ndarray):
        if not (
            isinstance(columns, np.ndarray) and columns.ndim == 2 and columns.dtype == np.float64
            and columns.flags.c_contiguous and columns.flags.owndata
        ):
            raise DataError("training features must be a 2-D float64 C-contiguous "
                            "matrix that owns its memory")
        M, N = columns.shape
        y = np.asarray(labels, dtype=bool)
        if y.shape != (N,):
            raise DataError(f"features {(N, M)} and labels {y.shape} are inconsistent")
        n_pos = int(y.sum())
        if n_pos == 0 or n_pos == N:
            raise DataError("training set must contain both classes")
        # column f's codes take bytes [2fN, 2fN + 2N): inside columns already
        # read, since column f itself starts at byte 8fN
        codes = columns.reshape(-1).view(np.uint16)[: M * N].reshape(M, N)
        values = []
        for f in range(M):
            table, inverse = np.unique(columns[f], return_inverse=True)
            # sorted, so an infinity or NaN sits at one end of the table
            if not (np.isfinite(table[0]) and np.isfinite(table[-1])):
                raise DataError("training features must be finite")
            if table.size > 1 << 16 and codes.dtype == np.uint16:
                codes = codes.astype(np.int32)
            codes[f] = inverse
            values.append(table)
        if codes.dtype == np.uint16:
            columns.resize(-(-M * N // 4), refcheck=False)
            codes = columns.view(np.uint16)[: M * N].reshape(M, N)
        self.codes = codes
        self.values = tuple(values)
        self.labels = y


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
    values, or the lower value where the midpoint is not below the upper
    one.  Splits leaving a child below min_leaf are rejected, as are
    splits without strictly positive decrease.  Ties resolve to the lowest
    feature index, then the lowest threshold.

    The search is exact, on integer counts per distinct value.  Features go
    in groups of BAND_PIXELS // n (at least one).  A group's samples become
    keys (offset + code) << 1 | label, the offset giving each feature its
    own range of bins; one bincount of the keys, or one sort when the keys
    are far fewer than the bins, yields the (n_left, pos_left) of every
    candidate of the group at once.
    """
    idx = np.asarray(sample_indices, dtype=np.int64)
    n = idx.size
    if n < 2 * min_leaf:
        return None
    labels = training_set.labels[idx]
    total_pos = int(labels.sum())
    parent = gini(total_pos, n - total_pos)
    codes, values = training_set.codes, training_set.values
    features = np.array(sorted(int(f) for f in feature_subset), dtype=np.intp)
    group_size = max(1, BAND_PIXELS // n)
    best: tuple[int, float] | None = None
    best_dec = 0.0
    for g in range(0, features.size, group_size):
        group = features[g : g + group_size]
        sizes = np.array([values[f].size for f in group])
        offsets = np.cumsum(sizes) - sizes
        keys = codes.reshape(-1).take(group[:, None] * codes.shape[1] + idx)
        keys = keys.astype(np.int64)
        keys += offsets[:, None]
        keys <<= 1
        keys |= labels
        keys = keys.ravel()
        if 4 * keys.size < sizes.sum():
            keys.sort()
            ends = np.append(np.flatnonzero(np.diff(keys >> 1)), keys.size - 1)
            bins = keys[ends] >> 1
            cum_n = ends + 1
            cum_pos = np.cumsum(keys & 1)[ends]
        else:
            hist = np.bincount(keys, minlength=2 * int(sizes.sum())).reshape(-1, 2)
            per_bin = hist[:, 0] + hist[:, 1]
            bins = np.flatnonzero(per_bin != 0)
            cum_n = np.cumsum(per_bin[bins])
            cum_pos = np.cumsum(hist[bins, 1])
        # bins holds the group's nonempty bins in order; the n samples of
        # the group's j-th feature take cum_n through (j*n, (j+1)*n], and
        # n_left < n marks a boundary before the same feature's next bin
        j = (cum_n - 1) // n
        n_left_int = cum_n - j * n
        cand = np.flatnonzero((n_left_int >= min_leaf) & (n_left_int <= n - min_leaf))
        if not cand.size:
            continue
        n_left = n_left_int[cand].astype(np.float64)
        n_right = n - n_left
        pos_left = (cum_pos[cand] - j[cand] * total_pos).astype(np.float64)
        pos_right = total_pos - pos_left
        pl = pos_left / n_left
        ql = (n_left - pos_left) / n_left
        pr = pos_right / n_right
        qr = (n_right - pos_right) / n_right
        gini_left = 1.0 - pl * pl - ql * ql
        gini_right = 1.0 - pr * pr - qr * qr
        decrease = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        k = int(np.argmax(decrease))  # first max = lowest feature, then threshold
        if decrease[k] > best_dec:
            best_dec = float(decrease[k])
            c, jc = int(cand[k]), int(j[cand[k]])
            f = int(group[jc])
            table = values[f]
            lo = float(table[bins[c] - offsets[jc]])
            hi = float(table[bins[c + 1] - offsets[jc]])
            # the midpoint of two adjacent floats can round up to hi, and of
            # two huge ones overflow; either would send every row left
            mid = (lo + hi) / 2.0
            best = (f, mid if mid < hi else lo)
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

    @property
    def depth(self) -> int:
        """Edges on the longest root-to-leaf path; 0 for a lone leaf."""
        depth, level = -1, np.zeros(1, dtype=np.intp)
        while level.size:
            level = level[self.feature[level] >= 0]
            level = np.concatenate([self.left[level], self.right[level]])
            depth += 1
        return depth

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
    codes, values = training_set.codes, training_set.values
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
        # value <= thr, on ranks
        go_left = codes[f][idx] <= np.searchsorted(values[f], thr, side="right") - 1
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


def train(
    training_set: TrainingSet,
    params: RFParams,
    feature_fingerprint: str = "unspecified",
    map=map,
) -> RandomForest:
    """Train a forest; a pure function of (training_set, params).

    Tree t derives its seed as counter_u64(params.seed, t); its bootstrap
    indices and per-node feature subsets come from counters under that
    seed, so trees may be grown in any order or in parallel with identical
    results.  Trees are grown through map(grow, range(n_trees)), which must
    return them in order; a map over forked processes (cli.fork_map) hands
    them the grow closure and the training set through fork, unpickled.
    """
    M, N = training_set.codes.shape
    m = params.resolve_m(M)
    if N < 2 * params.min_leaf:
        raise ConfigError(
            f"training set of {N} rows cannot satisfy min_leaf={params.min_leaf}"
        )

    def grow(t: int) -> DecisionTree:
        tree_seed = counter_u64(params.seed, t)
        bootstrap = Stream(counter_u64(tree_seed, 0)).integers(N, N)
        node_seed = counter_u64(tree_seed, 1)

        def sampler(node_id: int) -> np.ndarray:
            return Stream(counter_u64(node_seed, node_id)).sample_without_replacement(M, m)

        return grow_tree(bootstrap, training_set, params, sampler)

    return RandomForest(list(map(grow, range(params.n_trees))), M, feature_fingerprint)


def _mean_leaf_prob(
    forest: RandomForest, values: np.ndarray, base: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Mean leaf probability across trees of each pixel b of base.

    Feature f of pixel b is values[b + offsets[f]].  (tree, pixel) pairs
    advance level by level through one flat node table of all trees.  A
    leaf is its own child; pairs at leaves are written out and dropped once
    they are a quarter of those left.  Trees go in groups that keep routing
    state near 8 * BAND_PIXELS pairs.  Each pixel's probabilities are
    sorted, then added left to right by cumsum, so the result is exactly
    invariant under permutation of the trees.
    """
    trees = forest.trees
    T, P = len(trees), base.size
    first = np.cumsum([0] + [tree.n_nodes for tree in trees])[:-1]
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    prob = np.concatenate([tree.prob for tree in trees])
    leaf = feature < 0
    # node k goes on to child[2k + goes_right]; a leaf goes on to itself
    kids = np.concatenate([np.stack([t.left, t.right], 1) + k for t, k in zip(trees, first)])
    child = np.where(leaf[:, None], np.arange(leaf.size)[:, None], kids).ravel()
    inner = np.flatnonzero(~leaf)
    at_node = np.zeros(leaf.size, dtype=np.intp)
    at_node[inner] = offsets[feature[inner]]

    probs = np.empty((T, P))
    out = probs.reshape(-1)
    group = max(1, 8 * BAND_PIXELS // max(P, 1))
    for t0 in range(0, T, group):
        t1 = min(t0 + group, T)
        pair = np.arange(t0 * P, t1 * P)  # flat index into probs
        at = np.tile(base, t1 - t0)
        node = np.repeat(first[t0:t1], P)
        while node.size:
            done = leaf[node]
            if 4 * np.count_nonzero(done) >= node.size:
                out[pair[done]] = prob[node[done]]
                keep = ~done
                pair, at, node = pair[keep], at[keep], node[keep]
            # not v > threshold, which would send NaN left
            goes_right = ~(values[at + at_node[node]] <= threshold[node])
            node = child[2 * node + goes_right]
    probs.sort(axis=0)
    return probs.cumsum(axis=0)[-1] / T


def predict_tile(
    forest: RandomForest,
    tile: ImageTile,
    spec: FeatureSpec,
    map=map,
) -> np.ndarray:
    """float32 confidence map for a tile, routed on the planes of row bands.

    A band holds about BAND_PIXELS pixels, routed about 8 * BAND_PIXELS
    (tree, pixel) pairs at a time, so memory stays flat at any tile size
    and tree count; banding is bit-identical to whole-tile extraction.
    Bands are routed through map, which may be a worker pool's.  Each
    band's float64 means are rounded into the map as the CMAP stores them.
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
    rows = max(1, BAND_PIXELS // tile.width)
    starts = range(0, tile.height, rows)

    def band(y0: int) -> np.ndarray:
        planes = feature_planes(tile, spec, y0, min(y0 + rows, tile.height))
        return _mean_leaf_prob(forest, *planes)

    out = np.empty((tile.height, tile.width), dtype=np.float32)
    for y0, conf in zip(starts, map(band, starts)):
        out[y0 : y0 + rows] = conf.reshape(-1, tile.width)
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
    pos_counts = [int(m.sum()) for m in masks]
    neg_counts = [m.size - c for m, c in zip(masks, pos_counts)]
    n_pos, total_neg = sum(pos_counts), sum(neg_counts)
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

    columns = np.empty((spec.feature_count, n_total))
    labels = np.arange(n_total) < n_pos
    pos_starts = np.cumsum([0] + pos_counts)
    for t, (tile, mask) in enumerate(zip(tiles, masks)):
        sel = np.nonzero(draw_tile == t)[0]
        # the tile's sampled pixels as flat indices y * width + x, sorted,
        # and the training row each one fills
        flat = np.concatenate(
            [np.flatnonzero(mask), np.flatnonzero(~mask)[draws[sel] - bounds[t]]]
        )
        out_rows = np.concatenate(
            [np.arange(pos_starts[t], pos_starts[t + 1]), n_pos + sel]
        )
        order = np.argsort(flat)
        flat, out_rows = flat[order], out_rows[order]
        rows = max(1, BAND_PIXELS // tile.width)
        for y0 in range(0, tile.height, rows):
            y1 = min(y0 + rows, tile.height)
            i, j = np.searchsorted(flat, [y0 * tile.width, y1 * tile.width])
            if i < j:
                values, base, offsets = feature_planes(tile, spec, y0, y1)
                pixels = base[flat[i:j] - y0 * tile.width]
                columns[:, out_rows[i:j]] = values[offsets[:, None] + pixels]
    return TrainingSet(columns, labels)


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
    write_atomic(path, dump_model(forest))


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
    return loads_model(read_input(path, "model"))
