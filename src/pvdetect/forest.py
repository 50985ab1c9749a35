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

Inference walks each tree depth first over a whole band of up to
8 * BAND_PIXELS pixels, splitting the pixels that reach a node once per
node (_mean_leaf_prob).  A forest records the fingerprint of the feature
spec it was trained on, and predicts only with that spec.

Randomness is counter-based (see rng): the bootstrap of tree t and the
feature subset of node k depend only on (seed, t, k), so training is a
pure function of (training set, params) however the trees are spread over
workers.
"""

from __future__ import annotations

import builtins
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    ModelChecksumError,
    ModelFormatError,
    ModelVersionError,
)
from .features import FeatureSpec, feature_planes
from .imagery import ImageTile, flat_pixels, read_input, write_atomic
from .rng import Stream, counter_u64

_MODEL_HEADER = "PVFOREST v1"

# best_split's feature groups hold about BAND_PIXELS keys, and sampling's
# bands about BAND_PIXELS pixels; predict's bands hold up to 8 * BAND_PIXELS
# (_band_rows), so that each node's numpy calls act on many pixels while a
# band's planes stay a few MB at any tile width
BAND_PIXELS = 1 << 14


@dataclass(frozen=True)
class RFParams:
    """Forest hyperparameters."""

    n_trees: int = 30
    features_per_node: int = 0  # 0 = floor(sqrt(M)), once M is known in train
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.features_per_node < 0:
            raise ConfigError("features_per_node must be >= 1, or 0 for floor(sqrt(M))")
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")

    def resolve_m(self, n_features: int) -> int:
        m = self.features_per_node or math.isqrt(n_features)
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

    Columns are encoded through map, the builtin map or an ordered pool's
    (cli.thread_map's).  The codes are written over the matrix in column
    order as results arrive, and its memory then shrinks to theirs, so the
    floats and the codes are never held at once.  The matrix must be
    C-contiguous and own its memory, and is unusable afterwards.
    """

    def __init__(self, columns: np.ndarray, labels: np.ndarray, map=map):
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
        # column f's codes take bytes [2fN, 2fN + 2N): inside column f // 4,
        # encoded before result f arrives
        codes = columns.reshape(-1).view(np.uint16)[: M * N].reshape(M, N)
        values = []

        def encode(f: int) -> tuple[np.ndarray, np.ndarray]:
            table, inverse = np.unique(columns[f], return_inverse=True)
            # sorted, so an infinity or NaN sits at one end of the table
            if not (np.isfinite(table[0]) and np.isfinite(table[-1])):
                raise DataError("training features must be finite")
            return table, inverse

        for f, (table, inverse) in enumerate(map(encode, range(M))):
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
    keys offset + code, the offset giving each feature its own range of
    bins, and its positive samples pos_keys the same way.  Two bincounts,
    or two sorts when the keys are far fewer than the bins, yield the
    (n_left, pos_left) of every candidate of the group at once.
    """
    idx = np.asarray(sample_indices, dtype=np.int64)
    n = idx.size
    if n < 2 * min_leaf:
        return None
    pos_idx = idx[training_set.labels[idx]]
    total_pos = pos_idx.size
    parent = gini(total_pos, n - total_pos)
    codes, values = training_set.codes, training_set.values
    flat = codes.reshape(-1)
    features = np.array(sorted(int(f) for f in feature_subset), dtype=np.intp)
    group_size = max(1, BAND_PIXELS // n)
    best: tuple[int, float] | None = None
    best_dec = 0.0
    for g in range(0, features.size, group_size):
        group = features[g : g + group_size]
        sizes = np.array([values[f].size for f in group])
        offsets = np.cumsum(sizes) - sizes
        starts = group[:, None] * codes.shape[1]
        keys = (flat.take(starts + idx) + offsets[:, None]).ravel()
        pos_keys = (flat.take(starts + pos_idx) + offsets[:, None]).ravel()
        if 4 * keys.size < sizes.sum():
            keys.sort()
            pos_keys.sort()
            ends = np.append(np.flatnonzero(np.diff(keys)), keys.size - 1)
            bins = keys[ends]
            cum_n = ends + 1
            cum_pos = np.searchsorted(pos_keys, bins, side="right")
        else:
            per_bin = np.bincount(keys)
            bins = np.flatnonzero(per_bin)
            cum_n = np.cumsum(per_bin[bins])
            cum_pos = np.cumsum(np.bincount(pos_keys, minlength=per_bin.size)[bins])
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
    """An ensemble of trees over a fixed-width feature space, with the
    routing layout of _mean_leaf_prob built once, here: leaf_table, the
    sorted distinct leaf probabilities, and routing, each tree's feature,
    threshold, left, right and leaf-rank lists.  It depends only on the
    trees, which nothing in pvdetect changes after construction."""

    trees: list[DecisionTree]
    n_features: int
    feature_fingerprint: str  # FeatureSpec.fingerprint() of the trained features

    def __post_init__(self):
        if not self.trees:
            raise ModelFormatError("forest must contain at least one tree")
        if max(int(t.feature.max()) for t in self.trees) >= self.n_features:  # -1 at leaves
            raise ModelFormatError("tree references feature beyond n_features")
        self.leaf_table = np.unique(np.concatenate([t.prob[t.feature < 0] for t in self.trees]))
        self.routing = [[a.tolist() for a in (t.feature, t.threshold, t.left, t.right,
                                              np.searchsorted(self.leaf_table, t.prob))]
                        for t in self.trees]

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def train(
    training_set: TrainingSet,
    params: RFParams,
    feature_fingerprint: str,
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

    Feature f of pixel b is values[b + offsets[f]].  Each tree is walked
    depth first on the forest's routing layout, with a stack of pixel sets:
    an internal node reads its feature once for the pixels that reach it
    and splits them in two, and only nonempty children are visited.  A leaf
    records, for its pixels, its probability's rank in forest.leaf_table,
    in the smallest unsigned dtype that holds them.  Sorting each pixel's
    ranks sorts its probabilities, which are then added left to right one
    row at a time, so the result is exactly invariant under permutation of
    the trees.
    """
    table, n_trees = forest.leaf_table, forest.n_trees
    ranks = np.empty((n_trees, base.size), dtype=np.min_scalar_type(table.size - 1))
    leaf_rank = np.empty(int(base.max(initial=-1)) + 1, dtype=ranks.dtype)  # at b
    offsets = offsets.tolist()
    for (feature, threshold, left, right, rank), out in zip(forest.routing, ranks):
        stack = [(0, base)]
        while stack:
            node, at = stack.pop()
            f = feature[node]
            if f < 0:
                leaf_rank[at] = rank[node]
                continue
            # not v > threshold, which would send NaN left
            goes_left = values.take(at + offsets[f]) <= threshold[node]
            for child, pixels in ((right[node], at[~goes_left]), (left[node], at[goes_left])):
                if pixels.size:
                    stack.append((child, pixels))
        np.take(leaf_rank, base, out=out)
    # odd-even transposition: T rounds of compare-exchange sort each column;
    # np.sort(ranks, axis=0) was slower at every size measured, on a
    # 131,072-pixel band 23 ms against 1.2 ms at T=10, 104 against 11.7 at T=30
    low = np.empty_like(leaf_rank, shape=base.size)
    for k in range(n_trees):
        for i in range(k % 2, n_trees - 1, 2):
            np.minimum(ranks[i], ranks[i + 1], out=low)
            np.maximum(ranks[i], ranks[i + 1], out=ranks[i + 1])
            ranks[i] = low
    total = table[ranks[0]]
    for row in ranks[1:]:
        total += table[row]
    return total / n_trees


def _band_rows(height: int, width: int, workers: int = 1) -> int:
    """Rows of each band of a height x width tile, the last band perhaps fewer.

    Bands hold at most about 8 * BAND_PIXELS pixels each and are as few as
    that allows, rounded up to a multiple of workers so that a pool of that
    many gets equal shares; a band is at least one row.
    """
    bands = workers * -(-height * width // (workers * 8 * BAND_PIXELS))
    return -(-height // min(bands, height))


def _pool_bands(map, height: int, width: int) -> range:
    """Starts of the _band_rows bands for map's workers; step is their height."""
    workers = getattr(map, "workers", 1 if map is builtins.map else None)
    if workers is None:
        raise TypeError("a pool's map must give its thread count as map.workers")
    return range(0, height, _band_rows(height, width, workers))


def predict_tile(
    forest: RandomForest,
    tile: ImageTile,
    spec: FeatureSpec,
    map=map,
) -> np.ndarray:
    """float32 confidence map for a tile, routed band by band.

    Bands are routed through map: the builtin map, or a pool's map that
    gives its thread count as map.workers (cli.thread_map's does).  The
    tile is cut into row bands of equal height for that many workers
    (_band_rows); each band's feature planes are built once and all its
    pixels are routed on them, so memory stays flat at any tile size and
    banding is bit-identical to whole-tile extraction.  Each band's float64
    means are rounded into the map as the CMAP stores them.
    """
    if spec.feature_count != forest.n_features:
        raise DataError(
            f"feature spec yields {spec.feature_count} features, "
            f"forest expects {forest.n_features}"
        )
    if forest.feature_fingerprint != spec.fingerprint():
        raise DataError(
            f"forest was trained for features {forest.feature_fingerprint!r}, "
            f"not {spec.fingerprint()!r}"
        )
    starts = _pool_bands(map, tile.height, tile.width)
    rows = starts.step

    def band(y0: int) -> np.ndarray:
        planes = feature_planes(tile, spec, y0, min(y0 + rows, tile.height))
        return _mean_leaf_prob(forest, *planes)

    out = np.empty((tile.height, tile.width), dtype=np.float32)
    for y0, conf in zip(starts, map(band, starts)):
        out[y0 : y0 + rows] = conf.reshape(-1, tile.width)
    return out


def sample_training_pixels(
    tiles: list[ImageTile],
    positives: list[np.ndarray],
    spec: FeatureSpec,
    n_total: int,
    seed: int,
    map=map,
) -> TrainingSet:
    """Build a training set: every positive pixel plus sampled negatives.

    positives holds each tile's PV pixels as rasterize gives them, sorted
    flat indices y * width + x.  All PV pixels are included once, in (tile,
    row-major) order; the remaining n_total - n_positive rows are negatives
    drawn uniformly without replacement from the pooled non-PV pixels of all
    tiles, deterministically for a given seed.

    Pixels are numbered once over all tiles, tile after tile.  The rows are
    sorted by that number, so each tile's rows are one contiguous run that
    its task of map fills band by band; one pass per column then puts the
    rows back in training order, and map encodes the columns (TrainingSet).
    """
    if len(tiles) != len(positives) or not tiles:
        raise ConfigError("need one positive-pixel array per tile")
    starts = np.cumsum([0] + [t.height * t.width for t in tiles])
    pos = np.concatenate([flat_pixels(p, t.height * t.width) + s
                          for t, p, s in zip(tiles, positives, starts.tolist())])
    n_pos, total_neg = pos.size, int(starts[-1]) - pos.size
    if n_total < n_pos:
        raise ConfigError(f"n_total={n_total} below the {n_pos} positive pixels")
    n_neg = n_total - n_pos
    if n_neg == 0:
        raise ConfigError("n_total leaves no room for negative examples")
    if n_neg > total_neg:
        raise ConfigError(f"only {total_neg} negative pixels available, need {n_neg}")

    draws = Stream(seed).sample_without_replacement(total_neg, n_neg)
    # the k-th negative pixel is k plus the positives that precede it,
    # pos[i] being preceded by pos[i] - i negatives
    at = np.concatenate([pos, draws + np.searchsorted(pos - np.arange(n_pos), draws, "right")])
    order = np.argsort(at)  # row order[i] samples pixel at[i] once sorted
    at = at[order]
    cuts = np.searchsorted(at, starts)
    columns = np.empty((spec.feature_count, n_total))

    def sample(t: int) -> None:
        tile, flat = tiles[t], at[cuts[t] : cuts[t + 1]] - starts[t]
        # bands are an eighth of predict's, but at least as tall as their
        # padding: a memory rule, as predict-sized bands took eval-default's
        # sampling peak from 92 to 111 MB and its time did not change
        rows = max(2 * spec.pad, -(-BAND_PIXELS // tile.width))
        for y0 in range(0, tile.height, rows):
            y1 = min(y0 + rows, tile.height)
            i, j = np.searchsorted(flat, [y0 * tile.width, y1 * tile.width])
            if i < j:
                values, base, offsets = feature_planes(tile, spec, y0, y1)
                pixels = base[flat[i:j] - y0 * tile.width]
                columns[:, cuts[t] + i : cuts[t] + j] = values[offsets[:, None] + pixels]

    for _ in map(sample, range(len(tiles))):
        pass
    for column in columns:  # one column's copy at a time, never the matrix's
        column[order] = column.copy()
    return TrainingSet(columns, np.arange(n_total) < n_pos, map=map)


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
