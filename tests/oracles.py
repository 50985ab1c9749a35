"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately written without integral images, running
sums, rank tricks, separable filters or vectorized shortcuts, so an
agreement test between pvdetect and these functions actually checks two
code paths.  The exceptions are three-line adapters between row matrices
and pvdetect's one path per stage (feature_rows, rows_training_set,
decode_rows, predict_rows): they let tests state cases as rows, and check
nothing themselves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from pvdetect import detection
from pvdetect.errors import ConfigError, DataError
from pvdetect.features import feature_planes
from pvdetect.forest import TrainingSet, _mean_leaf_prob
from pvdetect.imagery import ImageTile, PolygonAnnotation
from pvdetect.rng import Stream
from pvdetect.scoring import PRCurve
from pvdetect.synth import PALETTE, PANEL_COLOR, PANEL_SIGMA, PATCH_SIZE, _place_panels


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


def dense_fisher_yates(stream, n, k):
    """k distinct integers from [0, n) by partial Fisher-Yates over a full pool.

    Takes the k draws of stream.u64_array(k); the pool array costs O(n).
    """
    pool = np.arange(n, dtype=np.int64)
    draws = stream.u64_array(k)
    for j in range(k):
        swap = j + int(draws[j] % np.uint64(n - j))
        pool[j], pool[swap] = pool[swap], pool[j]
    return pool[:k]


def box_muller_normals(stream, count):
    """count normals drawn whole: n_pairs uniforms u1, then n_pairs u2.

    The draw Stream.normals made before it became a slice of
    Stream.normals_slice; it advances stream by 2 * n_pairs counters.
    """
    n_pairs = (count + 1) // 2
    u1 = stream.uniforms(n_pairs)
    u2 = stream.uniforms(n_pairs)
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * n_pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


# ---------------------------------------------------------------------------
# Scenes and panel placement
# ---------------------------------------------------------------------------


def whole_generate_scene(params, tile_id="scene"):
    """The whole-scene renderer that synth.generate_scene's bands replaced.

    It holds the float64 scene and both scene-wide normal draws at once,
    pastes the panels after the noise and rounds the scene in one step.
    """
    h, w = params.height, params.width
    stream = Stream(params.seed)
    patch_stream = stream.spawn(1)
    noise_stream = stream.spawn(2)
    place_stream = stream.spawn(3)
    panel_stream = stream.spawn(4)

    patches_y = -(-h // PATCH_SIZE)
    patches_x = -(-w // PATCH_SIZE)
    patch_idx = patch_stream.integers(len(PALETTE), patches_y * patches_x)
    patch_idx = patch_idx.reshape(patches_y, patches_x)
    tex = np.repeat(np.repeat(patch_idx, PATCH_SIZE, 0), PATCH_SIZE, 1)
    tex = tex[:h, :w]

    means = np.array([p[1] for p in PALETTE], dtype=np.float64)
    sigmas = np.array([p[2] for p in PALETTE], dtype=np.float64)
    image = means[tex]
    image += sigmas[tex][:, :, None] * box_muller_normals(noise_stream, h * w * 3).reshape(h, w, 3)
    image += params.noise_sigma * box_muller_normals(noise_stream, h * w * 3).reshape(h, w, 3)

    rects = _place_panels(params, place_stream)
    panel_mean = np.array(PANEL_COLOR, dtype=np.float64)
    for x0, y0, pw, ph in rects:
        block = panel_mean + PANEL_SIGMA * box_muller_normals(
            panel_stream, ph * pw * 3).reshape(ph, pw, 3)
        block += params.noise_sigma * box_muller_normals(
            panel_stream, ph * pw * 3).reshape(ph, pw, 3)
        image[y0 : y0 + ph, x0 : x0 + pw] = block

    pixels = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    annotations = [
        PolygonAnnotation(
            tile_id, f"p{k}",
            np.array([[x0, y0], [x0 + pw, y0], [x0 + pw, y0 + ph], [x0, y0 + ph]],
                     dtype=np.float64),
        )
        for k, (x0, y0, pw, ph) in enumerate(rects)
    ]
    return ImageTile(pixels, tile_id), annotations


def scan_place_panels(params, stream):
    """The try-by-try scan that synth._place_panels' occupancy mask replaced:
    each try is tested against every panel placed so far, grown by the gap."""
    rects = []
    budget = 200 * max(params.n_panels, 1)
    side_span = params.panel_side_max - params.panel_side_min + 1
    gap = params.panel_gap
    for _ in range(params.n_panels):
        placed = False
        while budget > 0:
            budget -= 1
            w = params.panel_side_min + stream.next_below(side_span)
            h = params.panel_side_min + stream.next_below(side_span)
            if w > params.width or h > params.height:
                continue
            x0 = stream.next_below(params.width - w + 1)
            y0 = stream.next_below(params.height - h + 1)
            clear = all(
                not (
                    x0 - gap < x + pw
                    and x < x0 + w + gap
                    and y0 - gap < y + ph
                    and y < y0 + h + gap
                )
                for (x, y, pw, ph) in rects
            )
            if clear:
                rects.append((x0, y0, w, h))
                placed = True
                break
        if not placed:
            raise DataError("could not place every panel")
    return rects


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------


def slice_window_sums(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """out[i, j] = values[i : i + rows, j : j + cols].sum() in int64, each
    window summed from its own slice, one window at a time."""
    h, w = values.shape
    out = np.empty((h - rows + 1, w - cols + 1), dtype=np.int64)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = values[i : i + rows, j : j + cols].sum(dtype=np.int64)
    return out


def slice_feature_planes(tile, spec, row_start, row_stop, channels):
    """feature_planes' (2k, Hp, Wp) planes of rows [row_start, row_stop):
    the mean, then the variance clamped at zero, of every channel's window
    whose top-left cell is each padded position, with the window's sums
    taken by slice_window_sums over the edge-clamped tile."""
    side, pad = spec.window_side, spec.pad
    ys = np.clip(np.arange(row_start - pad, row_stop + pad), 0, tile.height - 1)
    xs = np.clip(np.arange(-pad, tile.width + pad), 0, tile.width - 1)
    n = side * side
    means, variances = [], []
    for c in channels:
        band = tile.pixels[:, :, c].astype(np.int64)[ys][:, xs]
        mean = slice_window_sums(band, side, side) / n
        squares = slice_window_sums(band * band, side, side) / n
        means.append(mean)
        variances.append(np.maximum(squares - mean * mean, 0.0))
    return np.stack(means + variances)


def naive_window_stats(pixels, cx, cy, side):
    """Mean/variance per channel over an edge-replicated window, by loops."""
    h, w = pixels.shape[:2]
    half = side // 2
    cells = []
    for yy in range(cy - half, cy + half + 1):
        for xx in range(cx - half, cx + half + 1):
            cells.append(
                pixels[min(max(yy, 0), h - 1), min(max(xx, 0), w - 1)].astype(np.int64)
            )
    cells = np.array(cells, dtype=np.int64)
    n = cells.shape[0]
    s = cells.sum(axis=0)
    ss = (cells * cells).sum(axis=0)
    mean = s / n
    variance = np.maximum(ss / n - mean * mean, 0.0)
    return mean, variance


def naive_pixel_features(pixels, offsets, window_side, x, y):
    """Feature vector at (x, y) from naive_window_stats' cell loops."""
    out = []
    for dx, dy in offsets:
        mean, variance = naive_window_stats(pixels, x + dx, y + dy, window_side)
        out.extend(mean.tolist())
        out.extend(variance.tolist())
    return np.array(out)


def feature_rows(tile, spec, row_start, row_stop):
    """Rows [row_start, row_stop) as a (rows, width, M) array, from feature_planes."""
    values, base, offsets = feature_planes(tile, spec, row_start, row_stop)
    return values[base[:, None] + offsets].reshape(row_stop - row_start, tile.width, -1)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def point_in_polygon(vertices, px, py):
    """Even-odd test with on-edge counting as inside, one point at a time."""
    n = len(vertices)
    inside = False
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        dx, dy = x2 - x1, y2 - y1
        cross = dx * (py - y1) - dy * (px - x1)
        t = dx * (px - x1) + dy * (py - y1)
        if cross == 0 and 0 <= t <= dx * dx + dy * dy:
            return True
        if (y1 > py) != (y2 > py):
            x_hit = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_hit:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# CART
# ---------------------------------------------------------------------------


def exhaustive_cart(X, y, min_leaf):
    """Recursive exhaustive CART over all features and all midpoints.

    Mirrors the documented contract: candidate thresholds at midpoints of
    consecutive distinct values (the lower value where the midpoint is not
    below the upper one), weighted Gini decrease, both children at
    least min_leaf, strictly positive decrease, ties to the lowest feature
    then lowest threshold.
    """
    n = len(y)
    n_pos = int(sum(bool(v) for v in y))
    prob = n_pos / n
    best = None
    best_dec = 0.0
    if n >= 2 * min_leaf and 0 < n_pos < n:
        p = n_pos / n
        q = (n - n_pos) / n
        parent = 1.0 - p * p - q * q
        for f in range(X.shape[1]):
            pairs = sorted(zip(X[:, f].tolist(), [bool(v) for v in y]))
            for k in range(1, n):
                if not pairs[k][0] > pairs[k - 1][0]:
                    continue
                if k < min_leaf or n - k < min_leaf:
                    continue
                pos_left = sum(1 for _, lbl in pairs[:k] if lbl)
                n_left, n_right = float(k), float(n - k)
                pos_right = n_pos - pos_left
                pl = pos_left / n_left
                ql = (n_left - pos_left) / n_left
                pr = pos_right / n_right
                qr = (n_right - pos_right) / n_right
                gini_left = 1.0 - pl * pl - ql * ql
                gini_right = 1.0 - pr * pr - qr * qr
                dec = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
                if dec > best_dec:
                    best_dec = dec
                    lo, hi = pairs[k - 1][0], pairs[k][0]
                    mid = (lo + hi) / 2.0
                    best = (f, mid if mid < hi else lo)
    if best is None:
        return {"leaf": True, "prob": prob, "count": n}
    f, threshold = best
    mask = X[:, f] <= threshold
    return {
        "leaf": False,
        "feature": f,
        "threshold": threshold,
        "left": exhaustive_cart(X[mask], y[mask], min_leaf),
        "right": exhaustive_cart(X[~mask], y[~mask], min_leaf),
    }


def argsort_best_split(sample_indices, feature_subset, X, y, min_leaf):
    """best_split on the float matrix X, one argsort per feature.

    The split search pvdetect used before rank codes: sort the node's
    values of each feature, scan the boundaries between distinct values,
    and keep the first strictly larger Gini decrease.
    """
    idx = np.asarray(sample_indices, dtype=np.int64)
    n = idx.size
    if n < 2 * min_leaf:
        return None
    labels = np.asarray(y, dtype=bool)[idx]
    total_pos = int(labels.sum())
    p = total_pos / n
    q = (n - total_pos) / n
    parent = 1.0 - p * p - q * q
    best = None
    best_dec = 0.0
    k = np.arange(1, n)
    size_ok = (k >= min_leaf) & (n - k >= min_leaf)
    for f in sorted(int(f) for f in feature_subset):
        col = X[idx, f]
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
        j = int(np.argmax(decrease))
        if decrease[j] > best_dec:
            best_dec = float(decrease[j])
            kj = int(kk[j])
            lo, hi = float(v[kj - 1]), float(v[kj])
            mid = (lo + hi) / 2.0
            best = (f, mid if mid < hi else lo)
    return best


def rows_training_set(X, y, map=map):
    """TrainingSet of the rows of an (N, M) matrix, its columns one block."""
    columns = np.asarray(X, dtype=np.float64).T
    return TrainingSet([(range(columns.shape[0]), columns)], y, columns.shape[0], map)


def decode_rows(training_set):
    """The (N, M) matrix a TrainingSet encodes (-0.0 and 0.0 share one rank)."""
    return np.stack([t[c] for t, c in zip(training_set.values, training_set.codes)], axis=1)


def predict_rows(forest, X):
    """pvdetect's router, _mean_leaf_prob, over each row of a (P, M) matrix."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    P, M = X.shape
    return _mean_leaf_prob(forest, X.ravel(), np.arange(P) * M, np.arange(M))


def cart_predict(tree, x):
    while not tree["leaf"]:
        tree = tree["left"] if x[tree["feature"]] <= tree["threshold"] else tree["right"]
    return tree["prob"]


def route_and_read(tree, x):
    """Walk a pvdetect DecisionTree by hand and read the leaf probability."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return float(tree.prob[node])


def tree_depth(tree, node=0):
    """Edges on the longest path below node of a pvdetect DecisionTree."""
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def scalar_predict(forest, x):
    """Mean leaf probability across trees for one vector, summed in sorted order."""
    probs = sorted(route_and_read(tree, x) for tree in forest.trees)
    acc = 0.0
    for p in probs:
        acc += p
    return acc / forest.n_trees


# ---------------------------------------------------------------------------
# Training-pixel sampling
# ---------------------------------------------------------------------------
# The mask-based sampler that pvdetect.forest.sample_training_pixels replaced:
# each tile's labels are a boolean mask, the k-th pooled negative pixel is
# read off np.flatnonzero(~mask), and every row comes from one whole-tile
# feature extraction.  It is the reference for the sampler's flat-index pick.


def mask_training_set(tiles, masks, spec, n_total, seed) -> TrainingSet:
    """Every masked pixel in (tile, row-major) order, then n_total minus
    that many negatives drawn by dense Fisher-Yates from the pooled rest."""
    rows = [feature_rows(t, spec, 0, t.height).reshape(t.height * t.width, -1) for t in tiles]
    positives = [(t, p) for t, m in enumerate(masks) for p in np.flatnonzero(m).tolist()]
    negatives = [(t, p) for t, m in enumerate(masks) for p in np.flatnonzero(~m).tolist()]
    draws = dense_fisher_yates(Stream(seed), len(negatives), n_total - len(positives))
    picks = positives + [negatives[k] for k in draws.tolist()]
    X = np.array([rows[t][p] for t, p in picks])
    return rows_training_set(X, np.arange(n_total) < len(positives))


# ---------------------------------------------------------------------------
# Otsu
# ---------------------------------------------------------------------------


def exhaustive_otsu(values) -> float:
    """All 255 candidate edges, exact rational between-class variance."""
    values = [float(v) for v in np.asarray(values).ravel()]
    bins = [min(int(np.floor(v * 256.0)), 255) for v in values]
    hist = [0] * 256
    for b in bins:
        hist[b] += 1
    total = len(values)
    weighted_total = sum(i * c for i, c in enumerate(hist))
    best_k = None
    best_sigma = Fraction(-1)
    w0 = 0
    s0 = 0
    for k in range(1, 256):
        w0 += hist[k - 1]
        s0 += (k - 1) * hist[k - 1]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        s1 = weighted_total - s0
        sigma = Fraction((s0 * w1 - s1 * w0) ** 2, w0 * w1)
        if sigma > best_sigma:
            best_sigma = sigma
            best_k = k
    if best_k is None:
        return (bins[0] + 1) / 256.0
    return best_k / 256.0


# ---------------------------------------------------------------------------
# Non-maximum suppression and connected components
# ---------------------------------------------------------------------------


def brute_nms(conf, side):
    """O(n * side**2) neighborhood scan with the plateau tie-break."""
    h, w = conf.shape
    half = side // 2
    out = []
    for y in range(h):
        for x in range(w):
            v = conf[y, x]
            keep = True
            for ny in range(max(0, y - half), min(h, y + half + 1)):
                for nx in range(max(0, x - half), min(w, x + half + 1)):
                    q = conf[ny, nx]
                    if q > v or (q == v and (ny, nx) < (y, x)):
                        keep = False
                        break
                if not keep:
                    break
            if keep:
                out.append((x, y, float(v)))
    return out


def flood_components(mask):
    """8-connected components by breadth-first flood fill."""
    h, w = mask.shape
    label = -np.ones((h, w), dtype=np.int64)
    components = []
    for y in range(h):
        for x in range(w):
            if mask[y, x] and label[y, x] < 0:
                queue = deque([(y, x)])
                label[y, x] = len(components)
                pixels = []
                while queue:
                    cy, cx = queue.popleft()
                    pixels.append((cy, cx))
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            ny, nx = cy + dy, cx + dx
                            if (
                                0 <= ny < h
                                and 0 <= nx < w
                                and mask[ny, nx]
                                and label[ny, nx] < 0
                            ):
                                label[ny, nx] = len(components)
                                queue.append((ny, nx))
                components.append(sorted(pixels))
    return components


# ---------------------------------------------------------------------------
# Full post-processing reference
# ---------------------------------------------------------------------------


def disk_element(radius: int) -> list[tuple[int, int]]:
    """Offsets (dx, dy) of the discrete disk dx**2 + dy**2 <= radius**2."""
    if radius < 0:
        raise ConfigError(f"disk radius must be >= 0, got {radius}")
    r2 = radius * radius
    return [
        (dx, dy)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dx * dx + dy * dy <= r2
    ]


def reference_postprocess(conf, params):
    """Straight-line rendition of the documented enhancement algorithm."""
    conf = np.asarray(conf, dtype=np.float64)
    h, w = conf.shape
    maxima = [
        m for m in brute_nms(conf, params.nms_side) if m[2] >= params.confidence_floor
    ]
    enhanced = np.zeros_like(conf)
    half = params.otsu_side // 2
    for x, y, value in maxima:
        ax, bx = max(0, x - half), min(w - 1, x + half)
        ay, by = max(0, y - half), min(h - 1, y + half)
        crop = conf[ay : by + 1, ax : bx + 1]
        threshold = exhaustive_otsu(crop.ravel())
        k = int(round(threshold * 256.0))
        ch, cw = crop.shape
        fg = [
            [min(int(np.floor(crop[j, i] * 256.0)), 255) >= k for i in range(cw)]
            for j in range(ch)
        ]
        fg[y - ay][x - ax] = True
        seed = (y - ay, x - ax)
        comp = {seed}
        queue = deque([seed])
        while queue:
            cy, cx = queue.popleft()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < ch and 0 <= nx < cw and fg[ny][nx] and (ny, nx) not in comp:
                        comp.add((ny, nx))
                        queue.append((ny, nx))
        for cy, cx in comp:
            enhanced[ay + cy, ax + cx] = max(enhanced[ay + cy, ax + cx], value)

    # morphology: closing against the infinite plane, then dilation; added
    # pixels take the maximum value within structuring-element reach
    r1, r2 = params.closing_radius, params.dilation_radius
    d1, d2 = disk_element(r1), disk_element(r2)
    support = enhanced > 0.0

    dilated1 = np.zeros((h + 2 * r1, w + 2 * r1), dtype=bool)
    for qy in range(-r1, h + r1):
        for qx in range(-r1, w + r1):
            hit = False
            for dx, dy in d1:
                py, px = qy - dy, qx - dx
                if 0 <= py < h and 0 <= px < w and support[py, px]:
                    hit = True
                    break
            dilated1[qy + r1, qx + r1] = hit
    closed = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            closed[y, x] = all(dilated1[y + dy + r1, x + dx + r1] for dx, dy in d1)

    after_close = np.zeros_like(enhanced)
    for y in range(h):
        for x in range(w):
            if support[y, x]:
                after_close[y, x] = enhanced[y, x]
            elif closed[y, x]:
                best = 0.0
                for dx, dy in d1:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w:
                        best = max(best, enhanced[ny, nx])
                after_close[y, x] = best

    result = np.zeros_like(enhanced)
    for y in range(h):
        for x in range(w):
            if closed[y, x]:
                result[y, x] = after_close[y, x]
            else:
                hit = False
                for dx, dy in d2:
                    py, px = y - dy, x - dx
                    if 0 <= py < h and 0 <= px < w and closed[py, px]:
                        hit = True
                        break
                if hit:
                    best = 0.0
                    for dx, dy in d2:
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w:
                            best = max(best, after_close[ny, nx])
                    result[y, x] = best
    return result


# ---------------------------------------------------------------------------
# Seed-by-seed post-processing
# ---------------------------------------------------------------------------
# pvdetect's earlier postprocess, which grew one seed at a time: a Python
# Otsu loop (here the exact rational one above) and one labeling per crop,
# then closed and dilated the map in five disk filters.  It is the
# reference for the batched step 3 and the three-filter step 4 of
# pvdetect.detection.postprocess, which must match it bit for bit.


def _component_containing(mask: np.ndarray, seed_y: int, seed_x: int) -> np.ndarray:
    """8-connected component of mask containing the seed pixel, by a
    breadth-first flood from the seed (independent of detection._label)."""
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    out[seed_y, seed_x] = True
    queue = deque([(seed_y, seed_x)])
    while queue:
        cy, cx = queue.popleft()
        for ny in range(max(0, cy - 1), min(h, cy + 2)):
            for nx in range(max(0, cx - 1), min(w, cx + 2)):
                if mask[ny, nx] and not out[ny, nx]:
                    out[ny, nx] = True
                    queue.append((ny, nx))
    return out


def _close_support(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary closing against the infinite plane, restricted to the array.

    Padding by the radius before dilating keeps border support from being
    eroded away, so closing never shrinks the support.
    """
    if radius == 0 or not mask.any():
        return mask.copy()
    dilated = detection._max_filter(np.pad(mask, radius), radius)
    # erosion; no kept pixel's disk reaches past the padded canvas
    closed = ~detection._max_filter(~dilated, radius)
    return closed[radius:-radius, radius:-radius]


def seedwise_postprocess(conf: np.ndarray, params) -> np.ndarray:
    """Enhanced confidence map, growing one seed's region at a time."""
    conf = detection.check_map(conf)
    h, w = conf.shape
    maxima = detection.filter_maxima(
        conf, detection.nonmax_suppress(conf, params.nms_side), params.confidence_floor
    )
    enhanced = np.zeros_like(conf)
    half = params.otsu_side // 2
    for m in maxima.tolist():
        y, x = divmod(m, w)
        value = float(conf[y, x])
        ax, bx = max(0, x - half), min(w - 1, x + half)
        ay, by = max(0, y - half), min(h - 1, y + half)
        crop = conf[ay : by + 1, ax : bx + 1]
        threshold = exhaustive_otsu(crop.ravel())
        k = int(round(threshold * 256.0))
        foreground = detection.bin256(crop) >= k
        foreground[y - ay, x - ax] = True  # the maximum is always foreground
        component = _component_containing(foreground, y - ay, x - ax)
        region = enhanced[ay : by + 1, ax : bx + 1]
        np.maximum(region, np.where(component, value, 0.0), out=region)

    support = enhanced > 0.0
    closed = _close_support(support, params.closing_radius)
    grown = np.where(closed, detection._max_filter(enhanced, params.closing_radius), 0.0)
    after_close = np.where(support, enhanced, grown)
    del enhanced, grown  # full-size maps: keep at most a few alive at once
    dilated = detection._max_filter(closed, params.dilation_radius)
    grown = np.where(
        dilated, detection._max_filter(after_close, params.dilation_radius), 0.0
    )
    return np.where(closed, after_close, grown)


# ---------------------------------------------------------------------------
# Pixel scoring
# ---------------------------------------------------------------------------
# The original pixel scorer, which widens every pixel of every map to float64
# and sorts them all, zero confidences included.  It is the reference for
# pvdetect.scoring.pixel_pr, which sorts only the positive confidences.


def full_sort_pixel_pr(conf_maps, label_masks) -> PRCurve:
    """Pooled pixel PR curve over the full sort of every pixel."""
    if len(conf_maps) != len(label_masks) or not conf_maps:
        raise ConfigError("need one label mask per confidence map")
    confs, labels = [], []
    for conf, mask in zip(conf_maps, label_masks):
        conf = np.asarray(conf, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        if conf.shape != mask.shape:
            raise DataError(f"map {conf.shape} does not match mask {mask.shape}")
        if conf.size and (
            not np.isfinite(conf).all() or conf.min() < 0.0 or conf.max() > 1.0
        ):
            raise DataError("confidences must be finite values in [0, 1]")
        confs.append(conf.ravel())
        labels.append(mask.ravel())
    conf = np.concatenate(confs)
    label = np.concatenate(labels)
    n_pos = int(label.sum())
    if n_pos == 0:
        raise DataError("ground truth contains no positive pixels")
    prevalence = n_pos / label.size

    order = np.argsort(-conf, kind="stable")
    sorted_conf = conf[order]
    cum_tp = np.cumsum(label[order])

    positive = sorted_conf > 0.0
    last_of_value = np.ones(sorted_conf.size, dtype=bool)
    last_of_value[:-1] = sorted_conf[:-1] != sorted_conf[1:]
    ends = np.nonzero(last_of_value & positive)[0]
    thresholds = sorted_conf[ends]
    detected = ends + 1
    tp = cum_tp[ends]

    precision = tp / detected
    recall = tp / n_pos
    return PRCurve(thresholds, precision, recall, prevalence)


# ---------------------------------------------------------------------------
# Object scoring
# ---------------------------------------------------------------------------
# The original object scorer, which re-matches the kept detections at every
# distinct confidence and pools tiles by namespacing pixels as (tile, x, y).
# It is the reference for pvdetect.scoring's single sweep.  Pixels are
# frozensets of (x, y) tuples.


@dataclass(frozen=True)
class SetDetection:
    """A detected object as a frozenset of (x, y) pixels."""

    pixels: frozenset
    confidence: float


def set_jaccard(set_a, set_b) -> float:
    """Jaccard overlap |A & B| / |A | B| of two pixel sets."""
    a, b = set(set_a), set(set_b)
    if not a and not b:
        raise ValueError("jaccard of two empty sets is undefined")
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class MatchResult:
    """Outcome of linking detections to annotations at one Jaccard level."""

    accepted: tuple[bool, ...]
    detected_by: tuple[frozenset, ...] = field(default_factory=tuple)

    @property
    def n_true(self) -> int:
        return sum(self.accepted)

    @property
    def n_false(self) -> int:
        return len(self.accepted) - self.n_true

    @property
    def n_detected_annotations(self) -> int:
        return sum(1 for d in self.detected_by if d)


def match_objects(
    detections: list[SetDetection],
    annotation_pixel_sets: list,
    jaccard_threshold: float,
) -> MatchResult:
    """Judge each detection against the union of the annotations it touches.

    A detection is true when that union is non-empty and their Jaccard
    overlap reaches the threshold; every annotation in the union is then
    detected.  Detections touching nothing, or falling short of the
    threshold, are false.
    """
    if not 0.0 < jaccard_threshold <= 1.0:
        raise ConfigError(
            f"jaccard threshold must be in (0, 1], got {jaccard_threshold}"
        )
    ann_sets = [frozenset(a) for a in annotation_pixel_sets]
    accepted = []
    detected_by = [set() for _ in ann_sets]
    for d_index, det in enumerate(detections):
        touching = [i for i, a in enumerate(ann_sets) if a & det.pixels]
        ok = False
        if touching:
            union = frozenset().union(*(ann_sets[i] for i in touching))
            ok = set_jaccard(det.pixels, union) >= jaccard_threshold
        accepted.append(ok)
        if ok:
            for i in touching:
                detected_by[i].add(d_index)
    return MatchResult(tuple(accepted), tuple(frozenset(s) for s in detected_by))


def object_pr(
    detections: list[SetDetection],
    annotation_pixel_sets: list,
    jaccard_threshold: float,
) -> PRCurve:
    """Object-level PR curve, sweeping distinct detection confidences.

    At each threshold only detections at or above it are kept and matched;
    precision is the true fraction of kept detections and recall the
    detected fraction of annotations.  The prevalence field reports the
    precision of the full candidate list (the random-detector baseline);
    maximum recall can stay below 1 when some annotations are never
    covered.
    """
    if not annotation_pixel_sets:
        raise DataError("object scoring requires at least one annotation")
    if not detections:
        return PRCurve(np.array([]), np.array([]), np.array([]), 0.0)
    confidences = sorted({d.confidence for d in detections}, reverse=True)
    thresholds, precision, recall = [], [], []
    n_ann = len(annotation_pixel_sets)
    for t in confidences:
        kept = [d for d in detections if d.confidence >= t]
        result = match_objects(kept, annotation_pixel_sets, jaccard_threshold)
        thresholds.append(t)
        precision.append(result.n_true / len(kept))
        recall.append(result.n_detected_annotations / n_ann)
    full = match_objects(detections, annotation_pixel_sets, jaccard_threshold)
    prevalence = full.n_true / len(detections)
    return PRCurve(
        np.array(thresholds), np.array(precision), np.array(recall), prevalence
    )


def multi_tile_object_pr(
    detections_by_tile: dict,
    annotations_by_tile: dict,
    jaccard_threshold: float,
) -> PRCurve:
    """Object PR pooled over tiles, keyed by tile id.

    Pixel coordinates are namespaced per tile before pooling so objects on
    different tiles can never overlap each other.
    """
    tile_ids = sorted(annotations_by_tile)
    pooled_detections = []
    pooled_annotations = []
    for idx, tile_id in enumerate(tile_ids):
        for ann in annotations_by_tile[tile_id]:
            pooled_annotations.append(frozenset((idx, x, y) for x, y in ann))
        for det in detections_by_tile.get(tile_id, []):
            pooled_detections.append(
                SetDetection(
                    frozenset((idx, x, y) for x, y in det.pixels), det.confidence
                )
            )
    extra = set(detections_by_tile) - set(tile_ids)
    if extra:
        raise DataError(f"detections reference unknown tiles: {sorted(extra)}")
    return object_pr(pooled_detections, pooled_annotations, jaccard_threshold)
