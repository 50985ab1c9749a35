"""Acceptance suite: one test per release criterion, in order.

Each test prints a single summary line; thresholds and runtime budgets are
pinned here and are not tunable elsewhere.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import pvdetect as pv
from pvdetect.cli import cmd_detect, cmd_eval, cmd_predict, cmd_train, read_detections_csv
from pvdetect.config import RunConfig
from pvdetect.detection import PPParams, otsu_threshold, postprocess
from pvdetect.features import FeatureSpec, integral_tables
from pvdetect.forest import RFParams, grow_tree, train
from pvdetect.imagery import ImageTile, load_manifest, rasterize, save_manifest
from pvdetect.imagery import DatasetManifest, ManifestEntry
from pvdetect.scoring import jaccard, pixel_pr, read_pr_csv
from oracles import (
    cart_predict,
    exhaustive_cart,
    exhaustive_otsu,
    feature_rows,
    naive_pixel_features,
    predict_rows,
    prefix_table_by_matmul,
    reference_postprocess,
    route_and_read,
    rows_training_set,
)


def test_criterion_01_integral_image_exactness():
    """All rectangle sums from the tables equal naive summation, exactly."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    rectangles_checked = 0
    for _ in range(100):
        px = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        sums, sq_sums = integral_tables(px)
        for c in range(3):
            channel = px[:, :, c].astype(np.int64)
            # every prefix rectangle, against an independent matmul oracle;
            # with exact integer inclusion-exclusion this pins every
            # rectangle sum, since each is a 4-term combination of prefixes
            assert np.array_equal(sums[:, :, c], prefix_table_by_matmul(channel))
            assert np.array_equal(
                sq_sums[:, :, c], prefix_table_by_matmul(channel * channel)
            )
        # direct double-loop spot checks on general rectangles, each summed
        # by four-term inclusion-exclusion over the tables
        wide = px.astype(np.int64)
        for _ in range(20):
            x0, x1 = sorted(rng.integers(0, 64, size=2).tolist())
            y0, y1 = sorted(rng.integers(0, 64, size=2).tolist())
            region = wide[y0 : y1 + 1, x0 : x1 + 1]
            for table, values in ((sums, region), (sq_sums, region * region)):
                got = (
                    table[y1 + 1, x1 + 1]
                    - table[y0, x1 + 1]
                    - table[y1 + 1, x0]
                    + table[y0, x0]
                )
                assert np.array_equal(got, values.sum(axis=(0, 1)))
                rectangles_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"integral exactness took {elapsed:.1f}s"
    print(
        f"criterion 1 PASS: 100 tiles, full prefix tables + "
        f"{rectangles_checked} sampled rectangles exact, {elapsed:.1f}s"
    )


def test_criterion_02_feature_parity_with_naive_oracle():
    """1000 random pixels match a no-integral-image oracle within 1e-9."""
    rng = np.random.default_rng(102)
    spec = FeatureSpec()
    offsets = spec.window_offsets()
    checked = 0
    worst = 0.0
    for _ in range(25):
        h, w = int(rng.integers(9, 30)), int(rng.integers(9, 30))
        tile = ImageTile(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        image = feature_rows(tile, spec, 0, tile.height)
        for _ in range(40):
            x, y = int(rng.integers(0, w)), int(rng.integers(0, h))
            got = image[y, x]
            assert got.shape == (102,)
            want = naive_pixel_features(tile.pixels, offsets, spec.window_side, x, y)
            scale = np.maximum(np.abs(want), 1.0)
            worst = max(worst, float(np.max(np.abs(got - want) / scale)))
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
            checked += 1
    assert checked == 1000
    print(f"criterion 2 PASS: 1000 pixels, M=102, worst relative error {worst:.2e}")


def test_criterion_03_cart_oracle_equivalence():
    """m = M, min_leaf = 1 trees match an exhaustive CART on 20 datasets."""
    rng = np.random.default_rng(103)
    done = 0
    while done < 20:
        n = int(rng.integers(6, 51))
        d = int(rng.integers(2, 6))
        X = np.round(rng.uniform(0, 1, size=(n, d)), 2)
        if done % 3 == 0 and n >= 10:
            X[n // 2 :] = X[: n - n // 2]  # inject duplicate rows
        y = (X[:, 0] + rng.normal(0, 0.3, size=n)) > 0.5
        if y.all() or not y.any():
            continue
        ts = rows_training_set(X, y)
        tree = grow_tree(
            np.arange(n), ts, RFParams(min_leaf=1), lambda _: np.arange(d)
        )
        oracle = exhaustive_cart(X, y, min_leaf=1)
        for row in X:
            assert route_and_read(tree, row) == cart_predict(oracle, row)
        done += 1
    print("criterion 3 PASS: 20 datasets, every training-point prediction equal")


def test_criterion_04_forest_learning_sanity():
    """T=30 on separable 2-D data: held-out accuracy >= 0.95 in < 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    X = rng.normal(size=(1000, 2))
    y = X[:, 0] + X[:, 1] > 0
    model = train(rows_training_set(X[:700], y[:700]), RFParams(n_trees=30, seed=7))
    accuracy = float(((predict_rows(model, X[700:]) > 0.5) == y[700:]).mean())
    elapsed = time.perf_counter() - started
    assert accuracy >= 0.95, f"held-out accuracy {accuracy}"
    assert elapsed < 30.0, f"training took {elapsed:.1f}s"
    print(f"criterion 4 PASS: accuracy {accuracy:.3f}, {elapsed:.1f}s")


def test_criterion_05_otsu_matches_exhaustive_oracle():
    """1000 random multisets: threshold equals the exhaustive maximizer."""
    rng = np.random.default_rng(105)
    for trial in range(1000):
        n = int(rng.integers(1, 200))
        values = rng.uniform(0, 1, size=n)
        if trial % 3 == 0:
            values = np.round(values, 1)  # force ties between candidates
        if trial % 11 == 0:
            values = np.full(n, float(values[0]))  # degenerate single bin
        if trial % 17 == 0:
            values = np.clip(values, 0.0, 1.0) ** 4
        assert otsu_threshold(values) == exhaustive_otsu(values), trial
    print("criterion 5 PASS: 1000 multisets, tie-breaks included")


def test_criterion_06_postprocess_matches_reference():
    """postprocess equals a straight-line reference on 50 random maps."""
    rng = np.random.default_rng(106)
    params = PPParams()
    for trial in range(50):
        conf = rng.uniform(0, 1, size=(64, 64))
        if trial % 4 == 0:
            conf = np.round(conf, 2)  # plateaus and otsu ties
        if trial % 9 == 0:
            conf[conf < 0.6] = 0.0  # sparse maps
        got = postprocess(conf, params)
        want = reference_postprocess(conf, params)
        assert np.array_equal(got, want), trial
    print("criterion 6 PASS: 50 maps, pixel-for-pixel equal")


def test_criterion_07_jaccard_and_pr_properties():
    """Jaccard axioms, recall monotonicity, perfect point, baseline 0.0007."""
    rng = np.random.default_rng(107)
    # jaccard axioms, on flat pixel indices y * 8 + x of an 8x8 tile
    for _ in range(100):
        a = rng.integers(0, 8, size=(10, 2)) @ np.array([1, 8])
        b = rng.integers(0, 8, size=(10, 2)) @ np.array([1, 8])
        j = jaccard(a, b)
        assert j == jaccard(b, a)
        assert 0.0 <= j <= 1.0
        assert (j == 1.0) == (set(a.tolist()) == set(b.tolist()))
    # recall monotone along the sweep
    for _ in range(10):
        conf = rng.uniform(0.01, 1.0, size=(32, 32))
        mask = rng.uniform(0, 1, size=(32, 32)) < 0.05
        mask[0, 0] = True
        curve = pixel_pr([conf], [mask])
        assert (np.diff(curve.recall) >= 0).all()
        assert (np.diff(curve.thresholds) < 0).all()
    # a confidence map equal to the mask scores the single perfect point
    mask = np.zeros((20, 20), dtype=bool)
    mask[3:6, 4:9] = True
    perfect = pixel_pr([mask.astype(float)], [mask])
    assert perfect.thresholds.tolist() == [1.0]
    assert perfect.precision.tolist() == [1.0]
    assert perfect.recall.tolist() == [1.0]
    # prevalence baseline: 0.07% positives reports exactly P = 0.0007
    conf = np.zeros((1000, 1000))
    labels = np.zeros((1000, 1000), dtype=bool)
    labels[0, :700] = True
    conf[0, :700] = 1.0
    baseline = pixel_pr([conf], [labels])
    assert baseline.prevalence == 0.0007
    print("criterion 7 PASS: axioms, monotonicity, perfect point, baseline 0.0007")


def test_criterion_08_end_to_end_synthetic_benchmark(tmp_path):
    """Default-parameter eval on 10 scenes meets the pixel/object targets."""
    started = time.perf_counter()
    config = RunConfig()
    assert config.scenes == 10 and config.scene_width == 512
    report_path = cmd_eval(config, tmp_path)
    elapsed = time.perf_counter() - started
    assert report_path.is_file()

    manifest = load_manifest(tmp_path / "scenes" / "manifest.txt")
    assert len(manifest.subset("train")) == 7  # 2:1 split of 10 scenes
    assert len(manifest.subset("test")) == 3

    pixel = read_pr_csv(tmp_path / "scores" / "pr_pixel.csv")
    assert 0.003 <= pixel.prevalence <= 0.008  # prevalence near 0.5%
    precision_at_r08 = pixel.best_precision_at(0.8)
    assert precision_at_r08 >= 0.8, f"pixel P@R0.8 = {precision_at_r08}"

    j05 = read_pr_csv(tmp_path / "scores" / "pr_object_j0.5.csv")
    recall_at_p07 = j05.best_recall_at(0.7)
    assert recall_at_p07 >= 0.7, f"object R@P0.7 (J*=0.5) = {recall_at_p07}"

    max_recalls = [
        read_pr_csv(tmp_path / "scores" / f"pr_object_j{j:g}.csv").max_recall
        for j in (0.1, 0.3, 0.5, 0.7)
    ]
    assert max_recalls == sorted(max_recalls, reverse=True), max_recalls

    assert elapsed < 300.0, f"eval took {elapsed:.0f}s"
    print(
        f"criterion 8 PASS: pixel P@R0.8={precision_at_r08:.3f}, "
        f"object J0.5 R@P0.7={recall_at_p07:.3f}, "
        f"max recalls {['%.2f' % r for r in max_recalls]}, {elapsed:.0f}s"
    )


def test_criterion_09_byte_identical_reruns(tmp_path):
    """Identical config+seed reproduce every artifact, at any thread count."""
    config = RunConfig(
        scenes=3,
        scene_width=128,
        scene_height=128,
        panels_per_scene=3,
        panel_side_min=8,
        panel_side_max=12,
        train_pixels=5000,
        trees=5,
        seed=21,
    )
    tracked = [
        "model.pvforest",
        "detections.csv",
        "maps/scene_002.cmap",
        "enhanced/scene_002.cmap",
        "scores/pr_pixel.csv",
        "scores/pr_object_j0.1.csv",
        "scores/pr_object_j0.3.csv",
        "scores/pr_object_j0.5.csv",
        "scores/pr_object_j0.7.csv",
    ]
    blobs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / name
        cmd_eval(config.replace(threads=threads), out)
        blobs.append([(out / rel).read_bytes() for rel in tracked])
    assert blobs[0] == blobs[1], "rerun with identical config+seed differed"
    assert blobs[0] == blobs[2], "thread count changed an artifact"
    print(f"criterion 9 PASS: {len(tracked)} artifacts byte-identical across runs")


REAL_TILE_DIR = os.environ.get("PVDETECT_REAL_TILE_DIR", "")


@pytest.mark.skipif(
    not REAL_TILE_DIR,
    reason="set PVDETECT_REAL_TILE_DIR to a dir with tile.ppm + tile.csv",
)
def test_criterion_10_real_data_smoke(tmp_path):
    """Non-gating: predict + detect on one real tile emit an overlapping hit."""
    data = Path(REAL_TILE_DIR)
    tiles = sorted(data.glob("*.ppm"))
    assert tiles, f"no .ppm tile under {data}"
    tile_path = tiles[0]
    ann_path = tile_path.with_suffix(".csv")
    assert ann_path.is_file(), f"missing annotations {ann_path}"

    manifest_path = tmp_path / "manifest.txt"
    save_manifest(
        DatasetManifest((ManifestEntry("train", tile_path, ann_path),)),
        manifest_path,
    )
    config = RunConfig(train_pixels=100_000, seed=0)
    model_path = cmd_train(config, manifest_path, tmp_path)
    map_paths = cmd_predict(config, model_path, [tile_path], tmp_path)
    _, detections_path = cmd_detect(config, map_paths, tmp_path)
    tile = pv.load_tile(tile_path)
    detections = read_detections_csv(
        detections_path, {tile.tile_id: (tile.height, tile.width)}
    )
    annotations = pv.load_annotations(ann_path)
    mask = rasterize(annotations, tile.width, tile.height).ravel()
    overlapping = sum(
        1
        for objects in detections.values()
        for o in objects
        if mask[o.pixels].any()
    )
    assert overlapping >= 1
    print(f"criterion 10 PASS: {overlapping} detections overlap annotations")
