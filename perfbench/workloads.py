"""The benchmark's workloads: inputs built from a seed, the timed command, checks.

Each workload has five parts:

- ``setup(seed, inputs)`` builds every input under ``inputs`` and returns
  the counts the outputs must reproduce (for example the number of painted
  objects).  It runs in its own process before the timed region.
- ``run(seed, inputs, out)`` is the timed region: one call sequence of
  pvdetect's public stage functions, writing under ``out``.  It returns the
  wall time of each stage it ran.
- ``artifacts(out)`` lists the byte-identical artifacts of one iteration
  (the files acceptance criterion 9 tracks).
- ``check(inputs, out, expected)`` returns the output-check failures of one
  iteration, as messages; an empty list means the iteration is correct.

- ``quality(seed, inputs, out)`` returns the quality metrics of one
  iteration's outputs.  It runs after the timed region, so every workload
  reports them, also one whose timed region does not score.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pvdetect import cli, detection, imagery, scoring, synth
from pvdetect.config import RunConfig

# nproc on the reference host; the program never gets more workers
THREADS = 2

# eval-default is `pvdetect eval` resized so that one iteration takes about
# 5 s: the default config (10 scenes of 512^2, 200k rows, 30 trees) takes
# about 60 s, longer than one benchmark run may last.  Training stays about
# 70% of the wall time and quality stays above the criterion-8 floors.
EVAL_OVERRIDES = dict(
    scene_width=256,
    scene_height=256,
    panels_per_scene=8,
    train_pixels=50_000,
    trees=10,
)

# criterion-8 floors: pixel P@R0.8 and object R@P0.7 at J*=0.5
PIXEL_FLOOR = 0.8
OBJECT_FLOOR = 0.7

# tile-5000: one strip at the real 5000 px tile width
STRIP_WIDTH = 5000
STRIP_HEIGHT = 64  # one 64-row band of features: 261 MB
STRIP_PANELS = 40

# score-dense: synthetic scenes with painted confidence maps
DENSE_SCENES = 3
DENSE_SIDE = 512
DENSE_PANELS = 15
DENSE_CLUTTER = 5
DENSE_GAP = 16  # blob spacing, wider than closing plus dilation can bridge
SPECKLE_SHARE = 0.02
SPECKLE_LEVELS = 1000
SPECKLE_MAX = 0.3  # below confidence_floor, so speckle never seeds a region
BLOB_SIDE = 12  # panels and clutter alike, so no seed draws cheaper blobs
CLUTTER_EVERY = 4
BLOB_LEVELS = 6000
BLOB_MIN = 0.40
BLOB_SPAN = 0.59
BLOB_TEXTURE = 0.01


def eval_config(seed: int) -> RunConfig:
    return RunConfig(seed=seed, threads=THREADS, **EVAL_OVERRIDES)


def _timed(stages: dict, name: str, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    stages[name] = time.perf_counter() - t0
    return result


def _count_detections(path: Path) -> tuple[int, int]:
    """(objects, distinct confidences) of a detections CSV, read as text."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    confidences = {row.split(",")[2] for row in rows if row}
    return sum(1 for row in rows if row), len(confidences)


def _quality_from_scores(score_dir: Path) -> dict:
    pixel = scoring.read_pr_csv(score_dir / "pr_pixel.csv")
    j05 = scoring.read_pr_csv(score_dir / "pr_object_j0.5.csv")
    j01 = scoring.read_pr_csv(score_dir / "pr_object_j0.1.csv")
    return {
        "pixel_p_at_r08": pixel.best_precision_at(0.8),
        "object_r_at_p07_j05": j05.best_recall_at(0.7),
        "object_max_recall_j01": j01.max_recall,
    }


def _scored_quality(seed: int, inputs: Path, out: Path) -> dict:
    """Quality of a workload whose timed region wrote the PR curves."""
    return _quality_from_scores(out / "scores")


def _sorted_files(directory: Path, pattern: str) -> list[Path]:
    return sorted(directory.glob(pattern))


# ---------------------------------------------------------------------------
# eval-default: the full `pvdetect eval` command
# ---------------------------------------------------------------------------


def _eval_setup(seed: int, inputs: Path) -> dict:
    # cmd_eval synthesizes its own scenes: the set-up only fixes the config
    config = eval_config(seed)
    (inputs / "config.txt").write_text(config.to_text())
    return {"config_sha256": config.digest()}


def _eval_run(seed: int, inputs: Path, out: Path) -> dict:
    cli.cmd_eval(eval_config(seed), out)
    timings = json.loads((out / "eval_report.json").read_text())["timings_seconds"]
    return {"train_s": timings["train"], "predict_s": timings["predict"]}


def _eval_artifacts(out: Path) -> list[Path]:
    return [
        out / "model.pvforest",
        *_sorted_files(out / "maps", "*.cmap"),
        *_sorted_files(out / "enhanced", "*.cmap"),
        out / "detections.csv",
        *_sorted_files(out / "scores", "*.csv"),
    ]


def _eval_check(inputs: Path, out: Path, expected: dict) -> list[str]:
    errors = []
    if _count_detections(out / "detections.csv")[0] == 0:
        errors.append("empty detections file")
    quality = _quality_from_scores(out / "scores")
    if quality["pixel_p_at_r08"] < PIXEL_FLOOR:
        errors.append(f"pixel P@R0.8 {quality['pixel_p_at_r08']} < {PIXEL_FLOOR}")
    if quality["object_r_at_p07_j05"] < OBJECT_FLOOR:
        errors.append(
            f"object R@P0.7 J0.5 {quality['object_r_at_p07_j05']} < {OBJECT_FLOOR}"
        )
    return errors


# ---------------------------------------------------------------------------
# tile-5000: predict + detect on one strip of the real tile width
# ---------------------------------------------------------------------------


def _strip_seed(seed: int) -> int:
    return (seed * 1_000_003 + 7919) & ((1 << 64) - 1)


def _tile_setup(seed: int, inputs: Path) -> dict:
    # the strip's model is eval-default's, trained in a process of its own
    config = eval_config(seed)
    train_dir = inputs / "train"
    manifest_path = cli.cmd_synth(config, train_dir)
    model_path = cli.cmd_train(config, manifest_path, train_dir)
    # the timed region gets only the model: the training scenes and their
    # stage manifests (which record absolute paths) are dropped
    (inputs / "model.pvforest").write_bytes(model_path.read_bytes())
    shutil.rmtree(train_dir)
    params = synth.SceneParams(
        width=STRIP_WIDTH,
        height=STRIP_HEIGHT,
        n_panels=STRIP_PANELS,
        seed=_strip_seed(seed),
    )
    tile, annotations = synth.generate_scene(params, "strip")
    imagery.save_tile(tile, inputs / "strip.ppm")
    imagery.save_annotations(annotations, inputs / "strip.csv")
    imagery.save_manifest(
        imagery.DatasetManifest(
            (imagery.ManifestEntry("test", inputs / "strip.ppm", inputs / "strip.csv"),)
        ),
        inputs / "manifest.txt",
    )
    return {"annotations": len(annotations)}


def _tile_run(seed: int, inputs: Path, out: Path) -> dict:
    config = eval_config(seed)
    stages: dict = {}
    maps = _timed(
        stages,
        "predict_s",
        cli.cmd_predict,
        config,
        inputs / "model.pvforest",
        [inputs / "strip.ppm"],
        out,
    )
    cli.cmd_detect(config, maps, out)
    return stages


def _tile_artifacts(out: Path) -> list[Path]:
    return [out / "maps" / "strip.cmap", out / "enhanced" / "strip.cmap", out / "detections.csv"]


def _tile_check(inputs: Path, out: Path, expected: dict) -> list[str]:
    if _count_detections(out / "detections.csv")[0] == 0:
        return ["empty detections file"]
    return []


def _tile_quality(seed: int, inputs: Path, out: Path) -> dict:
    cli.cmd_score(
        eval_config(seed),
        inputs / "manifest.txt",
        out / "scores",
        out / "maps",
        out / "detections.csv",
    )
    return _quality_from_scores(out / "scores")


# ---------------------------------------------------------------------------
# score-dense: detect + score on painted maps with distinct confidences
# ---------------------------------------------------------------------------


def _place_clutter(
    rng: np.random.Generator, taken: list[tuple[int, int, int, int]], count: int
) -> list[tuple[int, int, int, int]]:
    """count (x0, y0, w, h) blobs kept DENSE_GAP px from every taken rect."""
    placed = []
    side = BLOB_SIDE
    for _ in range(count):
        for _attempt in range(10_000):
            x0, y0 = (int(v) for v in rng.integers(0, DENSE_SIDE - side + 1, size=2))
            if not any(
                x0 - DENSE_GAP < x + pw
                and x < x0 + side + DENSE_GAP
                and y0 - DENSE_GAP < y + ph
                and y < y0 + side + DENSE_GAP
                for (x, y, pw, ph) in taken + placed
            ):
                placed.append((x0, y0, side, side))
                break
        else:
            raise RuntimeError("could not place clutter blobs")
    return placed


def _paint_map(
    rng: np.random.Generator, blobs: list[tuple[int, int, int, int]], peaks
) -> np.ndarray:
    """A mostly-zero map: sparse low speckle plus one textured blob per rect.

    Each blob's pixels lie within BLOB_TEXTURE below its peak, so several
    local maxima seed region growing, and the blob centre holds the peak
    exactly, so the detected object's confidence is that peak.  Speckle
    stays 3 px clear of blobs, so it never joins a grown region.
    """
    conf = np.zeros((DENSE_SIDE, DENSE_SIDE))
    near_blob = np.zeros(conf.shape, dtype=bool)
    for x0, y0, w, h in blobs:
        near_blob[max(0, y0 - 3) : y0 + h + 3, max(0, x0 - 3) : x0 + w + 3] = True
    speckle = (rng.random(conf.shape) < SPECKLE_SHARE) & ~near_blob
    levels = rng.integers(1, SPECKLE_LEVELS + 1, size=int(speckle.sum()))
    conf[speckle] = levels * (SPECKLE_MAX / SPECKLE_LEVELS)
    for (x0, y0, w, h), peak in zip(blobs, peaks):
        conf[y0 : y0 + h, x0 : x0 + w] = peak - BLOB_TEXTURE * rng.random((h, w))
        conf[y0 + h // 2, x0 + w // 2] = peak
    return conf


def _dense_peaks(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Distinct peak confidences for the panels and for the clutter blobs.

    The values and which blob gets which come from the seed; every
    CLUTTER_EVERY-th rank, counted from the highest, goes to clutter.  So
    true and false detections interleave the same way for every seed, and
    the PR curves and the matching work do not depend on it.
    """
    n_panels = DENSE_SCENES * DENSE_PANELS
    n_blobs = n_panels + DENSE_SCENES * DENSE_CLUTTER
    level_ids = rng.choice(BLOB_LEVELS, size=n_blobs, replace=False)
    peaks = np.sort(BLOB_MIN + BLOB_SPAN * (level_ids + 1) / BLOB_LEVELS)[::-1]
    ranks = np.arange(n_blobs)
    is_clutter = ranks % CLUTTER_EVERY == CLUTTER_EVERY - 1
    return (
        peaks[rng.permutation(ranks[~is_clutter])],
        peaks[rng.permutation(ranks[is_clutter])],
    )


def _dense_setup(seed: int, inputs: Path) -> dict:
    rng = np.random.default_rng(seed)
    maps_dir = inputs / "maps"
    maps_dir.mkdir(parents=True)
    panel_peaks, clutter_peaks = _dense_peaks(rng)
    entries = []
    for i in range(DENSE_SCENES):
        tile_id = f"scene_{i:03d}"
        params = synth.SceneParams(
            width=DENSE_SIDE,
            height=DENSE_SIDE,
            n_panels=DENSE_PANELS,
            panel_side_min=BLOB_SIDE,
            panel_side_max=BLOB_SIDE,
            panel_gap=DENSE_GAP,
            seed=int(rng.integers(0, 2**63)),
        )
        tile, annotations = synth.generate_scene(params, tile_id)
        imagery.save_tile(tile, inputs / f"{tile_id}.ppm")
        imagery.save_annotations(annotations, inputs / f"{tile_id}.csv")
        panels = [
            (int(a.vertices[0, 0]), int(a.vertices[0, 1]), BLOB_SIDE, BLOB_SIDE)
            for a in annotations
        ]
        blobs = panels + _place_clutter(rng, panels, DENSE_CLUTTER)
        peaks = np.concatenate([
            panel_peaks[i * DENSE_PANELS : (i + 1) * DENSE_PANELS],
            clutter_peaks[i * DENSE_CLUTTER : (i + 1) * DENSE_CLUTTER],
        ])
        conf = _paint_map(rng, blobs, peaks)
        detection.save_confidence_map(conf, maps_dir / f"{tile_id}.cmap")
        entries.append(
            imagery.ManifestEntry(
                "test", inputs / f"{tile_id}.ppm", inputs / f"{tile_id}.csv"
            )
        )
    imagery.save_manifest(imagery.DatasetManifest(tuple(entries)), inputs / "manifest.txt")
    all_peaks = np.concatenate([panel_peaks, clutter_peaks])
    return {
        "detections": all_peaks.size,
        "annotations": panel_peaks.size,
        "distinct_confidences": len({float(np.float32(p)) for p in all_peaks}),
    }


def _dense_run(seed: int, inputs: Path, out: Path) -> dict:
    config = eval_config(seed)
    stages: dict = {}
    cmaps = _sorted_files(inputs / "maps", "*.cmap")
    _, detections_path = cli.cmd_detect(config, cmaps, out)
    _timed(
        stages,
        "score_s",
        cli.cmd_score,
        config,
        inputs / "manifest.txt",
        out / "scores",
        inputs / "maps",
        detections_path,
    )
    return stages


def _dense_artifacts(out: Path) -> list[Path]:
    return [
        *_sorted_files(out / "enhanced", "*.cmap"),
        out / "detections.csv",
        *_sorted_files(out / "scores", "*.csv"),
    ]


def _dense_check(inputs: Path, out: Path, expected: dict) -> list[str]:
    errors = []
    n_objects, n_distinct = _count_detections(out / "detections.csv")
    if n_objects == 0:
        errors.append("empty detections file")
    if n_objects != expected["detections"]:
        errors.append(f"D = {n_objects}, painted {expected['detections']}")
    if n_distinct != expected["distinct_confidences"]:
        errors.append(
            f"{n_distinct} distinct confidences, painted "
            f"{expected['distinct_confidences']}"
        )
    manifest = imagery.load_manifest(inputs / "manifest.txt")
    n_annotations = sum(
        len(imagery.load_annotations(e.annotation_path)) for e in manifest.entries
    )
    if n_annotations != expected["annotations"]:
        errors.append(f"A = {n_annotations}, generated {expected['annotations']}")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], dict]
    run: Callable[[int, Path, Path], dict]
    artifacts: Callable[[Path], list[Path]]
    check: Callable[[Path, Path, dict], list[str]]
    quality: Callable[[int, Path, Path], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-default", _eval_setup, _eval_run, _eval_artifacts, _eval_check,
            _scored_quality,
        ),
        Workload(
            "tile-5000", _tile_setup, _tile_run, _tile_artifacts, _tile_check,
            _tile_quality,
        ),
        Workload(
            "score-dense", _dense_setup, _dense_run, _dense_artifacts, _dense_check,
            _scored_quality,
        ),
    )
}
