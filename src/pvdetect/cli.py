"""Command-line pipeline: synth, train, predict, detect, score, eval.

This module holds only the stages, their worker maps and argument
parsing.  Stage boundaries are plain files (P6 tiles, annotation CSVs, the
model file, CMAP confidence maps, detections CSV, PR CSVs) so each stage
can be rerun from disk and reproduces its outputs byte for byte.  Each file
is encoded by the module that owns its format (imagery, forest, detection,
scoring) and written atomically (temp file + rename) by
imagery.write_atomic, and every stage drops a JSON manifest recording the
config, seed and input/output digests.  --threads caps every stage's
workers, forked for trees and threads for bands, tiles and training
columns, at one per task and one per core (_workers).

Exit codes: 0 success, 2 config error, 3 missing or unreadable input, or
an output that cannot be written, 4 malformed data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from collections import deque
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import detection, forest, imagery, scoring, synth
from .config import RunConfig, load_config
from .detection import read_detections_csv, write_detections_csv
from .errors import ConfigError, DataError, InputError, PVDetectError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_DATA = 4


def _sha256(path: Path) -> str:
    # in 1 MiB reads, so that a manifest never holds a map or tile whole
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    """The largest resident set so far, of this process or of any child it
    has waited for (forked tree workers), in MB as the scripts and the
    benchmark count them: ru_maxrss, in KiB on Linux, over 1024."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return round(kib / 1024, 1)


def _stage_manifest(
    out_dir: Path,
    stage: str,
    config: RunConfig,
    inputs: list[Path],
    outputs: list[Path],
    started: float,
    **counts,
) -> None:
    """Write out_dir/<stage>_manifest.json.  Besides the config and digests it
    records the stage's wall time since `started` (a perf_counter reading)
    and _peak_rss_mb, both read here at the stage's end; no stage output
    holds either."""
    record = {
        "wall_s": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "stage": stage,
        "seed": config.seed,
        "config": config.to_text(),
        "config_sha256": config.digest(),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        **counts,
    }
    imagery.write_atomic(
        out_dir / f"{stage}_manifest.json",
        json.dumps(record, sort_keys=True, indent=2) + "\n",
    )


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def _workers(threads: int, tasks: int) -> int:
    """Workers for `tasks` tasks: at most `threads`, one per task, one per core."""
    return max(1, min(threads, tasks, os.cpu_count() or 1))


def thread_map(threads: int):
    """A lazy, ordered map(fn, *iterables) on _workers(threads, tasks) threads.

    At most two tasks per thread run or wait to be consumed, and the
    threads are joined when the map ends or raises.  Its workers attribute
    is that count for as many tasks as threads, so forest._pool_bands cuts
    a multiple of that many bands.
    """

    def run(fn, *iterables):
        tasks = list(zip(*iterables))
        n = _workers(threads, len(tasks))
        with ThreadPoolExecutor(max_workers=n) as pool:
            pending = deque()
            for args in tasks:
                pending.append(pool.submit(fn, *args))
                if len(pending) == 2 * n:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()

    run.workers = _workers(threads, threads)
    return run


_forked_fn = None  # set only in fork_map's worker processes


def _adopt(fn) -> None:
    global _forked_fn
    _forked_fn = fn


def _call_forked(args: tuple):
    return _forked_fn(*args)


def fork_map(workers: int):
    """A map(fn, *iterables) that runs fn in _workers(workers, tasks) forked processes.

    fn reaches the workers through fork, unpickled, with everything it
    closes over; only the arguments go out and only the results come back,
    in order.  An exception raised by fn reaches the caller.  A fork pool
    starts all of its processes up front, hence the task and core caps;
    with one worker, fn runs in this process and nothing is forked.  Call
    it while no other thread runs: a forked child has only the forking
    thread, so a lock another thread held would stay held in the child.
    """

    def run(fn, *iterables) -> list:
        tasks = list(zip(*iterables))
        n = _workers(workers, len(tasks))
        if n == 1:
            return [fn(*args) for args in tasks]
        import multiprocessing  # only runs that fork pay for the import

        with futures.ProcessPoolExecutor(
            max_workers=n,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(fn,),
        ) as pool:
            return list(pool.map(_call_forked, tasks))

    return run


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def cmd_synth(config: RunConfig, out_dir: Path) -> Path:
    """Generate scenes plus annotations and a train/test manifest (2:1)."""
    started = time.perf_counter()
    scene_dir = out_dir / "scenes"
    n_train = config.train_scenes
    entries = []
    outputs = []
    bands = thread_map(config.threads)
    for i in range(config.scenes):
        tile_id = f"scene_{i:03d}"
        tile, annotations = synth.generate_scene(config.scene_params(i), tile_id, map=bands)
        image_path = scene_dir / f"{tile_id}.ppm"
        ann_path = scene_dir / f"{tile_id}.csv"
        imagery.save_tile(tile, image_path)
        imagery.save_annotations(annotations, ann_path)
        role = "train" if i < n_train else "test"
        entries.append(imagery.ManifestEntry(role, image_path, ann_path))
        outputs.extend([image_path, ann_path])
    manifest_path = scene_dir / "manifest.txt"
    imagery.save_manifest(imagery.DatasetManifest(tuple(entries)), manifest_path)
    outputs.append(manifest_path)
    _stage_manifest(out_dir, "synth", config, [], outputs, started)
    return manifest_path


def _role_entries(manifest: imagery.DatasetManifest, role: str):
    """The role's manifest entries; DataError if it has none."""
    entries = manifest.subset(role)
    if not entries:
        raise DataError(f"manifest lists no {role!r} entries")
    return entries


def cmd_train(config: RunConfig, manifest_path: Path, out_dir: Path) -> Path:
    """Train the forest on the manifest's train tiles and save the model.

    Rows are sampled per channel on this thread and encoded per column on
    threads, joined before trees grow in forked processes, each pool of at
    most config.threads.  The manifest records the rows and each tree's nodes and depth.
    """
    started = time.perf_counter()
    manifest = imagery.load_manifest(manifest_path)
    tiles, annotations = zip(*map(imagery.load_entry, _role_entries(manifest, "train")))
    positives = [imagery.rasterize(a, t.width, t.height) for t, a in zip(tiles, annotations)]
    spec = config.feature_spec()
    training = forest.sample_training_pixels(
        tiles, positives, spec, config.train_pixels, config.seed,
        map=thread_map(config.threads),
    )
    model = forest.train(
        training, config.rf_params(), spec.fingerprint(), map=fork_map(config.threads)
    )
    model_path = out_dir / "model.pvforest"
    forest.save_model(model, model_path)
    _stage_manifest(
        out_dir,
        "train",
        config,
        [manifest_path, *(p for e in manifest.subset("train")
                          for p in (e.image_path, e.annotation_path))],
        [model_path],
        started,
        training_rows=training.labels.size,
        trees=[{"nodes": t.n_nodes, "depth": t.depth} for t in model.trees],
    )
    return model_path


def cmd_predict(
    config: RunConfig, model_path: Path, tile_paths: list[Path], out_dir: Path
) -> list[Path]:
    """Write one confidence map per tile under out_dir/maps, one tile at a time.

    The manifest records, per tile, predict_tile's band count and band rows
    (forest._pool_bands).
    """
    started = time.perf_counter()
    model = forest.load_model(model_path)
    spec = config.feature_spec()
    bands = thread_map(config.threads)
    outputs, tiles = [], {}
    for tile_path in tile_paths:
        tile = imagery.load_tile(tile_path)
        conf = forest.predict_tile(model, tile, spec, map=bands)
        path = out_dir / "maps" / f"{tile.tile_id}.cmap"
        detection.save_confidence_map(conf, path)
        outputs.append(path)
        starts = forest._pool_bands(bands, tile.height, tile.width)
        tiles[tile.tile_id] = {"bands": len(starts), "band_rows": starts.step}
    _stage_manifest(
        out_dir, "predict", config, [model_path, *map(Path, tile_paths)], outputs, started,
        tiles=tiles,
    )
    return outputs


def cmd_detect(
    config: RunConfig, cmap_paths: list[Path], out_dir: Path
) -> tuple[list[Path], Path]:
    """Post-process confidence maps and extract detected objects.

    The manifest records, per tile, its object count and postprocess's slab
    count and slab rows (detection.slab_plan).
    """
    started = time.perf_counter()
    params = config.pp_params()
    cmap_paths = list(map(Path, cmap_paths))
    if len({src.stem for src in cmap_paths}) < len(cmap_paths):
        raise InputError("two confidence maps share a tile id (file stem)")
    for src in cmap_paths:
        detection.check_tile_id(src.stem)
    outputs = [out_dir / "enhanced" / f"{src.stem}.cmap" for src in cmap_paths]

    def run(src: Path, path: Path):
        # one task per tile, so at most `threads` maps are held at once
        enhanced = detection.postprocess(detection.load_confidence_map(src), params)
        detection.save_confidence_map(enhanced, path)
        return detection.extract_objects(enhanced), detection.slab_plan(enhanced.shape, params)

    objects_by_tile, tiles = {}, {}
    for src, (objects, (slabs, rows)) in zip(
        cmap_paths, thread_map(config.threads)(run, cmap_paths, outputs)
    ):
        objects_by_tile[src.stem] = objects
        tiles[src.stem] = {"objects": len(objects), "slabs": slabs, "slab_rows": rows}
    detections_path = out_dir / "detections.csv"
    write_detections_csv(objects_by_tile, detections_path)
    outputs.append(detections_path)
    _stage_manifest(out_dir, "detect", config, cmap_paths, outputs, started, tiles=tiles)
    return outputs[:-1], detections_path


def cmd_score(
    config: RunConfig,
    manifest_path: Path,
    out_dir: Path,
    maps_dir: Path | None = None,
    detections_path: Path | None = None,
    role: str = "test",
    svg: bool = False,
) -> list[Path]:
    """Score confidence maps (pixel PR) and/or detections (object PR)."""
    started = time.perf_counter()
    if maps_dir is None and detections_path is None:
        raise ConfigError("nothing to score: give a maps directory or detections")
    manifest = imagery.load_manifest(manifest_path)
    # score needs a tile's id and shape only, so it reads each tile's header,
    # never its pixels; annotations become flat pixel indices once
    shapes, annotation_pixels = {}, {}
    for entry in _role_entries(manifest, role):
        h, w = shapes[entry.tile_id] = imagery.load_tile_shape(entry.image_path)
        annotation_pixels[entry.tile_id] = [
            imagery.polygon_pixels(ann, w, h) for ann in imagery.entry_annotations(entry)
        ]
    outputs = []
    inputs = [manifest_path, *(e.annotation_path for e in manifest.subset(role))]

    def emit(curve: scoring.PRCurve, path: Path, title: str) -> None:
        scoring.write_pr_csv(curve, path)
        outputs.append(path)
        if svg:
            svg_path = path.with_suffix(".svg")
            scoring.write_pr_svg(curve, svg_path, title)
            outputs.append(svg_path)

    if maps_dir is not None:
        maps_dir = Path(maps_dir)
        conf_maps, positives = [], []
        for tile_id, shape in shapes.items():
            cmap_path = maps_dir / f"{tile_id}.cmap"
            inputs.append(cmap_path)
            conf = detection.load_confidence_map(cmap_path)
            if conf.shape != shape:
                raise DataError(f"{cmap_path}: map {conf.shape} does not match its tile")
            conf_maps.append(conf)
            positives.append(imagery.pixel_union(annotation_pixels[tile_id]))
        curve = scoring.pixel_pr(conf_maps, positives)
        emit(curve, out_dir / "pr_pixel.csv", "pixel-level PR")

    if detections_path is not None:
        detections_path = Path(detections_path)
        inputs.append(detections_path)
        detections_by_tile = read_detections_csv(detections_path, shapes)
        curves = scoring.multi_tile_object_pr(
            detections_by_tile, annotation_pixels, config.jaccard_levels
        )
        for level, curve in zip(config.jaccard_levels, curves):
            emit(
                curve,
                out_dir / f"pr_object_j{level:g}.csv",
                f"object-level PR, J*={level:g}",
            )

    _stage_manifest(out_dir, "score", config, inputs, outputs, started)
    return outputs


def cmd_eval(config: RunConfig, out_dir: Path) -> Path:
    """Full pipeline: synth, train, predict, detect, score, report."""
    if config.train_scenes == config.scenes:
        raise ConfigError(f"scenes = {config.scenes} leaves the 2:1 split no test scene")
    timings = {}
    started = time.perf_counter()

    def clock(name: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        timings[name] = round(time.perf_counter() - t0, 3)
        return result

    manifest_path = clock("synth", cmd_synth, config, out_dir)
    model_path = clock("train", cmd_train, config, manifest_path, out_dir)
    manifest = imagery.load_manifest(manifest_path)
    test_tiles = [e.image_path for e in manifest.subset("test")]
    map_paths = clock("predict", cmd_predict, config, model_path, test_tiles, out_dir)
    _, detections_path = clock("detect", cmd_detect, config, map_paths, out_dir)
    score_dir = out_dir / "scores"
    score_paths = clock(
        "score",
        cmd_score,
        config,
        manifest_path,
        score_dir,
        out_dir / "maps",
        detections_path,
    )
    timings["total"] = round(time.perf_counter() - started, 3)

    pixel_curve = scoring.read_pr_csv(score_dir / "pr_pixel.csv")
    object_summary = {}
    for level in config.jaccard_levels:
        curve = scoring.read_pr_csv(score_dir / f"pr_object_j{level:g}.csv")
        object_summary[f"j{level:g}"] = {
            "max_recall": curve.max_recall,
            "recall_at_p0.7": curve.best_recall_at(0.7),
            "prevalence": curve.prevalence,
        }
    report = {
        "config_sha256": config.digest(),
        "seed": config.seed,
        "outputs": {
            "model": str(model_path),
            "maps": [str(p) for p in map_paths],
            "detections": str(detections_path),
            "scores": [str(p) for p in score_paths],
        },
        "pixel": {
            "prevalence": pixel_curve.prevalence,
            "precision_at_r0.8": pixel_curve.best_precision_at(0.8),
            "recall_at_p0.8": pixel_curve.best_recall_at(0.8),
        },
        "object": object_summary,
        "timings_seconds": timings,
    }
    report_path = out_dir / "eval_report.json"
    imagery.write_atomic(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report_path


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvdetect",
        description="Detect rooftop solar PV arrays in RGB aerial tiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, help="worker cap, at most one per task "
                       "and core: forked processes for trees, threads for bands and tiles")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate synthetic scenes + manifest")
    common(p)

    p = sub.add_parser("train", help="train the pixel classifier")
    common(p)
    p.add_argument("--manifest", help="dataset manifest (overrides config)")

    p = sub.add_parser("predict", help="write confidence maps for tiles")
    common(p)
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("tiles", nargs="+", help="P6 tile paths")

    p = sub.add_parser("detect", help="post-process maps and extract objects")
    common(p)
    p.add_argument("maps", nargs="+", help="confidence-map (.cmap) paths")

    p = sub.add_parser("score", help="pixel/object precision-recall")
    common(p)
    p.add_argument("--manifest", help="dataset manifest (overrides config)")
    p.add_argument("--maps", help="directory of <tile_id>.cmap files")
    p.add_argument("--detections", help="detections CSV")
    p.add_argument("--role", default="test", choices=("train", "test"))
    p.add_argument("--svg", action="store_true", help="also plot each curve")

    p = sub.add_parser("eval", help="synth + train + predict + detect + score")
    common(p)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    manifest = getattr(args, "manifest", None)
    if manifest:
        overrides["manifest"] = manifest
    return config.replace(**overrides) if overrides else config


def _manifest_path(config: RunConfig) -> Path:
    if not config.manifest:
        raise ConfigError("no manifest given (config key 'manifest' or --manifest)")
    return Path(config.manifest)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        out_dir = Path(args.out)
        if args.command == "synth":
            manifest = cmd_synth(config, out_dir)
            print(f"wrote {config.scenes} scenes, manifest {manifest}")
        elif args.command == "train":
            model = cmd_train(config, _manifest_path(config), out_dir)
            print(f"wrote model {model}")
        elif args.command == "predict":
            maps = cmd_predict(config, Path(args.model), args.tiles, out_dir)
            print(f"wrote {len(maps)} confidence maps under {out_dir / 'maps'}")
        elif args.command == "detect":
            enhanced, detections = cmd_detect(config, args.maps, out_dir)
            print(f"wrote {len(enhanced)} enhanced maps, detections {detections}")
        elif args.command == "score":
            outputs = cmd_score(
                config,
                _manifest_path(config),
                out_dir,
                Path(args.maps) if args.maps else None,
                Path(args.detections) if args.detections else None,
                args.role,
                args.svg,
            )
            print("wrote " + ", ".join(str(p) for p in outputs))
        elif args.command == "eval":
            report = cmd_eval(config, out_dir)
            print(f"wrote report {report}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"pvdetect: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        label = "input" if isinstance(exc, InputError) else "file"
        print(f"pvdetect: {label} error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DataError, PVDetectError) as exc:
        print(f"pvdetect: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
