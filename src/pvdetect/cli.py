"""Command-line pipeline: synth, train, predict, detect, score, eval.

Stage boundaries are plain files (P6 tiles, annotation CSVs, the model
file, CMAP confidence maps, detections CSV, PR CSVs) so each stage can be
rerun from disk and reproduces its outputs byte for byte.  Outputs are
written atomically (temp file + rename) and every stage drops a JSON
manifest recording the config, seed and input/output digests.

Exit codes: 0 success, 2 config error, 3 missing/unreadable input,
4 malformed data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import detection, forest, imagery, scoring, synth
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, InputError, PVDetectError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_DATA = 4


def _write_bytes_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def _write_text_atomic(path: Path, text: str) -> None:
    _write_bytes_atomic(path, text.encode("utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stage_manifest(
    out_dir: Path,
    stage: str,
    config: RunConfig,
    inputs: list[Path],
    outputs: list[Path],
) -> None:
    record = {
        "stage": stage,
        "seed": config.seed,
        "config": config.to_text(),
        "config_sha256": config.digest(),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
    }
    _write_text_atomic(
        out_dir / f"{stage}_manifest.json",
        json.dumps(record, sort_keys=True, indent=2) + "\n",
    )


# ---------------------------------------------------------------------------
# Detections CSV
# ---------------------------------------------------------------------------

_DETECTIONS_HEADER = (
    "tile_id,object_id,confidence,area,min_x,min_y,max_x,max_y,rle_pixels"
)


def write_detections_csv(
    objects_by_tile: dict[str, list[detection.DetectionObject]], path: Path
) -> None:
    lines = [_DETECTIONS_HEADER]
    for tile_id in sorted(objects_by_tile):
        for k, obj in enumerate(objects_by_tile[tile_id]):
            min_x, min_y, max_x, max_y = obj.bbox
            lines.append(
                f"{tile_id},{k},{format(obj.confidence, '.17g')},{obj.area},"
                f"{min_x},{min_y},{max_x},{max_y},{obj.to_rle()}"
            )
    _write_text_atomic(path, "\n".join(lines) + "\n")


def read_detections_csv(
    path: Path, shapes: dict[str, tuple[int, int]]
) -> dict[str, list[detection.DetectionObject]]:
    """Detections by tile; shapes gives the (height, width) of each known tile.

    A row naming an unknown tile, a pixel outside its tile, or an area or
    bounding box that disagrees with the pixel runs raises DataError.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"detections file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _DETECTIONS_HEADER:
        raise DataError(f"{path}: missing detections header")
    by_tile: dict[str, list[detection.DetectionObject]] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise DataError(f"{path}:{lineno}: expected 9 fields, got {len(parts)}")
        tile_id = parts[0]
        if tile_id not in shapes:
            raise DataError(f"{path}:{lineno}: unknown tile {tile_id!r}")
        try:
            confidence = float(parts[2])
            area, *bbox = (int(v) for v in parts[3:8])
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: bad confidence, area or bounding box"
            ) from None
        try:
            obj = detection.DetectionObject.from_rle(
                parts[8], confidence, shapes[tile_id]
            )
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if obj.area != area or obj.bbox != tuple(bbox):
            raise DataError(
                f"{path}:{lineno}: area or bounding box does not match pixel runs"
            )
        by_tile.setdefault(tile_id, []).append(obj)
    return by_tile


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def cmd_synth(config: RunConfig, out_dir: Path) -> Path:
    """Generate scenes plus annotations and a train/test manifest (2:1)."""
    scene_dir = out_dir / "scenes"
    scene_dir.mkdir(parents=True, exist_ok=True)
    n_train = (2 * config.scenes + 2) // 3
    entries = []
    outputs = []
    for i in range(config.scenes):
        tile_id = f"scene_{i:03d}"
        tile, annotations = synth.generate_scene(config.scene_params(i), tile_id)
        image_path = scene_dir / f"{tile_id}.ppm"
        ann_path = scene_dir / f"{tile_id}.csv"
        _write_bytes_atomic(image_path, imagery.encode_tile(tile))
        ann_lines = [
            f"{a.tile_id},{a.polygon_id},"
            + ",".join(format(c, ".17g") for c in a.vertices.ravel())
            for a in annotations
        ]
        _write_text_atomic(ann_path, "\n".join(ann_lines) + "\n")
        role = "train" if i < n_train else "test"
        entries.append(imagery.ManifestEntry(role, image_path, ann_path))
        outputs.extend([image_path, ann_path])
    manifest_path = scene_dir / "manifest.txt"
    imagery.save_manifest(imagery.DatasetManifest(tuple(entries)), manifest_path)
    outputs.append(manifest_path)
    _stage_manifest(out_dir, "synth", config, [], outputs)
    return manifest_path


def _load_role(
    manifest: imagery.DatasetManifest, role: str
) -> tuple[list[imagery.ImageTile], list[list[imagery.PolygonAnnotation]]]:
    entries = manifest.subset(role)
    if not entries:
        raise DataError(f"manifest lists no {role!r} entries")
    tiles, annotations = [], []
    for entry in entries:
        tile, anns = imagery.load_entry(entry)
        tiles.append(tile)
        annotations.append(anns)
    return tiles, annotations


def cmd_train(config: RunConfig, manifest_path: Path, out_dir: Path) -> Path:
    """Train the forest on the manifest's train tiles and save the model."""
    manifest = imagery.load_manifest(manifest_path)
    tiles, annotations = _load_role(manifest, "train")
    masks = [
        imagery.rasterize(anns, tile.width, tile.height)
        for tile, anns in zip(tiles, annotations)
    ]
    spec = config.feature_spec()
    training = forest.sample_training_pixels(
        tiles, masks, spec, config.train_pixels, config.seed
    )
    model = forest.train(training, config.rf_params(), spec.fingerprint())
    model_path = out_dir / "model.pvforest"
    _write_bytes_atomic(model_path, forest.dump_model(model))
    _stage_manifest(
        out_dir,
        "train",
        config,
        [manifest_path, *(e.image_path for e in manifest.subset("train"))],
        [model_path],
    )
    return model_path


def cmd_predict(
    config: RunConfig, model_path: Path, tile_paths: list[Path], out_dir: Path
) -> list[Path]:
    """Write one confidence map per tile under out_dir/maps."""
    model = forest.load_model(model_path)
    spec = config.feature_spec()
    maps_dir = out_dir / "maps"
    maps_dir.mkdir(parents=True, exist_ok=True)
    tiles = [imagery.load_tile(p) for p in tile_paths]

    def run(tile: imagery.ImageTile) -> np.ndarray:
        return forest.predict_tile(model, tile, spec)

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        maps = list(pool.map(run, tiles))
    outputs = []
    for tile, conf in zip(tiles, maps):
        path = maps_dir / f"{tile.tile_id}.cmap"
        _write_bytes_atomic(path, detection.encode_confidence_map(conf))
        outputs.append(path)
    _stage_manifest(
        out_dir, "predict", config, [model_path, *map(Path, tile_paths)], outputs
    )
    return outputs


def cmd_detect(
    config: RunConfig, cmap_paths: list[Path], out_dir: Path
) -> tuple[list[Path], Path]:
    """Post-process confidence maps and extract detected objects."""
    params = config.pp_params()
    enhanced_dir = out_dir / "enhanced"
    enhanced_dir.mkdir(parents=True, exist_ok=True)
    maps = [detection.load_confidence_map(p) for p in cmap_paths]

    def run(conf: np.ndarray) -> np.ndarray:
        return detection.postprocess(conf, params)

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        enhanced_maps = list(pool.map(run, maps))
    outputs = []
    objects_by_tile: dict[str, list[detection.DetectionObject]] = {}
    for src, enhanced in zip(map(Path, cmap_paths), enhanced_maps):
        tile_id = src.stem
        path = enhanced_dir / f"{tile_id}.cmap"
        _write_bytes_atomic(path, detection.encode_confidence_map(enhanced))
        outputs.append(path)
        objects_by_tile[tile_id] = detection.extract_objects(enhanced)
    detections_path = out_dir / "detections.csv"
    write_detections_csv(objects_by_tile, detections_path)
    outputs.append(detections_path)
    _stage_manifest(out_dir, "detect", config, list(map(Path, cmap_paths)), outputs)
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
    if maps_dir is None and detections_path is None:
        raise ConfigError("nothing to score: give a maps directory or detections")
    manifest = imagery.load_manifest(manifest_path)
    tiles, annotations = _load_role(manifest, role)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    inputs = [manifest_path]

    def emit(curve: scoring.PRCurve, path: Path, title: str) -> None:
        scoring.write_pr_csv(curve, path)
        outputs.append(path)
        if svg:
            svg_path = path.with_suffix(".svg")
            scoring.write_pr_svg(curve, svg_path, title)
            outputs.append(svg_path)

    if maps_dir is not None:
        maps_dir = Path(maps_dir)
        conf_maps, masks = [], []
        for tile, anns in zip(tiles, annotations):
            cmap_path = maps_dir / f"{tile.tile_id}.cmap"
            inputs.append(cmap_path)
            conf_maps.append(detection.load_confidence_map(cmap_path))
            masks.append(imagery.rasterize(anns, tile.width, tile.height))
        curve = scoring.pixel_pr(conf_maps, masks, config.sweep)
        emit(curve, out_dir / "pr_pixel.csv", "pixel-level PR")

    if detections_path is not None:
        detections_path = Path(detections_path)
        inputs.append(detections_path)
        detections_by_tile = read_detections_csv(
            detections_path, {t.tile_id: (t.height, t.width) for t in tiles}
        )
        annotations_by_tile = {
            tile.tile_id: [
                imagery.polygon_pixels(ann, tile.width, tile.height) for ann in anns
            ]
            for tile, anns in zip(tiles, annotations)
        }
        for level in config.jaccard_levels:
            curve = scoring.multi_tile_object_pr(
                detections_by_tile, annotations_by_tile, level
            )
            emit(
                curve,
                out_dir / f"pr_object_j{level:g}.csv",
                f"object-level PR, J*={level:g}",
            )

    _stage_manifest(out_dir, "score", config, inputs, outputs)
    return outputs


def cmd_eval(config: RunConfig, out_dir: Path) -> Path:
    """Full pipeline: synth, train, predict, detect, score, report."""
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
    _write_text_atomic(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
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
        p.add_argument("--threads", type=int, help="worker cap for tile stages")
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
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            manifest = cmd_synth(config, out_dir)
            print(f"wrote {config.scenes} scenes, manifest {manifest}")
        elif args.command == "train":
            model = cmd_train(config, _manifest_path(config), out_dir)
            print(f"wrote model {model}")
        elif args.command == "predict":
            maps = cmd_predict(
                config, Path(args.model), [Path(p) for p in args.tiles], out_dir
            )
            print(f"wrote {len(maps)} confidence maps under {out_dir / 'maps'}")
        elif args.command == "detect":
            enhanced, detections = cmd_detect(
                config, [Path(p) for p in args.maps], out_dir
            )
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
    except (InputError, FileNotFoundError, PermissionError) as exc:
        print(f"pvdetect: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DataError, PVDetectError) as exc:
        print(f"pvdetect: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
