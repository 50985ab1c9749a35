"""Wall time and peak memory of predict, detect and score on a 5000x5000 tile.

The tile is a synthetic stand-in for a real aerial tile: scene seed 5, 800
panels, 5000x5000 pixels.  The model is trained as perfbench's eval-default
trains it: 10 scenes of 256x256 with 8 panels each, 50k rows, 10 trees.
Tile and model are built once and cached in CACHE_DIR; later runs reuse
them.  Building and writing the tile peaks at about 0.12 GB (the rendered
scene; it is written where it lies), predict on it near 0.25 GB and
detect, which post-processes in row slabs, near 0.27 GB; predict takes
seconds, so this script is kept out of the test suite and CI.

Each stage then runs as `pvdetect <stage>` in a fresh Python process that
imports pvdetect from this checkout's src/.  The script prints each stage's
wall time, its peak RSS as os.wait4 reports it, and the SHA-256 of every
file the stages wrote, so two checkouts can be compared byte for byte:

    python scripts/tile5000_memory.py CACHE_DIR [--threads 2]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TILE_ID = "tile5000"
TRAIN_CONFIG = """\
scene_width = 256
scene_height = 256
panels_per_scene = 8
train_pixels = 50000
trees = 10
"""
BUILD_TILE = f"""\
import sys
from pathlib import Path
from pvdetect import imagery, synth
out = Path(sys.argv[1])
params = synth.SceneParams(width=5000, height=5000, n_panels=800, seed=5)
tile, annotations = synth.generate_scene(params, {TILE_ID!r})
imagery.save_annotations(annotations, out / "{TILE_ID}.csv")
imagery.write_atomic(out / "manifest.txt", "test,{TILE_ID}.ppm,{TILE_ID}.csv\\n")
imagery.save_tile(tile, out / "{TILE_ID}.ppm")
"""
PVDETECT = "import sys; from pvdetect.cli import main; sys.exit(main(sys.argv[1:]))"


def run(code: str, *args) -> tuple[float, float]:
    """Run `python -c code args` in a fresh process: (wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", code, *map(str, args)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"failed: {' '.join(argv[3:])}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def build(cache: Path, threads: int) -> tuple[Path, Path]:
    """The cached (model, tile directory), built first if missing."""
    train_dir, tile_dir = cache / "train", cache / "tile"
    model = train_dir / "model.pvforest"
    if not model.is_file():
        train_dir.mkdir(parents=True, exist_ok=True)
        config = train_dir / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        common = ["--config", config, "--threads", threads, "--out", train_dir]
        run(PVDETECT, "synth", *common)
        run(PVDETECT, "train", *common, "--manifest", train_dir / "scenes/manifest.txt")
    if not (tile_dir / f"{TILE_ID}.ppm").is_file():
        tile_dir.mkdir(parents=True, exist_ok=True)
        wall, peak = run(BUILD_TILE, tile_dir)
        print(f"built the tile in {wall:.1f} s, peak {peak:.0f} MB")
    return model, tile_dir


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cache", type=Path, help="directory for inputs and outputs")
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()
    model, tile_dir = build(args.cache, args.threads)
    out = args.cache / "run"
    common = ["--threads", args.threads, "--out", out]
    stages = {
        "predict": ["predict", *common, "--model", model, tile_dir / f"{TILE_ID}.ppm"],
        "detect": ["detect", *common, out / "maps" / f"{TILE_ID}.cmap"],
        "score": [
            "score", "--threads", args.threads, "--out", out / "scores",
            "--manifest", tile_dir / "manifest.txt",
            "--maps", out / "maps", "--detections", out / "detections.csv",
        ],
    }
    for name, argv in stages.items():
        wall, peak = run(PVDETECT, *argv)
        print(f"{name:8s} wall {wall:6.2f} s  peak RSS {peak:7.1f} MB", flush=True)
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.endswith(".json"):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest[:16]}  {path.relative_to(out)}")


if __name__ == "__main__":
    main()
