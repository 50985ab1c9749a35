"""Wall time and peak memory of `pvdetect detect` on a speckled SIZE x SIZE map.

The map is a float32 CMAP written directly, with no scene or model behind
it, so even SIZE = 5000 builds in a few hundred MB: NumPy generator seed 5,
0.4% of the pixels uniform in [0.4, 1], 2% uniform in [0, 0.3], the rest 0.
Almost every bright speckle is a seed, so region growing dominates the run.

`pvdetect detect` then runs at --threads 1 and at --threads 2, each in a
fresh Python process that imports pvdetect from this checkout's src/.  The
script prints each run's wall time and peak RSS (from os.wait4), the seed
and object counts, and the SHA-256 of every output, and exits 1 if the two
runs' outputs differ:

    python scripts/speckled_detect.py SIZE [--out DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
PVDETECT = "import sys; from pvdetect.cli import main; sys.exit(main(sys.argv[1:]))"
SEEDS = """\
import sys
from pvdetect import detection
from pvdetect.config import RunConfig
params = RunConfig().pp_params()
conf = detection.load_confidence_map(sys.argv[1])
maxima = detection.nonmax_suppress(conf, params.nms_side)
print(len(detection.filter_maxima(conf, maxima, params.confidence_floor)))
"""
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def speckled_map(size: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    u = rng.random((size, size), dtype=np.float32)
    conf = np.zeros((size, size), dtype=np.float32)
    high, low = u < 0.004, (u >= 0.004) & (u < 0.024)
    del u
    conf[high] = rng.uniform(0.4, 1.0, int(high.sum()))
    conf[low] = rng.uniform(0.0, 0.3, int(low.sum()))
    return conf


def run(*args) -> tuple[float, float]:
    """Run `pvdetect args` in a fresh process: (wall s, peak RSS MB)."""
    argv = [sys.executable, "-c", PVDETECT, *map(str, args)]
    t0 = time.perf_counter()
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]  # its own summary line
    pid = os.posix_spawn(sys.executable, argv, ENV, file_actions=quiet)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"failed: pvdetect {' '.join(argv[3:])}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def digests(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith(".json")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("size", type=int, help="map side in pixels")
    parser.add_argument("--out", type=Path, help="keep the map and outputs here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        return measure(args.size, out)


def measure(size: int, out: Path) -> int:
    sys.path.insert(0, str(SRC))
    from pvdetect.detection import save_confidence_map

    cmap = out / "speckled.cmap"
    save_confidence_map(speckled_map(size), cmap)
    seeds = subprocess.run(
        [sys.executable, "-c", SEEDS, str(cmap)],
        env=ENV, check=True, capture_output=True, text=True,
    ).stdout.strip()
    print(f"{size}x{size} speckled map: {seeds} seeds")
    runs = {}
    for threads in (1, 2):
        run_out = out / f"threads{threads}"
        wall, peak = run("detect", "--threads", threads, "--out", run_out, cmap)
        runs[threads] = digests(run_out)
        objects = (run_out / "detections.csv").read_text().count("\n") - 1
        print(f"--threads {threads}: wall {wall:6.2f} s  peak RSS {peak:7.1f} MB"
              f"  {objects} objects", flush=True)
        for name, digest in runs[threads].items():
            print(f"  {digest[:16]}  {name}")
    if runs[1] != runs[2]:
        print("outputs differ between --threads 1 and --threads 2")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
