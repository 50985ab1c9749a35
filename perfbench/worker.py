"""Child process of the benchmark: builds inputs, or runs the timed region.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D
    python3 perfbench/worker.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 --first F

``setup`` writes the inputs under D/inputs and D/setup.json.  ``measure``
repeats the workload's timed command for S seconds (at least once),
numbering its iterations from F, and writes D/measureF.json.  Each runs in
a fresh process, so that the peak RSS of ``measure`` covers the timed region
only.  With ``--trace 1`` untraced and traced iterations alternate; the
difference of their walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracing import (
    EXACT_UNITS,
    LAYER_METRICS,
    Tracer,
    check_thread_sums,
    layer_metrics,
    thread_sums,
)
from workloads import WORKLOADS

MIN_TRACED_PAIRS = 2


def release_memory() -> None:
    """Hand freed heap back to the OS between iterations (glibc only).

    The heap left by one iteration is larger in some thread arenas than in
    others; trimming it keeps what the next iteration inherits small.  It
    does not stop the high-water mark from growing with the iteration
    count, so peak_rss_mb comes from a process that runs one iteration.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def do_setup(args) -> None:
    workload = WORKLOADS[args.workload]
    inputs = args.dir / "inputs"
    inputs.mkdir(parents=True)
    expected = workload.setup(args.seed, inputs)
    record = {"expected": expected, "inputs": tree_digests(inputs)}
    (args.dir / "setup.json").write_text(json.dumps(record, sort_keys=True) + "\n")


def run_iteration(workload, args, expected: dict, out: Path, tracer) -> dict:
    record: dict = {"traced": tracer is not None, "errors": []}
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        record["stages"] = workload.run(args.seed, args.dir / "inputs", out)
        record["wall_s"] = time.perf_counter() - t0
    except Exception:  # a failed iteration is counted, not fatal
        record["errors"].append(traceback.format_exc(limit=3))
    finally:
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.take()
    if record["errors"]:
        return record
    try:
        record["errors"] += workload.check(args.dir / "inputs", out, expected)
        record["digests"] = {
            str(p.relative_to(out)): sha256(p) for p in workload.artifacts(out)
        }
    except Exception:
        record["errors"].append(traceback.format_exc(limit=3))
    if tracer is not None:
        record["layers"] = layer_metrics(spans)
        record["thread_sums"] = thread_sums(spans)
        record["errors"] += check_thread_sums(record["thread_sums"])
        record["missing_targets"] = tracer.missing
    return record


def do_measure(args) -> None:
    workload = WORKLOADS[args.workload]
    expected = json.loads((args.dir / "setup.json").read_text())["expected"]
    tracer = Tracer() if args.trace else None
    iterations: list[dict] = []
    started = time.perf_counter()
    while True:
        i = len(iterations)
        traced = tracer if (args.trace and i % 2 == 1) else None
        out = args.dir / f"out{args.first + i}"
        iterations.append(run_iteration(workload, args, expected, out, traced))
        if args.first + i > 0:  # out0 is kept for the quality metrics
            shutil.rmtree(out, ignore_errors=True)
        release_memory()
        # stop before an iteration that would, at the mean pace so far,
        # end past the measuring time
        elapsed = time.perf_counter() - started
        enough = not args.trace or len(iterations) >= 2 * MIN_TRACED_PAIRS
        if enough and elapsed * (i + 2) / (i + 1) > args.seconds:
            break
    if args.trace:
        check_exact_counts([r for r in iterations if r["traced"]])
    (args.dir / f"measure{args.first}.json").write_text(
        json.dumps(iterations, sort_keys=True) + "\n"
    )


def check_exact_counts(traced: list[dict]) -> None:
    """Counts (and ratios of counts) must repeat exactly across traced runs."""
    exact = [name for name, unit, _get, _moves in LAYER_METRICS if unit in EXACT_UNITS]
    reference = traced[0].get("layers")
    for record in traced[1:]:
        layers = record.get("layers")
        if reference is None or layers is None:
            continue
        for name in exact:
            if layers[name] != reference[name]:
                record["errors"].append(
                    f"{name} = {layers[name]!r}, first traced run {reference[name]!r}"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first", type=int, default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        do_setup(args)
    else:
        do_measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
