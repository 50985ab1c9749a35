"""pvdetect benchmark: end-to-end metrics, or a per-layer trace, of one workload.

    python3 perfbench/run.py --workload eval-default --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run sets up the workload's inputs several times, each in a fresh process,
and runs the timed region for ``--seconds`` seconds in two more: one
iteration alone, whose peak RSS from ``wait4`` is ``peak_rss_mb``, then the
rest.  Set-ups run at both ends of the run; ``setup_s`` is their median.  Every iteration
is checked (see ``workloads.py``); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of
``tracing.LAYER_METRICS`` plus the tracing overhead.  Timings are medians
over the iterations of the run; counts come from the first traced
iteration and must repeat exactly in the others.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# The timed region runs in two fresh processes: one iteration alone, whose
# peak RSS is peak_rss_mb, then the rest of the run.  Set-ups run before
# each of them while the set-ups so far have taken less than SETUP_BUDGET_S
# times the share of the run measured so far, and at the end until that
# budget is spent and there are at least SETUP_MIN (never more than
# SETUP_MAX).  The host's speed swings by about 20% over a few seconds, so
# set-ups taken only in the first seconds of a run would measure those
# seconds; taken at both ends, their median follows the run as wall_s does.
SETUP_MIN = 2
SETUP_MAX = 30
SETUP_BUDGET_S = 5.0
RUN_DEADLINE_S = 170.0

# (name, unit): the end-to-end metrics of a --trace 0 run
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pixel_p_at_r08", "ratio"),
    ("object_r_at_p07_j05", "ratio"),
    ("object_max_recall_j01", "ratio"),
]
OVERHEAD = ("trace.overhead_s", "s")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_child(mode: str, args, directory: Path, deadline: float,
              seconds: float = 0.0, first: int = 0) -> tuple[float, object]:
    """Run worker.py in a fresh process; return (wall seconds, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(directory),
        "--seconds", repr(seconds), "--trace", str(args.trace), "--first", str(first),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return wall, usage


def set_up(args, work: Path, deadline: float, walls: list[float],
           records: list[dict]) -> Path:
    """One set-up in a fresh process; returns the directory it built."""
    directory = work / f"setup{len(walls)}"
    directory.mkdir(parents=True)
    wall, _usage = run_child("setup", args, directory, deadline)
    walls.append(wall)
    log(f"set-up {len(walls)} took {wall:.3f} s")
    records.append(json.loads((directory / "setup.json").read_text()))
    return directory


def set_up_and_measure(args, work: Path, deadline: float):
    """Set up, then run the timed region, with set-ups at both ends.

    Returns (set-up walls, set-up records, the measured directory, the
    iterations in order, the peak RSS in KiB of a process that ran one
    iteration).  A traced run sets up once and measures in one process.
    """
    walls: list[float] = []
    records: list[dict] = []
    directory = set_up(args, work, deadline, walls, records)
    if args.trace:
        _wall, usage = run_child("measure", args, directory, deadline, args.seconds)
        iterations = json.loads((directory / "measure0.json").read_text())
        return walls, records, directory, iterations, usage.ru_maxrss
    iterations: list[dict] = []
    measured = 0.0
    for last in (False, True):
        share = min(measured / max(args.seconds, 1e-9), 1.0)
        while sum(walls) < SETUP_BUDGET_S * share and len(walls) < SETUP_MAX:
            shutil.rmtree(set_up(args, work, deadline, walls, records) / "inputs")
        first = len(iterations)
        seconds = args.seconds - measured if last else 0.0
        wall, usage = run_child("measure", args, directory, deadline, seconds, first)
        measured += wall
        if not last:
            peak_kib = usage.ru_maxrss
        iterations += json.loads((directory / f"measure{first}.json").read_text())
        log(f"timed process ran {len(iterations) - first} iterations in {wall:.3f} s")
    while len(walls) < SETUP_MAX and (
        sum(walls) < SETUP_BUDGET_S or len(walls) < SETUP_MIN
    ):
        shutil.rmtree(set_up(args, work, deadline, walls, records) / "inputs")
    return walls, records, directory, iterations, peak_kib


def check_digests(iterations: list[dict]) -> None:
    """Every iteration's artifacts must be byte-identical to the first's."""
    digested = [r for r in iterations if "digests" in r]
    for record in digested[1:]:
        if record["digests"] != digested[0]["digests"]:
            record["errors"].append("artifact digests differ from the first iteration")


def highest_percentile(n: int) -> float | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def describe_timing(values: list[float]) -> str:
    n = len(values)
    p = highest_percentile(n)
    if p is None:
        return f"median of n={n}; no percentile has >= 10 samples beyond it"
    q = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return f"median of n={n}; p{p:g} = {q:.4f} s"


def check_units(produced: list[tuple[str, str]], key: str) -> list[str]:
    """The metrics produced must be exactly those BENCHMARK.json lists."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"cannot read BENCHMARK.json: {exc}"]
    listed = [(m["name"], m["unit"]) for m in spec[key]]
    if listed != produced:
        return [f"BENCHMARK.json {key} {listed} differ from the metrics produced {produced}"]
    return []


def end_to_end(args, workloads, setup_walls, directory, iterations,
               peak_kib: int) -> tuple[dict, list[str]]:
    ok = [r for r in iterations if not r["errors"]]
    walls = [r["wall_s"] for r in ok]
    lines = []
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    workload = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    try:
        metrics.update(
            workload.quality(args.seed, directory / "inputs", directory / "out0")
        )
        log(f"quality scoring took {time.perf_counter() - t0:.3f} s")
    except Exception as exc:  # the first iteration left no scorable outputs
        lines.append(f"quality not measured: {exc!r}")
        metrics.update({name: 0.0 for name, unit in END_TO_END if unit == "ratio"})
    notes = {
        "setup_s": f"median of {len(setup_walls)} set-ups, each in a fresh process, "
                   "at both ends of the run",
        "wall_s": describe_timing(walls),
        "peak_rss_mb": "high-water RSS of a fresh process that ran one iteration "
                       "of the timed region and nothing else",
    }
    lines.append("iteration walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    for name, unit in END_TO_END:
        lines.append(f"{name:<24} {metrics[name]:>12.6g} {unit:<6} {notes.get(name, '')}")
    for stage in ("train_s", "predict_s", "score_s"):
        values = [r["stages"][stage] for r in ok if stage in r["stages"]]
        if values:
            lines.append(f"{stage:<24} {statistics.median(values):>12.6g} {'s':<6} "
                         f"{describe_timing(values)}")
    failed = sum(1 for r in iterations if r["errors"])
    lines.append(f"{'failed_share':<24} {failed / len(iterations):>12.6g} {'ratio':<6} "
                 f"{failed} of {len(iterations)} iterations failed")
    return metrics, lines


def per_layer(tracing, iterations) -> tuple[dict, list[str]]:
    traced = [r for r in iterations if r["traced"] and not r["errors"]]
    plain = [r for r in iterations if not r["traced"] and not r["errors"]]
    if not traced or not plain:
        raise BenchError("no successful traced and untraced iterations to compare")
    metrics, lines = {}, []
    for name, unit, _get, moves in tracing.LAYER_METRICS:
        values = [r["layers"][name] for r in traced]
        value = values[0] if unit in tracing.EXACT_UNITS else statistics.median(values)
        metrics[name] = value
        lines.append(f"{name:<44} {value:>14.6g} {unit:<6} moves {moves}")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics[OVERHEAD[0]] = traced_wall - plain_wall
    lines.append(
        f"{OVERHEAD[0]:<44} {metrics[OVERHEAD[0]]:>14.6g} {OVERHEAD[1]:<6} "
        f"traced wall {traced_wall:.4f} s (n={len(traced)}) minus untraced "
        f"{plain_wall:.4f} s (n={len(plain)})"
    )
    lines.append("per-thread self time under each stage (first traced iteration):")
    for row in traced[0]["thread_sums"]:
        others = ", ".join(f"{v:.4f}" for v in row["other_threads_s"]) or "none"
        lines.append(
            f"  {row['stage']:<16} wall {row['wall_s']:.4f} s = own thread "
            f"{row['own_thread_s']:.4f} s; pool threads {others} s"
        )
    if traced[0]["missing_targets"]:
        lines.append("not traced, absent from the program: "
                     + ", ".join(traced[0]["missing_targets"]))
    return metrics, lines


def digest_lines(iterations) -> list[str]:
    digests = next((r["digests"] for r in iterations if "digests" in r), {})
    combined = hashlib.sha256(
        "".join(f"{k} {v}\n" for k, v in sorted(digests.items())).encode()
    ).hexdigest()
    lines = [f"artifacts sha256 (identical across iterations): combined {combined}"]
    lines += [f"  {v} {k}" for k, v in sorted(digests.items())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pvdetect" / "__init__.py").is_file():
        log(f"no pvdetect sources under {ROOT / 'src'}; run from the repository root")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_walls, records, directory, iterations, peak_kib = set_up_and_measure(
            args, work, deadline
        )
        check_digests(iterations)
        errors = []
        if any(r != records[0] for r in records[1:]):
            errors.append("set-ups from the same seed built different inputs")
        if all(r["errors"] for r in iterations):
            raise BenchError("every iteration failed; the first: "
                             + "; ".join(iterations[0]["errors"]))
        if args.trace:
            metrics, lines = per_layer(tracing, iterations)
            units = [(n, u) for n, u, _g, _m in tracing.LAYER_METRICS] + [OVERHEAD]
            errors += check_units(units, "per_layer")
        else:
            metrics, lines = end_to_end(args, workloads, setup_walls, directory,
                                        iterations, peak_kib)
            units = END_TO_END
            errors += check_units(units, "end_to_end")
    except BenchError as exc:
        log(str(exc))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = sum(1 for r in iterations if r["errors"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    for line in lines + digest_lines(iterations):
        print(line)
    for k, r in enumerate(iterations):
        for message in r["errors"]:
            print(f"iteration {k} failed: {message}")
    for message in errors:
        print(f"check failed: {message}")
    unit_of = dict(units)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of[name]} for name, _u in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
