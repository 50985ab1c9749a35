"""Outside-in tracing of pvdetect: spans around the functions of each module.

Nothing inside the program changes.  ``Tracer.install`` replaces module
attributes with timing wrappers, under the name each caller looks up: for
example ``pvdetect.forest.extract_feature_rows``, because ``forest`` imports
that function by name, and ``pvdetect.detection.nonmax_suppress``, which
``postprocess`` resolves through its module globals.  ``cli``'s thread pool
is replaced too, so that a task records how long it sat in the queue and
the span that submitted it becomes its parent on the worker thread.

A span's self time is its duration minus the time its children cover on the
same thread.  ``layer_metrics`` turns the spans of one iteration into the
per-layer metrics of ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from pvdetect import cli, detection, forest, imagery, scoring, synth

POOL_TASK = "cli.ThreadPoolExecutor.task"
STAGES = ("cmd_synth", "cmd_train", "cmd_predict", "cmd_detect", "cmd_score", "cmd_eval")


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.thread = threading.get_ident()
        self.parent = parent
        self.info: dict = {}
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tree_depth(tree) -> int:
    """Depth of a flat-array tree; children always follow their parent."""
    depth = [0] * tree.n_nodes
    for node in range(tree.n_nodes):
        if tree.feature[node] >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return max(depth)


# (owner, attribute, span name, record(result, *args, **kwargs) -> counts)
def _targets():
    return [
        *((cli, s, f"cli.{s}", None) for s in STAGES),
        (cli, "write_detections_csv", "cli.write_detections_csv", None),
        (cli, "read_detections_csv", "cli.read_detections_csv", None),
        (synth, "generate_scene", "synth.generate_scene",
         lambda r, params, *a, **k: {"px": params.width * params.height}),
        (imagery, "load_tile", "imagery.load_tile", None),
        (imagery, "rasterize", "imagery.rasterize", None),
        (forest, "sample_training_pixels", "forest.sample_training_pixels",
         lambda r, *a, **k: {"rows": r.labels.size}),
        (forest, "extract_feature_rows", "features.extract_feature_rows",
         lambda r, *a, **k: {"px": r.shape[0] * r.shape[1], "bytes": r.shape[0]
                             * r.shape[1] * r.shape[2] * 8}),
        (forest, "train", "forest.train", None),
        (forest, "grow_tree", "forest.grow_tree",
         lambda r, *a, **k: {"nodes": r.n_nodes, "depth": _tree_depth(r)}),
        (forest, "best_split", "forest.best_split",
         lambda r, idx, subset, *a, **k: {"rows": len(idx) * len(subset),
                                          "hits": int(r is not None)}),
        (forest, "predict_tile", "forest.predict_tile", None),
        (forest, "predict_map", "forest.predict_map",
         lambda r, *a, **k: {"px": r.size}),
        (forest.DecisionTree, "route_batch", "forest.route",
         lambda r, *a, **k: {"px": r.size}),
        (forest, "load_model", "forest.load_model", None),
        (forest, "dump_model", "forest.dump_model", None),
        (detection, "postprocess", "detection.postprocess", None),
        (detection, "nonmax_suppress", "detection.nonmax_suppress",
         lambda r, *a, **k: {"n": len(r)}),
        (detection, "filter_maxima", "detection.filter_maxima",
         lambda r, *a, **k: {"n": len(r)}),
        (detection, "otsu_threshold", "detection.otsu_threshold", None),
        (detection, "extract_objects", "detection.extract_objects",
         lambda r, *a, **k: {"n": len(r)}),
        (detection, "connected_components", "detection.connected_components", None),
        (detection, "load_confidence_map", "detection.load_confidence_map", None),
        (detection, "encode_confidence_map", "detection.encode_confidence_map", None),
        (scoring, "pixel_pr", "scoring.pixel_pr",
         lambda r, *a, **k: {"n": r.thresholds.size}),
        (scoring, "multi_tile_object_pr", "scoring.multi_tile_object_pr", None),
        (scoring, "object_pr", "scoring.object_pr",
         lambda r, dets, anns, *a, **k: {
             "detections": len(dets),
             "annotations": len(anns),
             "distinct": len({d.confidence for d in dets}),
         }),
        (scoring, "match_objects", "scoring.match_objects",
         lambda r, dets, *a, **k: {"judged": len(dets)}),
        (scoring, "jaccard", "scoring.jaccard", None),
        (scoring, "write_pr_csv", "scoring.write_pr_csv", None),
    ]


class Tracer:
    """Collects spans from wrapped pvdetect functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        span = Span(name, parent if parent is not None else self.current())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, original, name, record):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if record is not None:
                span.info = record(result, *args, **kwargs)
            return result

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                queued = time.perf_counter()

                def task():
                    span = tracer.open(POOL_TASK, parent)
                    span.info = {"wait_s": span.start - queued}
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.close(span)

                return super().submit(task)

        return TracedPool

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed."""
        self.missing = []
        self._patch(cli, "ThreadPoolExecutor", self._pool_class())
        for owner, attr, name, record in _targets():
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._patch(owner, attr, self._wrap(original, name, record))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of same-thread children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            covered[id(s.parent)] += s.duration
    return {id(s): s.duration - covered[id(s)] for s in spans}


def thread_sums(spans: list[Span]) -> list[dict]:
    """Per stage span: self time summed per thread over its descendants.

    On the stage's own thread the sum telescopes to the stage's wall time;
    on a pool thread it can be at most that wall time.
    """
    selfs = self_times(spans)
    stages = [s for s in spans if s.name.startswith("cli.cmd_")]
    sums = {id(s): defaultdict(float) for s in stages}
    for s in spans:
        node = s
        while node is not None:
            if id(node) in sums:
                sums[id(node)][s.thread] += selfs[id(s)]
            node = node.parent
    return [
        {
            "stage": s.name,
            "wall_s": s.duration,
            "own_thread_s": sums[id(s)][s.thread],
            "other_threads_s": sorted(
                v for t, v in sums[id(s)].items() if t != s.thread
            ),
        }
        for s in stages
    ]


def check_thread_sums(rows: list[dict]) -> list[str]:
    errors = []
    for row in rows:
        if abs(row["own_thread_s"] - row["wall_s"]) > 1e-6:
            errors.append(
                f"{row['stage']}: self times on its thread sum to "
                f"{row['own_thread_s']:.6f} s, wall {row['wall_s']:.6f} s"
            )
        for v in row["other_threads_s"]:
            if v > row["wall_s"] + 1e-3:
                errors.append(
                    f"{row['stage']}: a pool thread's self times sum to "
                    f"{v:.6f} s, beyond the stage wall {row['wall_s']:.6f} s"
                )
    return errors


class _Agg:
    """Per-name sums over the spans of one iteration."""

    def __init__(self, spans: list[Span]):
        selfs = self_times(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.info: dict[tuple[str, str], float] = defaultdict(float)
        self.info_max: dict[tuple[str, str], float] = defaultdict(float)
        self.by_parent_s: dict[tuple[str, str], float] = defaultdict(float)
        self.by_parent_info: dict[tuple[str, str, str], float] = defaultdict(float)
        for sp in spans:
            self.calls[sp.name] += 1
            self.s[sp.name] += sp.duration
            self.self_s[sp.name] += selfs[id(sp)]
            parent = sp.parent.name if sp.parent is not None else ""
            self.by_parent_s[sp.name, parent] += sp.duration
            for key, value in sp.info.items():
                self.info[sp.name, key] += value
                self.info_max[sp.name, key] = max(self.info_max[sp.name, key], value)
                self.by_parent_info[sp.name, parent, key] += value
        self.task_wait: dict[str, float] = defaultdict(float)
        for sp in spans:
            if sp.parent is not None and sp.parent.name == POOL_TASK:
                self.task_wait[sp.name] += sp.parent.info["wait_s"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_FEATURES = "features.extract_feature_rows"

# (name, unit, value from an _Agg, what it should move)
LAYER_METRICS = [
    ("forest.best_split.calls", "count", lambda a: a.calls["forest.best_split"],
     "train_s, wall_s @ eval-default"),
    ("forest.best_split.s", "s", lambda a: a.s["forest.best_split"],
     "train_s, wall_s @ eval-default"),
    ("forest.best_split.rows", "count", lambda a: a.info["forest.best_split", "rows"],
     "train_s, wall_s @ eval-default"),
    ("forest.best_split.ns_per_row", "ns",
     lambda a: 1e9 * _ratio(a.s["forest.best_split"], a.info["forest.best_split", "rows"]),
     "train_s, wall_s @ eval-default"),
    ("forest.best_split.hit_ratio", "ratio",
     lambda a: _ratio(a.info["forest.best_split", "hits"], a.calls["forest.best_split"]),
     "train_s, wall_s @ eval-default"),
    ("forest.grow_tree.self_s", "s", lambda a: a.self_s["forest.grow_tree"],
     "train_s @ eval-default"),
    ("forest.nodes", "count", lambda a: a.info["forest.grow_tree", "nodes"],
     "train_s @ eval-default"),
    ("forest.max_depth", "count", lambda a: a.info_max["forest.grow_tree", "depth"],
     "train_s @ eval-default"),
    ("forest.sample_training_pixels.self_s", "s",
     lambda a: a.self_s["forest.sample_training_pixels"], "train_s @ eval-default"),
    ("features.extract_feature_rows.train_s", "s",
     lambda a: a.by_parent_s[_FEATURES, "forest.sample_training_pixels"],
     "train_s @ eval-default"),
    ("features.train_rows_used_ratio", "ratio",
     lambda a: _ratio(
         a.info["forest.sample_training_pixels", "rows"],
         a.by_parent_info[_FEATURES, "forest.sample_training_pixels", "px"],
     ), "train_s @ eval-default"),
    ("forest.predict_map.s", "s", lambda a: a.s["forest.predict_map"],
     "predict_s, wall_s @ tile-5000 and eval-default"),
    ("forest.predict_map.px", "count", lambda a: a.info["forest.predict_map", "px"],
     "predict_s, wall_s @ tile-5000 and eval-default"),
    ("forest.route.ns_per_px_tree", "ns",
     lambda a: 1e9 * _ratio(a.s["forest.route"], a.info["forest.route", "px"]),
     "predict_s, wall_s @ tile-5000 and eval-default"),
    ("forest.predict_tile.self_s", "s", lambda a: a.self_s["forest.predict_tile"],
     "predict_s, wall_s @ tile-5000 and eval-default"),
    ("forest.predict_tile.wait_s", "s", lambda a: a.task_wait["forest.predict_tile"],
     "predict_s, wall_s @ tile-5000 and eval-default"),
    ("features.extract_feature_rows.predict_s", "s",
     lambda a: a.by_parent_s[_FEATURES, "forest.predict_tile"],
     "predict_s, peak_rss_mb @ tile-5000"),
    ("features.extract_feature_rows.px", "count",
     lambda a: a.by_parent_info[_FEATURES, "forest.predict_tile", "px"],
     "predict_s, peak_rss_mb @ tile-5000"),
    ("features.extract_feature_rows.bytes_out", "B",
     lambda a: a.by_parent_info[_FEATURES, "forest.predict_tile", "bytes"],
     "predict_s, peak_rss_mb @ tile-5000 (computed as px x M x 8)"),
    ("detection.nonmax_suppress.s", "s", lambda a: a.s["detection.nonmax_suppress"],
     "wall_s @ score-dense"),
    ("detection.maxima", "count", lambda a: a.info["detection.nonmax_suppress", "n"],
     "wall_s @ score-dense"),
    ("detection.seeds", "count", lambda a: a.info["detection.filter_maxima", "n"],
     "wall_s @ score-dense"),
    ("detection.otsu_threshold.s", "s", lambda a: a.s["detection.otsu_threshold"],
     "wall_s @ score-dense"),
    ("detection.postprocess.self_s", "s", lambda a: a.self_s["detection.postprocess"],
     "wall_s @ score-dense (region growth plus closing and dilation)"),
    ("detection.connected_components.s", "s",
     lambda a: a.s["detection.connected_components"], "wall_s @ score-dense"),
    ("detection.extract_objects.self_s", "s",
     lambda a: a.self_s["detection.extract_objects"], "wall_s @ score-dense"),
    ("detection.objects", "count", lambda a: a.info["detection.extract_objects", "n"],
     "wall_s @ score-dense"),
    ("detection.confidence_map_io.s", "s",
     lambda a: a.s["detection.load_confidence_map"]
     + a.s["detection.encode_confidence_map"], "wall_s @ score-dense"),
    ("scoring.object_pr.s", "s", lambda a: a.s["scoring.object_pr"],
     "score_s, wall_s @ score-dense"),
    ("scoring.match_objects.calls", "count", lambda a: a.calls["scoring.match_objects"],
     "score_s, wall_s @ score-dense"),
    ("scoring.match_objects.s", "s", lambda a: a.s["scoring.match_objects"],
     "score_s, wall_s @ score-dense"),
    ("scoring.jaccard.calls", "count", lambda a: a.calls["scoring.jaccard"],
     "score_s, wall_s @ score-dense"),
    ("scoring.detections", "count",
     lambda a: a.info_max["scoring.object_pr", "detections"], "score_s @ score-dense"),
    ("scoring.annotations", "count",
     lambda a: a.info_max["scoring.object_pr", "annotations"], "score_s @ score-dense"),
    ("scoring.distinct_confidences", "count",
     lambda a: a.info_max["scoring.object_pr", "distinct"], "score_s @ score-dense"),
    ("scoring.object_pr.judgements_per_detection", "ratio",
     lambda a: _ratio(a.info["scoring.match_objects", "judged"],
                      a.info["scoring.object_pr", "detections"]),
     "score_s @ score-dense (1 would be a single pass)"),
    ("scoring.pixel_pr.s", "s", lambda a: a.s["scoring.pixel_pr"],
     "score_s @ score-dense"),
    ("scoring.pixel_pr.thresholds", "count", lambda a: a.info["scoring.pixel_pr", "n"],
     "score_s @ score-dense"),
    ("scoring.write_pr_csv.s", "s", lambda a: a.s["scoring.write_pr_csv"],
     "score_s @ score-dense"),
    ("imagery.rasterize.s", "s", lambda a: a.s["imagery.rasterize"],
     "score_s @ score-dense"),
    ("imagery.rasterize.calls", "count", lambda a: a.calls["imagery.rasterize"],
     "score_s @ score-dense"),
    ("cli.detections_csv.s", "s",
     lambda a: a.s["cli.write_detections_csv"] + a.s["cli.read_detections_csv"],
     "score_s @ score-dense"),
    ("synth.generate_scene.s", "s", lambda a: a.s["synth.generate_scene"],
     "wall_s @ eval-default"),
    ("synth.generate_scene.px", "count", lambda a: a.info["synth.generate_scene", "px"],
     "wall_s @ eval-default"),
    ("imagery.load_tile.s", "s", lambda a: a.s["imagery.load_tile"],
     "wall_s @ all"),
    ("forest.load_model.s", "s", lambda a: a.s["forest.load_model"],
     "wall_s @ tile-5000 and eval-default"),
    ("forest.dump_model.s", "s", lambda a: a.s["forest.dump_model"],
     "wall_s @ eval-default"),
    *(
        (f"cli.{stage}.s", "s", (lambda name: lambda a: a.s[name])(f"cli.{stage}"),
         "wall_s of the workloads that run it")
        for stage in STAGES
    ),
]

# units whose values derive from counts alone and so must repeat exactly
EXACT_UNITS = ("count", "ratio", "B")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    agg = _Agg(spans)
    return {name: float(get(agg)) for name, _unit, get, _moves in LAYER_METRICS}
