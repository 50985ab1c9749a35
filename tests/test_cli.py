import hashlib
import json
import os
import threading
from concurrent import futures
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvdetect import cli, detection, forest, imagery
from pvdetect.cli import (
    cmd_detect,
    cmd_eval,
    cmd_predict,
    cmd_score,
    cmd_synth,
    cmd_train,
    fork_map,
    main,
    thread_map,
)
from pvdetect.config import RunConfig, parse_config
from pvdetect.detection import (
    DetectionObject,
    load_confidence_map,
    read_detections_csv,
    write_detections_csv,
)
from pvdetect.errors import (
    AnnotationError,
    ChannelCountError,
    DataError,
    InputError,
    RasterFormatError,
    TruncatedRasterError,
)
from pvdetect.features import FeatureSpec
from pvdetect.forest import BAND_PIXELS
from pvdetect.imagery import ImageTile, load_manifest, save_tile
from oracles import tree_depth

TINY = dict(
    scenes=3,
    scene_width=96,
    scene_height=96,
    panels_per_scene=2,
    panel_side_min=6,
    panel_side_max=10,
    train_pixels=2000,
    trees=3,
)


def tiny_config(**overrides):
    values = dict(TINY)
    values.update(overrides)
    return RunConfig(**values)


def tiny_config_text(**overrides):
    lines = [f"{k} = {v}" for k, v in {**TINY, **overrides}.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Detections CSV and RLE
# ---------------------------------------------------------------------------


def test_rle_roundtrip():
    # (5, 0) and (0, 1) are adjacent flat indices but lie on different rows
    xy = {(0, 0), (1, 0), (2, 0), (4, 0), (5, 0), (0, 1), (5, 3)}
    pixels = sorted(y * 6 + x for x, y in xy)
    text = DetectionObject(pixels, 0.5, (4, 6)).to_rle()
    assert text == "0:0-2;0:4-5;1:0-0;3:5-5"
    again = DetectionObject.from_rle(text, 0.5, (4, 6))
    assert again.pixels.tolist() == pixels
    bad_runs = ["not runs", "0:3-2", "-1:0-2", "0:-1-2", "0:5-6", "4:0-0", ""]
    # runs out of row-major order, or overlapping
    bad_runs += ["1:0-0;0:0-2", "0:4-5;0:0-2", "0:0-2;0:2-3", "0:1-1;0:1-1"]
    for bad in bad_runs:
        with pytest.raises(DataError):
            DetectionObject.from_rle(bad, 0.5, (4, 6))


_RLE_TEXT = st.text() | st.text("0123456789:-;, ")


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_RLE_TEXT, st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_from_rle_raises_only_data_error(text, shape):
    try:
        obj = DetectionObject.from_rle(text, 0.5, shape)
    except DataError:
        return
    again = DetectionObject.from_rle(obj.to_rle(), 0.5, shape)
    assert again.pixels.tolist() == obj.pixels.tolist()


@st.composite
def detections_texts(draw):
    """A header and rows of nine short fields, on known tiles or not."""
    rows = [detection._DETECTIONS_HEADER]
    for _ in range(draw(st.integers(0, 3))):
        tile = draw(st.sampled_from(["t", "t0", "u"]))
        number = st.integers(-1, 30).map(str) | st.text("0123456789.-e", max_size=3)
        numbers = draw(st.lists(number, min_size=7, max_size=7))
        rows.append(",".join([tile, *numbers, draw(_RLE_TEXT)]))
    return "\n".join(rows)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.text() | detections_texts())
def test_read_detections_csv_raises_only_data_error(text):
    try:
        with mock.patch.object(detection, "read_text", return_value=text):
            read_detections_csv(Path("detections.csv"), {"t": (4, 6), "t0": (1, 1)})
    except DataError:
        pass


def test_detections_csv_roundtrip(tmp_path):
    shapes = {"tile_a": (10, 10), "tile_b": (6, 5)}
    objects = {
        "tile_b": [DetectionObject([23, 24, 28], 0.75, shapes["tile_b"])],
        "tile_a": [
            DetectionObject([0], 0.5, shapes["tile_a"]),
            DetectionObject([98, 99], 1.0, shapes["tile_a"]),
        ],
    }
    path = tmp_path / "detections.csv"
    write_detections_csv(objects, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("tile_id,object_id,confidence,area,")
    again = read_detections_csv(path, shapes)
    assert set(again) == {"tile_a", "tile_b"}
    assert [o.pixels.tolist() for o in again["tile_a"]] == [[0], [98, 99]]
    assert again["tile_b"][0].pixels.tolist() == [23, 24, 28]
    assert again["tile_b"][0].confidence == 0.75


def test_read_detections_csv_non_utf8_is_data_error(tmp_path):
    path = tmp_path / "detections.csv"
    write_detections_csv({"t": [DetectionObject([0], 0.5, (2, 2))]}, path)
    path.write_bytes(path.read_bytes().replace(b"\nt,", b"\nt\xff,"))
    with pytest.raises(DataError, match="not UTF-8"):
        read_detections_csv(path, {"t": (2, 2)})


# ---------------------------------------------------------------------------
# Individual stages
# ---------------------------------------------------------------------------


def test_cmd_synth_creates_dataset(tmp_path):
    config = tiny_config()
    manifest_path = cmd_synth(config, tmp_path)
    manifest = load_manifest(manifest_path)
    assert len(manifest.entries) == 3
    roles = [e.role for e in manifest.entries]
    assert roles == ["train", "train", "test"]  # 2:1 split
    for entry in manifest.entries:
        assert entry.image_path.is_file()
        assert entry.annotation_path.is_file()
    record = json.loads((tmp_path / "synth_manifest.json").read_text())
    assert record["stage"] == "synth"
    assert parse_config(record["config"]) == config


def test_pipeline_stages_and_rerun_determinism(tmp_path):
    config = tiny_config()
    manifest_path = cmd_synth(config, tmp_path)
    model_path = cmd_train(config, manifest_path, tmp_path)
    assert model_path.read_bytes().startswith(b"PVFOREST v1")

    manifest = load_manifest(manifest_path)
    test_tiles = [e.image_path for e in manifest.subset("test")]
    map_paths = cmd_predict(config, model_path, test_tiles, tmp_path)
    assert len(map_paths) == 1
    conf = load_confidence_map(map_paths[0])
    assert conf.shape == (96, 96)

    enhanced_paths, detections_path = cmd_detect(config, map_paths, tmp_path)
    assert len(enhanced_paths) == 1
    assert detections_path.is_file()

    score_dir = tmp_path / "scores"
    outputs = cmd_score(
        config, manifest_path, score_dir, tmp_path / "maps", detections_path
    )
    names = {p.name for p in outputs}
    assert names == {
        "pr_pixel.csv",
        "pr_object_j0.1.csv",
        "pr_object_j0.3.csv",
        "pr_object_j0.5.csv",
        "pr_object_j0.7.csv",
    }

    # rerunning a stage from its on-disk inputs reproduces outputs exactly
    before = detections_path.read_bytes()
    cmd_detect(config, map_paths, tmp_path)
    assert detections_path.read_bytes() == before
    before_map = map_paths[0].read_bytes()
    cmd_predict(config, model_path, test_tiles, tmp_path)
    assert map_paths[0].read_bytes() == before_map

    # optional SVG emission drops one plot next to each curve
    svg_outputs = cmd_score(
        config, manifest_path, tmp_path / "svg", tmp_path / "maps", None, svg=True
    )
    svgs = [p for p in svg_outputs if p.suffix == ".svg"]
    assert len(svgs) == 1
    assert svgs[0].read_text().startswith("<svg ")


def _random_maps(directory, count, rng):
    paths = []
    for i in range(count):
        path = directory / f"t{i}.cmap"
        detection.save_confidence_map(rng.uniform(0, 1, size=(24, 24)), path)
        paths.append(path)
    return paths


def test_cmd_detect_holds_at_most_one_map_per_worker(tmp_path, monkeypatch):
    # each tile is loaded, post-processed and extracted in one pool task, so
    # maps loaded but not yet extracted never outnumber the workers
    paths = _random_maps(tmp_path, 5, np.random.default_rng(3))
    load, extract = detection.load_confidence_map, detection.extract_objects
    lock = threading.Lock()
    held, peak = 0, 0

    def counting_load(path):
        nonlocal held, peak
        with lock:
            held += 1
            peak = max(peak, held)
        return load(path)

    def counting_extract(enhanced):
        nonlocal held
        with lock:
            held -= 1
        return extract(enhanced)

    monkeypatch.setattr(detection, "load_confidence_map", counting_load)
    monkeypatch.setattr(detection, "extract_objects", counting_extract)
    enhanced_paths, _ = cmd_detect(tiny_config(threads=2), paths, tmp_path / "out")
    assert [p.stem for p in enhanced_paths] == [p.stem for p in paths]
    assert held == 0 and 1 <= peak <= 2


def test_cmd_detect_rejects_duplicate_tile_ids(tmp_path):
    rng = np.random.default_rng(4)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    paths = _random_maps(tmp_path / "a", 1, rng) + _random_maps(tmp_path / "b", 1, rng)
    with pytest.raises(InputError, match="tile id"):
        cmd_detect(tiny_config(), paths, tmp_path / "out")


@pytest.mark.parametrize("stem", ["a,b", "a\nb", "a\r\nb", "a\x0bb", "a\u2028b", "end\n"])
def test_main_detect_rejects_a_tile_id_the_detections_csv_cannot_hold(tmp_path, capsys, stem):
    """A map stem with a comma or a line break exits 3 before any work.

    Written as the first field of a detections row, it would give a file
    that read_detections_csv rejects; the writer refuses it too.
    """
    path = tmp_path / "maps" / f"{stem}.cmap"
    detection.save_confidence_map(np.random.default_rng(5).uniform(0, 1, (24, 24)), path)
    out = tmp_path / "out"
    assert main(["detect", "--out", str(out), str(path)]) == 3
    assert "tile id" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(InputError, match="comma or a line break"):
        write_detections_csv({stem: []}, tmp_path / "detections.csv")
    write_detections_csv({"a b;c": []}, tmp_path / "detections.csv")  # other text is fine


def test_cmd_score_drops_each_tile_before_the_next_loads(tmp_path, monkeypatch):
    # score needs a tile's id and shape only, so it reads each tile's header
    # and never loads a tile's pixels: none is held while the next tile's
    # header is read or while any map is scored
    config = tiny_config()
    manifest_path = cmd_synth(config, tmp_path)
    entries = load_manifest(manifest_path).subset("train")
    assert len(entries) >= 2
    rng = np.random.default_rng(5)
    maps = [tmp_path / "maps" / f"{e.tile_id}.cmap" for e in entries]
    for path in maps:
        detection.save_confidence_map(rng.random((96, 96), dtype=np.float32), path)
    _, detections_path = cmd_detect(config, maps, tmp_path)

    load_shape, load_map = imagery.load_tile_shape, detection.load_confidence_map
    shapes = []

    def no_load(path):
        raise AssertionError(f"loaded the pixels of {path}")

    def watched_load_shape(path):
        shapes.append(load_shape(path))
        return shapes[-1]

    def watched_load_map(path):
        assert len(shapes) == len(entries), "a map loads before every header is read"
        return load_map(path)

    monkeypatch.setattr(imagery, "load_tile", no_load)
    monkeypatch.setattr(imagery, "load_tile_shape", watched_load_shape)
    monkeypatch.setattr(detection, "load_confidence_map", watched_load_map)
    outputs = cmd_score(config, manifest_path, tmp_path / "scores", tmp_path / "maps",
                        detections_path, role="train")
    assert shapes == [(96, 96)] * len(entries) and len(outputs) == 5


def test_score_raises_each_tile_and_annotation_error(tmp_path, capsys):
    """A tile that load_tile would reject fails score with the same error
    from its header and size alone, and an annotation of another tile fails
    it as load_entry would; main exits 3 or 4."""
    config = tiny_config()
    manifest_path = cmd_synth(config, tmp_path)
    (entry,) = load_manifest(manifest_path).subset("test")
    tile_bytes = entry.image_path.read_bytes()
    annotation_text = entry.annotation_path.read_text()
    header = tile_bytes[: tile_bytes.index(b"255\n") + 4]
    cases = [
        (tile_bytes[:-1], annotation_text, TruncatedRasterError,
         "expected 27648 sample bytes, found 27647"),
        (tile_bytes + b"\0\0", annotation_text, RasterFormatError, "2 trailing bytes"),
        (b"P6\n96 96\n65535\n" + tile_bytes[len(header):], annotation_text,
         RasterFormatError, "unsupported maxval"),
        (b"P5" + tile_bytes[2:], annotation_text, ChannelCountError, "1-channel raster"),
        (b"", annotation_text, RasterFormatError, "not a P6 raster"),
        (tile_bytes, "scene_000,p,1,1,5,1,5,5\n", AnnotationError, "does not belong to tile"),
        (None, annotation_text, InputError, "raster not found"),
    ]
    for data, text, error, message in cases:
        entry.image_path.unlink(missing_ok=True)
        if data is not None:
            entry.image_path.write_bytes(data)
        entry.annotation_path.write_text(text)
        with pytest.raises(error, match=message):
            cmd_score(config, manifest_path, tmp_path / "scores", tmp_path / "maps")
        code = main(["score", "--manifest", str(manifest_path), "--maps",
                     str(tmp_path / "maps"), "--out", str(tmp_path / "scores")])
        assert code == (3 if error is InputError else 4)
        assert message in capsys.readouterr().err


def test_score_without_role_entries_loads_no_tile(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text(scenes=2))  # both scenes train
    assert main(["synth", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    manifest_path = tmp_path / "scenes" / "manifest.txt"

    def no_load(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr(imagery, "load_tile", no_load)
    monkeypatch.setattr(imagery, "load_tile_shape", no_load)
    with pytest.raises(DataError, match="manifest lists no 'test' entries"):
        cmd_score(tiny_config(), manifest_path, tmp_path / "scores", tmp_path / "maps")
    capsys.readouterr()
    code = main(["score", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--maps", str(tmp_path / "maps"), "--out", str(tmp_path / "scores")])
    assert code == 4
    assert "data error: manifest lists no 'test' entries" in capsys.readouterr().err


def test_stage_manifests_digest_the_annotation_csvs(tmp_path):
    # every label comes from an annotation CSV, so train and score record
    # each one's digest beside the tiles and maps
    config = tiny_config()
    manifest_path = cmd_synth(config, tmp_path)
    manifest = load_manifest(manifest_path)
    edited = manifest.subset("train")[0].annotation_path
    edited.write_text(edited.read_text() + "# edited\n")
    digest = hashlib.sha256(edited.read_bytes()).hexdigest()
    cmd_train(config, manifest_path, tmp_path)
    inputs = json.loads((tmp_path / "train_manifest.json").read_text())["inputs"]
    assert inputs[str(edited)] == digest
    assert {str(e.annotation_path) for e in manifest.subset("train")} <= inputs.keys()

    test_csv = manifest.subset("test")[0].annotation_path
    maps = cmd_predict(config, tmp_path / "model.pvforest",
                       [e.image_path for e in manifest.subset("test")], tmp_path)
    cmd_score(config, manifest_path, tmp_path / "scores", maps[0].parent)
    record = json.loads((tmp_path / "scores" / "score_manifest.json").read_text())
    assert record["inputs"][str(test_csv)] == hashlib.sha256(test_csv.read_bytes()).hexdigest()


def test_cmd_eval_end_to_end(tmp_path):
    config = tiny_config()
    report_path = cmd_eval(config, tmp_path)
    report = json.loads(report_path.read_text())
    assert (tmp_path / "model.pvforest").is_file()
    assert (tmp_path / "detections.csv").is_file()
    assert len(list((tmp_path / "maps").glob("*.cmap"))) == 1
    assert len(list((tmp_path / "scores").glob("pr_object_*.csv"))) == 4
    assert (tmp_path / "scores" / "pr_pixel.csv").is_file()
    assert report["pixel"]["prevalence"] > 0
    assert "timings_seconds" in report


def test_stage_manifests_record_wall_peak_and_detect_slabs(tmp_path):
    """Every stage manifest records its wall time and the peak RSS so far;
    detect's records each tile's objects, slab count and slab rows."""
    cmd_eval(tiny_config(), tmp_path)
    for path in ["synth", "train", "predict", "detect", "scores/score"]:
        record = json.loads((tmp_path / f"{path}_manifest.json").read_text())
        assert record["wall_s"] >= 0.0 and record["peak_rss_mb"] > 0.0, path
    # a second tile of 480 x 560 px is two slabs of 240 rows (H = 30 at the defaults)
    conf = np.zeros((480, 560), np.float32)
    conf[100:110, 200:212] = conf[400:405, 7:9] = 0.8
    detection.save_confidence_map(conf, tmp_path / "wide.cmap")
    maps = [tmp_path / "maps" / "scene_002.cmap", tmp_path / "wide.cmap"]
    _, detections = cmd_detect(tiny_config(), maps, tmp_path / "again")
    tiles = json.loads((tmp_path / "again" / "detect_manifest.json").read_text())["tiles"]
    found = read_detections_csv(detections, {"scene_002": (96, 96), "wide": (480, 560)})
    assert tiles == {
        "scene_002": {"objects": len(found.get("scene_002", [])), "slabs": 1, "slab_rows": 96},
        "wide": {"objects": 2, "slabs": 2, "slab_rows": 240},
    }


def test_cmd_eval_writes_every_file_by_rename(tmp_path, monkeypatch):
    """Each output arrives whole by os.replace, and no temp file stays behind."""
    replaced = []
    replace = os.replace

    def recording_replace(src, dst):
        replaced.append(Path(dst))
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    out = tmp_path / "run"
    cmd_eval(tiny_config(threads=2), out)
    cmd_score(
        tiny_config(), out / "scenes" / "manifest.txt", out / "svg", out / "maps",
        out / "detections.csv", svg=True,
    )
    files = {p for p in out.rglob("*") if p.is_file()}
    assert files == set(replaced)
    assert len(replaced) == len(files)  # each file written once
    assert not [p for p in files if p.name.startswith(".")]
    assert {p.suffix for p in files} == {".ppm", ".csv", ".txt", ".pvforest",
                                         ".cmap", ".json", ".svg"}


def test_eval_deterministic_across_runs_and_threads(tmp_path):
    tracked = [
        "model.pvforest",
        "detections.csv",
        "maps/scene_002.cmap",
        "enhanced/scene_002.cmap",
        "scores/pr_pixel.csv",
        "scores/pr_object_j0.5.csv",
    ]
    blobs = []
    for run, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / run
        cmd_eval(tiny_config(threads=threads), out)
        blobs.append([(out / rel).read_bytes() for rel in tracked])
    assert blobs[0] == blobs[1]  # identical rerun
    # thread count must not change a single byte of config-independent outputs;
    # the config text differs only in the threads field, so compare artifacts
    assert blobs[0] == blobs[2]


def test_golden_train_and_score_bytes(tmp_path):
    """The model and PR curves of acceptance criterion 9's config keep their bytes."""
    config = RunConfig(
        scenes=3, scene_width=128, scene_height=128, panels_per_scene=3,
        panel_side_min=8, panel_side_max=12, train_pixels=5000, trees=5, seed=21,
    )
    cmd_eval(config, tmp_path)
    golden = {
        "model.pvforest": "d9f12ac15943ae1dc0ba72a42d456300ca7386727d68ed1af7957ba72f47936e",
        "scores/pr_pixel.csv": "f7bd46404d1ad5bd810adf37963dbf9fef1ec3dd895fc208799de6086e28eee9",
        "scores/pr_object_j0.1.csv": "59c7acd2deeb2cd0e25a129bc0a060fa8fe92138a36faa29580017a91c961980",
        "scores/pr_object_j0.3.csv": "59c7acd2deeb2cd0e25a129bc0a060fa8fe92138a36faa29580017a91c961980",
        "scores/pr_object_j0.5.csv": "1ef436226a9429859f43a76f7ca875218f983e3a295a9fb74cbba259d637aca2",
        "scores/pr_object_j0.7.csv": "36914d36602acb022858e671c195194d929dda55c58bc0f8a77ceac23e02cbda",
    }
    digests = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in golden}
    assert digests == golden


def test_golden_wide_tile_predict_bytes(tmp_path, monkeypatch):
    """A 23x2000 tile keeps its CMAP bytes as one band and as three (8 + 8 + 7
    rows), and predict_manifest.json records each band plan."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [forest._band_rows(23, 2000, workers) for workers in (1, 3)] == [23, 8]
    model = cmd_train(tiny_config(), cmd_synth(tiny_config(), tmp_path), tmp_path)
    tile = tmp_path / "wide.ppm"
    pixels = np.random.default_rng(18).integers(0, 256, (23, 2000, 3), dtype=np.uint8)
    save_tile(ImageTile(pixels, "wide"), tile)
    golden = "c6a38e4e22ae7d19f598b05d7a26b898932d29a59d702c53ad5dc1e6e6358d31"
    for threads, bands in ((1, {"bands": 1, "band_rows": 23}), (3, {"bands": 3, "band_rows": 8})):
        (cmap,) = cmd_predict(tiny_config(threads=threads), model, [tile], tmp_path / f"t{threads}")
        assert hashlib.sha256(cmap.read_bytes()).hexdigest() == golden, threads
        record = json.loads((tmp_path / f"t{threads}" / "predict_manifest.json").read_text())
        assert record["tiles"] == {"wide": bands}


# ---------------------------------------------------------------------------
# Training in forked worker processes
# ---------------------------------------------------------------------------


def test_fork_map_runs_in_children_in_order_and_leaves_no_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    offset = 100  # a closure cannot be pickled; it reaches the workers by fork
    threads = threading.enumerate()
    results = fork_map(2)(lambda a, b: (a * b + offset, os.getpid()), range(5), range(5, 10))
    assert [r for r, _ in results] == [a * b + offset for a, b in zip(range(5), range(5, 10))]
    assert os.getpid() not in {pid for _, pid in results}
    # a later fork must not find the pool's threads still alive
    assert threading.enumerate() == threads


def test_fork_map_passes_worker_errors_to_caller(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def grow(t):
        if t == 3:
            raise DataError(f"tree {t} is malformed")
        return t

    with pytest.raises(DataError, match="tree 3 is malformed"):
        fork_map(2)(grow, range(6))


def test_thread_map_holds_at_most_two_tasks_per_thread(monkeypatch):
    """Tasks are submitted as results are consumed, at most two per thread
    ahead, and the threads are joined when the map ends or raises."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    before = threading.active_count()

    def task(i):
        started.append(i)
        if i == 15:
            raise DataError("task 15 failed")
        return i

    with pytest.raises(DataError, match="task 15"):
        for i, result in enumerate(thread_map(2)(task, range(20))):
            assert result == i and max(started) <= i + 3
    assert threading.active_count() == before
    assert max(started) <= 18


def _recording_pool(created: list):
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    class RecordingPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            created.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    return RecordingPool


@pytest.mark.parametrize("cores, trees", [(2, 5), (8, 3)])
def test_cmd_train_caps_fork_workers(tmp_path, monkeypatch, cores, trees):
    """A huge --threads starts at most one worker per core and per tree."""
    manifest = cmd_synth(tiny_config(), tmp_path)
    created = []
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _recording_pool(created))
    monkeypatch.setattr(cli, "_forked_fn", None)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    config = tiny_config(threads=10**6, trees=trees)
    pooled = cmd_train(config, manifest, tmp_path / "pooled").read_bytes()
    assert created == [min(cores, trees)]
    serial = cmd_train(config.replace(threads=1), manifest, tmp_path / "serial")
    assert pooled == serial.read_bytes()


def test_cmd_train_with_one_worker_forks_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was constructed")

    manifest = cmd_synth(tiny_config(), tmp_path)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", refuse)
    cmd_train(tiny_config(threads=1), manifest, tmp_path / "a")
    cmd_train(tiny_config(threads=4, trees=1), manifest, tmp_path / "b")


@pytest.mark.parametrize("cores", [1, 3])
def test_thread_stages_cap_workers_by_tasks_and_cores(tmp_path, monkeypatch, cores):
    """A huge --threads gives predict and detect at most one thread per task and core.

    predict cuts its tile into as many equal bands as it has threads, so
    each thread gets one: on a 90x1024 tile, under 8 * BAND_PIXELS, one band of
    90 rows for one core and three of 30 rows for three.
    """
    created, mapped = [], []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor: records max_workers, runs in this thread."""

        def __init__(self, max_workers):
            created.append(max_workers)
            mapped.append(0)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            mapped[-1] += 1
            future = futures.Future()
            future.set_result(fn(*args))
            return future

    model = cmd_train(tiny_config(), cmd_synth(tiny_config(), tmp_path), tmp_path)
    tile = tmp_path / "wide.ppm"
    pixels = np.random.default_rng(6).integers(0, 256, (90, 1024, 3), dtype=np.uint8)
    save_tile(ImageTile(pixels), tile)
    assert 90 * 1024 <= 8 * BAND_PIXELS  # so the tile needs one band per thread
    assert forest._band_rows(90, 1024, cores) == 90 // cores
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert cli.thread_map(10**6).workers == cores
    config = tiny_config(threads=10**6)
    maps = cmd_predict(config, model, [tile], tmp_path / "huge")
    assert created == mapped == [cores]
    # two tiles, so the core cap binds only at one core
    maps.append(_random_maps(tmp_path, 1, np.random.default_rng(5))[0])
    created.clear()
    mapped.clear()
    cmd_detect(config, maps, tmp_path / "huge")
    assert created == [min(cores, 2)] and mapped == [2]
    # the bytes do not depend on the worker count
    serial = cmd_predict(tiny_config(), model, [tile], tmp_path / "serial")
    assert maps[0].read_bytes() == serial[0].read_bytes()


def test_train_manifest_counts_match_saved_model(tmp_path):
    manifest = cmd_synth(tiny_config(), tmp_path)
    model_path = cmd_train(tiny_config(threads=2), manifest, tmp_path)
    record = json.loads((tmp_path / "train_manifest.json").read_text())
    model = forest.load_model(model_path)
    assert len(record["trees"]) == model.n_trees == TINY["trees"]
    for counts, tree in zip(record["trees"], model.trees):
        assert counts == {"nodes": tree.n_nodes, "depth": tree_depth(tree)}
        # each tree's bootstrap draws as many rows as the training set has,
        # and every drawn row ends in one leaf
        assert tree.count[tree.feature < 0].sum() == record["training_rows"]
    assert 0 < record["training_rows"] <= TINY["train_pixels"]


# ---------------------------------------------------------------------------
# Exit codes through main()
# ---------------------------------------------------------------------------


_OVERSIZE_FEATURES = """
import contextlib, io
from pvdetect import cli

for argv in {runs!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2, (argv, code, err.getvalue())
    assert "pvdetect: config error: window_side" in err.getvalue(), err.getvalue()
    assert "past 4 (h + 16)(w + 16) + 2**20 cells" in err.getvalue(), err.getvalue()
"""


def test_oversize_feature_geometry_exits_2_before_padding(tmp_path):
    """window_side 100001 or ring radius 100000 is a config error in train and predict.

    Padding a 96x96 tile for them would take 28 and 112 GiB of planes; the
    runs go in a child that may map 1 GiB, so allocating first would end
    in MemoryError rather than exit 2.  Predict's model carries the
    oversize spec's fingerprint, so only the geometry can stop it.
    """
    from test_detection import ONE_GIB, _run_under_limit

    manifest = cmd_synth(tiny_config(), tmp_path)
    tile = tmp_path / "scenes" / "scene_000.ppm"
    runs = []
    for key, value, spec in [
        ("window_side", 100001, FeatureSpec(100001, (2, 4))),
        ("ring_radii", "2,100000", FeatureSpec(3, (2, 100000))),
    ]:
        config = tmp_path / f"{key}.cfg"
        config.write_text(tiny_config_text(**{key: value}))
        model = tmp_path / f"{key}.pvforest"
        leaf = forest.DecisionTree(*(np.array([v]) for v in (-1, 0.0, -1, -1, 0.5, 1)))
        forest.save_model(forest.RandomForest([leaf], 102, spec.fingerprint()), model)
        out = str(tmp_path / key)
        runs.append(["train", "--config", str(config), "--manifest", str(manifest), "--out", out])
        runs.append(["predict", "--config", str(config), "--model", str(model),
                     "--out", out, str(tile)])
    _run_under_limit(_OVERSIZE_FEATURES.format(runs=runs), ONE_GIB)
    assert not list(tmp_path.glob("*/model.pvforest")) + list(tmp_path.glob("*/maps"))


_OVERSIZE_FOREST = """
import contextlib, io
from pvdetect import cli

err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
assert code == 2, (code, err.getvalue())
assert "pvdetect: config error: trees: 100000000 trees" in err.getvalue(), err.getvalue()
"""


def test_forest_past_the_size_bound_exits_2_before_any_work(tmp_path):
    """trees = 100000000 on 500 rows is a config error before synth starts.

    Eval in a child that may map 1 GiB ran out of it building one fork_map
    task per tree, a MemoryError traceback and exit 1, after synth had
    written its scenes.
    """
    from test_detection import ONE_GIB, _run_under_limit

    config = tmp_path / "trees.cfg"
    config.write_text(tiny_config_text(
        scene_width=64, scene_height=64, train_pixels=500, trees=100_000_000))
    out = tmp_path / "out"
    argv = ["eval", "--threads", "2", "--config", str(config), "--out", str(out)]
    _run_under_limit(_OVERSIZE_FOREST.format(argv=argv), ONE_GIB)
    assert not out.exists()


_OVERSIZE_SCENES = """
import contextlib, io
from pvdetect import cli

err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
assert code == 2, (code, err.getvalue())
assert "pvdetect: config error: scenes: 66666667 train scenes of 64x64" in err.getvalue(), \\
    err.getvalue()
"""


def test_scenes_past_the_pixel_bound_exit_2_before_any_work(tmp_path):
    """scenes = 100000000 of 64 x 64 px is a config error before synth starts.

    Its 66,666,667 train scenes hold 2.7e11 pixels, past 2**28; eval used to
    write scenes without end.  The run goes in a child that may map 1 GiB, so
    a MemoryError would come first if anything were allocated.
    """
    from test_detection import ONE_GIB, _run_under_limit

    config = tmp_path / "scenes.cfg"
    config.write_text(tiny_config_text(scenes=100_000_000, scene_width=64, scene_height=64))
    out = tmp_path / "out"
    argv = ["eval", "--config", str(config), "--out", str(out)]
    _run_under_limit(_OVERSIZE_SCENES.format(argv=argv), ONE_GIB)
    assert not out.exists()


def test_main_eval_exit_zero(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text())
    code = main(["eval", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "report" in capsys.readouterr().out


def test_main_config_error_exit_2(tmp_path, capsys):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("nms_side = 8\n")
    code = main(["synth", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_non_utf8_config_exit_2(tmp_path, capsys):
    config_path = tmp_path / "bad.cfg"
    config_path.write_bytes(b"seed = 1\xff")
    out = tmp_path / "o"
    code = main(["synth", "--config", str(config_path), "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_main_non_finite_noise_sigma_exit_2(tmp_path, capsys, sigma):
    # a NaN sigma once rendered all-black scenes and exited 0
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(tiny_config_text(noise_sigma=sigma))
    out = tmp_path / "o"
    code = main(["synth", "--config", str(config_path), "--out", str(out)])
    assert code == 2
    assert "sigmas must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_main_missing_input_exit_3(tmp_path, capsys):
    code = main(
        [
            "train",
            "--manifest",
            str(tmp_path / "absent.txt"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_main_unwritable_output_exit_3(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text())
    # an output directory below a regular file: NotADirectoryError
    code = main(["synth", "--config", str(config_path), "--out", str(config_path / "x")])
    err = capsys.readouterr().err
    assert code == 3
    assert "file error" in err and "Traceback" not in err
    # a manifest path that is a directory: IsADirectoryError from the rename
    out = tmp_path / "out"
    (out / "scenes" / "manifest.txt").mkdir(parents=True)
    code = main(["synth", "--config", str(config_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "file error" in err and "Traceback" not in err
    assert (out / "scenes" / "scene_000.ppm").is_file()
    assert list(tmp_path.rglob(".*")) == []  # write_atomic's temp files


@pytest.mark.parametrize("scenes", [1, 2])
def test_main_eval_without_a_test_scene_exit_2(tmp_path, capsys, scenes):
    # the 2:1 split puts every scene in train; eval stops before synth
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text(scenes=scenes))
    out = tmp_path / "out"
    code = main(["eval", "--config", str(config_path), "--out", str(out)])
    assert code == 2
    assert "no test scene" in capsys.readouterr().err
    assert not (out / "scenes").exists()
    # synth alone still accepts so few scenes
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    assert len(load_manifest(out / "scenes" / "manifest.txt").subset("train")) == scenes


def test_main_data_error_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.cmap"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    code = main(["detect", "--out", str(tmp_path / "o"), str(bad)])
    assert code == 4
    assert "data error" in capsys.readouterr().err


def test_main_eval_non_finite_pr_value_exit_4(tmp_path, capsys, monkeypatch):
    # eval reads its PR files back into the report; JSON cannot hold a NaN
    def write_nan_precision(curve, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("# prevalence=0.5\nthreshold,precision,recall\n0.5,nan,1\n")

    monkeypatch.setattr(cli.scoring, "write_pr_csv", write_nan_precision)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text())
    out = tmp_path / "out"
    code = main(["eval", "--config", str(config_path), "--out", str(out)])
    assert code == 4
    assert "precision outside [0, 1]" in capsys.readouterr().err
    assert not (out / "eval_report.json").exists()


def test_main_score_malformed_detections_exit_4(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    manifest = out / "scenes" / "manifest.txt"
    header = "tile_id,object_id,confidence,area,min_x,min_y,max_x,max_y,rle_pixels"
    good = "scene_002,0,0.5,2,3,4,4,4,4:3-4"  # the test tile is 96x96

    def score(row):
        path = tmp_path / "detections.csv"
        path.write_text(f"{header}\n{row}\n")
        capsys.readouterr()
        code = main(
            [
                "score",
                "--config",
                str(config_path),
                "--manifest",
                str(manifest),
                "--detections",
                str(path),
                "--out",
                str(tmp_path / "scores"),
            ]
        )
        return code, capsys.readouterr().err

    assert score(good)[0] == 0
    for row in [
        "scene_002,0,0.5,two,3,4,4,4,4:3-4",  # area not an integer
        "scene_002,0,0.5,2,3,4,4.0,4,4:3-4",  # bounding box not integers
        "scene_002,0,0.5,3,3,4,4,4,4:3-4",  # area disagrees with the runs
        "scene_002,0,0.5,2,3,4,5,4,4:3-4",  # bounding box disagrees
        "scene_002,0,0.5,3,-1,0,1,0,-1:0-2",  # negative y
        "scene_002,0,0.5,2,95,0,96,0,0:95-96",  # x past the tile width
        "scene_002,0,0.5,1,0,96,0,96,96:0-0",  # y past the tile height
        "scene_000,0,0.5,2,3,4,4,4,4:3-4",  # a tile outside the test role
        "scene_002,0,0.5,3,3,4,4,5,5:3-3;4:3-4",  # runs out of row-major order
        "scene_002,0,0.5,2,3,4,4,4,4:3-4;4:4-4",  # overlapping runs
    ]:
        code, err = score(row)
        assert code == 4, row
        assert "data error" in err and "Traceback" not in err, row


def test_main_score_wrong_shaped_map_exit_4(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text(scene_width=96, scene_height=48))
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    manifest = out / "scenes" / "manifest.txt"
    maps = tmp_path / "maps"
    maps.mkdir()

    def score(shape):
        conf = np.random.default_rng(0).random(shape, dtype=np.float32)
        detection.save_confidence_map(conf, maps / "scene_002.cmap")
        capsys.readouterr()
        args = ["--manifest", str(manifest), "--maps", str(maps)]
        code = main(["score", "--config", str(config_path), *args, "--out", str(out)])
        return code, capsys.readouterr().err

    assert score((48, 96))[0] == 0
    # transposed, the same pixel count in other dimensions, and a larger map
    for shape in [(96, 48), (24, 192), (96, 96)]:
        code, err = score(shape)
        assert code == 4, shape
        assert "does not match its tile" in err and "Traceback" not in err, shape


def test_main_malformed_model_exit_4(tmp_path, capsys):
    import hashlib

    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
    body = (
        "PVFOREST v1\nM 102\nT 1\nSPEC {spec}\nTREE {label} 1\nL {prob} 3\n"
    )
    spec = tiny_config().feature_spec().fingerprint()
    for label, prob in [("0", "nan"), ("zero", "0.5")]:
        text = body.format(spec=spec, label=label, prob=prob)
        digest = hashlib.sha256(text.encode()).hexdigest()
        model = tmp_path / "bad.pvforest"
        model.write_text(text + f"CHECKSUM {digest}\n")
        capsys.readouterr()
        code = main(
            [
                "predict",
                "--config",
                str(config_path),
                "--model",
                str(model),
                "--out",
                str(tmp_path / "o"),
                str(out / "scenes" / "scene_002.ppm"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 4, (label, prob)
        assert "data error" in err and "Traceback" not in err


def test_main_model_feature_mismatch_exit_4(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text())
    out = tmp_path / "out"
    assert main(["synth", "--config", config_path.as_posix(), "--out", out.as_posix()]) == 0
    assert main(
        [
            "train",
            "--config",
            config_path.as_posix(),
            "--manifest",
            (out / "scenes" / "manifest.txt").as_posix(),
            "--out",
            out.as_posix(),
        ]
    ) == 0
    # predicting with a different feature geometry must fail loudly
    mismatched = tmp_path / "mismatch.cfg"
    mismatched.write_text(tiny_config_text() + "ring_radii = 2,3,4\n")
    code = main(
        [
            "predict",
            "--config",
            mismatched.as_posix(),
            "--model",
            (out / "model.pvforest").as_posix(),
            "--out",
            (tmp_path / "o").as_posix(),
            (out / "scenes" / "scene_002.ppm").as_posix(),
        ]
    )
    assert code == 4
    assert "data error" in capsys.readouterr().err


def test_main_seed_override(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(tiny_config_text())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["synth", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert (
        main(
            [
                "synth",
                "--config",
                str(config_path),
                "--seed",
                "123",
                "--out",
                str(out_b),
            ]
        )
        == 0
    )
    a = (out_a / "scenes" / "scene_000.ppm").read_bytes()
    b = (out_b / "scenes" / "scene_000.ppm").read_bytes()
    assert a != b


def test_stage_manifest_config_roundtrip(tmp_path):
    config = tiny_config(seed=77)
    cmd_synth(config, tmp_path)
    record = json.loads((tmp_path / "synth_manifest.json").read_text())
    assert parse_config(record["config"]) == config
    assert record["config_sha256"] == config.digest()
    assert record["seed"] == 77
    for path_text, digest in record["outputs"].items():
        import hashlib

        assert hashlib.sha256(Path(path_text).read_bytes()).hexdigest() == digest
