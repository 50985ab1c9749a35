from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pvdetect import forest
from pvdetect.errors import ConfigError, DataError
from pvdetect.imagery import encode_tile, rasterize
from pvdetect.rng import Stream
from pvdetect.synth import PALETTE, PANEL_COLOR, SceneParams, _place_panels, generate_scene
from oracles import scan_place_panels, whole_generate_scene
from test_detection import ONE_GIB, _run_under_limit
from test_forest import _sized_map


def small_params(**overrides):
    base = dict(
        width=96, height=96, n_panels=3, panel_side_min=6, panel_side_max=10,
        panel_gap=6, seed=0,
    )
    base.update(overrides)
    return SceneParams(**base)


def test_no_panels_gives_background_only():
    tile, annotations = generate_scene(small_params(n_panels=0), "bg")
    assert annotations == []
    assert tile.width == 96 and tile.height == 96


def test_same_seed_byte_identical():
    a_tile, a_anns = generate_scene(small_params(seed=11), "s")
    b_tile, b_anns = generate_scene(small_params(seed=11), "s")
    assert encode_tile(a_tile) == encode_tile(b_tile)
    assert len(a_anns) == len(b_anns)
    for a, b in zip(a_anns, b_anns):
        assert np.array_equal(a.vertices, b.vertices)
    c_tile, _ = generate_scene(small_params(seed=12), "s")
    assert encode_tile(a_tile) != encode_tile(c_tile)


def test_annotations_cover_exactly_the_painted_rectangles():
    params = small_params(n_panels=4, seed=3)
    tile, annotations = generate_scene(params, "s")
    pixels = rasterize(annotations, tile.width, tile.height)
    expected = np.zeros((96, 96), dtype=bool)
    for a in annotations:
        x0, y0 = a.vertices[0]
        x1, y1 = a.vertices[2]
        assert x0 == int(x0) and y0 == int(y0)
        expected[int(y0) : int(y1), int(x0) : int(x1)] = True
    assert np.array_equal(pixels, np.flatnonzero(expected))


def test_panels_do_not_overlap():
    params = small_params(n_panels=5, seed=4)
    tile, annotations = generate_scene(params, "s")
    total = 0
    for a in annotations:
        x0, y0 = a.vertices[0]
        x1, y1 = a.vertices[2]
        total += int((x1 - x0) * (y1 - y0))
    pixels = rasterize(annotations, tile.width, tile.height)
    assert pixels.size == total  # no double-counted pixels


def test_placement_budget_exhausted():
    # 5 panels of 10 px with gap 4 pass the fit bound on a 32x32 scene
    # (5 * 14**2 <= 36**2), yet the try budget runs out before all are placed
    for seed in range(3):
        params = SceneParams(width=32, height=32, n_panels=5, panel_side_min=10,
                             panel_side_max=10, panel_gap=4, seed=seed)
        with pytest.raises(DataError, match="could not place"):
            generate_scene(params, "dense")


_PLACEMENT_SHAPES = {
    "defaults": {},
    "96x96": dict(width=96, height=96, n_panels=12, panel_side_min=6,
                  panel_side_max=10, panel_gap=6),
    "gap 0": dict(width=64, height=64, n_panels=20, panel_side_min=6,
                  panel_side_max=10, panel_gap=0),
    "wider than the scene": dict(width=12, height=200, n_panels=5, panel_gap=2),
    "taller than the scene": dict(width=200, height=12, n_panels=5, panel_gap=2),
    "budget exhausted": dict(width=32, height=32, n_panels=5, panel_side_min=10,
                             panel_side_max=10, panel_gap=4),
    "60 on 300x300": dict(width=300, height=300, n_panels=60),
}


def _placement(place, params):
    try:
        return place(params, Stream(params.seed).spawn(3))
    except DataError:
        return "DataError"


def test_placement_matches_the_scan_of_every_placed_panel():
    """The occupancy mask accepts and rejects exactly the tries that the
    scan of every placed panel does, so every rectangle, and the DataError
    of an exhausted budget, stay the same."""
    outcomes = set()
    for name, shape in _PLACEMENT_SHAPES.items():
        for seed in range(40):
            params = SceneParams(seed=seed, **shape)
            want = _placement(scan_place_panels, params)
            assert _placement(_place_panels, params) == want, (name, seed)
            outcomes.add(want == "DataError")
    assert outcomes == {False, True}


def test_panel_counts_that_cannot_fit_are_config_errors():
    """n (panel_side_min + gap)**2 > (W + gap)(H + gap) raises up front.

    Panels grown by gap / 2 on every side are disjoint inside the scene
    grown the same way, so such a count can never be placed.
    """
    fits = dict(width=32, height=32, panel_side_min=10, panel_side_max=10, panel_gap=4)
    SceneParams(n_panels=6, **fits)  # 6 * 196 = 1176 <= 36**2 = 1296
    for n in (7, 12):
        with pytest.raises(ConfigError, match="cannot fit"):
            SceneParams(n_panels=n, **fits)
    with pytest.raises(ConfigError, match="cannot fit"):
        SceneParams(width=64, height=64, n_panels=2_000_000)
    with pytest.raises(ConfigError, match="cannot fit"):
        SceneParams(width=8, height=8, n_panels=1, panel_side_min=10, panel_side_max=10)


def test_default_prevalence_near_half_percent():
    params = SceneParams(seed=1)
    tile, annotations = generate_scene(params, "d")
    pixels = rasterize(annotations, params.width, params.height)
    assert 0.003 < pixels.size / (params.width * params.height) < 0.008


def test_scene_params_validation():
    with pytest.raises(ConfigError):
        SceneParams(panel_side_min=2)
    with pytest.raises(ConfigError):
        SceneParams(panel_side_min=10, panel_side_max=8)
    with pytest.raises(ConfigError):
        SceneParams(n_panels=-1)


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_scene_params_reject_negative_and_non_finite_sigmas(sigma):
    with pytest.raises(ConfigError, match="sigmas"):
        SceneParams(noise_sigma=sigma)


def test_palette_contains_panel_like_texture():
    panel = np.array(PANEL_COLOR, dtype=np.float64)
    distances = [
        np.linalg.norm(np.array(mean, dtype=np.float64) - panel)
        for _, mean, _ in PALETTE
    ]
    assert min(distances) < 40  # one background texture is deliberately close


# (width, height, panels): odd widths put band edges inside Box-Muller pairs
# (3 * width * y0 is odd for odd y0), 131, 77 and 47 rows are no multiple
# of PATCH_SIZE, and 1 x N and N x 1 scenes have one column or one row
_BANDED_SHAPES = [(1, 77, 0), (77, 1, 0), (257, 131, 12), (511, 3, 0), (97, 47, 4), (96, 96, 10)]


@pytest.mark.parametrize("width, height, n_panels", _BANDED_SHAPES)
def test_banded_scene_matches_whole_scene_oracle(monkeypatch, width, height, n_panels):
    """Any band split gives the whole-scene renderer's pixels and annotations.

    Bands are cut for the builtin map, for pools of 1 to 3 workers, for a
    map whose workers equal the height (1-row bands), and for BAND_PIXELS
    shrunk so that bands hold about a seventh of the scene.  Seed 3 renders
    without sensor noise.
    """
    straddled = 0
    for seed in range(4):
        params = SceneParams(
            width=width, height=height, n_panels=n_panels, panel_side_min=5,
            panel_side_max=9, panel_gap=3, noise_sigma=0.0 if seed == 3 else 3.0, seed=seed,
        )
        want, want_anns = whole_generate_scene(params, "s")
        with ThreadPoolExecutor(max_workers=3) as pool:
            maps = [map] + [_sized_map(k, pool.map) for k in (1, 2, 3, height)]
            renders = [generate_scene(params, "s", map=m) for m in maps]
        with monkeypatch.context() as patch:
            patch.setattr(forest, "BAND_PIXELS", -(-width * height // 56))
            renders.append(generate_scene(params, "s"))
        for tile, anns in renders:
            assert tile.pixels.dtype == np.uint8
            assert tile.pixels.tobytes() == want.pixels.tobytes(), seed
            assert [a.vertices.tobytes() for a in anns] == [
                a.vertices.tobytes() for a in want_anns
            ]
        # panels that cross the edge of a 3-worker band
        edges = set(forest._pool_bands(_sized_map(3), height, width)[1:])
        straddled += sum(
            any(a.vertices[0, 1] < edge < a.vertices[2, 1] for edge in edges) for a in anns
        )
    assert straddled > 0 or n_panels == 0


_TALL_STRIP = """
from pvdetect.synth import SceneParams, generate_scene

params = SceneParams(width=5000, height={height}, n_panels=40, seed=1)
tile, annotations = generate_scene(params, "strip")
assert tile.pixels.shape == ({height}, 5000, 3) and len(annotations) == 40
"""


@pytest.mark.parametrize("height", [64, 2000])
def test_tall_strips_render_in_one_gib(height):
    """A 5000-wide strip renders under a 1 GiB address-space limit.

    Bands hold the float64 work, so memory is the uint8 scene plus a few
    MB per band; the whole-scene renderer held float64 scenes and draws of
    about 1 GB at 5000 x 2000.
    """
    _run_under_limit(_TALL_STRIP.format(height=height), ONE_GIB)
