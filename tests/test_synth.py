import numpy as np
import pytest

from pvdetect.errors import ConfigError, DataError
from pvdetect.imagery import encode_tile, rasterize
from pvdetect.synth import SceneParams, generate_scene, params_for_prevalence


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
    mask = rasterize(annotations, tile.width, tile.height)
    expected = np.zeros((96, 96), dtype=bool)
    for a in annotations:
        x0, y0 = a.vertices[0]
        x1, y1 = a.vertices[2]
        assert x0 == int(x0) and y0 == int(y0)
        expected[int(y0) : int(y1), int(x0) : int(x1)] = True
    assert np.array_equal(mask, expected)


def test_panels_do_not_overlap():
    params = small_params(n_panels=5, seed=4)
    tile, annotations = generate_scene(params, "s")
    total = 0
    for a in annotations:
        x0, y0 = a.vertices[0]
        x1, y1 = a.vertices[2]
        total += int((x1 - x0) * (y1 - y0))
    mask = rasterize(annotations, tile.width, tile.height)
    assert int(mask.sum()) == total  # no double-counted pixels


def test_placement_budget_exhausted():
    with pytest.raises(DataError):
        generate_scene(
            SceneParams(width=32, height=32, n_panels=12, panel_side_min=10,
                        panel_side_max=10, panel_gap=4, seed=0),
            "dense",
        )


def test_params_for_prevalence():
    params = params_for_prevalence(0.001, panel_side=16, width=512, height=512)
    tile, annotations = generate_scene(params, "p")
    mask = rasterize(annotations, 512, 512)
    achieved = mask.mean()
    assert abs(achieved - 0.001) / 0.001 < 0.25
    with pytest.raises(ConfigError):
        params_for_prevalence(0.9)


def test_default_prevalence_near_half_percent():
    params = SceneParams(seed=1)
    tile, annotations = generate_scene(params, "d")
    mask = rasterize(annotations, params.width, params.height)
    assert 0.003 < mask.mean() < 0.008


def test_scene_params_validation():
    with pytest.raises(ConfigError):
        SceneParams(panel_side_min=2)
    with pytest.raises(ConfigError):
        SceneParams(panel_side_min=10, panel_side_max=8)
    with pytest.raises(ConfigError):
        SceneParams(palette=(("a", (1, 2, 3), 1.0),))
    with pytest.raises(ConfigError):
        SceneParams(n_panels=-1)


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_scene_params_reject_negative_and_non_finite_sigmas(sigma):
    with pytest.raises(ConfigError, match="sigmas"):
        SceneParams(noise_sigma=sigma)
    with pytest.raises(ConfigError, match="sigmas"):
        SceneParams(panel_sigma=sigma)


def test_palette_contains_panel_like_texture():
    params = SceneParams()
    panel = np.array(params.panel_color, dtype=np.float64)
    distances = [
        np.linalg.norm(np.array(mean, dtype=np.float64) - panel)
        for _, mean, _ in params.palette
    ]
    assert min(distances) < 40  # one background texture is deliberately close
