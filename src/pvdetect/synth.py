"""Deterministic synthetic aerial scenes with known panel rectangles.

Scenes are textured backgrounds (a coarse grid of palette patches, one of
which is deliberately panel-like in color so classification stays
nontrivial) with axis-aligned panel rectangles dropped on top.  The
generator emits the matching polygon annotations, whose rasterization is
pixel-identical to the painted rectangles, so ground truth is exact by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .imagery import ImageTile, PolygonAnnotation
from .rng import Stream

# (name, mean RGB, per-pixel sigma); "shade_roof" is intentionally close to
# the panel color so the classifier has to use texture, not just hue
DEFAULT_PALETTE: tuple[tuple[str, tuple[int, int, int], float], ...] = (
    ("grass", (76, 112, 62), 9.0),
    ("pavement", (148, 146, 142), 7.0),
    ("asphalt", (96, 97, 102), 6.0),
    ("shade_roof", (74, 86, 120), 16.0),
)


@dataclass(frozen=True)
class SceneParams:
    """Knobs of the scene generator."""

    width: int = 512
    height: int = 512
    n_panels: int = 8
    panel_side_min: int = 10
    panel_side_max: int = 15
    panel_color: tuple[int, int, int] = (52, 62, 106)
    panel_sigma: float = 10.0
    palette: tuple = DEFAULT_PALETTE
    noise_sigma: float = 3.0
    patch_size: int = 32
    panel_gap: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError("scene must be at least 1x1")
        if self.n_panels < 0:
            raise ConfigError("n_panels must be >= 0")
        if self.panel_side_min < 3:
            raise ConfigError("panels must be at least 3 pixels on a side")
        if self.panel_side_max < self.panel_side_min:
            raise ConfigError("panel_side_max below panel_side_min")
        if len(self.palette) < 3:
            raise ConfigError("palette needs at least 3 textures")
        if not (0 <= self.noise_sigma < np.inf and 0 <= self.panel_sigma < np.inf):
            raise ConfigError("sigmas must be finite and >= 0")
        if self.patch_size < 1 or self.panel_gap < 0:
            raise ConfigError("bad patch_size or panel_gap")


def params_for_prevalence(
    target: float, panel_side: int = 16, width: int = 512, height: int = 512, seed: int = 0
) -> SceneParams:
    """SceneParams with fixed-size panels approximating a target prevalence."""
    if not 0.0 < target < 0.5:
        raise ConfigError(f"target prevalence must be in (0, 0.5), got {target}")
    n = max(1, round(target * width * height / (panel_side * panel_side)))
    return SceneParams(
        width=width,
        height=height,
        n_panels=n,
        panel_side_min=panel_side,
        panel_side_max=panel_side,
        seed=seed,
    )


def _place_panels(params: SceneParams, stream: Stream) -> list[tuple[int, int, int, int]]:
    """Non-overlapping (x0, y0, w, h) rectangles, kept panel_gap apart."""
    rects: list[tuple[int, int, int, int]] = []
    budget = 200 * max(params.n_panels, 1)
    side_span = params.panel_side_max - params.panel_side_min + 1
    gap = params.panel_gap
    for _ in range(params.n_panels):
        placed = False
        while budget > 0:
            budget -= 1
            w = params.panel_side_min + stream.next_below(side_span)
            h = params.panel_side_min + stream.next_below(side_span)
            if w > params.width or h > params.height:
                continue
            x0 = stream.next_below(params.width - w + 1)
            y0 = stream.next_below(params.height - h + 1)
            clear = all(
                not (
                    x0 - gap < x + pw
                    and x < x0 + w + gap
                    and y0 - gap < y + ph
                    and y < y0 + h + gap
                )
                for (x, y, pw, ph) in rects
            )
            if clear:
                rects.append((x0, y0, w, h))
                placed = True
                break
        if not placed:
            raise DataError(
                f"could not place {params.n_panels} panels of "
                f"{params.panel_side_min}..{params.panel_side_max} px in "
                f"{params.width}x{params.height} (density too high)"
            )
    return rects


def generate_scene(
    params: SceneParams, tile_id: str = "scene"
) -> tuple[ImageTile, list[PolygonAnnotation]]:
    """Render one scene and its exact polygon annotations.

    Deterministic per (params, tile_id): the same inputs yield
    byte-identical pixels and annotations.
    """
    h, w = params.height, params.width
    stream = Stream(params.seed)
    patch_stream = stream.spawn(1)
    noise_stream = stream.spawn(2)
    place_stream = stream.spawn(3)
    panel_stream = stream.spawn(4)

    patches_y = -(-h // params.patch_size)
    patches_x = -(-w // params.patch_size)
    patch_idx = patch_stream.integers(len(params.palette), patches_y * patches_x)
    patch_idx = patch_idx.reshape(patches_y, patches_x)
    tex = np.repeat(np.repeat(patch_idx, params.patch_size, 0), params.patch_size, 1)
    tex = tex[:h, :w]

    means = np.array([p[1] for p in params.palette], dtype=np.float64)
    sigmas = np.array([p[2] for p in params.palette], dtype=np.float64)
    image = means[tex]
    image += sigmas[tex][:, :, None] * noise_stream.normals(h * w * 3).reshape(h, w, 3)
    image += params.noise_sigma * noise_stream.normals(h * w * 3).reshape(h, w, 3)

    rects = _place_panels(params, place_stream)
    panel_mean = np.array(params.panel_color, dtype=np.float64)
    for x0, y0, pw, ph in rects:
        block = panel_mean + params.panel_sigma * panel_stream.normals(
            ph * pw * 3
        ).reshape(ph, pw, 3)
        block += params.noise_sigma * panel_stream.normals(ph * pw * 3).reshape(
            ph, pw, 3
        )
        image[y0 : y0 + ph, x0 : x0 + pw] = block

    pixels = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    tile = ImageTile(pixels, tile_id)
    annotations = [
        PolygonAnnotation(
            tile_id,
            f"p{k}",
            np.array(
                [
                    [x0, y0],
                    [x0 + pw, y0],
                    [x0 + pw, y0 + ph],
                    [x0, y0 + ph],
                ],
                dtype=np.float64,
            ),
        )
        for k, (x0, y0, pw, ph) in enumerate(rects)
    ]
    return tile, annotations
