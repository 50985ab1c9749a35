"""Deterministic synthetic aerial scenes with known panel rectangles.

Scenes are textured backgrounds (a grid of palette patches, one of them
panel-like in color so classification stays nontrivial) with axis-aligned
panel rectangles dropped on top at random, each try tested against a mask
of the space taken.  The matching polygon annotations rasterize to exactly
the painted rectangles, so ground truth is exact by construction.  Scenes
render in row bands, on any thread, each from its slice of the noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .forest import _pool_bands
from .imagery import ImageTile, PolygonAnnotation
from .rng import Stream

# (name, mean RGB, per-pixel sigma); "shade_roof" is intentionally close to
# the panel color so the classifier has to use texture, not just hue
PALETTE: tuple[tuple[str, tuple[int, int, int], float], ...] = (
    ("grass", (76, 112, 62), 9.0),
    ("pavement", (148, 146, 142), 7.0),
    ("asphalt", (96, 97, 102), 6.0),
    ("shade_roof", (74, 86, 120), 16.0),
)
PATCH_SIZE = 32  # side of one background texture patch
PANEL_COLOR = (52, 62, 106)  # mean RGB of a panel
PANEL_SIGMA = 10.0  # per-pixel sigma of a panel's texture


@dataclass(frozen=True)
class SceneParams:
    """Knobs of the scene generator."""

    width: int = 512
    height: int = 512
    n_panels: int = 8
    panel_side_min: int = 10
    panel_side_max: int = 15
    noise_sigma: float = 3.0
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
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError("sigmas must be finite and >= 0")
        if self.panel_gap < 0:
            raise ConfigError("bad panel_gap")
        # panels grown by gap / 2 per side are disjoint in the scene grown alike
        n, gap, side = self.n_panels, self.panel_gap, self.panel_side_min + self.panel_gap
        if n * side * side > (self.width + gap) * (self.height + gap):
            raise ConfigError(
                f"{n} panels {gap} px apart cannot fit a {self.width}x{self.height} scene"
            )


def _place_panels(params: SceneParams, stream: Stream) -> list[tuple[int, int, int, int]]:
    """Non-overlapping (x0, y0, w, h) rectangles, kept panel_gap apart, from
    at most 200 tries per panel; a try costs one slice of an occupancy mask."""
    rects: list[tuple[int, int, int, int]] = []
    budget = 200 * max(params.n_panels, 1)
    side_span = params.panel_side_max - params.panel_side_min + 1
    gap = params.panel_gap
    # True on each placed panel grown by gap on every side: a rectangle keeps
    # gap from every placed panel exactly when it covers no True
    taken = np.zeros((params.height, params.width), dtype=bool)
    for _ in range(params.n_panels):
        while budget > 0:
            budget -= 1
            w = params.panel_side_min + stream.next_below(side_span)
            h = params.panel_side_min + stream.next_below(side_span)
            if w > params.width or h > params.height:
                continue
            x0 = stream.next_below(params.width - w + 1)
            y0 = stream.next_below(params.height - h + 1)
            if not taken[y0 : y0 + h, x0 : x0 + w].any():
                break
        else:
            raise DataError(
                f"could not place {params.n_panels} panels of "
                f"{params.panel_side_min}..{params.panel_side_max} px in "
                f"{params.width}x{params.height} (density too high)"
            )
        rects.append((x0, y0, w, h))
        taken[max(y0 - gap, 0) : y0 + h + gap, max(x0 - gap, 0) : x0 + w + gap] = True
    return rects


def generate_scene(
    params: SceneParams, tile_id: str = "scene", map=map
) -> tuple[ImageTile, list[PolygonAnnotation]]:
    """Render one scene and its exact polygon annotations.

    Deterministic per (params, tile_id): the same inputs yield
    byte-identical pixels and annotations.  Row bands, cut as predict_tile
    cuts them for map (forest._pool_bands), each compute their slice of the
    scene-wide noise draws and write their rows of one uint8 image, so
    memory is that image plus a few MB per band.
    """
    h, w = params.height, params.width
    stream = Stream(params.seed)
    patch_stream = stream.spawn(1)
    noise_stream = stream.spawn(2)
    place_stream = stream.spawn(3)
    panel_stream = stream.spawn(4)

    patches_y = -(-h // PATCH_SIZE)
    patches_x = -(-w // PATCH_SIZE)
    patch_idx = patch_stream.integers(len(PALETTE), patches_y * patches_x)
    patch_idx = patch_idx.reshape(patches_y, patches_x)

    rects = _place_panels(params, place_stream)
    panel_mean = np.array(PANEL_COLOR, dtype=np.float64)
    blocks = []
    for x0, y0, pw, ph in rects:
        block = panel_mean + PANEL_SIGMA * panel_stream.normals(ph * pw * 3).reshape(ph, pw, 3)
        block += params.noise_sigma * panel_stream.normals(ph * pw * 3).reshape(ph, pw, 3)
        blocks.append(block)

    means = np.array([p[1] for p in PALETTE], dtype=np.float64)
    sigmas = np.array([p[2] for p in PALETTE], dtype=np.float64)
    count = h * w * 3
    # the two scene-wide draws of noise_stream: texture noise at counter 0,
    # sensor noise after the texture draw's 2 * n_pairs counters
    draws = (0, count + count % 2)
    starts = _pool_bands(map, h, w)
    rows = starts.step
    pixels = np.empty((h, w, 3), dtype=np.uint8)

    def band(y0: int) -> None:
        y1 = min(y0 + rows, h)
        tex = patch_idx[(np.arange(y0, y1) // PATCH_SIZE)[:, None], np.arange(w) // PATCH_SIZE]
        texture, sensor = (
            noise_stream.normals_slice(at, count, 3 * w * y0, 3 * w * y1).reshape(-1, w, 3)
            for at in draws
        )
        image = means[tex]
        image += sigmas[tex][:, :, None] * texture
        image += params.noise_sigma * sensor
        for (x0, py, pw, ph), block in zip(rects, blocks):
            top, bottom = max(py, y0), min(py + ph, y1)
            if top < bottom:
                image[top - y0 : bottom - y0, x0 : x0 + pw] = block[top - py : bottom - py]
        pixels[y0:y1] = np.clip(np.rint(image), 0, 255)

    for _ in map(band, starts):
        pass
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
