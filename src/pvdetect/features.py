"""Per-pixel window statistics computed from integral images.

Each pixel is described by the mean and population variance of every RGB
channel inside small square windows placed on concentric rings around it.
With the default 3x3 window and rings at radii 2 and 4 this yields
9*6 + 9*6 - 6 = 102 features per pixel (the two rings share their center
window, which is emitted once).

Window coordinates are clamped (edge-replicated) into the tile so every
pixel, including borders, has a full feature vector.  Features are built
one band of rows at a time: the band is edge-padded, its integral tables
are taken, and every window becomes one rectangle of those tables.  All
sums are exact 64-bit integers; only the final mean/variance division is
floating point, so any split of a tile into bands gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .imagery import ImageTile


@dataclass(frozen=True)
class FeatureSpec:
    """Geometry of the feature extractor: window side and ring radii."""

    window_side: int = 3
    ring_radii: tuple[int, ...] = (2, 4)

    def __post_init__(self):
        object.__setattr__(self, "ring_radii", tuple(int(r) for r in self.ring_radii))
        if self.window_side < 3 or self.window_side % 2 == 0:
            raise ConfigError(f"window_side must be odd and >= 3, got {self.window_side}")
        if not self.ring_radii:
            raise ConfigError("at least one ring radius is required")
        if any(r < 1 for r in self.ring_radii):
            raise ConfigError(f"ring radii must be >= 1, got {self.ring_radii}")
        if any(b <= a for a, b in zip(self.ring_radii, self.ring_radii[1:])):
            raise ConfigError(f"ring radii must be strictly increasing: {self.ring_radii}")

    @property
    def feature_count(self) -> int:
        """6 features per window; the shared (0,0) window counts once."""
        n_rings = len(self.ring_radii)
        return 9 * 6 * n_rings - 6 * (n_rings - 1)

    def window_offsets(self) -> list[tuple[int, int]]:
        """All window-center offsets, deduplicated, in canonical order."""
        offsets = list(ring_offsets(self.ring_radii[0]))
        for r in self.ring_radii[1:]:
            offsets.extend(ring_offsets(r)[1:])  # drop the duplicate (0, 0)
        return offsets

    def fingerprint(self) -> str:
        return f"w{self.window_side}:r" + ",".join(str(r) for r in self.ring_radii)


def ring_offsets(r: int) -> list[tuple[int, int]]:
    """The 9 window-center offsets of the ring with radius r.

    Emitted x-major over the sequence (0, -r, r), so the center window
    (0, 0) always comes first.
    """
    if r < 1:
        raise ConfigError(f"ring radius must be >= 1, got {r}")
    return [(x, y) for x in (0, -r, r) for y in (0, -r, r)]


# callers extract features in bands of max(1, BAND_PIXELS // width) rows, so
# a band of 102 float64 features takes about 13 MB at any tile width
BAND_PIXELS = 1 << 14


def integral_tables(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive int64 prefix-sum tables of an (H, W, 3) array and its squares.

    Entry [y, x, c] holds the sum over rows [0, y) and columns [0, x) of
    channel c; row and column 0 are therefore all zeros.
    """
    px = np.asarray(pixels, dtype=np.int64)
    h, w = px.shape[:2]
    sums = np.zeros((h + 1, w + 1, 3), dtype=np.int64)
    sq_sums = np.zeros_like(sums)
    np.cumsum(np.cumsum(px, axis=0), axis=1, out=sums[1:, 1:])
    np.cumsum(np.cumsum(px * px, axis=0), axis=1, out=sq_sums[1:, 1:])
    return sums, sq_sums


def extract_feature_rows(
    tile: ImageTile, spec: FeatureSpec, row_start: int, row_stop: int
) -> np.ndarray:
    """Feature image rows [row_start, row_stop) as a (rows, width, M) array.

    Each pixel holds, per window, (mR, mG, mB, vR, vG, vB): the mean and the
    population variance of the window's edge-replicated cells, the variance
    clamped at zero.  The rows are edge-padded so every clamped window is a
    plain rectangle of the padded integral tables.
    """
    if not 0 <= row_start < row_stop <= tile.height:
        raise ValueError(f"bad row range [{row_start}, {row_stop})")
    half = spec.window_side // 2
    pad = max(spec.ring_radii) + half
    height, width = row_stop - row_start, tile.width

    top = min(pad, row_start)
    bottom = min(pad, tile.height - row_stop)
    core = tile.pixels[row_start - top : row_stop + bottom]
    padded = np.pad(
        core,
        ((pad - top, pad - bottom), (pad, pad), (0, 0)),
        mode="edge",
    )
    sums, sq_sums = integral_tables(padded)

    n = spec.window_side * spec.window_side
    offsets = spec.window_offsets()
    out = np.empty((height, width, 6 * len(offsets)))
    for k, (dx, dy) in enumerate(offsets):
        u0, u1 = dx - half + pad, dx + half + pad
        v0, v1 = dy - half + pad, dy + half + pad
        s = (
            sums[v1 + 1 : v1 + 1 + height, u1 + 1 : u1 + 1 + width]
            - sums[v0 : v0 + height, u1 + 1 : u1 + 1 + width]
            - sums[v1 + 1 : v1 + 1 + height, u0 : u0 + width]
            + sums[v0 : v0 + height, u0 : u0 + width]
        )
        ss = (
            sq_sums[v1 + 1 : v1 + 1 + height, u1 + 1 : u1 + 1 + width]
            - sq_sums[v0 : v0 + height, u1 + 1 : u1 + 1 + width]
            - sq_sums[v1 + 1 : v1 + 1 + height, u0 : u0 + width]
            + sq_sums[v0 : v0 + height, u0 : u0 + width]
        )
        mean = s / n
        out[:, :, 6 * k : 6 * k + 3] = mean
        out[:, :, 6 * k + 3 : 6 * k + 6] = np.maximum(ss / n - mean * mean, 0.0)
    return out
