"""Per-pixel window statistics as offsets into six box-filtered planes.

Each pixel is described by the mean and population variance of every RGB
channel inside small square windows placed on concentric rings around it.
With the default 3x3 window and rings at radii 2 and 4 this yields
9*6 + 9*6 - 6 = 102 features per pixel (the two rings share their center
window, which is emitted once).

Window coordinates are clamped (edge-replicated) into the tile.  A band of
rows is edge-padded and box-filtered, through its integral tables, into six
planes: the three channel means and the three variances (clamped at zero)
of the window at each padded position.  A feature is then one flat offset
into the planes (its statistic and window displacement) added to a pixel's
base index (its row and column).  Sums are exact 64-bit integers and only
the final division is floating point, so any banding gives the same bits.
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
        return 6 * len(self.window_offsets())

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


# callers work in bands of max(1, BAND_PIXELS // width) rows, so a band's
# planes and the forest's routing state (about 8 * BAND_PIXELS tree-pixel
# pairs at a time) stay a few MB at any tile width and tree count
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


def feature_planes(
    tile: ImageTile, spec: FeatureSpec, row_start: int, row_stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planes of rows [row_start, row_stop) as (values, base, offsets).

    values is the flat float64 array of the six (Hp, Wp) planes (mR, mG,
    mB, vR, vG, vB) over the edge-padded band: the mean and the population
    variance, clamped at zero, of the window_side x window_side window whose
    top-left cell is each padded position.  base holds one int64 index per
    band pixel, row-major, and offsets one per feature, so feature f of
    pixel p is values[base[p] + offsets[f]].
    """
    if not 0 <= row_start < row_stop <= tile.height:
        raise ValueError(f"bad row range [{row_start}, {row_stop})")
    side = spec.window_side
    half = side // 2
    pad = max(spec.ring_radii) + half
    rows = np.clip(np.arange(row_start - pad, row_stop + pad), 0, tile.height - 1)
    padded = np.pad(tile.pixels[rows], ((0, 0), (pad, pad), (0, 0)), mode="edge")
    sums, sq_sums = (t.transpose(2, 0, 1) for t in integral_tables(padded))
    lo, hi = slice(None, -side), slice(side, None)

    def box(t: np.ndarray) -> np.ndarray:
        return t[:, hi, hi] - t[:, lo, hi] - t[:, hi, lo] + t[:, lo, lo]

    n = side * side
    mean = box(sums) / n
    planes = np.concatenate([mean, np.maximum(box(sq_sums) / n - mean * mean, 0.0)])
    hp, wp = planes.shape[1:]
    base = (np.arange(row_stop - row_start)[:, None] * wp + np.arange(tile.width)).ravel()
    corner = np.array(spec.window_offsets()) - half + pad  # (u, v) of pixel (0, 0)
    offsets = (np.arange(6) * hp * wp + corner[:, 1:] * wp + corner[:, :1]).ravel()
    return planes.ravel(), base, offsets


def extract_feature_rows(
    tile: ImageTile, spec: FeatureSpec, row_start: int, row_stop: int
) -> np.ndarray:
    """Feature image rows [row_start, row_stop) as a (rows, width, M) array.

    Each pixel holds, per window, (mR, mG, mB, vR, vG, vB), gathered from
    the band's feature_planes.
    """
    values, base, offsets = feature_planes(tile, spec, row_start, row_stop)
    return values[base[:, None] + offsets].reshape(row_stop - row_start, tile.width, -1)
