"""Per-pixel window statistics as offsets into six box-filtered planes.

Each pixel is described by the mean and population variance of every RGB
channel inside small square windows placed on concentric rings around it.
With the default 3x3 window and rings at radii 2 and 4 this yields
9*6 + 9*6 - 6 = 102 features per pixel (the two rings share their center
window, which is emitted once).

Window coordinates are clamped (edge-replicated) into the tile.  A band of
rows is edge-padded and box-filtered, one channel at a time, by running
window sums (_box_sums) into two planes per channel: its mean and its
variance (clamped at zero) of the window at each padded position.  A
feature is then one flat offset into the planes (its statistic and window
displacement) added to a pixel's base index (its row and column).  Sums are
exact integers, int32 while a window of squares fits (window_side <= 181),
and only the final division is floating point, so any banding, and any
choice of channels, gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .imagery import ImageTile, check_canvas, check_odd_side


@dataclass(frozen=True)
class FeatureSpec:
    """Geometry of the feature extractor: window side and ring radii."""

    window_side: int = 3
    ring_radii: tuple[int, ...] = (2, 4)

    def __post_init__(self):
        object.__setattr__(self, "ring_radii", tuple(int(r) for r in self.ring_radii))
        check_odd_side("window_side", self.window_side)
        if not self.ring_radii:
            raise ConfigError("at least one ring radius is required")
        if any(r < 1 for r in self.ring_radii):
            raise ConfigError(f"ring radii must be >= 1, got {self.ring_radii}")
        if any(b <= a for a, b in zip(self.ring_radii, self.ring_radii[1:])):
            raise ConfigError(f"ring radii must be strictly increasing: {self.ring_radii}")

    @property
    def pad(self) -> int:
        """Rows and columns of edge padding around a band's planes."""
        return max(self.ring_radii) + self.window_side // 2

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


def _window_sum(values: np.ndarray, width: int) -> np.ndarray:
    """Running sum along rows: out[:, i] = sum(values[:, i : i + width]).

    Doubling, as detection._window_max: run[:, i] sums the span values from
    i, and the spans of width's set bits, end to end, make up the window."""
    n = values.shape[1] - width + 1
    out, run, span, done = None, values, 1, 0
    while True:
        if width & span:
            part = run[:, done : done + n]
            out = part if out is None else out + part
            done += span
        if 2 * span > width:
            return out
        run = run[:, :-span] + run[:, span:]
        span *= 2


def _box_sums(values: np.ndarray, side: int) -> np.ndarray:
    """out[i, j] = sum(values[i : i + side, j : j + side]), in values' dtype."""
    return _window_sum(_window_sum(values.T, side).T, side)


def feature_planes(
    tile: ImageTile, spec: FeatureSpec, row_start: int, row_stop: int,
    channels: tuple[int, ...] = (0, 1, 2),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planes of rows [row_start, row_stop) of k channels as (values, base, offsets).

    values is the flat float64 array of 2k (Hp, Wp) planes over the padded
    band, the channels' means then variances (mR, mG, mB, vR, vG, vB for all
    three): the mean and the population variance, clamped at zero, of the
    window_side x window_side window whose top-left cell is each padded
    position.  base holds one int64 index per band pixel, row-major, and
    offsets 2k per window, window-major: statistic s of window w of pixel p
    is values[base[p] + offsets[2kw + s]], feature 6w + s for all channels.

    The whole tile padded by spec.pad must pass imagery.check_canvas before
    anything is padded; it bounds every padded band, and the default pad of
    5 passes on every tile, however thin.
    """
    if not 0 <= row_start < row_stop <= tile.height:
        raise ValueError(f"bad row range [{row_start}, {row_stop})")
    side, pad = spec.window_side, spec.pad
    h, w = tile.height, tile.width
    check_canvas(h, w, pad, f"window_side {side} and ring_radii {spec.ring_radii}")
    rows = np.clip(np.arange(row_start - pad, row_stop + pad), 0, h - 1)
    hp, wp = rows.size - side + 1, w + 2 * pad - side + 1
    planes = np.empty((2 * len(channels), hp, wp))
    n = side * side
    dtype = np.int32 if n * 255**2 < 2**31 else np.int64
    for i, c in enumerate(channels):
        channel = np.pad(tile.pixels[rows, :, c], ((0, 0), (pad, pad)), mode="edge").astype(dtype)
        mean = np.divide(_box_sums(channel, side), n, out=planes[i])
        var = np.divide(_box_sums(channel * channel, side), n, out=planes[len(channels) + i])
        var -= mean * mean
        np.maximum(var, 0.0, out=var)
    base = (np.arange(row_stop - row_start)[:, None] * wp + np.arange(w)).ravel()
    corner = np.array(spec.window_offsets()) - side // 2 + pad  # (u, v) of pixel (0, 0)
    offsets = (np.arange(len(planes)) * hp * wp + corner[:, 1:] * wp + corner[:, :1]).ravel()
    return planes.ravel(), base, offsets
