"""Deterministic counter-based pseudo-random streams.

Every stochastic step in the pipeline (bootstrap draws, per-node feature
subsets, negative-pixel sampling, scene synthesis) derives its values from
64-bit counters mixed through the SplitMix64 finalizer.  A value therefore
depends only on (seed, counter), never on call order, thread schedule,
platform or numpy version, which is what makes retraining and re-rendering
bit-reproducible.  It also lets any slice of a draw be computed on its own
(Stream.normals_slice), which is how scene bands render in parallel.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def counter_u64(seed: int, counter: int) -> int:
    """The counter-th 64-bit word of the stream rooted at seed."""
    return mix64((seed + (counter + 1) * _GOLDEN) & _MASK)


def _counter_u64_array(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized counter_u64 for counters start..start+count-1."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _uniform_array(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform float64 values in [0, 1) from counters start..start+count-1."""
    return _counter_u64_array(seed, start, count).astype(np.float64) * (2.0 ** -64)


class Stream:
    """Sequential view over a counter-based stream.

    Instances are cheap; independent substreams come from spawn(), so two
    consumers never share counters.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def spawn(self, tag: int) -> "Stream":
        """Independent child stream; identical (seed, tag) gives an identical child."""
        return Stream(mix64(self.seed ^ counter_u64(self.seed, (tag + 1) << 32)))

    def next_u64(self) -> int:
        value = counter_u64(self.seed, self._counter)
        self._counter += 1
        return value

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n).  Modulo bias is < n / 2**64."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def u64_array(self, count: int) -> np.ndarray:
        out = _counter_u64_array(self.seed, self._counter, count)
        self._counter += count
        return out

    def integers(self, n: int, count: int) -> np.ndarray:
        """count uniform integers in [0, n) as int64."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.u64_array(count) % np.uint64(n)).astype(np.int64)

    def uniforms(self, count: int) -> np.ndarray:
        """count uniform float64 values in [0, 1)."""
        out = _uniform_array(self.seed, self._counter, count)
        self._counter += count
        return out

    def normals(self, count: int) -> np.ndarray:
        """count standard-normal float64 values via Box-Muller."""
        out = self.normals_slice(self._counter, count, 0, count)
        self._counter += 2 * ((count + 1) // 2)
        return out

    def normals_slice(self, at: int, count: int, start: int, stop: int) -> np.ndarray:
        """normals(count)[start:stop] of a draw made at counter at.

        Pair p of the draw takes u1 from counter at + p and u2 from counter
        at + n_pairs + p, so only the pairs that cover [start, stop) are
        computed; the stream does not move.
        """
        n_pairs = (count + 1) // 2
        first, last = start // 2, (stop + 1) // 2
        u1 = _uniform_array(self.seed, at + first, last - first)
        u2 = _uniform_array(self.seed, at + n_pairs + first, last - first)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1-u1 in (0,1], log finite
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * (last - first))
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[start - 2 * first : stop - 2 * first]

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from [0, n), by partial Fisher-Yates.

        Output order is the draw order, deterministic for a given stream
        position.  The shuffled pool is kept sparse, as the positions that
        differ from the identity, so time and memory are O(k), not O(n).
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        moved: dict[int, int] = {}
        out = []
        for j, draw in enumerate(self.u64_array(k).tolist()):
            swap = j + draw % (n - j)
            out.append(moved.get(swap, swap))
            moved[swap] = moved.get(j, j)
        return np.array(out, dtype=np.int64)
