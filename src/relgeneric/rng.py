"""Deterministic SplitMix64 generator for the randomized verification suites.

The generator is pinned so that identical seeds reproduce identical check
suites across runs and platforms, and byte-identical reports at one BLAS
thread count (the package's default is one).

State update and output function (all arithmetic modulo 2**64):

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: (output >> 11) * 2**-53.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Counter-free SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(self.uniforms(1, lo, hi)[0])

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next ``n`` outputs as uniforms in [lo, hi), by the mapping above."""
        steps = np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + steps
        self._state = int(states[-1]) if n > 0 else self._state
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        return lo + (hi - lo) * ((z >> np.uint64(11)) * 2.0**-53)
