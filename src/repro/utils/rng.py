"""Deterministic random number generation.

Every stochastic element in the reproduction (synthetic workload generators,
BIP/BRRIP insertion coin flips, set sampling) draws from a
:class:`DeterministicRng` seeded from an explicit stream name, so the same
configuration always produces bit-identical simulations.
"""

from __future__ import annotations

import hashlib
import math

#: Divisor that maps a raw 64-bit draw onto [0, 1): ``random()`` is
#: ``next_u64() / U64_SPAN``. Bulk callers of :meth:`DeterministicRng.raw`
#: divide by the same float so their draws match the per-draw methods'.
U64_SPAN = float(1 << 64)


class DeterministicRng:
    """A small, fast xorshift64* generator with named-substream derivation.

    The Python stdlib Mersenne Twister would also be deterministic, but this
    generator is cheaper per draw and makes substream derivation explicit:
    ``rng.derive("bench:mcf")`` yields an independent stream whose seed depends
    only on the parent seed and the label.
    """

    _MULTIPLIER = 0x2545F4914F6CDD1D
    _MASK64 = (1 << 64) - 1

    def __init__(self, seed: int = 0xDB1) -> None:
        # xorshift state must be non-zero; fold the seed to 64 bits.
        self._state = (seed & self._MASK64) or 0x9E3779B97F4A7C15
        self.seed = seed

    def derive(self, label: str) -> "DeterministicRng":
        """Create an independent substream keyed by ``label``."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return DeterministicRng(int.from_bytes(digest[:8], "little"))

    def next_u64(self) -> int:
        """Next raw 64-bit value."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & self._MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * self._MULTIPLIER) & self._MASK64

    def raw(self, count: int) -> list:
        """The next ``count`` values :meth:`next_u64` would return, in order.

        One local loop instead of ``count`` method calls; the generator is
        left in the same state the calls would leave it in. Bulk callers
        (the trace generators) derive ``random``/``chance``/``randint``
        draws from these values with the same arithmetic those methods use.
        """
        mask = self._MASK64
        multiplier = self._MULTIPLIER
        x = self._state
        values = [0] * count
        for i in range(count):
            x ^= (x >> 12)
            x ^= (x << 25) & mask
            x ^= (x >> 27)
            values[i] = (x * multiplier) & mask
        self._state = x
        return values

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u64() / U64_SPAN

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self.random() < probability

    def choice(self, items):
        """Uniformly pick one element from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle: position i swaps with
        ``randint(0, i)``, for i from the last position down to 1."""
        last = len(items) - 1
        for i, x in zip(range(last, 0, -1), self.raw(max(0, last))):
            j = x % (i + 1)
            items[i], items[j] = items[j], items[i]

    def geometric(self, mean: float) -> int:
        """Geometric-ish non-negative integer with the given mean (>= 0).

        Used for instruction-gap distributions in workload generators.
        """
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if mean == 0:
            return 0
        # Inverse-CDF sampling of a geometric distribution on {0, 1, 2, ...}.
        p = 1.0 / (mean + 1.0)
        u = self.random()
        # Guard u == 0 (log undefined) by resampling the largest representable.
        if u <= 0.0:
            u = 2.0 ** -64
        return int(math.log(u) / math.log(1.0 - p))
