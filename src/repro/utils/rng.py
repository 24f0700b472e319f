"""Deterministic random number generation.

Every stochastic element in the reproduction (synthetic workload generators,
BIP/BRRIP insertion coin flips, set sampling) draws from a
:class:`DeterministicRng` seeded from an explicit stream name, so the same
configuration always produces bit-identical simulations.

Bulk draws (:meth:`DeterministicRng.raw`) run the generator as lanes: the
xorshift state step is linear over GF(2), so jumping a state 64 steps ahead
is a fixed 64x64 bit matrix, kept here as eight byte tables. A batch splits
into lanes of 64 consecutive values, each lane's start state is one table
jump from the previous lane's, and all lanes advance together as 128-bit
slots of one Python int. Every value is exactly the one the scalar
generator yields at that position.
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array

#: Divisor that maps a raw 64-bit draw onto [0, 1): ``random()`` is
#: ``next_u64() / U64_SPAN``. Bulk callers of :meth:`DeterministicRng.raw`
#: divide by the same float so their draws match the per-draw methods'.
U64_SPAN = float(1 << 64)


_MASK64 = (1 << 64) - 1

#: Values per lane: a lane is this many consecutive draws, and the jump
#: tables advance a state this many steps.
LANE = 64

#: Batches of fewer lanes than this run the scalar loop, which is faster
#: below it.
MIN_LANES = 8

#: Each 128-bit slot's low 64-bit word, in slot order, among the native
#: 64-bit words of a packed int's bytes in native order (the same slice
#: places the start states when packing). Little-endian, slot k's low word
#: is word 2k; big-endian bytes run from the top slot down with each
#: slot's low word second, so it is word 2k + 1 from the end.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)

#: One 128-bit slot, little-endian, with its low 64 bits set.
_LOW_SLOT = b"\xff" * 8 + bytes(8)


def _jump_tables() -> tuple:
    """T^LANE as eight byte tables: the state LANE steps after ``x`` is
    the XOR over bytes b of ``tables[b][(x >> 8 * b) & 0xFF]``.

    T, the state step, is linear over GF(2), so T^LANE is fixed by where
    it sends each single-bit state; a table entry XORs the images of the
    bits its index sets.
    """
    images = []
    for bit in range(64):
        x = 1 << bit
        for _ in range(LANE):
            x ^= x >> 12
            x ^= (x << 25) & _MASK64
            x ^= x >> 27
        images.append(x)
    tables = []
    for b in range(8):
        table = [0]
        for image in images[8 * b : 8 * b + 8]:
            table += [entry ^ image for entry in table]
        tables.append(array("Q", table))
    return tuple(tables)


_JUMP = _jump_tables()


def _draw_lanes(x: int, lanes: int, multiplier: int) -> tuple:
    """The next ``LANE * lanes`` outputs from state ``x``, and the state
    after them.

    Lane k's start state is one table jump (``_JUMP``) from lane k-1's.
    The lanes sit in 128-bit slots of one int and take every state step
    together: masking each slot to its low 64 bits drops the bits a right
    shift brings down from the next slot and those a left shift pushes
    past bit 63, and each slot's 64x64-bit output product fits in its own
    128 bits. Step s's outputs land at positions s, LANE + s, ...
    """
    t0, t1, t2, t3, t4, t5, t6, t7 = _JUMP
    starts = [0] * lanes
    for k in range(lanes):
        starts[k] = x
        x = (
            t0[x & 255] ^ t1[x >> 8 & 255] ^ t2[x >> 16 & 255]
            ^ t3[x >> 24 & 255] ^ t4[x >> 32 & 255]
            ^ t5[x >> 40 & 255] ^ t6[x >> 48 & 255] ^ t7[x >> 56]
        )
    words = [0] * (2 * lanes)
    words[_LOW_WORDS] = starts
    order, size = sys.byteorder, 16 * lanes
    packed = int.from_bytes(array("Q", words), order)
    low = int.from_bytes(_LOW_SLOT * lanes, "little")
    out = memoryview(bytearray(8 * LANE * lanes)).cast("Q")
    for step in range(LANE):
        packed ^= (packed >> 12) & low
        packed ^= (packed << 25) & low
        packed ^= (packed >> 27) & low
        out[step::LANE] = memoryview(
            (packed * multiplier).to_bytes(size, order)
        ).cast("Q")[_LOW_WORDS]
    return out.tolist(), x


class DeterministicRng:
    """A small, fast xorshift64* generator with named-substream derivation.

    The Python stdlib Mersenne Twister would also be deterministic, but this
    generator is cheaper per draw and makes substream derivation explicit:
    ``rng.derive("bench:mcf")`` yields an independent stream whose seed depends
    only on the parent seed and the label. :meth:`raw` draws a batch as
    jump-ahead lanes (see the module docstring) and returns exactly the
    values the per-draw methods would consume.
    """

    _MULTIPLIER = 0x2545F4914F6CDD1D
    _MASK64 = _MASK64

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

        The generator is left in the same state ``count`` calls would leave
        it in. Bulk callers (the trace generators) derive ``random`` /
        ``chance`` / ``randint`` draws from these values with the same
        arithmetic those methods use. Batches of at least ``MIN_LANES``
        lanes are drawn by :func:`_draw_lanes`; the last ``count % LANE``
        values, and smaller batches, run the scalar loop.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        mask = self._MASK64
        multiplier = self._MULTIPLIER
        x = self._state
        lanes = count // LANE
        done = 0
        values = []
        if lanes >= MIN_LANES:
            values, x = _draw_lanes(x, lanes, multiplier)
            done = LANE * lanes
        values += [0] * (count - done)
        for i in range(done, count):
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
