"""Address-pattern primitives for synthetic traces.

Each pattern is a stateful generator of block addresses inside a fixed
footprint. The patterns are chosen to span the behaviours that matter for
the paper's mechanisms:

* ``stream`` — sequential scans: high spatial (DRAM-row) locality for both
  reads and writes; AWB's best case.
* ``cyclic`` — an exact repeating scan of the footprint: the LRU-thrash
  pattern DIP/BIP is designed for.
* ``random`` — uniform references: low row locality, scattered writes;
  DBI-thrash stressor.
* ``hotcold`` — a small hot set absorbs most references; models reuse-heavy
  benchmarks with low MPKI.
* ``region`` — bursts of accesses within one DRAM-row-sized region before
  jumping: moderate row locality with working-set churn.
"""

from __future__ import annotations

from typing import List

from repro.utils.rng import U64_SPAN, DeterministicRng
from repro.utils.validation import check_positive, check_range


class AddressPattern:
    """Base class: ``addresses(count)`` yields the next block addresses.

    Each pattern draws a whole batch in one pass over
    :meth:`DeterministicRng.raw`, consuming its stream in exactly the order
    one ``randint``/``chance`` call per draw would. So ``addresses(a)``
    followed by ``addresses(b)`` returns ``addresses(a + b)`` and leaves the
    same state, and :meth:`next_address` is a batch of one.
    """

    def __init__(self, rng: DeterministicRng, footprint: int) -> None:
        check_positive("footprint", footprint)
        self.rng = rng
        self.footprint = footprint

    def addresses(self, count: int) -> List[int]:
        """The next ``count`` block addresses, in order."""
        raise NotImplementedError

    def next_address(self) -> int:
        return self.addresses(1)[0]


class StreamPattern(AddressPattern):
    """Sequential scan with a stride, wrapping at the footprint."""

    def __init__(self, rng, footprint, stride: int = 1) -> None:
        super().__init__(rng, footprint)
        check_positive("stride", stride)
        self.stride = stride
        self._cursor = 0

    def addresses(self, count: int) -> List[int]:
        cursor, stride, footprint = self._cursor, self.stride, self.footprint
        self._cursor = (cursor + count * stride) % footprint
        return [(cursor + i * stride) % footprint for i in range(count)]


class CyclicPattern(StreamPattern):
    """Alias of a stride-1 stream: an exact repeating scan (LRU's nemesis)."""

    def __init__(self, rng, footprint) -> None:
        super().__init__(rng, footprint, stride=1)


class RandomPattern(AddressPattern):
    """Uniform random references over the footprint."""

    def addresses(self, count: int) -> List[int]:
        # randint(0, footprint - 1) per address.
        footprint = self.footprint
        return [x % footprint for x in self.rng.raw(count)]


class HotColdPattern(AddressPattern):
    """A hot subset absorbs most references; the rest scatter."""

    def __init__(
        self,
        rng,
        footprint,
        hot_fraction: float = 0.1,
        hot_probability: float = 0.9,
    ) -> None:
        super().__init__(rng, footprint)
        check_range("hot_fraction", hot_fraction, 0.0, 1.0)
        check_range("hot_probability", hot_probability, 0.0, 1.0)
        self.hot_blocks = max(1, int(footprint * hot_fraction))
        self.hot_probability = hot_probability

    def addresses(self, count: int) -> List[int]:
        # Two draws per address: chance(hot_probability), then
        # randint(0, hot_blocks - 1) or randint(0, footprint - 1).
        hot_blocks, footprint = self.hot_blocks, self.footprint
        probability, span = self.hot_probability, U64_SPAN
        draws = iter(self.rng.raw(2 * count))
        return [
            block % hot_blocks if coin / span < probability else block % footprint
            for coin, block in zip(draws, draws)
        ]


class RegionBurstPattern(AddressPattern):
    """Bursts of references within one region, then a jump elsewhere.

    ``region_blocks`` should match a DRAM row (128 blocks for the paper's
    8 KB rows) to model row-local phases.
    """

    def __init__(
        self,
        rng,
        footprint,
        region_blocks: int = 128,
        burst_length: int = 24,
        revisit: str = "random",
    ) -> None:
        super().__init__(rng, footprint)
        check_positive("region_blocks", region_blocks)
        check_positive("burst_length", burst_length)
        if revisit not in ("random", "cycle"):
            raise ValueError(f"revisit must be 'random' or 'cycle', got {revisit!r}")
        self.region_blocks = min(region_blocks, footprint)
        self.burst_length = burst_length
        self.revisit = revisit
        self._remaining = 0
        self._region_base = 0
        num_regions = max(1, self.footprint // self.region_blocks)
        self._num_regions = num_regions
        if revisit == "cycle":
            # A shuffled cyclic order: consecutive bursts hit unrelated
            # regions (rows), but a region is revisited only after a full
            # pass over the footprint — array codes that sweep their data.
            self._order = list(range(num_regions))
            self.rng.shuffle(self._order)
            self._cursor = 0

    def addresses(self, count: int) -> List[int]:
        """Finish the current burst, then start a new one every
        ``burst_length`` addresses.

        Each address draws ``randint(0, region_blocks - 1)`` as its offset.
        Under random revisit a burst start first draws its region with
        ``randint(0, num_regions - 1)``, so in the draw stream each burst is
        one region draw followed by its offsets. ``num_regions`` whole
        regions fit in the footprint, so no address needs clamping.
        """
        region_blocks, burst = self.region_blocks, self.burst_length
        num_regions = self._num_regions
        head = min(self._remaining, count)  # the current burst's rest
        starts = 0 if head == count else (count - head - 1) // burst + 1
        if self.revisit == "cycle":
            draws = self.rng.raw(count)
            lead = 0
            order, cursor = self._order, self._cursor
            regions = [order[(cursor + k) % num_regions] for k in range(starts)]
            self._cursor = (cursor + starts) % num_regions
        else:
            draws = self.rng.raw(count + starts)
            lead = 1
            regions = [
                draws[head + k * (burst + 1)] % num_regions for k in range(starts)
            ]
        step = lead + burst  # draws per new burst
        current = self._region_base
        out = [current + x % region_blocks for x in draws[:head]]
        if not starts:
            self._remaining -= count
            return out
        bases = [region * region_blocks for region in regions]
        out += [
            base + x % region_blocks
            for k, base in enumerate(bases)
            for x in draws[head + k * step + lead : head + (k + 1) * step]
        ]
        self._region_base = bases[-1]
        self._remaining = starts * burst - (count - head)
        return out


def make_pattern(
    kind: str,
    rng: DeterministicRng,
    footprint: int,
    **kwargs,
) -> AddressPattern:
    """Factory over the pattern names used by benchmark profiles."""
    key = kind.lower()
    if key == "stream":
        return StreamPattern(rng, footprint, **kwargs)
    if key == "cyclic":
        return CyclicPattern(rng, footprint)
    if key == "random":
        return RandomPattern(rng, footprint)
    if key == "hotcold":
        return HotColdPattern(rng, footprint, **kwargs)
    if key == "region":
        return RegionBurstPattern(rng, footprint, **kwargs)
    raise ValueError(f"unknown pattern kind {kind!r}")
