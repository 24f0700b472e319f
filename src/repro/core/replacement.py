"""DBI replacement policies (paper Section 4.3).

The goal of DBI replacement differs from cache replacement: evicting an entry
does not evict blocks, it forces their early writeback. A good policy avoids
*premature* writebacks — blocks that the upper levels will soon re-dirty.

The paper evaluates five practical policies and finds LRW (least recently
written) comparable-or-best; we implement all five for the Section 6.4
ablation:

1. ``lrw`` — least recently written (analogue of LRU).
2. ``lrw-bip`` — LRW with bimodal insertion [42].
3. ``rwip`` — rewrite-interval prediction (RRIP analogue [19]).
4. ``max-dirty`` — evict the entry with the most dirty blocks.
5. ``min-dirty`` — evict the entry with the fewest dirty blocks.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.utils.bits import popcount
from repro.utils.rng import DeterministicRng


class DbiReplacementPolicy(abc.ABC):
    """Interface between the DBI and its replacement state.

    ``bitvectors`` passed to :meth:`victim_way` holds the set's dirty-bit
    vectors, one per way; count policies count their bits, recency policies
    ignore them.
    """

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abc.abstractmethod
    def on_write(self, set_idx: int, way: int) -> None:
        """A dirty bit was set in an existing entry."""

    @abc.abstractmethod
    def on_insert(self, set_idx: int, way: int) -> None:
        """A fresh entry was installed in ``way``."""

    @abc.abstractmethod
    def victim_way(self, set_idx: int, bitvectors: Sequence[int]) -> int:
        """Pick the entry to evict (all ways valid)."""

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """An entry became empty and was freed; default: nothing."""


class LrwPolicy(DbiReplacementPolicy):
    """Least Recently Written — the paper's default."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._stacks: List[List[int]] = [list(range(num_ways)) for _ in range(num_sets)]

    def _touch(self, set_idx: int, way: int) -> None:
        stack = self._stacks[set_idx]
        stack.remove(way)
        stack.append(way)

    def on_write(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def on_insert(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def victim_way(self, set_idx: int, bitvectors: Sequence[int]) -> int:
        return self._stacks[set_idx][0]

    def on_invalidate(self, set_idx: int, way: int) -> None:
        stack = self._stacks[set_idx]
        stack.remove(way)
        stack.insert(0, way)


class LrwBipPolicy(LrwPolicy):
    """LRW with bimodal insertion: most new entries start at the LRW end."""

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        rng: Optional[DeterministicRng] = None,
        epsilon: float = 1.0 / 64.0,
    ) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = rng or DeterministicRng(seed=0x1B1D)
        self.epsilon = epsilon

    def on_insert(self, set_idx: int, way: int) -> None:
        if self._rng.chance(self.epsilon):
            self._touch(set_idx, way)
        else:
            stack = self._stacks[set_idx]
            stack.remove(way)
            stack.insert(0, way)


class RwipPolicy(DbiReplacementPolicy):
    """Rewrite-Interval Prediction — RRIP [19] adapted to write recency."""

    def __init__(self, num_sets: int, num_ways: int, rwpv_bits: int = 2) -> None:
        super().__init__(num_sets, num_ways)
        self.max_rwpv = (1 << rwpv_bits) - 1
        self._rwpv: List[List[int]] = [
            [self.max_rwpv] * num_ways for _ in range(num_sets)
        ]

    def on_write(self, set_idx: int, way: int) -> None:
        self._rwpv[set_idx][way] = 0

    def on_insert(self, set_idx: int, way: int) -> None:
        self._rwpv[set_idx][way] = self.max_rwpv - 1

    def victim_way(self, set_idx: int, bitvectors: Sequence[int]) -> int:
        values = self._rwpv[set_idx]
        while True:
            for way, value in enumerate(values):
                if value == self.max_rwpv:
                    return way
            for way in range(self.num_ways):
                values[way] += 1

    def on_invalidate(self, set_idx: int, way: int) -> None:
        self._rwpv[set_idx][way] = self.max_rwpv


class _CountBasedPolicy(DbiReplacementPolicy):
    """Shared machinery for Max-Dirty / Min-Dirty."""

    def on_write(self, set_idx: int, way: int) -> None:
        pass

    def on_insert(self, set_idx: int, way: int) -> None:
        pass


class MaxDirtyPolicy(_CountBasedPolicy):
    """Evict the entry with the most dirty blocks (amortize the burst)."""

    def victim_way(self, set_idx: int, bitvectors: Sequence[int]) -> int:
        counts = list(map(popcount, bitvectors))
        return counts.index(max(counts))


class MinDirtyPolicy(_CountBasedPolicy):
    """Evict the entry with the fewest dirty blocks (minimize the burst)."""

    def victim_way(self, set_idx: int, bitvectors: Sequence[int]) -> int:
        counts = list(map(popcount, bitvectors))
        return counts.index(min(counts))


def make_dbi_policy(
    name: str,
    num_sets: int,
    num_ways: int,
    rng: Optional[DeterministicRng] = None,
) -> DbiReplacementPolicy:
    """Factory keyed by the Section 4.3 policy names."""
    key = name.lower()
    if key == "lrw":
        return LrwPolicy(num_sets, num_ways)
    if key in ("lrw-bip", "lrw_bip"):
        return LrwBipPolicy(num_sets, num_ways, rng=rng)
    if key == "rwip":
        return RwipPolicy(num_sets, num_ways)
    if key in ("max-dirty", "max_dirty"):
        return MaxDirtyPolicy(num_sets, num_ways)
    if key in ("min-dirty", "min_dirty"):
        return MinDirtyPolicy(num_sets, num_ways)
    raise ValueError(f"unknown DBI replacement policy {name!r}")
