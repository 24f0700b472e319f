"""Functional set-associative cache level.

This class is purely functional (no timing): lookups, fills, evictions and
dirty-bit bookkeeping. The timing simulator (`repro.sim`) and the LLC
mechanisms (`repro.mechanisms`) wrap it with latencies, MSHRs and tag-port
contention.

The tag store is three flat lists with one entry per way, at
``set * associativity + way``: block address (``-1`` marks an empty way),
the conventional in-tag dirty bit (paper Figure 1a) and the filling core.
Caches managed by a DBI mechanism never set the dirty bit; the Dirty-Block
Index is then the sole authority on dirtiness (Figure 1b).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.cache.config import CacheConfig
from repro.cache.replacement import ReplacementPolicy, _RecencyStackPolicy, make_policy
from repro.utils.rng import DeterministicRng
from repro.utils.stats import StatRecord


class EvictedBlock(NamedTuple):
    """One block's tag entry, read-only: what fell out of the cache on an
    insertion, or what :meth:`Cache.iter_valid_blocks` yields.

    A tuple, because one is built on every eviction: a frozen dataclass paid
    an ``__init__`` frame and one ``object.__setattr__`` per field.
    """

    addr: int
    dirty: bool
    owner_core: int


class CacheStats(StatRecord):
    """One cache level's counts (demand lookups and fills)."""

    __slots__ = ("lookups", "hits", "misses", "evictions", "dirty_evictions", "fills")


#: ``_new_evicted(EvictedBlock, (addr, dirty, owner_core))`` builds one
#: without the Python-level ``__new__`` frame the NamedTuple adds.
_new_evicted = tuple.__new__


class Cache:
    """A set-associative cache with a pluggable replacement policy.

    Example:
        >>> cache = Cache(CacheConfig("l1", num_blocks=8, associativity=2,
        ...                           tag_latency=1, data_latency=1))
        >>> cache.insert(0x10)
        >>> cache.contains(0x10)
        True
    """

    #: Optional dirty-transition observer (full checked mode attaches the
    #: CheckEngine here). Class attribute so unchecked runs pay only a
    #: ``is not None`` test, and only on actual 0↔1 transitions.
    observer = None

    def __init__(
        self,
        config: CacheConfig,
        num_threads: int = 1,
        rng: Optional[DeterministicRng] = None,
        policy: Optional[ReplacementPolicy] = None,
        stat_name: Optional[str] = None,
    ) -> None:
        self.config = config
        entries = config.num_sets * config.associativity
        # The tag store (module docstring): address, dirty bit, owner core.
        self._addr: List[int] = [-1] * entries
        self._dirty: List[bool] = [False] * entries
        self._owner: List[int] = [-1] * entries
        self.policy = policy or make_policy(
            config.replacement,
            config.num_sets,
            config.associativity,
            num_threads=num_threads,
            rng=rng,
        )
        # stat_name disambiguates instances sharing one config (a system has
        # one L1 *config* but one L1 cache — and stat group — per core).
        self.stats = CacheStats(stat_name or config.name)
        # addr -> way, for O(1) presence checks (the set is derivable).
        self._where: Dict[int, int] = {}
        self._set_mask = config.num_sets - 1
        self._assoc = config.associativity
        # Valid blocks per set; lets a full set (the steady state) go
        # straight to the victim instead of scanning every way for a hole.
        self._set_fill = [0] * config.num_sets

    # ------------------------------------------------------------- presence

    def set_index(self, addr: int) -> int:
        return addr & self._set_mask

    def contains(self, addr: int) -> bool:
        return addr in self._where

    def is_dirty(self, addr: int) -> bool:
        """The in-tag dirty bit, without touching stats or replacement state."""
        way = self._where.get(addr)
        return way is not None and self._dirty[
            (addr & self._set_mask) * self._assoc + way
        ]

    # --------------------------------------------------------------- access

    def lookup(self, addr: int, core_id: int = -1) -> bool:
        """Demand lookup: updates recency on hit, PSEL voting on miss."""
        set_idx = addr & self._set_mask
        way = self._where.get(addr)
        stats = self.stats
        stats.lookups += 1
        if way is not None:
            stats.hits += 1
            self.policy.on_hit(set_idx, way, core_id)
            return True
        stats.misses += 1
        policy = self.policy
        if policy.duels:
            policy.note_miss(set_idx, core_id)
        return False

    def touch(self, addr: int, core_id: int = -1) -> bool:
        """Promote a block without demand-miss accounting (fills, writebacks)."""
        way = self._where.get(addr)
        if way is None:
            return False
        self.policy.on_hit(addr & self._set_mask, way, core_id)
        return True

    # ---------------------------------------------------------------- fills

    def insert(
        self, addr: int, core_id: int = -1, dirty: bool = False
    ) -> Optional[EvictedBlock]:
        """Install ``addr``; returns the evicted block if a valid one fell out.

        If the block is already present this only updates its dirty bit
        (logical OR) and promotes it.
        """
        set_idx = addr & self._set_mask
        base = set_idx * self._assoc
        existing_way = self._where.get(addr)
        if existing_way is not None:
            at = base + existing_way
            if dirty and not self._dirty[at]:
                if self.observer is not None:
                    self.observer.on_block_dirtied(addr)
                self._dirty[at] = True
            self.policy.on_hit(set_idx, existing_way, core_id)
            return None

        addrs = self._addr
        evicted = None
        if self._set_fill[set_idx] < self._assoc:
            at = addrs.index(-1, base, base + self._assoc)
            self._set_fill[set_idx] += 1
        else:
            at = base + self.policy.victim_way(set_idx)
            victim = addrs[at]
            victim_dirty = self._dirty[at]
            evicted = _new_evicted(
                EvictedBlock, (victim, victim_dirty, self._owner[at])
            )
            del self._where[victim]
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
                if self.observer is not None:
                    self.observer.on_dirty_evicted(victim)

        addrs[at] = addr
        self._dirty[at] = dirty
        self._owner[at] = core_id
        if dirty and self.observer is not None:
            self.observer.on_block_dirtied(addr)
        self._where[addr] = at - base
        self.policy.on_insert(set_idx, at - base, core_id)
        self.stats.fills += 1
        return evicted

    # ------------------------------------------------------------ dirty bits

    def mark_dirty(self, addr: int) -> bool:
        """Set the in-tag dirty bit. Returns False if the block is absent."""
        way = self._where.get(addr)
        if way is None:
            return False
        at = (addr & self._set_mask) * self._assoc + way
        if not self._dirty[at] and self.observer is not None:
            self.observer.on_block_dirtied(addr)
        self._dirty[at] = True
        return True

    def mark_clean(self, addr: int) -> bool:
        """Clear the in-tag dirty bit (e.g. after a proactive writeback)."""
        way = self._where.get(addr)
        if way is None:
            return False
        at = (addr & self._set_mask) * self._assoc + way
        if self._dirty[at] and self.observer is not None:
            self.observer.on_block_cleaned(addr)
        self._dirty[at] = False
        return True

    def invalidate(self, addr: int) -> Optional[EvictedBlock]:
        """Remove ``addr``; returns its pre-invalidation state if present."""
        way = self._where.pop(addr, None)
        if way is None:
            return None
        set_idx = addr & self._set_mask
        at = set_idx * self._assoc + way
        state = EvictedBlock(addr, self._dirty[at], self._owner[at])
        if state.dirty and self.observer is not None:
            self.observer.on_dirty_invalidated(addr)
        self._addr[at] = -1
        self._dirty[at] = False
        self._owner[at] = -1
        self._set_fill[set_idx] -= 1
        self.policy.on_invalidate(set_idx, way)
        return state

    # ------------------------------------------------------------ inspection

    def iter_valid_blocks(self) -> Iterator[EvictedBlock]:
        """Every valid block as a read-only tuple, in set/way order."""
        for entry in zip(self._addr, self._dirty, self._owner):
            if entry[0] != -1:
                yield _new_evicted(EvictedBlock, entry)

    def dirty_blocks(self) -> List[int]:
        """Addresses of the blocks whose in-tag dirty bit is set, in set/way
        order."""
        return list(compress(self._addr, self._dirty))

    @property
    def occupancy(self) -> int:
        return len(self._where)

    @property
    def dirty_count(self) -> int:
        # An empty way's dirty bit is clear, so no validity test is needed.
        return self._dirty.count(True)

    def lru_half_ways(self, set_idx: int) -> List[int]:
        """LRU-half ways of a set (for VWQ's Set State Vector).

        Only meaningful for recency-stack policies; other policies fall back
        to the first half of the ways.
        """
        if isinstance(self.policy, _RecencyStackPolicy):
            return self.policy.lru_half_ways(set_idx)
        return list(range(self.config.associativity // 2))

    def recency_order(self, set_idx: int) -> List[int]:
        """Ways of a set ordered LRU-first (for recency-stack policies).

        Non-stack policies fall back to way order, which keeps dependent
        features (VWQ) functional if unrealistically ordered.
        """
        if isinstance(self.policy, _RecencyStackPolicy):
            return list(self.policy._stacks[set_idx])
        return list(range(self.config.associativity))

    def lru_valid_ways(self, set_idx: int) -> List[int]:
        """The less-recently-used half of the *valid* blocks of a set.

        This is the population VWQ's Set State Vector summarizes: blocks
        nearing eviction. With ``n`` valid blocks, the first ``ceil(n/2)``
        in recency order qualify (a lone block is its own LRU).
        """
        addrs = self._addr
        base = set_idx * self._assoc
        valid_in_order = [
            w for w in self.recency_order(set_idx) if addrs[base + w] != -1
        ]
        return valid_in_order[: (len(valid_in_order) + 1) // 2]

    def lru_half_dirty(self, set_idx: int) -> bool:
        """Does the set hold a dirty block among :meth:`lru_valid_ways`?"""
        dirty = self._dirty
        base = set_idx * self._assoc
        return any(dirty[base + way] for way in self.lru_valid_ways(set_idx))

    def lru_half_holds_dirty(self, addr: int) -> bool:
        """Is ``addr`` dirty and among its set's :meth:`lru_valid_ways`?"""
        if not self.is_dirty(addr):
            return False
        return self._where[addr] in self.lru_valid_ways(addr & self._set_mask)
