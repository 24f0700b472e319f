"""Functional set-associative cache level.

This class is purely functional (no timing): lookups, fills, evictions and
dirty-bit bookkeeping. The timing simulator (`repro.sim`) and the LLC
mechanisms (`repro.mechanisms`) wrap it with latencies, MSHRs and tag-port
contention.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.cache.block import CacheBlock
from repro.cache.config import CacheConfig
from repro.cache.replacement import ReplacementPolicy, _RecencyStackPolicy, make_policy
from repro.utils.rng import DeterministicRng
from repro.utils.stats import StatGroup


class EvictedBlock(NamedTuple):
    """What fell out of the cache on an insertion.

    A tuple, because one is built on every eviction: a frozen dataclass paid
    an ``__init__`` frame and one ``object.__setattr__`` per field.
    """

    addr: int
    dirty: bool
    owner_core: int


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
        self.sets: List[List[CacheBlock]] = [
            [CacheBlock() for _ in range(config.associativity)]
            for _ in range(config.num_sets)
        ]
        self.policy = policy or make_policy(
            config.replacement,
            config.num_sets,
            config.associativity,
            num_threads=num_threads,
            rng=rng,
        )
        # stat_name disambiguates instances sharing one config (a system has
        # one L1 *config* but one L1 cache — and stat group — per core).
        self.stats = StatGroup(stat_name or config.name)
        # addr -> way, for O(1) presence checks (the set is derivable).
        self._where: Dict[int, int] = {}
        self._set_mask = config.num_sets - 1
        self._assoc = config.associativity
        # Valid blocks per set; lets a full set (the steady state) go
        # straight to the victim instead of scanning every way for a hole.
        self._set_fill = [0] * config.num_sets
        # Hot-path counters, bound to their Counter object on first use so
        # per-access increments skip the StatGroup dict lookup. Bound lazily
        # (not in __init__) so the set of exported stats — and hence results
        # — stays byte-identical to creation-on-first-increment.
        self._c_lookups = None
        self._c_hits = None
        self._c_misses = None
        self._c_evictions = None
        self._c_dirty_evictions = None
        self._c_fills = None

    # ------------------------------------------------------------- presence

    def set_index(self, addr: int) -> int:
        return addr & self._set_mask

    def contains(self, addr: int) -> bool:
        return addr in self._where

    def probe(self, addr: int) -> Optional[CacheBlock]:
        """Return the block without touching replacement state."""
        way = self._where.get(addr)
        if way is None:
            return None
        return self.sets[addr & self._set_mask][way]

    def is_dirty(self, addr: int) -> bool:
        block = self.probe(addr)
        return block is not None and block.dirty

    # --------------------------------------------------------------- access

    def lookup(self, addr: int, core_id: int = -1) -> bool:
        """Demand lookup: updates recency on hit, PSEL voting on miss."""
        set_idx = addr & self._set_mask
        way = self._where.get(addr)
        counter = self._c_lookups
        if counter is None:
            counter = self._c_lookups = self.stats.counter("lookups")
        counter.value += 1
        if way is not None:
            counter = self._c_hits
            if counter is None:
                counter = self._c_hits = self.stats.counter("hits")
            counter.value += 1
            self.policy.on_hit(set_idx, way, core_id)
            return True
        counter = self._c_misses
        if counter is None:
            counter = self._c_misses = self.stats.counter("misses")
        counter.value += 1
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
        existing_way = self._where.get(addr)
        if existing_way is not None:
            block = self.sets[set_idx][existing_way]
            if dirty and not block.dirty and self.observer is not None:
                self.observer.on_block_dirtied(addr)
            block.dirty = block.dirty or dirty
            self.policy.on_hit(set_idx, existing_way, core_id)
            return None

        ways = self.sets[set_idx]
        victim_way = None
        if self._set_fill[set_idx] < self._assoc:
            for way, block in enumerate(ways):
                if not block.valid:
                    victim_way = way
                    self._set_fill[set_idx] += 1
                    break
        evicted = None
        if victim_way is None:
            victim_way = self.policy.victim_way(set_idx)
            victim = ways[victim_way]
            evicted = _new_evicted(
                EvictedBlock, (victim.addr, victim.dirty, victim.owner_core)
            )
            del self._where[victim.addr]
            counter = self._c_evictions
            if counter is None:
                counter = self._c_evictions = self.stats.counter("evictions")
            counter.value += 1
            if victim.dirty:
                counter = self._c_dirty_evictions
                if counter is None:
                    counter = self._c_dirty_evictions = self.stats.counter(
                        "dirty_evictions"
                    )
                counter.value += 1
                if self.observer is not None:
                    self.observer.on_dirty_evicted(victim.addr)

        block = ways[victim_way]
        block.addr = addr
        block.valid = True
        block.dirty = dirty
        block.owner_core = core_id
        if dirty and self.observer is not None:
            self.observer.on_block_dirtied(addr)
        self._where[addr] = victim_way
        self.policy.on_insert(set_idx, victim_way, core_id)
        counter = self._c_fills
        if counter is None:
            counter = self._c_fills = self.stats.counter("fills")
        counter.value += 1
        return evicted

    # ------------------------------------------------------------ dirty bits

    def mark_dirty(self, addr: int) -> bool:
        """Set the in-tag dirty bit. Returns False if the block is absent."""
        way = self._where.get(addr)
        if way is None:
            return False
        block = self.sets[addr & self._set_mask][way]
        if not block.dirty and self.observer is not None:
            self.observer.on_block_dirtied(addr)
        block.dirty = True
        return True

    def mark_clean(self, addr: int) -> bool:
        """Clear the in-tag dirty bit (e.g. after a proactive writeback)."""
        block = self.probe(addr)
        if block is None:
            return False
        if block.dirty and self.observer is not None:
            self.observer.on_block_cleaned(addr)
        block.dirty = False
        return True

    def invalidate(self, addr: int) -> Optional[EvictedBlock]:
        """Remove ``addr``; returns its pre-invalidation state if present."""
        way = self._where.pop(addr, None)
        if way is None:
            return None
        set_idx = self.set_index(addr)
        block = self.sets[set_idx][way]
        state = EvictedBlock(block.addr, block.dirty, block.owner_core)
        if block.dirty and self.observer is not None:
            self.observer.on_dirty_invalidated(addr)
        block.invalidate()
        self._set_fill[set_idx] -= 1
        self.policy.on_invalidate(set_idx, way)
        return state

    # ------------------------------------------------------------ inspection

    def iter_valid_blocks(self) -> Iterator[CacheBlock]:
        for ways in self.sets:
            for block in ways:
                if block.valid:
                    yield block

    @property
    def occupancy(self) -> int:
        return len(self._where)

    @property
    def dirty_count(self) -> int:
        # One comprehension, not a generator over iter_valid_blocks: checked
        # mode and telemetry read this every sweep/epoch.
        return len(
            [
                None
                for ways in self.sets
                for block in ways
                if block.valid and block.dirty
            ]
        )

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
        ways = self.sets[set_idx]
        valid_in_order = [w for w in self.recency_order(set_idx) if ways[w].valid]
        if not valid_in_order:
            return []
        return valid_in_order[: (len(valid_in_order) + 1) // 2]
