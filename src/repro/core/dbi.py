"""The Dirty-Block Index structure (paper Section 2).

Operations mirror Section 2.2:

* a *writeback request* from the previous cache level calls
  :meth:`mark_dirty`, which may trigger a **DBI eviction** — the evicted
  entry's dirty blocks must then be written back to memory (they stay in the
  cache, transitioning dirty → clean);
* a *cache eviction* calls :meth:`is_dirty` and, if set, :meth:`mark_clean`;
  clearing the last bit of an entry invalidates the entry (Section 2.2.3);
* AWB asks :meth:`dirty_blocks_in_region` for the bit-vector's block list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import DbiConfig
from repro.core.replacement import make_dbi_policy
from repro.utils.bits import iter_set_bits, popcount
from repro.utils.rng import DeterministicRng
from repro.utils.stats import StatRecord


@dataclass(frozen=True)
class DbiEviction:
    """Result of evicting a DBI entry: the blocks that must be written back."""

    region_id: int
    dirty_blocks: Tuple[int, ...]


class DbiStats(StatRecord):
    """Queries, writes and entry churn of one DBI."""

    __slots__ = (
        "queries",
        "writes",
        "evictions",
        "evicted_dirty_blocks",
        "entry_insertions",
        "entries_emptied",
        "flushes",
        "flushed_entries",
    )


class DirtyBlockIndex:
    """Set-associative index of dirty blocks, keyed by DRAM-row region.

    The entry array is two flat lists with one slot per way, at
    ``set * associativity + way``: the region (row) tag, ``-1`` marking an
    invalid way, and the dirty-bit vector (paper Section 2, Figure 2).
    Only this class and ``check/invariants.py`` index them; everything else
    reads through the queries below or :meth:`entries`.

    Example:
        >>> dbi = DirtyBlockIndex(DbiConfig(cache_blocks=1024, granularity=16,
        ...                                 associativity=4))
        >>> dbi.mark_dirty(5)
        >>> dbi.is_dirty(5)
        True
        >>> dbi.dirty_blocks_in_region(5)
        [5]
    """

    #: Optional dirty-transition observer (full checked mode attaches the
    #: CheckEngine here); class attribute so unchecked runs pay only an
    #: ``is not None`` test.
    observer = None

    def __init__(
        self,
        config: DbiConfig,
        rng: Optional[DeterministicRng] = None,
        stat_name: Optional[str] = None,
    ) -> None:
        self.config = config
        ways = config.num_sets * config.associativity
        # The entry array (class docstring): region tag, dirty-bit vector.
        self._region: List[int] = [-1] * ways
        self._bits: List[int] = [0] * ways
        self._assoc = config.associativity
        self.policy = make_dbi_policy(
            config.replacement, config.num_sets, config.associativity, rng=rng
        )
        # stat_name disambiguates instances in one system (the LLC
        # mechanism's DBI vs. the DRAM-cache level's DBI).
        self.stats = DbiStats(stat_name or "dbi")
        # region_id -> way for O(1) lookup; the set index is derivable.
        self._where: Dict[int, int] = {}

    # -------------------------------------------------------------- queries

    def is_dirty(self, block_addr: int) -> bool:
        """Paper's DBI semantics: valid entry AND bit set."""
        self.stats.queries += 1
        return self.peek_dirty(block_addr)

    @property
    def live_entries(self) -> int:
        """Valid entries right now (telemetry occupancy gauge; stat-free)."""
        return len(self._where)

    @property
    def live_dirty_blocks(self) -> int:
        """Dirty bits set across all valid entries (stat-free).

        An invalid way holds no bits, so every vector can be counted.
        """
        return sum(map(popcount, self._bits))

    def peek_dirty(self, block_addr: int) -> bool:
        """Stat-free :meth:`is_dirty` for observational tooling.

        ECC domains, invariant checkers and the soft-error injector must be
        able to ask "is this block dirty?" without perturbing the query
        counters a real lookup would pay — their runs are required to report
        byte-identical statistics to uninstrumented ones.
        """
        config = self.config
        region_id = config.region_of(block_addr)
        way = self._where.get(region_id)
        if way is None:
            return False
        at = config.set_of(region_id) * self._assoc + way
        return bool(self._bits[at] >> config.offset_of(block_addr) & 1)

    def dirty_blocks_in_region(self, block_addr: int) -> List[int]:
        """All dirty block addresses in ``block_addr``'s region (one query).

        This is the single-lookup row enumeration that makes AWB cheap
        (paper Section 3.1, Figure 3).
        """
        self.stats.queries += 1
        config = self.config
        region_id = config.region_of(block_addr)
        way = self._where.get(region_id)
        if way is None:
            return []
        at = config.set_of(region_id) * self._assoc + way
        return [
            config.block_of(region_id, offset)
            for offset in iter_set_bits(self._bits[at])
        ]

    # -------------------------------------------------------------- updates

    def mark_dirty(self, block_addr: int) -> Optional[DbiEviction]:
        """Record a writeback to ``block_addr`` (Section 2.2.2).

        Returns:
            A :class:`DbiEviction` if installing a new entry displaced an
            existing one — the caller must write those blocks back to memory
            and transition them dirty → clean in the cache. None otherwise.
        """
        self.stats.writes += 1
        config = self.config
        region_id = config.region_of(block_addr)
        offset = config.offset_of(block_addr)
        set_idx = config.set_of(region_id)
        base = set_idx * self._assoc
        bits = self._bits

        way = self._where.get(region_id)
        if way is not None:
            at = base + way
            if self.observer is not None and not bits[at] >> offset & 1:
                self.observer.on_block_dirtied(block_addr)
            bits[at] |= 1 << offset
            self.policy.on_write(set_idx, way)
            return None

        evicted = None
        regions = self._region
        end = base + self._assoc
        set_regions = regions[base:end]
        if -1 in set_regions:
            way = set_regions.index(-1)
        else:
            way = self.policy.victim_way(set_idx, bits[base:end])
            victim = set_regions[way]
            evicted = DbiEviction(
                region_id=victim,
                dirty_blocks=tuple(
                    config.block_of(victim, bit)
                    for bit in iter_set_bits(bits[base + way])
                ),
            )
            del self._where[victim]
            # A valid entry holds at least one dirty bit, so this adds >= 1.
            self.stats.evictions += 1
            self.stats.evicted_dirty_blocks += len(evicted.dirty_blocks)
            if self.observer is not None:
                # The displaced entry's blocks stay cached but transition
                # dirty -> clean; the mechanism writes each back (Sec 2.2.4).
                for block in evicted.dirty_blocks:
                    self.observer.on_block_cleaned(block)

        regions[base + way] = region_id
        bits[base + way] = 1 << offset
        self._where[region_id] = way
        self.policy.on_insert(set_idx, way)
        self.stats.entry_insertions += 1
        if self.observer is not None:
            self.observer.on_block_dirtied(block_addr)
        return evicted

    def mark_clean(self, block_addr: int) -> bool:
        """Clear a block's bit (cache eviction / proactive writeback).

        Invalidates the entry when its last bit clears (Section 2.2.3).

        Every caller decides to write a block back *because* the DBI says it
        is dirty, so clearing an unset bit means that decision was made on
        stale state — a double writeback or a phantom dirty block. Guard
        with :meth:`is_dirty` for test-and-clear usage.

        Returns:
            True (the block was dirty; kept for backward compatibility).

        Raises:
            ValueError: if the block is not currently marked dirty.
        """
        config = self.config
        region_id = config.region_of(block_addr)
        way = self._where.get(region_id)
        if way is None:
            raise ValueError(
                f"mark_clean({block_addr:#x}): no DBI entry for region "
                f"{region_id} — the block is not dirty"
            )
        set_idx = config.set_of(region_id)
        at = set_idx * self._assoc + way
        bit = 1 << config.offset_of(block_addr)
        value = self._bits[at]
        if not value & bit:
            raise ValueError(
                f"mark_clean({block_addr:#x}): bit already clear in region "
                f"{region_id} — the block is not dirty"
            )
        if self.observer is not None:
            self.observer.on_block_cleaned(block_addr)
        value ^= bit
        self._bits[at] = value
        if value == 0:
            self._region[at] = -1
            del self._where[region_id]
            self.policy.on_invalidate(set_idx, way)
            self.stats.entries_emptied += 1
        return True

    # ----------------------------------------- Section 7 extension queries

    def region_has_dirty(self, region_id: int) -> bool:
        """Answer "does DRAM row R have any dirty blocks?" in one query.

        Paper Section 7 ("Fast Lookup for Dirty Status"): opportunistic
        memory schedulers can steer writes using this without touching the
        tag store.
        """
        self.stats.queries += 1
        return region_id in self._where

    def flush(self) -> List[List[int]]:
        """Drop every entry, returning dirty blocks grouped by region.

        Paper Section 7 ("Cache Flushing"): bank power-down or a persistence
        epoch must write back all dirty blocks; the DBI yields them directly
        and row-batched (each inner list drains as DRAM row hits), where a
        conventional cache must walk its whole tag store. Groups come in
        (set, way) order, each one's blocks lowest bit first.
        """
        block_of = self.config.block_of
        groups = [
            [block_of(region_id, bit) for bit in iter_set_bits(value)]
            for region_id, value in zip(self._region, self._bits)
            if region_id != -1
        ]
        if self.observer is not None:
            for blocks in groups:
                for block in blocks:
                    self.observer.on_block_cleaned(block)
        ways = len(self._region)
        self._region[:] = [-1] * ways
        self._bits[:] = [0] * ways
        count = len(self._where)
        self._where.clear()
        self.stats.flushes += 1
        self.stats.add("flushed_entries", count)
        return groups

    # ----------------------------------------------------------- inspection

    def entries(self) -> Dict[int, int]:
        """``region_id -> bit vector`` over all valid entries."""
        return {
            region_id: value
            for region_id, value in zip(self._region, self._bits)
            if region_id != -1
        }

    def all_dirty_blocks(self) -> List[int]:
        """Every block address currently marked dirty (flush support).

        Valid entries in (set, way) order, each one's blocks lowest bit
        first. Checked mode enumerates this on every sweep, so the bit walk
        is inlined instead of a generator step and a ``block_of`` call per
        bit; a bit vector wider than the granularity still goes through
        ``block_of``, which names the fault.
        """
        config = self.config
        shift = config._granularity_shift
        limit = 1 << config.granularity
        blocks = []
        for region_id, value in zip(self._region, self._bits):
            if region_id == -1:
                continue
            if not 0 <= value < limit:
                blocks.extend(
                    config.block_of(region_id, bit)
                    for bit in iter_set_bits(value)
                )
                continue
            base = region_id << shift
            while value:
                low = value & -value
                blocks.append(base | (low.bit_length() - 1))
                value ^= low
        return blocks
