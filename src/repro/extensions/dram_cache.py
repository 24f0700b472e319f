"""Self-balancing DRAM-cache dispatch using a DBI (paper Section 7).

Background (Sim et al. [49], "A mostly-clean DRAM cache for effective hit
speculation and self-balancing dispatch"): a die-stacked DRAM cache is fast
but bandwidth-limited; off-chip DRAM is slower but otherwise idle. A read
that *might* hit a **dirty** line in the DRAM cache must be served by the
cache; a read of a **clean-or-absent** line can be *dispatched to whichever
memory is less loaded* — the stale-read risk vanishes because off-chip
memory holds identical data for clean lines. The original mechanism needed
a counting Bloom filter (to find heavily-written pages) plus a small
dirty-page cache. The paper observes a DBI provides both functions
directly: it is the authority on dirtiness, and its LRW stack *is* a
recency-ordered list of written regions.

This module models that system functionally: a DRAM cache with per-queue
load tracking, a DBI shared with it, and a dispatcher that balances clean
reads across the two memories.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.dbi import DirtyBlockIndex
from repro.utils.stats import StatRecord
from repro.utils.validation import check_non_negative, check_positive


class DispatchDecision(enum.Enum):
    """Where a read was sent."""

    DRAM_CACHE = "dram_cache"  # forced (dirty) or chosen (less loaded)
    OFF_CHIP = "off_chip"


class DramCacheModelStats(StatRecord):
    """Writes, dirty evictions and drains of the untimed DRAM-cache model."""

    __slots__ = ("writes", "dbi_forced_writebacks", "dirty_evictions", "awb_drains")


class DispatchStats(StatRecord):
    """Where the dispatcher sent each read."""

    __slots__ = ("reads", "forced_to_cache", "balanced_to_off_chip")


@dataclass
class DramCacheModel:
    """A minimal die-stacked DRAM cache: presence set + dirty via DBI.

    The data path is abstracted to queue-occupancy counters; what matters
    for the dispatch study is *where* requests go, not their cycle timing.

    Replacement and dirty semantics deliberately mirror the *timed* level
    (:class:`repro.dramcache.level.DramCacheLevel` with its ``dbi``
    backend): LRU eviction with promotion on every touch, the DBI as the
    sole dirtiness authority, and aggressive writeback — evicting one dirty
    block drains every other dirty block of its region. The one documented
    divergence is associativity: the presence set is fully associative,
    so the model agrees exactly with a timed level configured with a
    single set (see ``tests/dramcache/test_dispatch_agreement.py``).
    """

    dbi: DirtyBlockIndex
    capacity_blocks: int = 1 << 16

    def __post_init__(self) -> None:
        check_positive("capacity_blocks", self.capacity_blocks)
        # addr -> None, in recency order: front is LRU, back is MRU.
        self._present: "OrderedDict[int, None]" = OrderedDict()
        self.stats = DramCacheModelStats("dram_cache")

    def contains(self, block_addr: int) -> bool:
        return block_addr in self._present

    def touch(self, block_addr: int) -> None:
        """Promote a present block to MRU (a read hit in the data array)."""
        if block_addr in self._present:
            self._present.move_to_end(block_addr)

    def install(self, block_addr: int, dirty: bool = False) -> Optional[int]:
        """Install a block; returns an evicted block address if one fell out.

        Matches the timed level's install order: the victim is resolved
        *before* the new block is marked dirty, so a DBI-entry displacement
        triggered by the marking never sees the half-installed block.
        """
        if block_addr in self._present:
            self._present.move_to_end(block_addr)
            if dirty:
                self._mark_dirty(block_addr)
            return None
        victim = None
        if len(self._present) >= self.capacity_blocks:
            victim = next(iter(self._present))  # least recently used
            del self._present[victim]
            self._evict(victim)
        self._present[block_addr] = None
        if dirty:
            self._mark_dirty(block_addr)
        return victim

    def write(self, block_addr: int) -> None:
        """A store to the DRAM cache: allocate + mark dirty."""
        self.install(block_addr, dirty=True)
        self.stats.writes += 1

    def _mark_dirty(self, block_addr: int) -> None:
        eviction = self.dbi.mark_dirty(block_addr)
        if eviction is None:
            return
        # Displaced DBI entry: its blocks become clean (written downstream).
        self.stats.dbi_forced_writebacks += len(eviction.dirty_blocks)

    def _evict(self, victim: int) -> None:
        """Aggressive writeback on dirty eviction, like the timed level."""
        if not self.dbi.is_dirty(victim):
            return
        self.dbi.mark_clean(victim)
        self.stats.dirty_evictions += 1
        for addr in self.dbi.dirty_blocks_in_region(victim):
            # Region-mates stay present but are cleaned alongside the
            # victim — their data leaves in the same off-chip row batch.
            self.dbi.mark_clean(addr)
            self.stats.awb_drains += 1


class DramCacheDispatcher:
    """Route reads between the DRAM cache and off-chip memory.

    The decision rule of [49], with the DBI replacing its dedicated
    structures:

    1. If the block *might be dirty* in the DRAM cache (DBI bit set), the
       read **must** go to the DRAM cache.
    2. Otherwise the data is identical in both memories (clean or absent
       with clean fill path), so send it to the shorter queue.
    """

    def __init__(
        self,
        cache: DramCacheModel,
        queue_penalty_threshold: int = 4,
    ) -> None:
        check_non_negative("queue_penalty_threshold", queue_penalty_threshold)
        self.cache = cache
        self.threshold = queue_penalty_threshold
        self.cache_queue = 0
        self.off_chip_queue = 0
        self.stats = DispatchStats("dispatch")

    def dispatch_read(self, block_addr: int) -> DispatchDecision:
        """Decide where one read goes and account queue occupancy."""
        self.stats.reads += 1
        if self.cache.dbi.is_dirty(block_addr):
            # Only the DRAM cache has the current data.
            self.stats.forced_to_cache += 1
            self.cache.touch(block_addr)
            self.cache_queue += 1
            return DispatchDecision.DRAM_CACHE

        # Clean everywhere: balance load.
        if self.cache_queue - self.off_chip_queue >= self.threshold:
            self.stats.balanced_to_off_chip += 1
            self.off_chip_queue += 1
            return DispatchDecision.OFF_CHIP
        self.cache.touch(block_addr)
        self.cache_queue += 1
        return DispatchDecision.DRAM_CACHE

    def complete(self, decision: DispatchDecision) -> None:
        """Retire one request from the chosen queue."""
        if decision is DispatchDecision.DRAM_CACHE:
            if self.cache_queue <= 0:
                raise ValueError("DRAM cache queue underflow")
            self.cache_queue -= 1
        else:
            if self.off_chip_queue <= 0:
                raise ValueError("off-chip queue underflow")
            self.off_chip_queue -= 1

    @property
    def off_chip_share(self) -> float:
        """Fraction of reads the dispatcher managed to offload."""
        reads = self.stats.reads
        if not reads:
            return 0.0
        return self.stats.balanced_to_off_chip / reads
