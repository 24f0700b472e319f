"""Self-balancing DRAM-cache dispatch using a DBI (paper Section 7).

Background (Sim et al. [49], "A mostly-clean DRAM cache for effective hit
speculation and self-balancing dispatch"): a die-stacked DRAM cache is fast
but bandwidth-limited; off-chip DRAM is slower but otherwise idle. A read
that *might* hit a **dirty** line in the DRAM cache must be served by the
cache; a read of a **clean** line can be *dispatched to whichever memory is
less loaded* — the stale-read risk vanishes because off-chip memory holds
identical data for clean lines. The original mechanism needed a counting
Bloom filter (to find heavily-written pages) plus a small dirty-page cache.
The paper observes a DBI provides both functions directly: it is the
authority on dirtiness, and its LRW stack *is* a recency-ordered list of
written regions.

The dispatcher is a read-routing policy of the timed
:class:`~repro.dramcache.level.DramCacheLevel`: attached to one level, it
decides where each read hit goes, reading dirtiness from the level's
backend (the DBI under the ``dbi`` backend) and load from the two memory
controllers' read queues.
"""

from __future__ import annotations

from repro.dram.controller import MemoryController
from repro.utils.stats import StatRecord
from repro.utils.validation import check_non_negative


class DispatchStats(StatRecord):
    """Where the dispatcher sent each read hit."""

    __slots__ = ("reads", "forced_to_cache", "balanced_to_off_chip")


class DramCacheDispatcher:
    """Route a level's read hits between its stacked array and off-chip DRAM.

    The decision rule of [49], with the DBI replacing its dedicated
    structures:

    1. If the block *might be dirty* in the DRAM cache, the read **must**
       go to the stacked array.
    2. Otherwise the data is identical in both memories, so the read goes
       off-chip once the stacked read queue is at least
       ``queue_penalty_threshold`` requests longer than the off-chip one.

    Constructing a dispatcher attaches it to ``level``. Its stats are its
    own: they are not among ``level.stat_groups()``.
    """

    def __init__(self, level, queue_penalty_threshold: int = 4) -> None:
        check_non_negative("queue_penalty_threshold", queue_penalty_threshold)
        self.level = level
        self.threshold = queue_penalty_threshold
        self.stats = DispatchStats("dispatch")
        level.dispatcher = self

    def route(self, block_addr: int) -> MemoryController:
        """The controller that serves one read hit on ``block_addr``."""
        level = self.level
        self.stats.reads += 1
        if level.is_dirty(block_addr):
            # Only the DRAM cache has the current data.
            self.stats.forced_to_cache += 1
            return level.stacked
        gap = len(level.stacked.read_queue) - len(level.offchip.read_queue)
        if gap >= self.threshold:
            self.stats.balanced_to_off_chip += 1
            return level.offchip
        return level.stacked

    @property
    def off_chip_share(self) -> float:
        """Fraction of read hits the dispatcher managed to offload."""
        reads = self.stats.reads
        if not reads:
            return 0.0
        return self.stats.balanced_to_off_chip / reads
