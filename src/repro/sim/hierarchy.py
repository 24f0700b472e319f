"""Three-level cache hierarchy plumbing (paper Table 1).

Private L1 and L2 caches per core are modelled latency-only (the paper's
contention story plays out at the shared LLC); the LLC is driven by a
pluggable mechanism that owns the tag port and the memory interface.

Data-flow rules:

* loads: L1 → L2 → LLC mechanism → memory; fills propagate back and wake the
  core. L1 hits complete synchronously (returned as ``True``) so the common
  case does not cost simulator events.
* stores: write-allocate at the L1; a store miss fetches the block through
  the normal path and dirties it on fill. Store latency never blocks the
  core (store buffer), but the traffic is real.
* writebacks cascade: a dirty L1 victim updates/installs in the L2; a dirty
  L2 victim becomes a *writeback request* to the LLC mechanism — which is
  exactly the event the paper's DBI observes (Section 2.2.2).

The hierarchy is non-inclusive, as in the paper.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.mshr import MshrFile
from repro.utils.events import EventQueue
from repro.utils.stats import StatRecord


class HierarchyCoreStats(StatRecord):
    """One core's traffic through its private L1 and L2."""

    __slots__ = (
        "l1_hits",
        "l1_misses",
        "l2_hits",
        "l2_misses",
        "llc_reads",
        "l1_writebacks",
        "l2_writebacks",
        "store_hits",
        "store_misses",
    )


class Hierarchy:
    """Private L1/L2 levels in front of a shared, mechanism-driven LLC.

    The per-access paths are flattened: latencies are read once, each
    core's fill continuations (``partial(self._llc_data, core_id)`` and
    ``partial(self._store_fill, core_id)``) are built once, and every delay
    goes to ``EventQueue.schedule`` as an absolute time.
    """

    def __init__(
        self,
        queue: EventQueue,
        num_cores: int,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        mechanism,
    ) -> None:
        self.queue = queue
        self.num_cores = num_cores
        self.mechanism = mechanism
        self.l1s: List[Cache] = []
        self.l2s: List[Cache] = []
        self.l1_mshrs: List[MshrFile] = []
        self.core_stats: List[HierarchyCoreStats] = []
        for core in range(num_cores):
            # Per-core stat names: with the shared config name, core 1's
            # "l1.*" keys would clobber core 0's in the flattened result.
            self.l1s.append(Cache(l1_config, stat_name=f"l1_core{core}"))
            self.l2s.append(Cache(l2_config, stat_name=f"l2_core{core}"))
            # Same-block merging; capacity is enforced at the core model
            # (max_outstanding_loads), keeping the two coupled but deadlock-free.
            self.l1_mshrs.append(MshrFile(capacity=0, name=f"l1mshr{core}"))
            self.core_stats.append(HierarchyCoreStats(f"hier_core{core}"))
        self._l1_miss_detect = l1_config.miss_detect_latency
        self._l2_hit = l2_config.hit_latency
        self._l2_miss_detect = l2_config.miss_detect_latency
        cores = range(num_cores)
        self._llc_data_of = [partial(self._llc_data, core) for core in cores]
        self._store_fill_of = [partial(self._store_fill, core) for core in cores]

    # ------------------------------------------------------------- loads

    def load(self, core_id: int, addr: int, on_complete: Callable[[int], None]) -> bool:
        """Issue a load. Returns True iff it hit in the L1 (synchronous)."""
        if self.l1s[core_id].lookup(addr, core_id):
            self.core_stats[core_id].l1_hits += 1
            return True
        self.core_stats[core_id].l1_misses += 1
        if self.l1_mshrs[core_id].allocate(addr, on_complete):
            queue = self.queue
            queue.schedule(
                queue.now + self._l1_miss_detect,
                partial(self._access_l2, core_id, addr),
            )
        return False

    def _access_l2(self, core_id: int, addr: int) -> None:
        queue = self.queue
        if self.l2s[core_id].lookup(addr, core_id):
            self.core_stats[core_id].l2_hits += 1
            queue.schedule(
                queue.now + self._l2_hit, partial(self._fill_l1, core_id, addr)
            )
            return
        self.core_stats[core_id].l2_misses += 1
        queue.schedule(
            queue.now + self._l2_miss_detect, partial(self._read_llc, core_id, addr)
        )

    def _read_llc(self, core_id: int, addr: int) -> None:
        self.core_stats[core_id].llc_reads += 1
        self.mechanism.read(core_id, addr, self._llc_data_of[core_id])

    # -------------------------------------------------------------- fills

    def _llc_data(self, core_id: int, addr: int) -> None:
        """LLC data arrived: fill the L2, then the L1."""
        evicted = self.l2s[core_id].insert(addr, core_id, False)
        if evicted is not None and evicted.dirty:
            self.core_stats[core_id].l2_writebacks += 1
            self.mechanism.writeback(core_id, evicted.addr)
        self._fill_l1(core_id, addr)

    def _fill_l1(self, core_id: int, addr: int) -> None:
        evicted = self.l1s[core_id].insert(addr, core_id, False)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(core_id, evicted.addr)
        # One pop: a fill may find no miss registered, which
        # ``MshrFile.complete`` rejects.
        waiters = self.l1_mshrs[core_id]._pending.pop(addr, None)
        if waiters is not None:
            for waiter in waiters:
                waiter(addr)

    def _writeback_to_l2(self, core_id: int, addr: int) -> None:
        """A dirty L1 victim lands in the L2 (writeback-allocate)."""
        self.core_stats[core_id].l1_writebacks += 1
        l2 = self.l2s[core_id]
        if l2.mark_dirty(addr):  # present: now dirty
            l2.touch(addr, core_id)
            return
        evicted = l2.insert(addr, core_id, True)
        if evicted is not None and evicted.dirty:
            self.core_stats[core_id].l2_writebacks += 1
            self.mechanism.writeback(core_id, evicted.addr)

    # -------------------------------------------------------------- stores

    def store(self, core_id: int, addr: int) -> None:
        """Write-allocate store; never blocks the core (store buffer)."""
        l1 = self.l1s[core_id]
        if l1.lookup(addr, core_id):
            self.core_stats[core_id].store_hits += 1
            l1.mark_dirty(addr)
            return
        self.core_stats[core_id].store_misses += 1
        if self.l1_mshrs[core_id].allocate(addr, self._store_fill_of[core_id]):
            queue = self.queue
            queue.schedule(
                queue.now + self._l1_miss_detect,
                partial(self._access_l2, core_id, addr),
            )

    def _store_fill(self, core_id: int, addr: int) -> None:
        """A store-miss fill arrived: the allocated L1 block becomes dirty."""
        self.l1s[core_id].mark_dirty(addr)

    # ---------------------------------------------------------- inspection

    def is_idle(self) -> bool:
        """No fills in flight anywhere (end-of-run check)."""
        return all(len(mshr) == 0 for mshr in self.l1_mshrs) and self.mechanism.is_idle()
