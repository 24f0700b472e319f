"""Skip Cache [44].

Bypasses LLC tag lookups for accesses of applications whose miss rate
exceeded a threshold in the previous epoch. Because a bypassed access must
never skip a block that is dirty in the cache, Skip Cache keeps the LLC
**write-through**: writebacks from the L2 update the LLC *and* go straight
to memory, so no LLC block is ever dirty and bypassing is always safe.

The price is write bandwidth: every L2 writeback becomes a memory write,
which is why the paper finds Skip Cache performs comparably to or worse
than TA-DIP (Section 6, "we do not present detailed results for Skip
Cache...") — a behaviour this implementation reproduces and that the DBI's
CLB optimization avoids.
"""

from __future__ import annotations

from typing import Callable

from repro.mechanisms.base import LlcMechanism
from repro.mechanisms.misspredictor import MissPredictor


class SkipCacheMechanism(LlcMechanism):
    """Write-through TA-DIP cache + miss-predictor lookup bypass."""

    name = "skipcache"
    write_through = True
    trains_predictor = True

    def __init__(self, *args, predictor: MissPredictor, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.predictor = predictor

    def telemetry_gauges(self):
        gauges = super().telemetry_gauges()
        gauges["bypassing_cores"] = lambda: self.predictor.bypassing_cores
        return gauges

    # ------------------------------------------------------------ read path

    def read(self, core_id: int, addr: int, on_data: Callable[[int], None]) -> None:
        self.stats.read_requests += 1
        set_idx = self.llc.set_index(addr)
        if self.predictor.predicts_miss(core_id, set_idx, self.queue.now):
            # Write-through guarantees memory is never stale: bypass safely.
            self.stats.bypassed_lookups += 1
            self._fetch_without_fill(core_id, addr, on_data)
            return
        self._lookup_for_read(core_id, addr, on_data)

    def _train_predictor(self, core_id: int, addr: int, hit: bool) -> None:
        self.predictor.record_outcome(
            core_id, self.llc.set_index(addr), hit, self.queue.now
        )

    # ------------------------------------------------------- writeback path

    def _mark_dirty(self, addr: int) -> None:
        """Write-through: the block stays clean; the data goes to memory."""
        self._send_memory_write(addr, "writethrough")

    def _insert_dirty(self, addr: int, core_id: int):
        evicted = self.llc.insert(addr, core_id=core_id, dirty=False)
        self._send_memory_write(addr, "writethrough")
        return evicted

    def check_invariants(self) -> None:
        """Write-through LLC must never hold a dirty block."""
        assert self.llc.dirty_count == 0, "write-through LLC has dirty blocks"
