"""DRAM-Aware Writeback (DAWB) [27].

When a dirty block is evicted, DAWB proactively writes back every *other*
dirty block of the same DRAM row so the memory controller's write buffer
fills with row hits. Without a DBI, finding those blocks means probing the
tag store for **every** block of the row — most probes find clean or absent
blocks, which is exactly the 1.95× tag-lookup blowup of Figure 6c.
"""

from __future__ import annotations

from functools import partial

from repro.cache.port import BACKGROUND
from repro.mechanisms.base import LlcMechanism


class DawbMechanism(LlcMechanism):
    """TA-DIP cache + indiscriminate row probing on dirty evictions."""

    name = "dawb"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Rows with a probe round already queued: a second dirty eviction
        # from the same row adds nothing until the first round completes
        # (the writeback-queue coalescing of [27]).
        self._rows_in_flight = set()
        # Per-probe counters, bound on first increment.
        self._c_row_probes = None
        self._c_proactive_writebacks = None
        self._c_wasted_probes = None

    def telemetry_gauges(self):
        gauges = super().telemetry_gauges()
        gauges["probe_rows_in_flight"] = lambda: len(self._rows_in_flight)
        return gauges

    def _after_dirty_eviction(self, addr: int) -> None:
        row = self.mapper.global_row_id(addr)
        if row in self._rows_in_flight:
            self.stats.counter("coalesced_rounds").increment()
            return
        self._rows_in_flight.add(row)
        span = [other for other in self.mapper.row_span(addr) if other != addr]
        last = span[-1]
        for other in span:
            self.port.request(
                partial(self._probe_for_writeback, other, row, other == last),
                BACKGROUND,
            )

    def _probe_for_writeback(self, addr: int, row: int, last_of_round: bool) -> None:
        """One background tag lookup; write the block back iff dirty."""
        self._count_tag_lookup(-1)
        counter = self._c_row_probes
        if counter is None:
            counter = self._c_row_probes = self.stats.counter("row_probes")
        counter.value += 1
        block = self.llc.probe(addr)
        if block is not None and block.dirty:
            self.llc.mark_clean(addr)
            counter = self._c_proactive_writebacks
            if counter is None:
                counter = self._c_proactive_writebacks = self.stats.counter(
                    "proactive_writebacks"
                )
            counter.value += 1
            self._send_memory_write(addr, "dawb-probe")
        else:
            counter = self._c_wasted_probes
            if counter is None:
                counter = self._c_wasted_probes = self.stats.counter(
                    "wasted_probes"
                )
            counter.value += 1
        if last_of_round:
            self._rows_in_flight.discard(row)
