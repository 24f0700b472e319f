"""Virtual Write Queue (VWQ) [51].

Like DAWB, VWQ writes back row-mates of an evicted dirty block, but it first
consults a *Set State Vector* (SSV): one bit per cache set indicating whether
the set holds any dirty block in its LRU ways. A row-mate's set is probed
only when its SSV bit is on, and the probe inspects only the LRU half —
dirty blocks in the MRU half are deliberately left alone (they may be
rewritten soon).

The SSV filter removes some useless lookups, but because most sets contain
*some* dirty LRU-half block under write-heavy workloads, the paper finds VWQ
is barely cheaper than DAWB (1.88× vs 1.95× tag lookups, Section 6.1) —
behaviour this implementation reproduces.
"""

from __future__ import annotations

from functools import partial

from repro.cache.port import BACKGROUND
from repro.mechanisms.base import LlcMechanism


class VwqMechanism(LlcMechanism):
    """TA-DIP cache + SSV-filtered LRU-way probing on dirty evictions."""

    name = "vwq"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Rows with a probe round in flight (same coalescing as DAWB).
        self._rows_in_flight = set()

    def telemetry_gauges(self):
        gauges = super().telemetry_gauges()
        gauges["probe_rows_in_flight"] = lambda: len(self._rows_in_flight)
        return gauges

    def _ssv_bit(self, set_idx: int) -> bool:
        """Does this set hold a dirty block in an LRU-half way?

        The SSV is a separate small structure kept coherent with the tag
        store by hardware; consulting it costs no tag-port bandwidth, so we
        model it as a free functional check.
        """
        return self.llc.lru_half_dirty(set_idx)

    def _after_dirty_eviction(self, addr: int) -> None:
        row = self.mapper.global_row_id(addr)
        if row in self._rows_in_flight:
            self.stats.coalesced_rounds += 1
            return
        probes = []
        for other in self.mapper.row_span(addr):
            if other == addr:
                continue
            if not self._ssv_bit(self.llc.set_index(other)):
                self.stats.ssv_filtered += 1
                continue
            probes.append(other)
        if not probes:
            return
        self._rows_in_flight.add(row)
        last = probes[-1]
        for other in probes:
            self.port.request(
                partial(self._probe_lru_ways, other, row, other == last),
                BACKGROUND,
            )

    def _probe_lru_ways(self, addr: int, row: int, last_of_round: bool) -> None:
        """Background lookup restricted to the set's LRU half."""
        self._count_tag_lookup(-1)
        self.stats.row_probes += 1
        if self.llc.lru_half_holds_dirty(addr):
            self.llc.mark_clean(addr)
            self.stats.proactive_writebacks += 1
            self._send_memory_write(addr, "vwq-probe")
        else:
            self.stats.wasted_probes += 1
        if last_of_round:
            self._rows_in_flight.discard(row)
