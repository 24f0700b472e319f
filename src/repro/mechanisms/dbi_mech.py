"""The DBI-based LLC mechanism (paper Sections 2-3).

One class covers the four DBI rows of Table 2 via two feature flags:

* ``enable_awb`` — Aggressive Writeback (Section 3.1): on a dirty cache
  eviction, the DBI's bit vector lists every other dirty block of the DRAM
  row; only those blocks get (background-priority) tag lookups, so there are
  no wasted probes, unlike DAWB/VWQ.
* ``enable_clb`` — Cache Lookup Bypass (Section 3.2, Figure 4): predicted
  misses consult the small DBI first; if the block is not dirty the LLC tag
  lookup is skipped and the access goes straight to memory. Works with any
  predictor because the DBI is authoritative about dirtiness.

Even with both flags off, plain DBI gets DRAM-aware writeback "for free":
a DBI *entry* eviction (Section 2.2.4) writes back a whole row's dirty
blocks in one burst — which is why DBI alone already beats DAWB in the
paper's case study (Section 6.2).

Invariants maintained (and checked by :meth:`check_invariants`):
the tag store's dirty bits are never set; every DBI-dirty block is present
in the cache; the dirty working set never exceeds α × cache blocks.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.cache.cache import EvictedBlock
from repro.cache.port import BACKGROUND
from repro.core.dbi import DbiEviction, DirtyBlockIndex
from repro.mechanisms.base import LlcMechanism
from repro.mechanisms.misspredictor import MissPredictor


class DbiMechanism(LlcMechanism):
    """TA-DIP cache whose dirty bits live in a Dirty-Block Index."""

    name = "dbi"
    uses_tag_dirty_bits = False

    def __init__(
        self,
        *args,
        dbi: DirtyBlockIndex,
        enable_awb: bool = False,
        enable_clb: bool = False,
        predictor: Optional[MissPredictor] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.dbi = dbi
        self.enable_awb = enable_awb
        self.enable_clb = enable_clb
        self.predictor = predictor
        self.trains_predictor = predictor is not None
        if enable_clb and predictor is None:
            raise ValueError("CLB requires a miss predictor")
        parts = ["dbi"]
        if enable_awb:
            parts.append("awb")
        if enable_clb:
            parts.append("clb")
        self.name = "+".join(parts)

    def telemetry_gauges(self):
        gauges = super().telemetry_gauges()
        gauges["dbi_occupancy"] = lambda: self.dbi.live_entries
        gauges["dbi_dirty_blocks"] = lambda: self.dbi.live_dirty_blocks
        if self.predictor is not None:
            gauges["bypassing_cores"] = lambda: self.predictor.bypassing_cores
        return gauges

    # ------------------------------------------------------------ read path

    def read(self, core_id: int, addr: int, on_data: Callable[[int], None]) -> None:
        self.stats.read_requests += 1
        if not self.enable_clb:
            self._lookup_for_read(core_id, addr, on_data)
            return
        set_idx = self.llc.set_index(addr)
        if not self.predictor.predicts_miss(core_id, set_idx, self.queue.now):
            self._lookup_for_read(core_id, addr, on_data)
            return
        # Predicted miss: consult the DBI (small, fast, off the tag port)
        # before daring to bypass — dirty blocks must be served by the cache.
        self.stats.clb_predicted_misses += 1
        self.queue.schedule_after(
            self.dbi.config.latency,
            partial(self._clb_dbi_checked, core_id, addr, on_data),
        )

    def _clb_dbi_checked(
        self, core_id: int, addr: int, on_data: Callable[[int], None]
    ) -> None:
        if self.dbi.is_dirty(addr):
            # Figure 4's "block is dirty?" yes-arm: access the cache normally.
            self.stats.clb_dirty_aborts += 1
            self._lookup_for_read(core_id, addr, on_data)
            return
        # Clean or absent: memory's copy is usable either way. Bypass the
        # critical-path tag lookup and go straight to memory. The response
        # still fills the LLC off the critical path — the paper reports CLB
        # leaves LLC MPKI unchanged (Section 6.1), so bypass skips the
        # *lookup*, not the allocation. Installing the fill touches the tags
        # anyway, so presence is discovered then: replacement state keeps
        # its reuse signal and set-dueling PSELs keep their (true) miss
        # votes — starving or polluting either silently flips follower sets
        # to the wrong insertion policy.
        self.stats.bypassed_lookups += 1
        if self.llc.contains(addr):
            # Bypassed-but-resident: the lookup was skipped but no reload
            # was needed, so this is not an LLC miss. Counted separately so
            # llc_mpki can exclude it (CLB leaves MPKI unchanged, Sec 6.1).
            self.stats.bypassed_hits += 1
            self.llc.touch(addr, core_id)
        else:
            self.llc.policy.note_miss(self.llc.set_index(addr), core_id)
        self._fetch_block(core_id, addr, on_data)

    def _train_predictor(self, core_id: int, addr: int, hit: bool) -> None:
        if self.predictor is not None:
            self.predictor.record_outcome(
                core_id, self.llc.set_index(addr), hit, self.queue.now
            )

    # ------------------------------------------------------- dirty tracking

    def _mark_dirty(self, addr: int) -> None:
        eviction = self.dbi.mark_dirty(addr)
        if eviction is not None:
            self._handle_dbi_eviction(eviction)

    def _insert_dirty(self, addr: int, core_id: int):
        # The block enters the tag store *clean*; the DBI records dirtiness.
        evicted = self.llc.insert(addr, core_id=core_id, dirty=False)
        if evicted is not None:
            # Process the displaced block before touching the DBI for the
            # incoming one, mirroring the hardware's eviction-then-update.
            self._handle_cache_eviction(evicted)
        self._mark_dirty(addr)
        return None  # eviction already handled here

    def _handle_cache_eviction(self, evicted: EvictedBlock) -> None:
        assert not evicted.dirty, "DBI cache must not use in-tag dirty bits"
        if not self.dbi.is_dirty(evicted.addr):
            return
        # Section 2.2.3: consult DBI, write back, clear the bit.
        self.dbi.mark_clean(evicted.addr)
        self._send_memory_write(evicted.addr)
        if self.enable_awb:
            self._aggressive_writeback(evicted.addr)

    # -------------------------------------------------- AWB (Section 3.1)

    def _aggressive_writeback(self, addr: int) -> None:
        """Write back the evicted block's still-dirty row-mates.

        The DBI bit vector names them exactly, so every background lookup
        hits a truly dirty block (Figure 3) — contrast DAWB's full-row scan.
        """
        for other in self.dbi.dirty_blocks_in_region(addr):
            # Clear eagerly so overlapping evictions cannot double-write.
            self.dbi.mark_clean(other)
            self.stats.awb_writebacks += 1
            self.port.request(
                partial(self._writeback_probe, other, "awb"),
                BACKGROUND,
            )

    def _writeback_probe(self, addr: int, cause: str) -> None:
        """Background tag lookup that reads a dirty block's data out."""
        self._count_tag_lookup(-1)
        self._send_memory_write(addr, cause)

    # ------------------------------------------- DBI evictions (Sec 2.2.4)

    def _handle_dbi_eviction(self, eviction: DbiEviction) -> None:
        """An entry was displaced: write back all blocks it marked dirty.

        The blocks stay cached and are now clean — the DBI already dropped
        their bits. Each writeback needs one (background) tag lookup to read
        the data; this is the "free" DRAM-aware writeback of plain DBI.
        """
        self.stats.dbi_evictions += 1
        self.stats.dbi_eviction_writebacks += len(eviction.dirty_blocks)
        for block in eviction.dirty_blocks:
            self.port.request(
                partial(self._writeback_probe, block, "dbi-displace"),
                BACKGROUND,
            )

    # ------------------------------------------------- invariant inspection

    def check_invariants(self) -> None:
        assert self.llc.dirty_count == 0, "in-tag dirty bit set under DBI"
        limit = self.dbi.config.tracked_blocks
        assert self.dbi.live_dirty_blocks <= limit, "DBI over capacity"
        for block in self.dbi.all_dirty_blocks():
            assert self.llc.contains(block), (
                f"DBI marks block {block} dirty but it is not cached"
            )
