"""The timed DRAM-cache level.

Sits between the LLC mechanism and the off-chip :class:`MemoryController`,
speaking the controller's interface upward (``enqueue_read`` /
``enqueue_write``) and consuming it downward twice — once for the stacked
data array, once for off-chip DRAM — so the level slots into a system
without the hierarchy or the mechanisms changing.

Datapath, all on the calendar event queue:

* **read**: tag lookup after ``tag_latency``. Hit → stacked-array read, data
  returned when the stacked bank delivers. Miss → off-chip read; the fill
  installs the tag (evicting a victim through the dirty backend) and writes
  the block into the stacked array while the waiting requests are answered
  directly from the off-chip data (fill bypass). Concurrent misses to one
  block merge onto a single off-chip fetch.
* **writeback** (from the LLC): tag lookup, then either a dirty-hit update
  or a write-allocate install; either way the block's data is written into
  the stacked array.
* **eviction**: the dirty backend decides what must go off-chip — the
  victim alone (tag backend) or the victim plus every dirty row-mate still
  cached (DBI backend, aggressive writeback). Dirty data is read out of the
  stacked array and written off-chip, retrying under write-buffer
  back-pressure exactly like the LLC mechanisms do.

Everything scheduled is a bound method or a ``partial`` of one, so a system
containing a level snapshots and restores byte-identically.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional

from repro.cache.cache import Cache
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest
from repro.dramcache.backends import make_backend
from repro.dramcache.config import DramCacheConfig
from repro.utils.events import EventQueue
from repro.utils.rng import DeterministicRng
from repro.utils.stats import StatGroup

#: Cycles between attempts to re-enqueue a write a controller rejected
#: (same cadence as the LLC mechanisms' writeback retry).
WRITE_RETRY_INTERVAL = 50


def _complete_outer(outer: MemoryRequest, inner: MemoryRequest) -> None:
    """Picklable stacked-read completion that answers the outer request."""
    outer.complete_time = inner.complete_time
    if outer.on_complete is not None:
        outer.fire_completion()


class DramCacheLevel:
    """Set-associative DRAM cache with a pluggable dirty-tracking backend."""

    #: Optional CheckEngine tap on off-chip writebacks (full checked mode).
    checker = None

    def __init__(
        self,
        queue: EventQueue,
        config: DramCacheConfig,
        offchip: MemoryController,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.queue = queue
        self.config = config
        self.offchip = offchip
        #: Same block→bank/row mapping as off-chip memory; exposed so the
        #: level is interface-compatible with ``MemoryController``.
        self.mapper = offchip.mapper
        self.tags = Cache(config.tag_config(), rng=rng)
        self.stacked = MemoryController(queue, config.stacked, name="stacked")
        self.backend = make_backend(config, self.tags, rng)
        self.dbi = self.backend.dbi
        self.stats = StatGroup(config.name)
        # addr -> outer requests waiting on one off-chip fetch.
        self._pending_reads: Dict[int, List[MemoryRequest]] = {}
        self._offchip_overflow: Deque[int] = deque()
        self._offchip_retry_pending = False
        self._stacked_overflow: Deque[int] = deque()
        self._stacked_retry_pending = False
        # Hot-path counters, bound lazily (see Cache for rationale).
        self._c_reads = None
        self._c_read_hits = None
        self._c_read_misses = None
        self._c_writes = None
        self._c_write_hits = None
        self._c_write_fills = None
        self._c_offchip_reads = None
        self._c_offchip_writes = None
        self._c_fills = None
        self._c_dirty_evictions = None
        self._c_awb_drains = None
        self._c_dbi_forced_writebacks = None
        self._c_stacked_victim_reads = None

    # ------------------------------------------------------------ read path

    def enqueue_read(self, request: MemoryRequest) -> None:
        """Demand read from the LLC mechanism (its memory-side interface)."""
        request.arrival_time = self.queue.now
        counter = self._c_reads
        if counter is None:
            counter = self._c_reads = self.stats.counter("reads")
        counter.value += 1
        queue = self.queue
        queue.schedule(
            queue.now + self.config.tag_latency, partial(self._read_tags_done, request)
        )

    def _read_tags_done(self, request: MemoryRequest) -> None:
        addr = request.block_addr
        if self.tags.lookup(addr, request.core_id):
            counter = self._c_read_hits
            if counter is None:
                counter = self._c_read_hits = self.stats.counter("read_hits")
            counter.value += 1
            self.stacked.enqueue_read(
                MemoryRequest(
                    addr, False, request.core_id, 0, partial(_complete_outer, request)
                )
            )
            return
        counter = self._c_read_misses
        if counter is None:
            counter = self._c_read_misses = self.stats.counter("read_misses")
        counter.value += 1
        waiters = self._pending_reads.get(addr)
        if waiters is not None:
            waiters.append(request)
            self.stats.counter("read_merges").increment()
            return
        self._pending_reads[addr] = [request]
        counter = self._c_offchip_reads
        if counter is None:
            counter = self._c_offchip_reads = self.stats.counter("offchip_reads")
        counter.value += 1
        self.offchip.enqueue_read(
            MemoryRequest(addr, False, request.core_id, 0, self._fill_arrived)
        )

    def _fill_arrived(self, fill: MemoryRequest) -> None:
        addr = fill.block_addr
        waiters = self._pending_reads.pop(addr, ())
        if self.tags.contains(addr):
            # A writeback installed (newer) data while the fetch was in
            # flight; the off-chip copy is stale — do not overwrite it.
            self.stats.counter("fills_superseded").increment()
        else:
            counter = self._c_fills
            if counter is None:
                counter = self._c_fills = self.stats.counter("fills")
            counter.value += 1
            self._install(addr, fill.core_id, dirty=False)
            self._send_stacked_write(addr)
        for outer in waiters:
            outer.complete_time = self.queue.now
            if outer.on_complete is not None:
                outer.fire_completion()

    # ------------------------------------------------------- writeback path

    def can_accept_write(self) -> bool:
        """Back-pressure is absorbed internally; the level always accepts."""
        return True

    def enqueue_write(self, request: MemoryRequest) -> bool:
        """Writeback from the LLC mechanism; always accepted."""
        request.arrival_time = self.queue.now
        counter = self._c_writes
        if counter is None:
            counter = self._c_writes = self.stats.counter("writes")
        counter.value += 1
        queue = self.queue
        queue.schedule(
            queue.now + self.config.tag_latency,
            partial(self._write_tags_done, request.block_addr, request.core_id),
        )
        return True

    def _write_tags_done(self, addr: int, core_id: int) -> None:
        if self.tags.contains(addr):
            counter = self._c_write_hits
            if counter is None:
                counter = self._c_write_hits = self.stats.counter("write_hits")
            counter.value += 1
            self.tags.touch(addr, core_id)
            if self.backend.tag_dirty:
                self.backend.mark_dirty(addr)
            else:
                self._forced_writebacks(self.backend.mark_dirty(addr))
        else:
            counter = self._c_write_fills
            if counter is None:
                counter = self._c_write_fills = self.stats.counter("write_fills")
            counter.value += 1
            self._install(addr, core_id, dirty=True)
        self._send_stacked_write(addr)

    # ------------------------------------------------------ install / evict

    def _install(self, addr: int, core_id: int, dirty: bool) -> None:
        """Install ``addr``, routing the victim through the dirty backend."""
        victim = self.tags.insert(
            addr, core_id=core_id, dirty=dirty and self.backend.tag_dirty
        )
        if victim is not None:
            demand, drains = self.backend.on_evict(victim)
            if demand:
                counter = self._c_dirty_evictions
                if counter is None:
                    counter = self._c_dirty_evictions = self.stats.counter(
                        "dirty_evictions"
                    )
                counter.value += 1
                for block in demand:
                    self._writeback_block(block, "evict")
            if drains:
                counter = self._c_awb_drains
                if counter is None:
                    counter = self._c_awb_drains = self.stats.counter(
                        "awb_drains"
                    )
                for block in drains:
                    counter.value += 1
                    self._writeback_block(block, "awb-drain")
        if dirty and not self.backend.tag_dirty:
            # Marking after the victim is resolved keeps the DBI's
            # cached-blocks-only invariant during the entry displacement.
            self._forced_writebacks(self.backend.mark_dirty(addr))

    def _forced_writebacks(self, blocks: List[int]) -> None:
        """A displaced DBI entry's blocks: cleaned in place, data off-chip."""
        if not blocks:
            return
        counter = self._c_dbi_forced_writebacks
        if counter is None:
            counter = self._c_dbi_forced_writebacks = self.stats.counter(
                "dbi_forced_writebacks"
            )
        for block in blocks:
            counter.value += 1
            self._writeback_block(block, "dbi-displace")

    def _writeback_block(self, addr: int, cause: str = "evict") -> None:
        """Move one dirty block's data from the stacked array to off-chip."""
        # The data must be read out of the stacked array first; the read is
        # fire-and-forget (it consumes stacked bandwidth, nothing waits).
        counter = self._c_stacked_victim_reads
        if counter is None:
            counter = self._c_stacked_victim_reads = self.stats.counter(
                "stacked_victim_reads"
            )
        counter.value += 1
        self.stacked.enqueue_read(MemoryRequest(addr, False))
        self._send_offchip_write(addr, cause)

    # ------------------------------------------------------- memory writes

    def _send_offchip_write(self, addr: int, cause: str = "evict") -> None:
        counter = self._c_offchip_writes
        if counter is None:
            counter = self._c_offchip_writes = self.stats.counter(
                "offchip_writes"
            )
        counter.value += 1
        if self.checker is not None:
            self.checker.on_memory_writeback(addr, cause)
        accepted = self.offchip.enqueue_write(MemoryRequest(addr, True))
        if not accepted:
            self._offchip_overflow.append(addr)
            self._schedule_offchip_retry()

    def _schedule_offchip_retry(self) -> None:
        if self._offchip_retry_pending:
            return
        self._offchip_retry_pending = True
        self.queue.schedule_after(WRITE_RETRY_INTERVAL, self._retry_offchip)

    def _retry_offchip(self) -> None:
        self._offchip_retry_pending = False
        while self._offchip_overflow:
            addr = self._offchip_overflow[0]
            if self.offchip.enqueue_write(MemoryRequest(addr, True)):
                self._offchip_overflow.popleft()
            else:
                self._schedule_offchip_retry()
                return

    def _send_stacked_write(self, addr: int) -> None:
        accepted = self.stacked.enqueue_write(MemoryRequest(addr, True))
        if not accepted:
            self._stacked_overflow.append(addr)
            self._schedule_stacked_retry()

    def _schedule_stacked_retry(self) -> None:
        if self._stacked_retry_pending:
            return
        self._stacked_retry_pending = True
        self.queue.schedule_after(WRITE_RETRY_INTERVAL, self._retry_stacked)

    def _retry_stacked(self) -> None:
        self._stacked_retry_pending = False
        while self._stacked_overflow:
            addr = self._stacked_overflow[0]
            if self.stacked.enqueue_write(MemoryRequest(addr, True)):
                self._stacked_overflow.popleft()
            else:
                self._schedule_stacked_retry()
                return

    # ----------------------------------------------------------- inspection

    def is_dirty(self, addr: int) -> bool:
        """The level's answer to "who has the current data for ``addr``?"."""
        return self.backend.is_dirty(addr)

    def peek_dirty(self, addr: int) -> bool:
        """Stat-free :meth:`is_dirty` for observational tooling."""
        return self.backend.peek_dirty(addr)

    def dirty_blocks(self):
        """Set of dirty block addresses (invariant checks, fuzzing)."""
        return self.backend.dirty_blocks()

    @property
    def dirty_count(self) -> int:
        """Dirty blocks right now (telemetry gauge; stat-free)."""
        return self.backend.dirty_count

    @property
    def occupancy(self) -> int:
        return self.tags.occupancy

    def is_idle(self) -> bool:
        """No fetches in flight, no writes waiting on back-pressure."""
        return (
            not self._pending_reads
            and not self._offchip_overflow
            and not self._stacked_overflow
        )

    def stat_groups(self):
        """Every stat group the level owns (collected by ``System``)."""
        groups = [self.stats, self.tags.stats, self.stacked.stats]
        if self.dbi is not None:
            groups.append(self.dbi.stats)
        return groups

    def check_invariants(self) -> None:
        """Raise on internal inconsistency (used by invariant sweeps)."""
        if self.backend.tag_dirty:
            assert self.dbi is None
            return
        assert self.tags.dirty_count == 0, (
            "dbi backend: tag array must stay clean"
        )
        for addr in self.backend.dirty_blocks():
            assert self.tags.contains(addr), (
                f"DBI tracks block {addr:#x} that is not in the level"
            )
