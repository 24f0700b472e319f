"""Shared machinery for LLC mechanisms.

:class:`LlcMechanism` implements the conventional read/writeback paths —
tag-port arbitration, MSHR-style fill merging, dirty evictions, and
back-pressured memory writebacks — and exposes the hooks the paper's
mechanisms specialize:

* how a block is *marked dirty* (in-tag bit vs. DBI entry),
* how dirtiness of an *evicted* block is determined,
* what happens *after* a dirty eviction (DAWB/VWQ/AWB row probing),
* whether a read may *bypass* the tag lookup (Skip Cache / CLB).

Every tag lookup — demand read, writeback request, or background row probe —
goes through the tag port and increments ``tag_lookups``; Figure 6c's
lookups-per-kilo-instruction comparison falls directly out of this counter.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List

from repro.cache.cache import Cache, EvictedBlock
from repro.cache.port import DEMAND, TagPort
from repro.dram.address import AddressMapper
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest
from repro.utils.events import EventQueue
from repro.utils.stats import StatRecord

#: Cycles between attempts to re-enqueue a writeback the controller rejected.
WRITEBACK_RETRY_INTERVAL = 50


def _invoke(callback: Callable[[int], None], addr: int) -> None:
    """Call ``callback(addr)``: the trampoline ``perfbench/tests/test_tracer.py``
    builds its hand-made event graph from.

    The simulator itself schedules deliveries as ``partial(on_data, addr)``
    and never queues this; it goes when that test stops importing it.
    """
    callback(addr)


def _deliver_block(on_data: Callable[[int], None], request) -> None:
    """Picklable ``MemoryRequest.on_complete`` that forwards the block."""
    on_data(request.block_addr)


class MechanismStats(StatRecord):
    """The LLC mechanism's counts: the shared read/writeback paths, then
    the fields only some mechanisms count (DAWB/VWQ row probing, DBI
    evictions, AWB, CLB and Skip Cache bypasses)."""

    __slots__ = (
        "read_requests",
        "read_hits",
        "read_misses",
        "fill_merges",
        "writeback_requests",
        "memory_writebacks",
        "tag_lookups",
        "tag_lookups_core",
        "coalesced_rounds",
        "ssv_filtered",
        "row_probes",
        "proactive_writebacks",
        "wasted_probes",
        "clb_predicted_misses",
        "clb_dirty_aborts",
        "bypassed_lookups",
        "bypassed_hits",
        "awb_writebacks",
        "dbi_evictions",
        "dbi_eviction_writebacks",
    )
    PER_CORE = ("tag_lookups_core",)


class LlcMechanism:
    """Conventional LLC behaviour (the paper's Baseline when LRU is used)."""

    name = "baseline"
    #: False for DBI mechanisms, which must never set in-tag dirty bits.
    uses_tag_dirty_bits = True
    #: True for write-through mechanisms (skipcache): a memory write per
    #: writeback request, never any dirty state to conserve.
    write_through = False
    #: Optional CheckEngine tap on memory writebacks (full checked mode).
    checker = None
    #: Optional DrainRecorder witness (oracle-v2 differential runs only).
    recorder = None
    #: True where :meth:`_train_predictor` does something (a miss predictor
    #: learns from every lookup outcome); the read path skips the call
    #: otherwise.
    trains_predictor = False

    def __init__(
        self,
        queue: EventQueue,
        llc: Cache,
        port: TagPort,
        memory: MemoryController,
        mapper: AddressMapper,
    ) -> None:
        self.queue = queue
        self.llc = llc
        self.port = port
        self.memory = memory
        self.mapper = mapper
        self.stats = MechanismStats("mech")
        self._pending_fills: Dict[int, List[Callable[[int], None]]] = {}
        self._writeback_overflow: Deque[int] = deque()
        self._retry_pending = False
        self._llc_hit_latency = llc.config.hit_latency
        self._llc_miss_detect_latency = llc.config.miss_detect_latency
        # Per-core fill continuations, ``partial(self._fill_request_done,
        # core_id)``, built on a core's first memory fetch.
        self._fill_done_by_core: Dict[int, Callable] = {}

    # ------------------------------------------------------------ read path

    def read(self, core_id: int, addr: int, on_data: Callable[[int], None]) -> None:
        """Demand read from an L2 miss; ``on_data(addr)`` fires when served."""
        self.stats.read_requests += 1
        # _lookup_for_read, inlined: every L2 miss comes through here.
        self.port.request(partial(self._read_granted, core_id, addr, on_data), DEMAND)

    def _lookup_for_read(
        self, core_id: int, addr: int, on_data: Callable[[int], None]
    ) -> None:
        self.port.request(partial(self._read_granted, core_id, addr, on_data), DEMAND)

    def _read_granted(
        self, core_id: int, addr: int, on_data: Callable[[int], None]
    ) -> None:
        self._count_tag_lookup(core_id)
        if self.llc.lookup(addr, core_id):
            self.stats.read_hits += 1
            if self.trains_predictor:
                self._train_predictor(core_id, addr, True)
            queue = self.queue
            queue.schedule(queue.now + self._llc_hit_latency, partial(on_data, addr))
            return
        self.stats.read_misses += 1
        if self.trains_predictor:
            self._train_predictor(core_id, addr, False)
        queue = self.queue
        queue.schedule(
            queue.now + self._llc_miss_detect_latency,
            partial(self._fetch_block, core_id, addr, on_data),
        )

    def _fetch_block(
        self, core_id: int, addr: int, on_data: Callable[[int], None]
    ) -> None:
        """Read ``addr`` from memory and fill the LLC, merging duplicates."""
        waiters = self._pending_fills.get(addr)
        if waiters is not None:
            waiters.append(on_data)
            self.stats.fill_merges += 1
            return
        self._pending_fills[addr] = [on_data]
        if self.recorder is not None:
            self.recorder.on_memory_fetch(addr)
        by_core = self._fill_done_by_core
        fill_done = by_core.get(core_id)
        if fill_done is None:
            fill_done = by_core[core_id] = partial(self._fill_request_done, core_id)
        # Positional: block_addr, is_write, core_id, arrival_time, on_complete.
        self.memory.enqueue_read(MemoryRequest(addr, False, core_id, 0, fill_done))

    def _fill_request_done(self, core_id: int, request: MemoryRequest) -> None:
        """The memory read for an LLC fill returned: install, wake waiters."""
        addr = request.block_addr
        waiters = self._pending_fills.pop(addr, ())
        evicted = self.llc.insert(addr, core_id=core_id, dirty=False)
        if evicted is not None:
            self._handle_cache_eviction(evicted)
        for on_data in waiters:
            on_data(addr)

    def _fetch_without_fill(
        self, core_id: int, addr: int, on_data: Callable[[int], None]
    ) -> None:
        """Serve a bypassed read straight from memory, without LLC pollution."""
        if self.recorder is not None:
            self.recorder.on_memory_fetch(addr)
        self.memory.enqueue_read(
            MemoryRequest(addr, False, core_id, 0, partial(_deliver_block, on_data))
        )

    # ------------------------------------------------------- writeback path

    def writeback(self, core_id: int, addr: int) -> None:
        """Writeback request from the previous cache level (L2 dirty evict)."""
        self.stats.writeback_requests += 1
        self.port.request(partial(self._writeback_granted, core_id, addr), DEMAND)

    def _writeback_granted(self, core_id: int, addr: int) -> None:
        self._count_tag_lookup(core_id)
        if self.llc.contains(addr):
            self.llc.touch(addr, core_id)
            self._mark_dirty(addr)
            return
        evicted = self._insert_dirty(addr, core_id)
        if evicted is not None:
            self._handle_cache_eviction(evicted)

    # ------------------------------------------- hooks mechanisms specialize

    def _mark_dirty(self, addr: int) -> None:
        """Record that a cached block now holds modified data."""
        self.llc.mark_dirty(addr)

    def _insert_dirty(self, addr: int, core_id: int):
        """Install a written-back block that was absent from the LLC."""
        return self.llc.insert(addr, core_id=core_id, dirty=True)

    def _handle_cache_eviction(self, evicted: EvictedBlock) -> None:
        """A block fell out of the LLC; write it back if dirty."""
        if evicted.dirty:
            self._send_memory_write(evicted.addr)
            self._after_dirty_eviction(evicted.addr)

    def _after_dirty_eviction(self, addr: int) -> None:
        """Hook for proactive row writeback (DAWB/VWQ/AWB). Default: none."""

    def _train_predictor(self, core_id: int, addr: int, hit: bool) -> None:
        """Hook for miss-predictor training (Skip Cache / CLB).

        Called only when :attr:`trains_predictor` is set.
        """

    # ------------------------------------------------------- memory writes

    def _send_memory_write(self, addr: int, cause: str = "evict") -> None:
        """Queue a block writeback to memory, retrying under back-pressure.

        ``cause`` is one of :data:`repro.check.schedule.WRITEBACK_CAUSES`;
        the ledger counts it and the drain recorder uses it to tell demand
        writebacks from background drains.
        """
        self.stats.memory_writebacks += 1
        if self.checker is not None:
            self.checker.on_memory_writeback(addr, cause)
        if self.recorder is not None:
            self.recorder.on_memory_writeback(addr, cause)
        accepted = self.memory.enqueue_write(MemoryRequest(addr, True))
        if not accepted:
            self._writeback_overflow.append(addr)
            self._schedule_writeback_retry()

    def _schedule_writeback_retry(self) -> None:
        if self._retry_pending:
            return
        self._retry_pending = True
        self.queue.schedule_after(WRITEBACK_RETRY_INTERVAL, self._retry_writebacks)

    def _retry_writebacks(self) -> None:
        self._retry_pending = False
        while self._writeback_overflow:
            addr = self._writeback_overflow[0]
            if self.memory.enqueue_write(MemoryRequest(addr, True)):
                self._writeback_overflow.popleft()
            else:
                self._schedule_writeback_retry()
                return

    # -------------------------------------------------------------- stats

    def _count_tag_lookup(self, core_id: int) -> None:
        stats = self.stats
        stats.tag_lookups += 1
        if core_id >= 0:
            per_core = stats.tag_lookups_core
            try:
                per_core[core_id] += 1
            except KeyError:
                per_core[core_id] = 1

    def telemetry_gauges(self) -> Dict[str, Callable[[], float]]:
        """Instantaneous probes for the epoch sampler (stat-free reads only).

        Subclasses extend the dict with mechanism-specific state (DBI
        occupancy, probe rounds in flight, bypassing cores). Every probe
        must be purely observational — reading it cannot touch a counter.
        """
        return {
            "pending_fills": lambda: len(self._pending_fills),
            "writeback_overflow": lambda: len(self._writeback_overflow),
            "llc_dirty_blocks": lambda: self.llc.dirty_count,
        }

    def is_idle(self) -> bool:
        """No fills in flight and no writebacks waiting (end-of-run check)."""
        return (
            not self._pending_fills
            and not self._writeback_overflow
            and self.port.queued == 0
        )

    # ------------------------------------------------- invariant inspection

    def check_invariants(self) -> None:
        """Raise AssertionError on internal inconsistency (used by tests)."""
        # Conventional caches: nothing beyond cache-internal consistency.
