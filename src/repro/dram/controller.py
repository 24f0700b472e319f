"""Event-driven memory controller.

Services a read queue and a write buffer over a set of banks sharing one data
bus. Operates in two phases (paper Table 1, "drain when full" policy [27]):

* ``READ``: demand reads are scheduled FR-FCFS; writes accumulate in the
  write buffer. If the read queue is empty the controller opportunistically
  drains writes so simulations always terminate.
* ``WRITE_DRAIN``: entered when the write buffer fills; writes are scheduled
  FR-FCFS until the buffer reaches the low watermark, then reads resume.
  Reads arriving during a drain wait — this is the write-caused interference
  that DRAM-aware writeback mitigates.

Per-request path: ``enqueue_read``/``enqueue_write`` decode the address,
update the phase and arm a wake at the current cycle; each wake runs
:meth:`MemoryController._dispatch`, which makes one FR-FCFS scan per issue
attempt (:func:`~repro.dram.scheduler.select_fr_fcfs` returns the choice by
index, or the cycle to wake at when nothing is ready) and issues the chosen
request inline. A scan that finds nothing ready is remembered (the
*blocked-until memo*) until the list or the banks change, so a wake on an
unchanged list skips its scan, and :meth:`MemoryController._wake` re-arms
without dispatching at all when the phase holds. The one pending wake is
the bound method ``_wake`` at ``_wake_at``; an arrival that needs it
earlier removes it from its bucket (``EventQueue.unschedule``).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.dram.address import AddressMapper
from repro.dram.bank import Bank
from repro.dram.config import DramConfig
from repro.dram.request import MemoryRequest
from repro.dram.scheduler import select_fr_fcfs
from repro.dram.writebuffer import WriteBuffer
from repro.utils.events import EventQueue
from repro.utils.stats import StatRecord


class Phase(enum.Enum):
    """Controller scheduling phase."""

    READ = "read"
    WRITE_DRAIN = "write_drain"


# Hot-path aliases: ``Phase.READ`` is a class-attribute load through
# ``EnumType.__getattr__``; a module global is not. The members are the same
# objects, so ``controller.phase`` still holds a ``Phase``.
_READ = Phase.READ
_WRITE_DRAIN = Phase.WRITE_DRAIN


class DramStats(StatRecord):
    """One channel's requests, DRAM accesses, row-hit rates and read
    latency."""

    __slots__ = (
        "reads",
        "reads_forwarded_from_write_buffer",
        "writes",
        "writes_coalesced",
        "writes_rejected",
        "write_drain_phases",
        "activates",
        "bus_turnarounds",
        "dram_writes_performed",
        "dram_reads_performed",
        "write_row_hit_rate_hits",
        "write_row_hit_rate_total",
        "read_row_hit_rate_hits",
        "read_row_hit_rate_total",
        "read_latency_count",
        "read_latency_sum",
    )
    RATES = ("write_row_hit_rate", "read_row_hit_rate")
    DISTRIBUTIONS = ("read_latency",)


class MemoryController:
    """One memory channel: banks + data bus + read queue + write buffer."""

    def __init__(
        self,
        queue: EventQueue,
        config: DramConfig = None,
        name: str = "dram",
    ) -> None:
        self.queue = queue
        self.config = config or DramConfig()
        self.mapper = AddressMapper(self.config)
        self.banks: List[Bank] = [
            Bank(i, self.config) for i in range(self.config.num_banks)
        ]
        self.read_queue: List[MemoryRequest] = []
        self.write_buffer = WriteBuffer(self.config.write_buffer_entries)
        self.phase = _READ
        self.bus_free_time = 0
        self._last_was_write: Optional[bool] = None
        # Recent ACTIVATE issue times, newest last (tRRD / tFAW windows).
        self._recent_activates: List[int] = []
        self.stats = DramStats(name)
        # Cycle of the one pending ``_wake`` entry on the queue, or None.
        self._wake_at: Optional[int] = None
        # Blocked-until memo: the candidate list whose last scan found
        # nothing ready, and the cycle its first candidate becomes ready.
        self._blocked_list: Optional[List[MemoryRequest]] = None
        self._blocked_until = 0

    # ------------------------------------------------------------------ API

    def enqueue_read(self, request: MemoryRequest) -> None:
        """Accept a demand read. Forwards from the write buffer when possible."""
        now = request.arrival_time = self.queue.now
        stats = self.stats
        stats.reads += 1
        addr = request.block_addr
        if addr in self.write_buffer._by_addr:
            # Data is newer in the write buffer than in DRAM; forward it.
            stats.reads_forwarded_from_write_buffer += 1
            when = request.complete_time = now + self.config.t_burst
            stats.read_latency_count += 1
            stats.read_latency_sum += when - now
            if request.on_complete is not None:
                self.queue.schedule(when, request.fire_completion)
            return
        # Cache the (bank, row) decode so scheduling never re-decodes.
        mapper = self.mapper
        row_seq = addr >> mapper._row_shift
        request.bank = self.banks[row_seq & mapper._bank_mask]
        request.row = row_seq >> mapper._bank_shift
        read_queue = self.read_queue
        read_queue.append(request)
        if self._blocked_list is read_queue:
            self._unblock(request)
        self._schedule_wake(now)

    def can_accept_write(self) -> bool:
        """Whether a new (non-coalescing) write would fit in the buffer."""
        return not self.write_buffer.is_full

    def enqueue_write(self, request: MemoryRequest) -> bool:
        """Accept a writeback into the write buffer.

        Returns:
            False if the buffer is full and the write does not coalesce; the
            caller must retry later (back-pressure).
        """
        now = request.arrival_time = self.queue.now
        write_buffer = self.write_buffer
        addr = request.block_addr
        if addr in write_buffer._by_addr:
            write_buffer.add(request)  # coalesce
            self.stats.writes_coalesced += 1
            return True
        entries = write_buffer._entries
        capacity = write_buffer.capacity
        if len(entries) >= capacity:
            self.stats.writes_rejected += 1
            return False
        mapper = self.mapper
        row_seq = addr >> mapper._row_shift
        request.bank = self.banks[row_seq & mapper._bank_mask]
        request.row = row_seq >> mapper._bank_shift
        write_buffer.add(request)
        if self._blocked_list is entries:
            self._unblock(request)
        self.stats.writes += 1
        if self.phase is _READ:
            if len(entries) >= capacity:
                self.phase = _WRITE_DRAIN
                self.stats.write_drain_phases += 1
        elif len(entries) <= self.config.drain_low_watermark:
            self.phase = _READ
        self._schedule_wake(now)
        return True

    @property
    def pending_writes(self) -> int:
        return len(self.write_buffer)

    def is_idle(self) -> bool:
        """True when no work is queued or in flight (end-of-run check)."""
        return not self.read_queue and self.write_buffer.is_empty

    # ------------------------------------------------------------ scheduling

    def _schedule_wake(self, time: int) -> None:
        # Every enqueue arms a wake at the current cycle. About half of all
        # wakes issue nothing (64,285 of 125,522 on the benchmark's
        # memory-bound workload), but skipping them is not free: the wake's
        # position in its cycle's event bucket is observable. Rescheduling
        # straight to the next-ready cycle changed result digests (1 of 6
        # cells when the pending wake was cancelled and re-appended, 6 of 6
        # when it was kept). What an empty wake can skip is its scan and
        # the dispatch preamble: see the blocked-until memo in _wake and
        # _dispatch, and docs/architecture.md §9.
        #
        # At most one wake is pending, at ``_wake_at``: an arrival that
        # needs an earlier one removes the later entry from its bucket.
        wake_at = self._wake_at
        if wake_at is not None:
            if wake_at <= time:
                return  # an earlier-or-equal wake is already pending
            self.queue.unschedule(wake_at, self._wake)
        self._wake_at = time
        self.queue.schedule(time, self._wake)

    def _unblock(self, request: MemoryRequest) -> None:
        """``request`` joined the memoized blocked list: keep the memo exact.

        A scan of the list would now see one more candidate, ready at the
        time :func:`~repro.dram.scheduler.select_fr_fcfs` computes for it,
        so the list's wake cycle is the earlier of the two. A request that
        is already ready thereby voids the memo: it only applies while
        ``now`` is before the wake cycle.
        """
        bank = request.bank
        ready = bank.busy_until
        if request.row != bank.open_row:
            recovery = bank.write_recovery_until
            if recovery > ready:
                ready = recovery
        if ready < self._blocked_until:
            self._blocked_until = ready

    def _wake(self) -> None:
        self._wake_at = None
        # The blocked-until memo, checked before _dispatch's preamble: if
        # the phase holds and the list _dispatch would pick is the blocked
        # one, nothing a scan reads has changed, so re-arm at its cycle.
        # Anything else, a phase change included, goes to _dispatch.
        blocked = self._blocked_list
        if blocked is not None and self.queue.now < self._blocked_until:
            entries = self.write_buffer._entries
            if self.phase is _READ:
                holds = len(entries) < self.write_buffer.capacity
                candidates = self.read_queue or entries
            else:
                holds = len(entries) > self.config.drain_low_watermark
                candidates = entries
            if holds and candidates is blocked and blocked:
                wake_at = self._wake_at = self._blocked_until
                self.queue.schedule(wake_at, self._wake)
                return
        self._dispatch()

    def _dispatch(self) -> None:
        """Issue as many requests as bank availability allows, then re-arm.

        Each issue attempt makes one FR-FCFS scan over the current phase's
        candidates; the chosen request is issued inline and deleted from its
        queue by index. Only :meth:`_wake` calls this, after clearing
        ``_wake_at``, so re-arming when nothing more can issue schedules the
        wake directly.

        Blocked-until memo: a scan that finds nothing ready records its
        list and wake cycle. Until the wake cycle, a later attempt on the
        same list re-arms at it without scanning, because nothing a scan
        reads has changed: bank timing changes only on issue (which clears
        the memo), and an enqueue onto the list lowers the wake cycle to
        the new request's ready time if that is earlier (:meth:`_unblock`).
        """
        queue = self.queue
        now = queue.now
        banks = self.banks
        config = self.config
        write_buffer = self.write_buffer
        wb_entries = write_buffer._entries
        read_queue = self.read_queue
        capacity = write_buffer.capacity
        low_watermark = config.drain_low_watermark
        while True:
            phase = self.phase
            if phase is _READ:
                if len(wb_entries) >= capacity:
                    self.phase = phase = _WRITE_DRAIN
                    self.stats.write_drain_phases += 1
            elif len(wb_entries) <= low_watermark:
                self.phase = phase = _READ
            if phase is _WRITE_DRAIN:
                candidates = wb_entries
            elif read_queue:
                candidates = read_queue
            else:
                # Read phase, empty read queue: drain writes opportunistically.
                candidates = wb_entries
            if not candidates:
                return
            if candidates is self._blocked_list and now < self._blocked_until:
                wake_at = self._blocked_until
                break
            index, wake_at = select_fr_fcfs(candidates, now)
            if index < 0:
                # The banks we need are blocked: wake when the first
                # candidate's bank becomes ready (command slot and write
                # recovery considered).
                self._blocked_list = candidates
                self._blocked_until = wake_at
                break
            request = candidates[index]
            bank = request.bank
            row = request.row
            row_hit = row == bank.open_row
            if not row_hit:
                # Row miss: an ACTIVATE is needed; honour tRRD/tFAW.
                recent = self._recent_activates
                if recent:
                    act_ready = recent[-1] + config.t_rrd
                    if len(recent) >= 4:
                        window = recent[-4] + config.t_faw
                        if window > act_ready:
                            act_ready = window
                    if act_ready > now:
                        # Wake at the ACT window or when a bank frees (a row
                        # hit may become issueable first), whichever is
                        # sooner.
                        wake_at = act_ready
                        for other in banks:
                            busy = other.busy_until
                            if now < busy < wake_at:
                                wake_at = busy
                        break
                self._record_activate(now)

            # Bank-side prep (precharge/activate/CAS) can overlap other
            # banks' bursts; the burst itself serializes on the shared data
            # bus, with a turnaround penalty when the bus switches direction.
            self._blocked_list = None
            is_write = request.is_write
            data_ready = bank.perform_access(row, now)
            burst_start = self.bus_free_time
            last_was_write = self._last_was_write
            if last_was_write is not None and last_was_write != is_write:
                burst_start += config.t_turnaround
                self.stats.bus_turnarounds += 1
            if data_ready > burst_start:
                burst_start = data_ready
            finish = burst_start + config.t_burst
            self.bus_free_time = finish
            self._last_was_write = is_write
            request.issue_time = now
            del candidates[index]
            if is_write:
                # Write recovery: this bank cannot precharge (change rows)
                # until tWR after the burst; same-row accesses stream
                # unimpeded.
                request.complete_time = finish
                bank.write_recovery_until = finish + config.t_wr
                del write_buffer._by_addr[request.block_addr]
                stats = self.stats
                stats.write_row_hit_rate_total += 1
                if row_hit:
                    stats.write_row_hit_rate_hits += 1
                stats.dram_writes_performed += 1
            else:
                stats = self.stats
                stats.read_row_hit_rate_total += 1
                if row_hit:
                    stats.read_row_hit_rate_hits += 1
                stats.dram_reads_performed += 1
                # The read's data reaches the requester after the bus queue.
                when = request.complete_time = finish + config.bus_queue_latency
                stats.read_latency_count += 1
                stats.read_latency_sum += when - request.arrival_time
                if request.on_complete is not None:
                    queue.schedule(when, request.fire_completion)
        self._wake_at = wake_at
        queue.schedule(wake_at, self._wake)

    def _record_activate(self, when: int) -> None:
        self._recent_activates.append(when)
        if len(self._recent_activates) > 4:
            del self._recent_activates[0]
        self.stats.activates += 1
