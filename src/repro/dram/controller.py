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
from repro.utils.events import Event, EventQueue
from repro.utils.stats import StatGroup


class Phase(enum.Enum):
    """Controller scheduling phase."""

    READ = "read"
    WRITE_DRAIN = "write_drain"


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
        self.phase = Phase.READ
        self.bus_free_time = 0
        self._last_was_write: Optional[bool] = None
        # Recent ACTIVATE issue times, newest last (tRRD / tFAW windows).
        self._recent_activates: List[int] = []
        self.stats = StatGroup(name)
        self._wake_event: Optional[Event] = None
        # Hot-path stats, bound to their Counter/RateStat object on first
        # use (lazily, so the exported stat set stays byte-identical to
        # creation-on-first-increment).
        self._c_reads = None
        self._c_writes = None
        self._c_activates = None
        self._c_bus_turnarounds = None
        self._c_dram_writes = None
        self._c_dram_reads = None
        self._r_write_row_hit = None
        self._r_read_row_hit = None
        self._d_read_latency = None

    # ------------------------------------------------------------------ API

    def _decode(self, request: MemoryRequest) -> None:
        """Cache the request's (bank, row) so scheduling never re-decodes."""
        addr = request.block_addr
        request.bank = self.banks[self.mapper.bank_of(addr)]
        request.row = self.mapper.row_of(addr)

    def enqueue_read(self, request: MemoryRequest) -> None:
        """Accept a demand read. Forwards from the write buffer when possible."""
        request.arrival_time = self.queue.now
        counter = self._c_reads
        if counter is None:
            counter = self._c_reads = self.stats.counter("reads")
        counter.value += 1
        if self.write_buffer.contains(request.block_addr):
            # Data is newer in the write buffer than in DRAM; forward it.
            self.stats.counter("reads_forwarded_from_write_buffer").increment()
            self._complete_read(request, self.queue.now + self.config.t_burst)
            return
        self._decode(request)
        self.read_queue.append(request)
        self._kick()

    def can_accept_write(self) -> bool:
        """Whether a new (non-coalescing) write would fit in the buffer."""
        return not self.write_buffer.is_full

    def enqueue_write(self, request: MemoryRequest) -> bool:
        """Accept a writeback into the write buffer.

        Returns:
            False if the buffer is full and the write does not coalesce; the
            caller must retry later (back-pressure).
        """
        request.arrival_time = self.queue.now
        if self.write_buffer.contains(request.block_addr):
            self.write_buffer.add(request)  # coalesce
            self.stats.counter("writes_coalesced").increment()
            return True
        if self.write_buffer.is_full:
            self.stats.counter("writes_rejected").increment()
            return False
        self._decode(request)
        self.write_buffer.add(request)
        counter = self._c_writes
        if counter is None:
            counter = self._c_writes = self.stats.counter("writes")
        counter.value += 1
        self._update_phase()
        self._kick()
        return True

    @property
    def pending_reads(self) -> int:
        return len(self.read_queue)

    @property
    def pending_writes(self) -> int:
        return len(self.write_buffer)

    def is_idle(self) -> bool:
        """True when no work is queued or in flight (end-of-run check)."""
        return not self.read_queue and self.write_buffer.is_empty

    # ------------------------------------------------------------ scheduling

    def _kick(self) -> None:
        """Ensure a scheduling pass runs at the current cycle."""
        # About half of all wakes issue nothing (64,285 of 125,522 on the
        # benchmark's memory-bound workload), but skipping them is not free:
        # the wake's position in its cycle's event bucket is observable.
        # Rescheduling straight to the next-ready cycle changed result
        # digests (1 of 6 cells when the pending wake was cancelled and
        # re-appended, 6 of 6 when it was kept), and an O(1) fast path for
        # empty wakes that keeps the event measured no gain. See
        # docs/architecture.md §9.
        self._schedule_wake(self.queue.now)

    def _schedule_wake(self, time: int) -> None:
        # The one cancellable entry on the queue: a later-arriving earlier
        # wake cancels the pending one, so the wake is an Event.
        wake = self._wake_event
        if wake is not None and not wake.cancelled:
            if wake.time <= time:
                return  # an earlier-or-equal wake is already pending
            wake.cancel()
        self._wake_event = self.queue.schedule(time, Event(time, self._wake))

    def _wake(self) -> None:
        self._wake_event = None
        self._dispatch()

    def _update_phase(self) -> None:
        if self.phase is Phase.READ and self.write_buffer.is_full:
            self.phase = Phase.WRITE_DRAIN
            self.stats.counter("write_drain_phases").increment()
        elif (
            self.phase is Phase.WRITE_DRAIN
            and len(self.write_buffer) <= self.config.drain_low_watermark
        ):
            self.phase = Phase.READ

    def _candidates(self) -> List[MemoryRequest]:
        """Requests eligible for scheduling in the current phase.

        Returns live internal queues (never mutated while a scheduling scan
        iterates them) rather than snapshots — the old per-pass
        ``peek_all()`` copy was pure allocation churn.
        """
        if self.phase is Phase.WRITE_DRAIN:
            return self.write_buffer.entries
        if self.read_queue:
            return self.read_queue
        # Read phase with an empty read queue: drain writes opportunistically.
        return self.write_buffer.entries

    def _dispatch(self) -> None:
        """Issue as many requests as bank availability allows, then re-arm.

        Runs once per controller wake, scanning every pending request per
        pass — the phase update and candidate selection (`_update_phase` /
        `_candidates`) are inlined here because the call overhead alone was
        visible in whole-simulation profiles.
        """
        banks = self.banks
        mapper = self.mapper
        write_buffer = self.write_buffer
        wb_entries = write_buffer.entries
        read_queue = self.read_queue
        capacity = write_buffer.capacity
        low_watermark = self.config.drain_low_watermark
        now = self.queue.now
        while True:
            phase = self.phase
            if phase is Phase.READ:
                if len(wb_entries) >= capacity:
                    self.phase = phase = Phase.WRITE_DRAIN
                    self.stats.counter("write_drain_phases").increment()
            elif len(wb_entries) <= low_watermark:
                self.phase = phase = Phase.READ
            if phase is Phase.WRITE_DRAIN:
                candidates = wb_entries
            elif read_queue:
                candidates = read_queue
            else:
                # Read phase, empty read queue: drain writes opportunistically.
                candidates = wb_entries
            if not candidates:
                return
            request = select_fr_fcfs(candidates, banks, mapper, now)
            if request is None:
                break
            if request.row != request.bank.open_row:
                # Row miss: an ACTIVATE is needed; honour tRRD/tFAW.
                act_ready = self._activate_ready_time()
                if act_ready > now:
                    # Wake at the ACT window or when a bank frees (a row
                    # hit may become issueable first), whichever is sooner.
                    busy = [b.busy_until for b in banks if b.busy_until > now]
                    self._schedule_wake(min([act_ready] + busy))
                    return
            self._issue(request)
        # The banks we need are blocked: wake when the first candidate's
        # bank becomes ready (command slot and write recovery considered).
        wake_at = None
        for request in candidates:
            bank = request.bank
            ready = bank.busy_until
            if request.row != bank.open_row and bank.write_recovery_until > ready:
                ready = bank.write_recovery_until
            if ready > now and (wake_at is None or ready < wake_at):
                wake_at = ready
        self._schedule_wake(wake_at if wake_at is not None else now + 1)

    def _activate_ready_time(self) -> int:
        """Earliest cycle the next ACTIVATE may issue (tRRD / tFAW)."""
        ready = 0
        if self._recent_activates:
            ready = self._recent_activates[-1] + self.config.t_rrd
        if len(self._recent_activates) >= 4:
            ready = max(ready, self._recent_activates[-4] + self.config.t_faw)
        return ready

    def _record_activate(self, when: int) -> None:
        self._recent_activates.append(when)
        if len(self._recent_activates) > 4:
            del self._recent_activates[0]
        counter = self._c_activates
        if counter is None:
            counter = self._c_activates = self.stats.counter("activates")
        counter.value += 1

    def _issue(self, request: MemoryRequest) -> None:
        now = self.queue.now
        bank = request.bank
        row = request.row
        row_hit = row == bank.open_row
        if not row_hit:
            self._record_activate(now)

        # Bank-side prep (precharge/activate/CAS) can overlap other banks'
        # bursts; the burst itself serializes on the shared data bus, with a
        # turnaround penalty when the bus switches direction.
        data_ready = bank.perform_access(row, now)
        bus_ready = self.bus_free_time
        if self._last_was_write is not None and (
            self._last_was_write != request.is_write
        ):
            bus_ready += self.config.t_turnaround
            counter = self._c_bus_turnarounds
            if counter is None:
                counter = self._c_bus_turnarounds = self.stats.counter(
                    "bus_turnarounds"
                )
            counter.value += 1
        burst_start = max(data_ready, bus_ready)
        finish = burst_start + self.config.t_burst
        self.bus_free_time = finish
        self._last_was_write = request.is_write
        if request.is_write:
            # Write recovery: this bank cannot precharge (change rows) until
            # tWR after the burst; same-row accesses stream unimpeded.
            bank.write_recovery_until = finish + self.config.t_wr

        request.issue_time = now
        request.complete_time = finish
        if request.is_write:
            self.write_buffer.remove(request)
            rate = self._r_write_row_hit
            if rate is None:
                rate = self._r_write_row_hit = self.stats.rate("write_row_hit_rate")
            rate.total += 1
            if row_hit:
                rate.hits += 1
            counter = self._c_dram_writes
            if counter is None:
                counter = self._c_dram_writes = self.stats.counter(
                    "dram_writes_performed"
                )
            counter.value += 1
        else:
            self.read_queue.remove(request)
            rate = self._r_read_row_hit
            if rate is None:
                rate = self._r_read_row_hit = self.stats.rate("read_row_hit_rate")
            rate.total += 1
            if row_hit:
                rate.hits += 1
            counter = self._c_dram_reads
            if counter is None:
                counter = self._c_dram_reads = self.stats.counter(
                    "dram_reads_performed"
                )
            counter.value += 1
            self._complete_read(request, finish + self.config.bus_queue_latency)

    def _complete_read(self, request: MemoryRequest, when: int) -> None:
        request.complete_time = when
        dist = self._d_read_latency
        if dist is None:
            dist = self._d_read_latency = self.stats.distribution("read_latency")
        dist.record(when - request.arrival_time)
        if request.on_complete is not None:
            self.queue.schedule(when, request.fire_completion)
