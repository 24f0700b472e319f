"""Approximate out-of-order core model.

Single issue (paper Table 1), a ``window``-entry instruction window and
out-of-order completion with in-order retirement, approximated as:

* non-memory instructions issue 1/cycle and never stall;
* loads issue without blocking and complete whenever the hierarchy answers —
  independent loads overlap (memory-level parallelism);
* issue stalls when a load older than ``window`` instructions is still
  outstanding (the window is full of unretired work), or when
  ``max_outstanding_loads`` (the L1 MSHRs) are in flight;
* stores retire through a store buffer: they never stall issue, but they do
  send real write-allocate traffic into the hierarchy.

IPC is recorded the first time the core commits ``instruction_limit``
instructions; afterwards the core keeps replaying its trace so a multi-core
simulation retains its memory contention until every core has been measured
(the standard multi-programmed methodology).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.sim.trace import Trace
from repro.utils.events import EventQueue
from repro.utils.stats import StatRecord


class CoreStats(StatRecord):
    """One core's memory operations, issue stalls and load latencies."""

    __slots__ = (
        "loads",
        "stores",
        "window_stalls",
        "mshr_stalls",
        "instructions_measured",
        "load_latency_count",
        "load_latency_sum",
    )
    DISTRIBUTIONS = ("load_latency",)


class OooCore:
    """Trace-driven core front-end attached to a cache hierarchy."""

    def __init__(
        self,
        core_id: int,
        queue: EventQueue,
        hierarchy,
        trace: Trace,
        instruction_limit: int,
        window: int = 128,
        max_outstanding_loads: int = 32,
        on_measured: Optional[Callable[["OooCore"], None]] = None,
        warmup_instructions: int = 0,
        on_warmed: Optional[Callable[["OooCore"], None]] = None,
    ) -> None:
        if instruction_limit <= 0:
            raise ValueError("instruction_limit must be positive")
        if not 0 <= warmup_instructions < instruction_limit:
            raise ValueError(
                "warmup_instructions must be in [0, instruction_limit)"
            )
        if not trace.records:
            raise ValueError(f"trace {trace.name!r} is empty")
        self.core_id = core_id
        self.queue = queue
        self.hierarchy = hierarchy
        self.trace = trace
        self.instruction_limit = instruction_limit
        self.window = window
        self.max_outstanding_loads = max_outstanding_loads
        self.on_measured = on_measured
        self.warmup_instructions = warmup_instructions
        self.on_warmed = on_warmed
        self.warmed = warmup_instructions == 0
        self._measure_start_cycle = 0
        self.stats = CoreStats(f"core{core_id}")

        self._records = trace.records
        self._pos = 0
        self._issue_time = 0  # cycle the next instruction may issue
        self._instr_count = 0  # instructions issued so far
        self._outstanding: Dict[int, int] = {}  # instr index -> issue cycle
        self._waiting = False  # blocked on a load completion
        self._advance_scheduled = False
        self._paused = False  # checkpoint quiesce: issue nothing new
        self.keep_running = True  # cleared by the System once all measured

        self.measured_ipc: Optional[float] = None
        self.measured_cycles: Optional[int] = None
        self.finished = False  # stopped issuing entirely

    # ------------------------------------------------------------- control

    def start(self) -> None:
        self._schedule_advance()

    def stop(self) -> None:
        """Stop issuing new work (in-flight loads still drain)."""
        self.keep_running = False
        self.finished = True

    def pause(self) -> None:
        """Suspend issue so in-flight traffic can drain (checkpoint quiesce).

        Pending advance events still fire but return without issuing; loads
        that complete while paused do not reschedule the front-end.
        """
        self._paused = True

    def unpause(self) -> None:
        """Resume issue after :meth:`pause` (no-op if never paused)."""
        if not self._paused:
            return
        self._paused = False
        if not self.finished:
            self._schedule_advance()

    # ------------------------------------------------------------ mainloop

    def _schedule_advance(self) -> None:
        if self._advance_scheduled or self.finished:
            return
        self._advance_scheduled = True
        self.queue.schedule(self.queue.now, self._advance)

    def _advance(self) -> None:
        """The advance event: issue until the core stalls or must wait.

        Runs on locals and re-arms itself; loads that miss the L1 complete
        through :meth:`_load_done`.
        """
        self._advance_scheduled = False
        if self._paused:
            return
        queue = self.queue
        now = queue.now  # callbacks never move the clock
        records = self._records
        outstanding = self._outstanding
        hierarchy = self.hierarchy
        core_id = self.core_id
        stats = self.stats
        while not self.finished:
            gap, is_write, addr = records[self._pos]
            mem_instr_index = self._instr_count + gap
            issue_at = self._issue_time + gap

            # Window full: the oldest unfinished load blocks retirement of
            # everything behind it, so issue must wait for it. Loads enter
            # ``outstanding`` in issue order and a dict keeps insertion
            # order, so its first key is the oldest.
            if outstanding:
                for oldest in outstanding:
                    break
                if oldest <= mem_instr_index - self.window:
                    self._waiting = True
                    stats.window_stalls += 1
                    return
            if not is_write and len(outstanding) >= self.max_outstanding_loads:
                self._waiting = True
                stats.mshr_stalls += 1
                return

            if issue_at > now:
                if not self._advance_scheduled:
                    self._advance_scheduled = True
                    queue.schedule(issue_at, self._advance)
                return

            # Issue the memory operation now.
            pos = self._pos + 1
            self._pos = 0 if pos >= len(records) else pos  # replay the trace
            self._instr_count = mem_instr_index + 1
            self._issue_time = now + 1

            if is_write:
                stats.stores += 1
                hierarchy.store(core_id, addr)
            else:
                stats.loads += 1
                if not hierarchy.load(
                    core_id, addr, partial(self._load_done, mem_instr_index)
                ):
                    outstanding[mem_instr_index] = now

            if not self.warmed and self._instr_count >= self.warmup_instructions:
                self.warmed = True
                self._measure_start_cycle = now
                if self.on_warmed is not None:
                    self.on_warmed(self)

            if self._instr_count >= self.instruction_limit:
                self._maybe_record()
                if self.finished:
                    return

    # --------------------------------------------------------- completions

    def _load_done(self, instr_index: int, _addr: int = -1) -> None:
        """Fill callback (addr-taking, picklable) of the load ``instr_index``."""
        issue_cycle = self._outstanding.pop(instr_index, None)
        if issue_cycle is not None:
            stats = self.stats
            stats.load_latency_count += 1
            stats.load_latency_sum += self.queue.now - issue_cycle
        if self.measured_ipc is None and self._instr_count >= self.instruction_limit:
            self._maybe_record()
        if self._waiting and not self.finished:
            self._waiting = False
            self._schedule_advance()

    def _maybe_record(self) -> None:
        """Record IPC once every pre-limit instruction has retired.

        Loads issued beyond the limit (the core runs ahead out-of-order and,
        in multi-core runs, keeps replaying for contention) must not delay
        the measurement.
        """
        if self.measured_ipc is not None:
            return
        if any(index < self.instruction_limit for index in self._outstanding):
            return  # retirement of measured instructions still pending
        finish_time = max(self.queue.now, self._issue_time)
        measured_instructions = self.instruction_limit - self.warmup_instructions
        self.measured_cycles = max(1, finish_time - self._measure_start_cycle)
        self.measured_ipc = measured_instructions / self.measured_cycles
        self.stats.add("instructions_measured", measured_instructions)
        if self.on_measured is not None:
            self.on_measured(self)
        if not self.keep_running:
            self.finished = True

    @property
    def instructions_issued(self) -> int:
        return self._instr_count

    @property
    def outstanding_loads(self) -> int:
        return len(self._outstanding)
