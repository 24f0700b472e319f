"""Runtime invariant engine (the ``--check`` flag).

Levels:

* ``off``   — nothing is attached; the simulator runs with zero overhead
  (the hot-path hooks are ``if observer is not None`` tests against class
  attributes that stay ``None``).
* ``cheap`` — the registry of structural invariants
  (:data:`repro.check.invariants.INVARIANTS`) is swept periodically while
  the simulation runs and once after the event queue drains.
* ``full``  — additionally attaches dirty-transition observers to the LLC
  tag store and the DBI plus a writeback tap on the mechanism, feeding a
  :class:`~repro.check.ledger.WritebackLedger` that enforces exactly-once
  writeback conservation; periodic sweeps run more often.

Checked runs produce byte-identical :class:`SimulationResult`s to unchecked
runs: the engine only observes, never schedules work that perturbs timing
(its periodic event is read-only and re-arms only while other events exist,
so it cannot keep the queue alive).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.check.errors import InvariantViolation
from repro.check.invariants import INVARIANTS
from repro.check.ledger import WritebackLedger


class CheckLevel(enum.Enum):
    """How much runtime verification a simulation carries."""

    OFF = "off"
    CHEAP = "cheap"
    FULL = "full"

    @classmethod
    def parse(cls, value) -> "CheckLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            options = ", ".join(level.value for level in cls)
            raise ValueError(
                f"unknown check level {value!r}; choose from {options}"
            ) from None


#: Cycles between periodic invariant sweeps, per level.
SWEEP_INTERVALS = {
    CheckLevel.CHEAP: 50_000,
    CheckLevel.FULL: 10_000,
}


class _LedgerTap:
    """Dirty-transition observer bound to one dedicated ledger.

    The engine itself observes the LLC-mechanism dirty domain; a system
    with a DRAM-cache level has a *second*, independent dirty domain (the
    same block address can legitimately be dirty in both at once), so the
    level's tag array, DBI and off-chip writeback hook feed their own
    :class:`WritebackLedger` through this tap.
    """

    def __init__(self, ledger: WritebackLedger) -> None:
        self.ledger = ledger

    def on_block_dirtied(self, addr: int) -> None:
        self.ledger.on_block_dirtied(addr)

    def on_block_cleaned(self, addr: int) -> None:
        self.ledger.on_block_cleaned(addr)

    def on_dirty_evicted(self, addr: int) -> None:
        self.ledger.on_block_cleaned(addr)

    def on_dirty_invalidated(self, addr: int) -> None:
        self.ledger.on_dirty_discarded(addr)

    def on_memory_writeback(self, addr: int, cause: str = "evict") -> None:
        self.ledger.on_memory_writeback(addr, cause)


class CheckEngine:
    """Observes one :class:`~repro.sim.system.System` and raises on divergence.

    Usage (done automatically by ``System(..., check=...)``)::

        engine = CheckEngine(system, CheckLevel.FULL)
        engine.attach()
        system.run()          # System calls engine.finalize() afterwards
    """

    def __init__(
        self,
        system,
        level: CheckLevel,
        interval: Optional[int] = None,
    ) -> None:
        self.system = system
        self.level = CheckLevel.parse(level)
        if self.level is CheckLevel.OFF:
            raise ValueError("CheckEngine is never built for level 'off'")
        self.interval = interval or SWEEP_INTERVALS[self.level]
        self.sweeps = 0
        #: invariant name -> number of sweeps that actually exercised it
        #: (a registry fn returning False was vacuous for this system shape).
        self.invariant_exercised: Dict[str, int] = {}
        self.ledger: Optional[WritebackLedger] = None
        self.dramcache_ledger: Optional[WritebackLedger] = None

    # ------------------------------------------------------------- wiring

    def attach(self) -> None:
        """Install observers and arm the periodic sweep."""
        if self.level is CheckLevel.FULL:
            mechanism = self.system.mechanism
            self.ledger = WritebackLedger(
                write_through=getattr(mechanism, "write_through", False)
            )
            self.system.llc.observer = self
            dbi = getattr(mechanism, "dbi", None)
            if dbi is not None:
                dbi.observer = self
            mechanism.checker = self
            level = getattr(self.system, "dram_cache", None)
            if level is not None:
                # The DRAM-cache level is its own dirty domain: its ledger
                # conserves writebacks from the level to off-chip DRAM,
                # independent of the LLC→level domain above.
                self.dramcache_ledger = WritebackLedger(write_through=False)
                tap = _LedgerTap(self.dramcache_ledger)
                level.tags.observer = tap
                if level.dbi is not None:
                    level.dbi.observer = tap
                level.checker = tap
        self._arm()

    def _arm(self) -> None:
        # Audit events are excluded from event accounting, so the sweep is
        # invisible to events_processed and to max_events budgets.
        self.system.queue.schedule_after(
            self.interval, self._sweep_event, audit=True
        )

    def _sweep_event(self) -> None:
        self.run_checks(f"cycle {self.system.queue.now}")
        # Re-arm only while other work remains; a standing periodic event
        # would keep EventQueue.run() from ever draining.
        if len(self.system.queue) > 0:
            self._arm()

    # -------------------------------------- dirty-transition observer API
    # Fired by Cache (tag dirty bits) and DirtyBlockIndex (DBI bits); both
    # feed the same ledger because a block's dirtiness lives in exactly one
    # of the two structures per mechanism.

    def on_block_dirtied(self, addr: int) -> None:
        self.ledger.on_block_dirtied(addr)

    def on_block_cleaned(self, addr: int) -> None:
        self.ledger.on_block_cleaned(addr)

    def on_dirty_evicted(self, addr: int) -> None:
        # An eviction's dirty data is written back: same as a clean.
        self.ledger.on_block_cleaned(addr)

    def on_dirty_invalidated(self, addr: int) -> None:
        self.ledger.on_dirty_discarded(addr)

    def on_memory_writeback(self, addr: int, cause: str = "evict") -> None:
        self.ledger.on_memory_writeback(addr, cause)

    # ------------------------------------------------------------- sweeps

    def _machine_dirty_blocks(self) -> List[int]:
        mechanism = self.system.mechanism
        dbi = getattr(mechanism, "dbi", None)
        if dbi is not None and not mechanism.uses_tag_dirty_bits:
            return dbi.all_dirty_blocks()
        return self.system.llc.dirty_blocks()

    def run_checks(self, where: str = "on demand") -> None:
        """One full sweep of the registry (plus ledger agreement in full)."""
        for invariant in INVARIANTS:
            if invariant.fn(self.system):
                self.invariant_exercised[invariant.name] = (
                    self.invariant_exercised.get(invariant.name, 0) + 1
                )
        if self.ledger is not None:
            self.ledger.assert_agrees(self._machine_dirty_blocks(), where)
        if self.dramcache_ledger is not None:
            self.dramcache_ledger.assert_agrees(
                self.system.dram_cache.dirty_blocks(), f"dram-cache {where}"
            )
        self.sweeps += 1

    def finalize(self) -> None:
        """End-of-run checks: final sweep plus writeback quiescence."""
        self.run_checks("end of run")
        mechanism = self.system.mechanism
        if not mechanism.is_idle():
            raise InvariantViolation(
                "writeback-conservation",
                "simulation ended with LLC fills or writebacks still queued",
            )
        level = getattr(self.system, "dram_cache", None)
        if level is not None and not level.is_idle():
            raise InvariantViolation(
                "writeback-conservation",
                "simulation ended with DRAM-cache fills or writebacks "
                "still queued",
            )
        if self.ledger is not None:
            self.ledger.assert_quiescent()
        if self.dramcache_ledger is not None:
            self.dramcache_ledger.assert_quiescent()
