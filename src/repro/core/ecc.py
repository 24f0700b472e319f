"""Heterogeneous ECC bookkeeping (paper Section 3.3).

Clean blocks only need error *detection* (a bad clean block can be re-fetched
from the next level); dirty blocks hold the only copy of their data and need
error *correction*. With a DBI, the set of dirty blocks is exactly the set of
blocks tracked by DBI entries, so it suffices to provision SECDED ECC for
``alpha × cache_blocks`` blocks and parity EDC for everything else
(Figure 5).

:class:`EccDomain` is the runtime-side model: it checks the protection
invariant (every dirty block is ECC-covered) and models detection/correction
outcomes for fault-injection tests and the ``repro reliability`` experiment.
:class:`UntrackedEccDomain` is the contrast case — the same reduced ECC
budget *without* a DBI to aim it, which is why the paper argues heterogeneous
ECC needs the DBI: an unprotected dirty block hit by even a single-bit fault
has no good copy anywhere. :class:`SoftErrorInjector` drives either domain
against a live simulation, injecting seeded soft errors into resident LLC
blocks via audit events (timing and results are untouched). The *area*
arithmetic for Table 4 lives in :mod:`repro.area.ecc_model`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.core.dbi import DirtyBlockIndex
from repro.utils.rng import DeterministicRng
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_range,
)


@dataclass(frozen=True)
class FaultOutcome:
    """What happened when a fault hit a block."""

    detected: bool
    corrected: bool
    needs_refetch: bool  # clean block: recover from the next level
    data_loss: bool


class EccDomain:
    """Protection model layered over a DBI-managed cache.

    * Every block has parity EDC → any single-bit fault is detected.
    * Blocks tracked by the DBI additionally have SECDED ECC → single-bit
      faults are corrected in place.
    """

    def __init__(self, dbi: DirtyBlockIndex) -> None:
        self._dbi = dbi

    def is_ecc_protected(self, block_addr: int) -> bool:
        """ECC is kept for exactly the blocks the DBI tracks as dirty.

        Uses the stat-free peek: protection checks are observational and
        must not inflate the DBI's query counters.
        """
        return self._dbi.peek_dirty(block_addr)

    def protection_invariant_holds(self) -> bool:
        """Every dirty block must be correctable — true by construction here,
        but exposed so integration tests can assert it against the cache."""
        return all(
            self.is_ecc_protected(block) for block in self._dbi.all_dirty_blocks()
        )

    def inject_single_bit_fault(self, block_addr: int) -> FaultOutcome:
        """Model a single-bit upset in ``block_addr``."""
        if self.is_ecc_protected(block_addr):
            return FaultOutcome(
                detected=True, corrected=True, needs_refetch=False, data_loss=False
            )
        # Clean (or untracked) block: parity detects, next level re-supplies.
        return FaultOutcome(
            detected=True, corrected=False, needs_refetch=True, data_loss=False
        )

    def inject_double_bit_fault(self, block_addr: int) -> FaultOutcome:
        """Model a double-bit upset: SECDED detects, parity may miss."""
        if self.is_ecc_protected(block_addr):
            # SECDED: detected but uncorrectable -> only safe because memory
            # is stale; a dirty block's loss is real data loss.
            return FaultOutcome(
                detected=True, corrected=False, needs_refetch=False, data_loss=True
            )
        # Even-parity EDC misses double-bit flips; the block is clean, so the
        # stale-read risk is bounded by the clean copy in memory being valid.
        return FaultOutcome(
            detected=False, corrected=False, needs_refetch=False, data_loss=False
        )


class UntrackedEccDomain:
    """The same reduced ECC budget *without* a DBI to aim it (Section 3.3).

    A conventional cache cannot cheaply enumerate its dirty blocks, so if it
    only provisions SECDED for a fraction ``coverage`` of blocks it must pick
    that subset blind to dirtiness (here: a seeded hash of the block
    address). The consequence the paper's protection argument hinges on: a
    dirty block outside the covered subset has only parity — a single-bit
    upset is detected but uncorrectable, and memory's copy is stale, so the
    data is gone. ``coverage=1`` recovers uniform full-cache SECDED (the
    expensive design heterogeneous ECC replaces); ``coverage=0`` is
    parity-everywhere.

    Args:
        is_dirty: callable answering "is this block dirty?" — typically the
            tag store's dirty bit (``cache.is_dirty``).
        coverage: fraction of blocks given SECDED (the DBI design spends the
            same budget, α, on exactly the dirty ones).
        seed: selects the covered subset.
    """

    def __init__(self, is_dirty, coverage: Fraction = Fraction(1, 4),
                 seed: int = 0xECC) -> None:
        self._is_dirty = is_dirty
        self.coverage = Fraction(coverage)
        if not 0 <= self.coverage <= 1:
            raise ValueError(f"coverage must be in [0, 1], got {self.coverage}")
        self.seed = seed

    def is_ecc_protected(self, block_addr: int) -> bool:
        """Membership in the fixed, dirtiness-blind SECDED subset."""
        if self.coverage >= 1:
            return True
        if self.coverage <= 0:
            return False
        digest = hashlib.sha256(f"{self.seed}:{block_addr}".encode()).digest()
        roll = int.from_bytes(digest[:8], "big")
        # roll / 2**64 < coverage, in exact integer arithmetic.
        return roll * self.coverage.denominator < self.coverage.numerator << 64

    def protection_invariant_holds(self) -> bool:
        """The DBI guarantee does not hold here unless everything is covered."""
        return self.coverage >= 1

    def inject_single_bit_fault(self, block_addr: int) -> FaultOutcome:
        """Model a single-bit upset in ``block_addr``."""
        if self.is_ecc_protected(block_addr):
            return FaultOutcome(
                detected=True, corrected=True, needs_refetch=False, data_loss=False
            )
        if not self._is_dirty(block_addr):
            return FaultOutcome(
                detected=True, corrected=False, needs_refetch=True, data_loss=False
            )
        # Untracked dirty block: parity detects but cannot correct, and the
        # only up-to-date copy was the one just corrupted.
        return FaultOutcome(
            detected=True, corrected=False, needs_refetch=False, data_loss=True
        )

    def inject_double_bit_fault(self, block_addr: int) -> FaultOutcome:
        """Model a double-bit upset: SECDED detects, parity misses."""
        if self.is_ecc_protected(block_addr):
            return FaultOutcome(
                detected=True, corrected=False, needs_refetch=False,
                data_loss=self._is_dirty(block_addr),
            )
        if not self._is_dirty(block_addr):
            return FaultOutcome(
                detected=False, corrected=False, needs_refetch=False,
                data_loss=False,
            )
        # Silent corruption of dirty data — the worst outcome on the chart.
        return FaultOutcome(
            detected=False, corrected=False, needs_refetch=False, data_loss=True
        )


@dataclass(frozen=True)
class SoftErrorConfig:
    """Knobs of one soft-error injection campaign over a live simulation.

    Deliberately *not* part of :class:`~repro.sim.system.SystemConfig`:
    injection is observational (audit events), so sweep-cache keys must not
    depend on it — exactly like the ``check`` flag.

    Attributes:
        faults: upsets to inject (fewer if the run ends first).
        interval: cycles between injections.
        start: cycle of the first injection.
        seed: drives both target-block choice and single/double selection.
        double_bit_fraction: fraction of injections that are double-bit
            upsets (0 reproduces the paper's single-event-upset argument).
        coverage: SECDED coverage fraction for the untracked contrast
            domain; None uses the system's DBI α, i.e. the same budget.
    """

    faults: int = 200
    interval: int = 500
    start: int = 1_000
    seed: int = 0x5EED
    double_bit_fraction: float = 0.0
    coverage: Optional[Fraction] = None

    def __post_init__(self) -> None:
        check_non_negative("faults", self.faults)
        check_positive("interval", self.interval)
        check_non_negative("start", self.start)
        check_range("double_bit_fraction", self.double_bit_fraction, 0, 1)
        if self.coverage is not None:
            # 0 is meaningful: parity everywhere, every dirty upset lost.
            check_range("coverage", self.coverage, 0, 1)


class SoftErrorInjector:
    """Inject seeded soft errors into resident LLC blocks during a run.

    Attaches to the system's event queue with audit events (like the
    :class:`~repro.check.engine.CheckEngine`), so ``events_processed``,
    timing and every :class:`~repro.sim.system.SimulationResult` stat are
    byte-identical with and without injection — the campaign only *reads*
    machine state and tallies :class:`FaultOutcome`s.

    Domain selection: a mechanism that keeps its dirty bits in a DBI gets
    :class:`EccDomain` (ECC aimed at exactly the dirty blocks); anything
    else gets :class:`UntrackedEccDomain` over its tag-store dirty bits with
    the same α budget — the paper's §3.3 contrast.
    """

    def __init__(self, system, config: SoftErrorConfig) -> None:
        self.system = system
        self.config = config
        self.rng = DeterministicRng(config.seed).derive("soft-errors")
        mechanism = system.mechanism
        dbi = getattr(mechanism, "dbi", None)
        if dbi is not None and not mechanism.uses_tag_dirty_bits:
            self.domain = EccDomain(dbi)
            self.tracked = True
        else:
            coverage = config.coverage
            if coverage is None:
                coverage = system.config.dbi_alpha
            self.domain = UntrackedEccDomain(
                system.llc.is_dirty, coverage=coverage, seed=config.seed
            )
            self.tracked = False
        self.counts: Dict[str, int] = {
            "injected": 0,
            "single_bit": 0,
            "double_bit": 0,
            "dirty_targets": 0,
            "detected": 0,
            "corrected": 0,
            "refetched": 0,
            "data_loss": 0,
            "skipped_empty": 0,
            "protection_violations": 0,
        }

    # ------------------------------------------------------------- wiring

    def attach(self) -> None:
        """Arm the first injection tick."""
        queue = self.system.queue
        start = max(self.config.start, queue.now)
        queue.schedule(start, self._tick, audit=True)

    def _tick(self) -> None:
        if self.counts["injected"] < self.config.faults:
            self.inject_once()
        # Re-arm only while real work remains — a standing audit event would
        # keep EventQueue.run() from ever draining (see CheckEngine._arm).
        if (
            self.counts["injected"] < self.config.faults
            and len(self.system.queue) > 0
        ):
            self.system.queue.schedule_after(
                self.config.interval, self._tick, audit=True
            )

    # ---------------------------------------------------------- injection

    def _pick_target(self) -> Optional[int]:
        """A resident LLC block, chosen uniformly and deterministically."""
        resident = sorted(
            block.addr for block in self.system.llc.iter_valid_blocks()
        )
        if not resident:
            return None
        return resident[self.rng.randint(0, len(resident) - 1)]

    def inject_once(self) -> Optional[FaultOutcome]:
        """Inject one upset into a resident block and tally the outcome."""
        target = self._pick_target()
        if target is None:
            self.counts["skipped_empty"] += 1
            return None
        double = self.rng.chance(self.config.double_bit_fraction)
        self.counts["injected"] += 1
        self.counts["double_bit" if double else "single_bit"] += 1
        dirty = (
            self.domain.is_ecc_protected(target)  # DBI-dirty, stat-free
            if self.tracked
            else self.system.llc.is_dirty(target)
        )
        if dirty:
            self.counts["dirty_targets"] += 1
        if double:
            outcome = self.domain.inject_double_bit_fault(target)
        else:
            outcome = self.domain.inject_single_bit_fault(target)
        if outcome.detected:
            self.counts["detected"] += 1
        if outcome.corrected:
            self.counts["corrected"] += 1
        if outcome.needs_refetch:
            self.counts["refetched"] += 1
        if outcome.data_loss:
            self.counts["data_loss"] += 1
        if self.tracked and not self.domain.protection_invariant_holds():
            self.counts["protection_violations"] += 1
        return outcome
