"""A single DRAM bank with an open-row policy.

Timing model. Each access issues at ``start`` (when the bank is free):

* row hit: CAS issues immediately; data is ready ``t_cas`` later.
* closed bank: ACTIVATE (``t_rcd``) then CAS.
* row conflict: PRECHARGE (``t_rp``), ACTIVATE, then CAS.

The bank can accept its next command ``t_burst`` after the CAS issues
(DDR3's tCCD equals the burst length), so back-to-back row hits stream at
burst granularity while conflicts serialize behind precharge+activate. The
shared data bus is modelled by the controller, not here.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.config import DramConfig


class Bank:
    """Tracks the open row and command occupancy of one bank."""

    __slots__ = ("bank_id", "_config", "open_row", "busy_until",
                 "write_recovery_until", "row_hits", "row_conflicts")

    def __init__(self, bank_id: int, config: DramConfig) -> None:
        self.bank_id = bank_id
        self._config = config
        self.open_row: Optional[int] = None  # per-bank row index
        self.busy_until = 0  # earliest cycle the next command may issue
        # Precharge is blocked until write recovery (tWR) elapses, so a
        # row *change* after a write waits; same-row accesses do not.
        self.write_recovery_until = 0
        # Plain per-bank access tallies (not stat-record fields: they feed
        # the telemetry sampler only and must never enter exported stats).
        self.row_hits = 0
        self.row_conflicts = 0

    def is_free(self, now: int) -> bool:
        return self.busy_until <= now

    def ready_time(self, row: int) -> int:
        """Earliest cycle an access to ``row`` may issue on this bank."""
        if row != self.open_row:
            return max(self.busy_until, self.write_recovery_until)
        return self.busy_until

    def is_ready(self, row: int, now: int) -> bool:
        return self.ready_time(row) <= now

    def would_hit(self, row: int) -> bool:
        """Would an access to ``row`` be a row-buffer hit right now?"""
        return self.open_row == row

    def prep_latency(self, row: int) -> int:
        """Cycles of precharge/activate needed before CAS can issue."""
        if self.open_row == row:
            return 0
        if self.open_row is None:
            return self._config.t_rcd
        return self._config.t_rp + self._config.t_rcd

    def access_latency(self, row: int) -> int:
        """Full start-to-data latency of accessing ``row`` right now."""
        return self.prep_latency(row) + self._config.t_cas + self._config.t_burst

    def perform_access(self, row: int, start_time: int) -> int:
        """Issue an access at ``start_time``; returns when data is ready.

        Leaves the row open (open-row policy) and marks the bank busy until
        its next command slot. The caller must ensure the bank is free.
        """
        if start_time < self.busy_until:
            raise ValueError(
                f"bank {self.bank_id} busy until {self.busy_until}, "
                f"access requested at {start_time}"
            )
        # prep_latency, inlined: this runs once per DRAM access.
        config = self._config
        open_row = self.open_row
        if row == open_row:
            cas_time = start_time
            self.row_hits += 1
        else:
            if open_row is None:
                cas_time = start_time + config.t_rcd
            else:
                cas_time = start_time + config.t_rp + config.t_rcd
            self.row_conflicts += 1
        self.open_row = row
        self.busy_until = cas_time + config.t_burst
        return cas_time + config.t_cas

    def precharge(self) -> None:
        """Close the open row (used by tests and idle policies)."""
        self.open_row = None
