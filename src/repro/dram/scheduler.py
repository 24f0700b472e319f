"""FR-FCFS request selection.

First-Ready, First-Come-First-Served [45, 60]: among requests whose bank is
available, prefer row-buffer hits; break ties by arrival order. Implemented
as a pure function over a candidate list so it can be unit-tested in
isolation from the event-driven controller.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.dram.request import MemoryRequest


def select_fr_fcfs(
    candidates: Sequence[MemoryRequest], now: int
) -> Tuple[int, Optional[int]]:
    """Pick the next request to issue, or the cycle to look again.

    Args:
        candidates: pending requests in arrival (FIFO) order, each with its
            ``bank`` and ``row`` decode filled in (the controller does so on
            acceptance). A request is schedulable only if its bank is free
            and, for a row change, out of write recovery.
        now: current cycle.

    Returns:
        ``(index, None)`` where ``index`` is the first row-hit request whose
        bank is free, else the oldest request whose bank is ready; or
        ``(-1, wake_at)`` when nothing can issue, ``wake_at`` being the
        earliest cycle at which a candidate becomes ready (None when there
        are no candidates).
    """
    # This is the controller's only scan over its pending requests: one pass
    # both chooses and, when nothing is ready, finds the wake cycle. The
    # bank-readiness checks are inlined rather than going through
    # Bank.ready_time.
    oldest = -1
    wake_at = None
    for index, request in enumerate(candidates):
        bank = request.bank
        ready = bank.busy_until
        if request.row == bank.open_row:
            if ready <= now:
                return index, None  # first-ready row hit wins immediately
        else:
            recovery = bank.write_recovery_until
            if recovery > ready:
                ready = recovery
            if ready <= now:
                if oldest < 0:
                    oldest = index
                continue
        if wake_at is None or ready < wake_at:
            wake_at = ready
    if oldest >= 0:
        return oldest, None
    return -1, wake_at
