"""Memory request record exchanged between the LLC and the memory controller."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(eq=False)
class MemoryRequest:
    """One block-sized read or write issued to the memory controller.

    Attributes:
        block_addr: block address (byte address / block size).
        is_write: True for a writeback, False for a demand/fill read.
        core_id: originating core (for per-core stats); -1 for writebacks that
            have no single originator.
        arrival_time: cycle the request entered the controller queue.
        on_complete: callback fired (with this request) when data returns;
            writes typically pass None.
        issue_time / complete_time: filled in by the controller for stats.

    Requests compare by identity (``eq=False``): each is a unique in-flight
    transaction, so a lookup by request never pays a field-by-field
    comparison per scanned entry.
    """

    block_addr: int
    is_write: bool
    core_id: int = -1
    arrival_time: int = 0
    on_complete: Optional[Callable[["MemoryRequest"], None]] = field(
        default=None, repr=False
    )
    issue_time: Optional[int] = None
    complete_time: Optional[int] = None
    #: Cached address decode, filled in by the controller on acceptance so
    #: the FR-FCFS scan does not re-decode every candidate on every pass.
    #: ``bank`` is the Bank object itself; ``row`` its per-bank row index.
    bank: Optional[object] = field(default=None, repr=False, compare=False)
    row: Optional[int] = field(default=None, repr=False, compare=False)

    def fire_completion(self) -> None:
        """Invoke ``on_complete`` with this request.

        Scheduled as an event callback by the controller; a bound method of
        a plain dataclass, unlike the closure it replaced, survives pickling
        (see :mod:`repro.checkpoint`).
        """
        self.on_complete(self)

    @property
    def latency(self) -> Optional[int]:
        """Queue-to-data latency once completed, else None."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.arrival_time
