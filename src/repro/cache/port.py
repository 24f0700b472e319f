"""Shared LLC tag-port contention model.

The paper's central complexity argument (Sections 3.1, 6.1-6.2) is that
DAWB/VWQ roughly double LLC tag lookups while the DBI probes only
actually-dirty blocks — and in multi-core systems those extra lookups delay
everyone's demand accesses. This module makes that contention concrete: each
tag lookup occupies the port for ``occupancy`` cycles; demand lookups are
granted before background (proactive-writeback) lookups, but an in-flight
lookup is never preempted (paper footnote 4).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Tuple

from repro.utils.events import EventQueue
from repro.utils.stats import StatRecord


class PortPriority(enum.IntEnum):
    """Grant classes, highest first."""

    DEMAND = 0  # read accesses and L2 writeback requests
    BACKGROUND = 1  # proactive-writeback probes (AWB/DAWB/VWQ/DBI evictions)


# Hot-path aliases for callers: a module global loads without going through
# ``EnumType.__getattr__``, and the members are the same objects.
DEMAND = PortPriority.DEMAND
BACKGROUND = PortPriority.BACKGROUND


class PortStats(StatRecord):
    """Tag-port requests per priority, grants and the queue depth at each
    grant."""

    __slots__ = (
        "requests_demand",
        "requests_background",
        "grants",
        "queue_depth_count",
        "queue_depth_sum",
    )
    DISTRIBUTIONS = ("queue_depth",)


class TagPort:
    """A single non-preemptible port with two priority classes.

    Clients call :meth:`request`; the callback fires when the port is granted,
    and the port stays busy for ``occupancy`` cycles afterwards.
    """

    def __init__(
        self,
        queue: EventQueue,
        occupancy: int,
        name: str = "llc_port",
    ) -> None:
        if occupancy <= 0:
            raise ValueError(f"occupancy must be positive, got {occupancy}")
        self.queue = queue
        self.occupancy = occupancy
        self.busy_until = 0
        self.stats = PortStats(name)
        self._waiting: Tuple[Deque[Callable[[], None]], ...] = (deque(), deque())
        # A grant pass is queued. It is never cancelled, so a flag (not an
        # Event) is all it needs.
        self._grant_pending = False

    @property
    def queued(self) -> int:
        return len(self._waiting[0]) + len(self._waiting[1])

    def request(
        self, callback: Callable[[], None], priority: PortPriority = DEMAND
    ) -> None:
        """Queue a lookup; ``callback`` runs when the port grants it."""
        if priority is DEMAND:
            self.stats.requests_demand += 1
        else:
            self.stats.requests_background += 1
        self._waiting[priority].append(callback)
        if not self._grant_pending:
            # Arm the grant pass (what _pump does, without the extra frame).
            self._grant_pending = True
            queue = self.queue
            now = queue.now
            busy_until = self.busy_until
            queue.schedule(busy_until if busy_until > now else now, self._grant)

    def _pump(self) -> None:
        if self._grant_pending:
            return  # a grant pass is already pending
        self._grant_pending = True
        queue = self.queue
        now = queue.now
        busy_until = self.busy_until
        queue.schedule(busy_until if busy_until > now else now, self._grant)

    def _grant(self) -> None:
        self._grant_pending = False
        now = self.queue.now
        if now < self.busy_until:
            self._pump()
            return
        demand, background = self._waiting
        if demand:
            callback = demand.popleft()
        elif background:
            callback = background.popleft()
        else:
            return
        self.busy_until = now + self.occupancy
        stats = self.stats
        stats.grants += 1
        stats.queue_depth_count += 1
        stats.queue_depth_sum += len(demand) + len(background)
        callback()
        if demand or background:
            self._pump()
