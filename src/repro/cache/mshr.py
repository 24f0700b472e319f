"""Miss Status Holding Registers.

Caps the number of outstanding misses (paper Table 1: 32 at the L1) and
merges requests to a block that already has a miss in flight, so one fill
wakes every waiting consumer.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.utils.stats import StatRecord


class MshrStats(StatRecord):
    """Merged and new misses, and the occupancy at each new miss."""

    __slots__ = ("merged", "allocated", "occupancy_count", "occupancy_sum")
    DISTRIBUTIONS = ("occupancy",)


class MshrFile:
    """Outstanding-miss tracking with same-block merging.

    ``capacity == 0`` means unlimited (used where the paper gives no bound).
    """

    def __init__(self, capacity: int, name: str = "mshr") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._pending: Dict[int, List[Callable[[int], None]]] = {}
        self.stats = MshrStats(name)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def is_full(self) -> bool:
        return self.capacity > 0 and len(self._pending) >= self.capacity

    def outstanding(self, addr: int) -> bool:
        return addr in self._pending

    def can_allocate(self, addr: int) -> bool:
        """A new request fits if it merges or a register is free."""
        return addr in self._pending or not self.is_full

    def allocate(self, addr: int, on_fill: Callable[[int], None]) -> bool:
        """Register interest in ``addr``.

        Returns:
            True if this created a *new* miss (the caller must fetch the
            block); False if it merged into an existing one.

        Raises:
            RuntimeError: if the file is full and the address is not pending.
        """
        pending = self._pending
        waiters = pending.get(addr)
        if waiters is not None:
            waiters.append(on_fill)
            self.stats.merged += 1
            return False
        if self.capacity and len(pending) >= self.capacity:
            raise RuntimeError("MSHR file full; caller must check can_allocate")
        pending[addr] = [on_fill]
        stats = self.stats
        stats.allocated += 1
        stats.occupancy_count += 1
        stats.occupancy_sum += len(pending)
        return True

    def complete(self, addr: int) -> int:
        """The fill for ``addr`` arrived; fire all waiters. Returns count."""
        waiters = self._pending.pop(addr, None)
        if waiters is None:
            raise KeyError(f"no outstanding miss for block {addr}")
        for waiter in waiters:
            waiter(addr)
        return len(waiters)
