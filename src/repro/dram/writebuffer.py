"""Memory-controller write buffer with drain-when-full semantics.

The paper (Table 1, [27]) uses a 64-entry write buffer with a "drain when
full" policy: the controller services reads until the buffer fills, then
switches to a write phase and drains it. Filling the buffer with blocks of
the same DRAM row (what AWB/DAWB/VWQ arrange) makes the drain phase mostly
row hits, which is the core performance effect reproduced here.

The buffer also acts as the coherence point for in-flight writes: a read that
hits a buffered write is forwarded without touching DRAM.

The memory controller, the buffer's only owner, reads ``_entries`` and
``_by_addr`` directly on its per-request path (its FR-FCFS scan runs over
the live FIFO list, and it deletes an issued write by its index); every
other caller goes through the methods.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dram.request import MemoryRequest


class WriteBuffer:
    """FIFO-ordered write buffer with address lookup for forwarding."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: List[MemoryRequest] = []
        self._by_addr: Dict[int, MemoryRequest] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def contains(self, block_addr: int) -> bool:
        """True if a write to ``block_addr`` is buffered (forwarding check)."""
        return block_addr in self._by_addr

    def add(self, request: MemoryRequest) -> None:
        """Insert a write; coalesces with an existing write to the same block.

        Raises:
            ValueError: if the buffer is full and the write does not coalesce,
                or if the request is not a write.
        """
        if not request.is_write:
            raise ValueError("WriteBuffer only accepts writes")
        if request.block_addr in self._by_addr:
            # Coalesce: the newer data overwrites in place; no new entry.
            return
        if len(self._entries) >= self.capacity:
            raise ValueError("write buffer full; caller must check is_full first")
        self._entries.append(request)
        self._by_addr[request.block_addr] = request

    def peek_all(self) -> List[MemoryRequest]:
        """Snapshot of buffered writes in FIFO order (for the scheduler)."""
        return list(self._entries)

    def remove(self, request: MemoryRequest) -> None:
        """Remove a write that the controller has issued to DRAM."""
        self._entries.remove(request)
        del self._by_addr[request.block_addr]

    def pop_oldest(self) -> Optional[MemoryRequest]:
        """Remove and return the oldest write, or None when empty."""
        if not self._entries:
            return None
        request = self._entries.pop(0)
        del self._by_addr[request.block_addr]
        return request
