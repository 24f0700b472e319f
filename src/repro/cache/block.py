"""Cache block (tag entry) state."""

from __future__ import annotations


class CacheBlock:
    """One tag entry.

    ``dirty`` is the conventional in-tag dirty bit (paper Figure 1a). Caches
    managed by a DBI mechanism never set it — the Dirty-Block Index is then
    the sole authority on dirtiness (Figure 1b) — and tests assert that
    invariant. :meth:`repro.cache.cache.Cache.insert` fills an entry by
    assigning its fields directly.
    """

    __slots__ = ("addr", "valid", "dirty", "owner_core")

    def __init__(self) -> None:
        self.addr = -1
        self.valid = False
        self.dirty = False
        self.owner_core = -1

    def invalidate(self) -> None:
        self.addr = -1
        self.valid = False
        self.dirty = False
        self.owner_core = -1

    def __repr__(self) -> str:
        state = "V" if self.valid else "-"
        state += "D" if self.dirty else " "
        return f"CacheBlock(addr={self.addr}, {state})"
