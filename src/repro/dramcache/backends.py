"""Dirty-tracking backends for the DRAM-cache level.

Both backends answer the same three questions the level asks — "this block
was written", "this block is being evicted; what must go off-chip?", and
"which blocks are dirty right now?" — but keep the dirty state in different
places:

* :class:`TagDirtyBackend` — conventional per-line dirty bits in the tag
  array. Writebacks leave the level one line at a time, in eviction order,
  which scatters them across off-chip DRAM rows.
* :class:`DbiDirtyBackend` — a DBI whose granularity matches the *off-chip*
  row, plus aggressive writeback: evicting one dirty block drains every
  other dirty block of its row that is still cached, so the off-chip write
  stream arrives row-batched (TicToc/Banshee's bandwidth argument; paper
  Section 3.1 ported to the stacked level). The tag array stays clean — the
  DBI is the sole dirtiness authority.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.cache.cache import Cache, EvictedBlock
from repro.core.dbi import DirtyBlockIndex
from repro.utils.rng import DeterministicRng


class TagDirtyBackend:
    """Per-line dirty bits in the level's tag array."""

    name = "tag"
    #: The tag array carries the dirty bits (level installs with dirty=True).
    tag_dirty = True

    def __init__(self, tags: Cache) -> None:
        self.tags = tags
        self.dbi: Optional[DirtyBlockIndex] = None

    def mark_dirty(self, addr: int) -> List[int]:
        """Record a write to a present block; never forces writebacks."""
        self.tags.mark_dirty(addr)
        return []

    def on_evict(self, victim: EvictedBlock) -> Tuple[List[int], List[int]]:
        """(demand writebacks, row drains) for one tag-array eviction."""
        if victim.dirty:
            return [victim.addr], []
        return [], []

    def is_dirty(self, addr: int) -> bool:
        return self.tags.is_dirty(addr)

    peek_dirty = is_dirty

    @property
    def dirty_count(self) -> int:
        return self.tags.dirty_count

    def dirty_blocks(self) -> Set[int]:
        return set(self.tags.dirty_blocks())


class DbiDirtyBackend:
    """Row-granularity DBI + aggressive writeback of whole dirty rows."""

    name = "dbi"
    #: Tag-array dirty bits stay clear; the DBI owns all dirty state.
    tag_dirty = False

    def __init__(
        self, tags: Cache, dbi: DirtyBlockIndex, rng: Optional[DeterministicRng]
    ) -> None:
        self.tags = tags
        self.dbi = dbi

    def mark_dirty(self, addr: int) -> List[int]:
        """Record a write; a displaced DBI entry forces its blocks off-chip.

        The forced blocks stay cached (and clean); the caller must write
        their data off-chip now — DBI capacity, not data-array capacity, is
        what bounds dirtiness under this backend (paper Section 2.2.4).
        """
        eviction = self.dbi.mark_dirty(addr)
        if eviction is None:
            return []
        return list(eviction.dirty_blocks)

    def on_evict(self, victim: EvictedBlock) -> Tuple[List[int], List[int]]:
        """(demand writebacks, AWB row drains) for one tag-array eviction.

        If the victim is dirty, every *other* dirty block of its off-chip
        row still present in the level is proactively cleaned and written
        back alongside it — the whole row leaves in one off-chip batch.
        """
        if not self.dbi.is_dirty(victim.addr):
            return [], []
        self.dbi.mark_clean(victim.addr)
        drains = []
        for addr in self.dbi.dirty_blocks_in_region(victim.addr):
            # Invariant: the DBI only tracks cached blocks, so every
            # row-mate is still in the tag array.
            self.dbi.mark_clean(addr)
            drains.append(addr)
        return [victim.addr], drains

    def is_dirty(self, addr: int) -> bool:
        return self.dbi.is_dirty(addr)

    def peek_dirty(self, addr: int) -> bool:
        return self.dbi.peek_dirty(addr)

    @property
    def dirty_count(self) -> int:
        return self.dbi.live_dirty_blocks

    def dirty_blocks(self) -> Set[int]:
        return set(self.dbi.all_dirty_blocks())


def make_backend(config, tags: Cache, rng: Optional[DeterministicRng]):
    """Instantiate the configured backend for a level's tag array."""
    if config.dirty_backend == "tag":
        return TagDirtyBackend(tags)
    dbi = DirtyBlockIndex(
        config.dbi_config(), rng=rng, stat_name=f"{config.name}_dbi"
    )
    return DbiDirtyBackend(tags, dbi, rng)
