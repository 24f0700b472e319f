"""Coherent bulk DMA using ranged DBI queries (paper Section 7).

When a device reads a buffer from memory, the memory controller must
guarantee no cached line in the range is dirty [5]. Conventionally that is
one tag-store probe per block of the transfer; with a DBI one query per
*region* (DRAM row) answers the same question, and only regions that report
dirt need per-block attention.

:class:`BulkDmaEngine` models both costs for the same transfer so examples
and benches can report the lookup reduction alongside the flush work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.dbi import DirtyBlockIndex
from repro.utils.stats import StatRecord
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DmaTransferReport:
    """Coherence work for one bulk transfer."""

    start_block: int
    num_blocks: int
    dirty_blocks_flushed: tuple
    dbi_queries: int
    conventional_tag_lookups: int

    @property
    def lookup_reduction(self) -> float:
        """How many conventional lookups one DBI query replaced."""
        if self.dbi_queries == 0:
            return 0.0
        return self.conventional_tag_lookups / self.dbi_queries


class DmaStats(StatRecord):
    """Transfers prepared, blocks flushed and DBI queries spent."""

    __slots__ = ("transfers", "blocks_flushed", "dbi_queries")


class BulkDmaEngine:
    """Coherence front-end for device-initiated bulk reads."""

    def __init__(self, dbi: DirtyBlockIndex) -> None:
        self.dbi = dbi
        self.stats = DmaStats("dma")

    def prepare_read(self, start_block: int, num_blocks: int) -> DmaTransferReport:
        """Make [start, start+num_blocks) safe for a device read.

        Dirty blocks in the range are flushed (cleared in the DBI — the
        caller writes their data back); the report compares the DBI's query
        count against the one-lookup-per-block conventional cost.
        """
        check_positive("num_blocks", num_blocks)
        granularity = self.dbi.config.granularity
        first_region = self.dbi.config.region_of(start_block)
        last_region = self.dbi.config.region_of(start_block + num_blocks - 1)

        queries = 0
        flushed: List[int] = []
        for region_id in range(first_region, last_region + 1):
            queries += 1
            if not self.dbi.region_has_dirty(region_id):
                continue
            region_base = region_id * granularity
            for block in self.dbi.dirty_blocks_in_region(region_base):
                if start_block <= block < start_block + num_blocks:
                    self.dbi.mark_clean(block)
                    flushed.append(block)
            queries += 1  # the bit-vector read

        self.stats.transfers += 1
        self.stats.add("blocks_flushed", len(flushed))
        self.stats.dbi_queries += queries  # at least one region is queried
        return DmaTransferReport(
            start_block=start_block,
            num_blocks=num_blocks,
            dirty_blocks_flushed=tuple(sorted(flushed)),
            dbi_queries=queries,
            conventional_tag_lookups=num_blocks,
        )
