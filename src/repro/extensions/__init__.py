"""Additional DBI applications (paper Section 7).

The paper quantifies three optimizations but sketches several more uses of
the DBI's compact dirty-block organization. This package implements two of
them as working subsystems:

* :mod:`repro.extensions.dram_cache` — self-balancing dispatch on the timed
  DRAM-cache level [49]: attached to a level, the dispatcher asks its DBI
  "could this line be dirty in the DRAM cache?" on every read hit, so clean
  hits go to whichever memory has the shorter read queue, without the
  counting Bloom filter and dirty-page cache the original proposal needed.
* :mod:`repro.extensions.bulk_dma` — coherent bulk DMA: one ranged DBI query
  replaces per-block tag-store probes when a device reads a large buffer.
"""

from repro.extensions.bulk_dma import BulkDmaEngine, DmaTransferReport
from repro.extensions.dram_cache import DramCacheDispatcher

__all__ = [
    "BulkDmaEngine",
    "DmaTransferReport",
    "DramCacheDispatcher",
]
