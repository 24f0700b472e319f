#!/usr/bin/env python
"""The paper's Section 7 extensions, running.

Two of the "other optimizations enabled by DBI" as working subsystems:

1. **Self-balancing DRAM-cache dispatch** [49] — a timed die-stacked
   DRAM-cache level with the ``dbi`` backend, driven over an event queue;
   its read hits go to whichever memory has the shorter read queue unless
   the level's DBI says the block may be dirty. We contrast a write-heavy
   phase (many hits pinned to the DRAM cache) against a read-mostly phase
   (a larger share offloaded).
2. **Coherent bulk DMA** — one ranged DBI query per DRAM row replaces
   per-block tag lookups when a device reads a large buffer.

Run:  python examples/section7_extensions.py
"""

from fractions import Fraction
from functools import partial

from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex
from repro.dram.config import DramConfig
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest
from repro.dramcache.config import DramCacheConfig
from repro.dramcache.level import DramCacheLevel
from repro.extensions.bulk_dma import BulkDmaEngine
from repro.extensions.dram_cache import DramCacheDispatcher
from repro.utils.events import EventQueue
from repro.utils.rng import DeterministicRng

FOOTPRINT = 8192
OPS = 20000
BURST = 8  # requests arriving in one cycle, so queue imbalance builds up
BURST_GAP = 160  # cycles between bursts: one request per 20 cycles


def issue(level: DramCacheLevel, ops) -> None:
    for is_write, addr in ops:
        if is_write:
            level.enqueue_write(MemoryRequest(addr, True))
        else:
            level.enqueue_read(MemoryRequest(addr, False))


def dram_cache_study() -> None:
    print("1. Self-balancing DRAM-cache dispatch")
    print("-" * 38)
    for phase, write_prob in (("write-heavy", 0.6), ("read-mostly", 0.05)):
        rng = DeterministicRng(11)
        queue = EventQueue()
        offchip = MemoryController(queue, DramConfig())
        level = DramCacheLevel(
            queue,
            DramCacheConfig(num_blocks=16384),
            offchip,
            rng=DeterministicRng(12),
        )
        # Warm the level clean: every block of the footprint read once.
        for start in range(0, FOOTPRINT, BURST):
            issue(level, [(False, a) for a in range(start, start + BURST)])
            queue.run()
        dispatcher = DramCacheDispatcher(level, queue_penalty_threshold=1)
        ops = [
            (rng.chance(write_prob), rng.randint(0, FOOTPRINT - 1))
            for _ in range(OPS)
        ]
        start = queue.now
        for burst in range(OPS // BURST):
            queue.schedule(
                start + burst * BURST_GAP,
                partial(issue, level, ops[burst * BURST:(burst + 1) * BURST]),
            )
        queue.run()
        stats = dispatcher.stats
        print(f"  {phase:12s}: {stats.reads:>6d} reads, "
              f"{stats.forced_to_cache:>6d} forced dirty, "
              f"{dispatcher.off_chip_share:.0%} offloaded to off-chip")
    print()


def bulk_dma_study() -> None:
    print("2. Coherent bulk DMA")
    print("-" * 38)
    rng = DeterministicRng(12)
    dbi = DirtyBlockIndex(
        DbiConfig(cache_blocks=65536, alpha=Fraction(1, 4), granularity=64,
                  associativity=16)
    )
    # Dirty a sparse working set.
    for _ in range(2000):
        dbi.mark_dirty(rng.randint(0, 1 << 16))
    engine = BulkDmaEngine(dbi)
    report = engine.prepare_read(start_block=4096, num_blocks=4096)  # 256 KB
    print(f"  transfer: {report.num_blocks} blocks "
          f"({report.num_blocks * 64 // 1024} KB)")
    print(f"  dirty blocks flushed     : {len(report.dirty_blocks_flushed)}")
    print(f"  conventional tag lookups : {report.conventional_tag_lookups}")
    print(f"  DBI queries              : {report.dbi_queries}")
    print(f"  lookup reduction         : {report.lookup_reduction:.0f}x")


def main() -> None:
    dram_cache_study()
    bulk_dma_study()


if __name__ == "__main__":
    main()
