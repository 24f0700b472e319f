"""Tests for the DBI-based DRAM-cache dispatcher (paper Section 7).

Every test drives a real ``dbi``-backend :class:`DramCacheLevel` with the
dispatcher attached, so the routing is checked against the timed level's
own dirtiness and its controllers' own queues.
"""

import pytest

from repro.dram.request import MemoryRequest
from repro.extensions.dram_cache import DramCacheDispatcher
from repro.sim.system import System

from tests.check.conftest import random_trace, small_config
from tests.dramcache.conftest import (
    Completions,
    make_level,
    read,
    small_level_config,
    write,
)

#: Fire-and-forget stacked reads queued ahead of a routed hit: more than the
#: stacked array can issue during one tag lookup, so the gap holds.
LOAD = 16


def make_rig(threshold=2):
    queue, level, offchip = make_level("dbi")
    return queue, level, offchip, DramCacheDispatcher(level, threshold)


def load_stacked(level, count=LOAD, base=0x1000):
    """Queue ``count`` stacked-array reads that nothing waits on."""
    for i in range(count):
        level.stacked.enqueue_read(MemoryRequest(base + i * 64, False))


def fill(queue, level, addrs):
    """Bring ``addrs`` into the level clean, one read at a time."""
    for addr in addrs:
        read(queue, level, addr)
        queue.run()


def burst(queue, level, addrs):
    """Read every address in the same cycle; return the completions."""
    done = Completions()
    for addr in addrs:
        read(queue, level, addr, done)
    queue.run()
    assert len(done.done) == len(addrs)
    return done


class TestDirtyRouting:
    def test_dirty_block_forced_to_cache(self):
        queue, level, offchip, dispatcher = make_rig(threshold=2)
        write(queue, level, 100)
        queue.run()
        load_stacked(level)
        offchip_reads = offchip.stats.reads
        burst(queue, level, [100])
        assert dispatcher.stats.forced_to_cache == 1
        assert dispatcher.stats.balanced_to_off_chip == 0
        assert offchip.stats.reads == offchip_reads

    def test_clean_block_can_offload(self):
        queue, level, offchip, dispatcher = make_rig(threshold=2)
        fill(queue, level, [100])
        load_stacked(level)
        offchip_reads = offchip.stats.reads
        done = burst(queue, level, [100])
        assert dispatcher.stats.balanced_to_off_chip == 1
        assert offchip.stats.reads == offchip_reads + 1
        assert level.stats.offchip_reads == 1  # only the fill: not a miss
        [(addr, complete_time)] = done.done
        assert addr == 100 and complete_time > 0
        assert level.is_idle()

    def test_absent_block_can_offload(self):
        # A miss always fetches off-chip; the dispatcher only routes hits.
        queue, level, offchip, dispatcher = make_rig(threshold=0)
        burst(queue, level, [999])
        assert level.stats.offchip_reads == 1
        assert dispatcher.stats.reads == 0

    def test_read_after_same_cycle_writeback_sees_dirty(self):
        # The stale-read case: the writeback's tag step runs first, so the
        # read's routing sees the block dirty and keeps it on the cache.
        queue, level, offchip, dispatcher = make_rig(threshold=2)
        fill(queue, level, [100])
        load_stacked(level)
        write(queue, level, 100)
        done = Completions()
        read(queue, level, 100, done)
        queue.run()
        assert len(done.done) == 1
        assert dispatcher.stats.forced_to_cache == 1
        assert dispatcher.stats.balanced_to_off_chip == 0


class TestLoadBalancing:
    def test_balanced_queues_prefer_cache(self):
        queue, level, offchip, dispatcher = make_rig(threshold=2)
        fill(queue, level, [1])
        offchip_reads = offchip.stats.reads
        burst(queue, level, [1])
        assert dispatcher.stats.reads == 1
        assert dispatcher.stats.balanced_to_off_chip == 0
        assert offchip.stats.reads == offchip_reads

    def test_offload_engages_past_threshold(self):
        queue, level, _, dispatcher = make_rig(threshold=3)
        fill(queue, level, range(16))
        burst(queue, level, range(16))
        assert dispatcher.stats.balanced_to_off_chip > 0
        assert dispatcher.stats.forced_to_cache == 0

    def test_unreachable_threshold_offloads_nothing(self):
        queue, level, _, dispatcher = make_rig(threshold=10**6)
        fill(queue, level, range(16))
        load_stacked(level)
        burst(queue, level, range(16))
        assert dispatcher.stats.reads == 16
        assert dispatcher.off_chip_share == 0.0

    def test_off_chip_share_under_write_heavy_traffic(self):
        queue, level, _, dispatcher = make_rig(threshold=1)
        for addr in range(32):
            write(queue, level, addr)
        queue.run()
        burst(queue, level, range(32))
        # Every hit was dirty: nothing could be offloaded.
        assert dispatcher.stats.forced_to_cache == 32
        assert dispatcher.off_chip_share == 0.0

    def test_off_chip_share_under_clean_traffic(self):
        queue, level, _, dispatcher = make_rig(threshold=1)
        fill(queue, level, range(32))
        burst(queue, level, range(32))
        assert dispatcher.off_chip_share > 0.3

    def test_negative_threshold_rejected(self):
        _queue, level, _offchip = make_level("dbi")
        with pytest.raises(ValueError, match="queue_penalty_threshold"):
            DramCacheDispatcher(level, queue_penalty_threshold=-1)
        assert level.dispatcher is None


class TestCheckedSystem:
    def test_full_check_run_with_dispatcher_stays_clean(self):
        # A footprint the LLC cannot hold but the level can, so reads hit.
        trace = random_trace(refs=1500, footprint=1024, write_fraction=0.3)
        config = small_config(
            "dbi+awb",
            dram_cache=small_level_config(
                "dbi", num_blocks=1024, associativity=8
            ),
        )
        system = System(config, [trace], check="full")
        dispatcher = DramCacheDispatcher(system.dram_cache, 1)
        result = system.run()  # raises on a dirty ledger or a failed sweep
        engine = system.check_engine
        assert engine.sweeps >= 1
        assert engine.dramcache_ledger.dirtied > 0
        assert engine.dramcache_ledger.outstanding_writebacks == 0
        assert system.dram_cache.is_idle()
        assert dispatcher.stats.forced_to_cache >= 1
        assert dispatcher.stats.balanced_to_off_chip >= 1
        # The dispatcher's stats are its own, not the level's.
        assert not any(key.startswith("dispatch.") for key in result.stats)
