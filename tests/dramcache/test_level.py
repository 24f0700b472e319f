"""Unit tests for the timed DRAM-cache level's datapath and dirty backends."""

import pytest

from repro.dramcache.backends import make_backend
from repro.dramcache.config import DIRTY_BACKENDS, DramCacheConfig

from tests.dramcache.conftest import (
    Completions,
    make_level,
    read,
    small_level_config,
    write,
)


def counter(level, name):
    return getattr(level.stats, name)


class TestReadPath:
    def test_miss_fetches_offchip_then_hit_stays_stacked(self):
        queue, level, offchip = make_level("tag")
        done = Completions()
        read(queue, level, 0x40, done)
        queue.run()
        assert counter(level, "reads") == 1
        assert counter(level, "read_misses") == 1
        assert counter(level, "offchip_reads") == 1
        assert level.tags.contains(0x40)
        assert len(done.done) == 1

        read(queue, level, 0x40, done)
        queue.run()
        assert counter(level, "read_hits") == 1
        assert counter(level, "offchip_reads") == 1  # unchanged
        assert len(done.done) == 2

    def test_concurrent_misses_merge_onto_one_fetch(self):
        queue, level, offchip = make_level("tag")
        done = Completions()
        read(queue, level, 0x80, done)
        read(queue, level, 0x80, done)
        read(queue, level, 0x80, done)
        queue.run()
        assert counter(level, "offchip_reads") == 1
        assert counter(level, "read_merges") == 2
        assert len(done.done) == 3
        assert level.is_idle()

    def test_fire_and_forget_read_completes_without_callback(self):
        queue, level, _ = make_level("tag")
        read(queue, level, 0x11, on_complete=None)
        queue.run()
        assert level.tags.contains(0x11)
        assert level.is_idle()


class TestWritePath:
    def test_write_allocates_and_marks_dirty(self):
        for backend in DIRTY_BACKENDS:
            queue, level, _ = make_level(backend)
            write(queue, level, 0x21)
            queue.run()
            assert counter(level, "write_fills") == 1
            assert level.tags.contains(0x21)
            assert level.peek_dirty(0x21)
            assert level.dirty_blocks() == {0x21}

    def test_write_hit_updates_in_place(self):
        queue, level, _ = make_level("tag")
        done = Completions()
        read(queue, level, 0x22, done)
        queue.run()
        assert not level.peek_dirty(0x22)
        write(queue, level, 0x22)
        queue.run()
        assert counter(level, "write_hits") == 1
        assert level.peek_dirty(0x22)

    def test_tag_backend_keeps_dirty_bits_in_tags(self):
        queue, level, _ = make_level("tag")
        write(queue, level, 0x5)
        queue.run()
        assert level.dbi is None
        assert level.tags.dirty_count == 1

    def test_dbi_backend_keeps_tag_array_clean(self):
        queue, level, _ = make_level("dbi")
        write(queue, level, 0x5)
        queue.run()
        assert level.tags.dirty_count == 0
        assert level.dbi.is_dirty(0x5)
        level.check_invariants()


class TestEvictions:
    def fill_one_set(self, queue, level, stride, count, start=0):
        """Write ``count`` blocks mapping to one tag set."""
        addrs = [start + i * stride for i in range(count)]
        for addr in addrs:
            write(queue, level, addr)
            queue.run()
        return addrs

    def test_tag_backend_evicts_dirty_victim_offchip(self):
        queue, level, _ = make_level("tag")
        num_sets = level.tags.config.num_sets
        self.fill_one_set(queue, level, num_sets, count=5)
        assert counter(level, "dirty_evictions") == 1
        assert counter(level, "offchip_writes") == 1
        assert level.is_idle()

    def test_dbi_backend_drains_dirty_rowmates_on_eviction(self):
        # Granularity 8 with a 16-set tag array: blocks 0 and 1 share a DBI
        # region but live in different tag sets, so evicting 0 must also
        # drain 1. The set is filled with clean reads so no DBI displacement
        # can clean block 0 before its eviction.
        queue, level, _ = make_level("dbi")
        num_sets = level.tags.config.num_sets
        write(queue, level, 0)
        queue.run()
        write(queue, level, 1)
        queue.run()
        for i in range(1, 5):
            read(queue, level, i * num_sets)
            queue.run()
        assert counter(level, "dirty_evictions") == 1
        assert counter(level, "awb_drains") == 1
        # Both the victim and its row-mate went off-chip; the row-mate
        # stays cached but clean.
        assert counter(level, "offchip_writes") == 2
        assert level.tags.contains(1)
        assert not level.peek_dirty(1)
        level.check_invariants()

    def test_dbi_displacement_forces_writebacks(self):
        # 64 blocks * alpha 1/2 / granularity 8 = 4 entries, assoc 2 =
        # 2 sets. Dirtying blocks in 3 regions of one DBI set displaces the
        # least-recently-written entry; its blocks stay cached, now clean.
        queue, level, _ = make_level("dbi")
        for region in (0, 2, 4):
            write(queue, level, region * 8)
            queue.run()
        assert counter(level, "dbi_forced_writebacks") == 1
        assert level.tags.contains(0)
        assert not level.peek_dirty(0)
        assert level.peek_dirty(2 * 8) and level.peek_dirty(4 * 8)
        level.check_invariants()


class TestConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="dirty_backend"):
            small_level_config("sticky-notes")

    def test_stacked_timing_is_faster_than_offchip(self):
        config = small_level_config()
        from tests.dramcache.conftest import SMALL_DRAM

        assert config.stacked.t_rcd < SMALL_DRAM.t_rcd
        assert config.stacked.t_burst < SMALL_DRAM.t_burst

    def test_backend_factory_matches_config(self):
        for name in DIRTY_BACKENDS:
            queue, level, _ = make_level(name)
            assert level.backend.name == name
            assert (level.dbi is None) == (name == "tag")


class TestInterface:
    def test_level_speaks_the_memory_controller_interface(self):
        """The hierarchy/mechanisms must not care which one they talk to."""
        queue, level, offchip = make_level("tag")
        assert level.mapper is offchip.mapper
        assert level.can_accept_write()
        assert level.is_idle()
