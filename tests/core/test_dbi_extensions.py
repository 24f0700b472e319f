"""Tests for the Section 7 extension queries on the DBI."""

from fractions import Fraction

from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex


def make_dbi():
    return DirtyBlockIndex(
        DbiConfig(cache_blocks=1024, alpha=Fraction(1, 2), granularity=16,
                  associativity=8)
    )


class TestRegionHasDirty:
    def test_true_only_for_marked_regions(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)  # region 1
        assert dbi.region_has_dirty(1)
        assert not dbi.region_has_dirty(0)
        assert not dbi.region_has_dirty(2)

    def test_cleared_when_last_bit_clears(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        dbi.mark_clean(17)
        assert not dbi.region_has_dirty(1)


class TestFlush:
    def test_flush_returns_all_dirty_grouped(self):
        dbi = make_dbi()
        for addr in (3, 7, 30, 200):
            dbi.mark_dirty(addr)
        before = dbi.all_dirty_blocks()
        groups = dbi.flush()
        flat = [addr for group in groups for addr in group]
        assert sorted(flat) == [3, 7, 30, 200]
        # Same (set, way) order as all_dirty_blocks(), one group per entry.
        assert flat == before
        # Each group belongs to exactly one region.
        for group in groups:
            assert len({addr // 16 for addr in group}) == 1

    def test_flush_empties_the_dbi(self):
        dbi = make_dbi()
        dbi.mark_dirty(3)
        dbi.flush()
        assert dbi.entry_count == 0
        assert not dbi.is_dirty(3)
        assert dbi.all_dirty_blocks() == []

    def test_flush_empty_dbi(self):
        dbi = make_dbi()
        assert dbi.flush() == []

    def test_dbi_usable_after_flush(self):
        dbi = make_dbi()
        dbi.mark_dirty(3)
        dbi.flush()
        dbi.mark_dirty(99)
        assert dbi.is_dirty(99)
        assert dbi.entry_count == 1

    def test_flush_counters(self):
        dbi = make_dbi()
        dbi.mark_dirty(3)
        dbi.mark_dirty(300)
        dbi.flush()
        flat = dbi.stats.as_dict()
        assert flat["dbi.flushes"] == 1
        assert flat["dbi.flushed_entries"] == 2
