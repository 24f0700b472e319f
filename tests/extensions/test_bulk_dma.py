"""Tests for the coherent bulk-DMA engine (paper Section 7)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex
from repro.extensions.bulk_dma import BulkDmaEngine


def make_engine():
    dbi = DirtyBlockIndex(
        DbiConfig(cache_blocks=2048, alpha=Fraction(1, 2), granularity=16,
                  associativity=8)
    )
    return dbi, BulkDmaEngine(dbi)


class TestPrepareRead:
    def test_clean_range_needs_one_query_per_region(self):
        _dbi, engine = make_engine()
        report = engine.prepare_read(start_block=0, num_blocks=64)
        assert report.dirty_blocks_flushed == ()
        assert report.dbi_queries == 4  # 64 blocks / 16-block regions
        assert report.conventional_tag_lookups == 64
        assert report.lookup_reduction == 16.0

    def test_dirty_blocks_in_range_flushed(self):
        dbi, engine = make_engine()
        dbi.mark_dirty(10)
        dbi.mark_dirty(30)
        dbi.mark_dirty(200)  # outside the transfer
        report = engine.prepare_read(start_block=0, num_blocks=64)
        assert report.dirty_blocks_flushed == (10, 30)
        assert not dbi.is_dirty(10)
        assert not dbi.is_dirty(30)
        assert dbi.is_dirty(200)  # untouched

    def test_partial_region_overlap_only_flushes_range(self):
        dbi, engine = make_engine()
        dbi.mark_dirty(15)  # region 0, inside
        dbi.mark_dirty(16)  # region 1, outside transfer [0, 16)
        report = engine.prepare_read(start_block=0, num_blocks=16)
        assert report.dirty_blocks_flushed == (15,)
        assert dbi.is_dirty(16)

    def test_unaligned_transfer(self):
        dbi, engine = make_engine()
        dbi.mark_dirty(20)
        report = engine.prepare_read(start_block=18, num_blocks=10)
        assert report.dirty_blocks_flushed == (20,)

    def test_stats_accumulate(self):
        dbi, engine = make_engine()
        dbi.mark_dirty(5)
        engine.prepare_read(0, 16)
        engine.prepare_read(16, 16)
        flat = engine.stats.as_dict()
        assert flat["dma.transfers"] == 2
        assert flat["dma.blocks_flushed"] == 1


@settings(max_examples=100, deadline=None)
@given(
    marks=st.lists(st.integers(min_value=0, max_value=511), max_size=40),
    start=st.integers(min_value=0, max_value=480),
    span=st.integers(min_value=1, max_value=64),
)
def test_transfer_safety_property(marks, start, span):
    """After prepare_read, no block in the range is dirty, blocks outside
    are untouched, and every flushed block was previously dirty in-range."""
    dbi, engine = make_engine()
    for addr in marks:
        dbi.mark_dirty(addr)
    before = set(dbi.all_dirty_blocks())
    report = engine.prepare_read(start, span)
    after = set(dbi.all_dirty_blocks())
    in_range = {a for a in before if start <= a < start + span}
    assert set(report.dirty_blocks_flushed) == in_range
    assert after == before - in_range
