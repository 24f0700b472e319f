"""Unit and property tests for the Dirty-Block Index."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex


def make_dbi(cache_blocks=1024, alpha=Fraction(1, 4), granularity=16,
             associativity=4, replacement="lrw"):
    return DirtyBlockIndex(
        DbiConfig(
            cache_blocks=cache_blocks,
            alpha=alpha,
            granularity=granularity,
            associativity=associativity,
            replacement=replacement,
        )
    )


class TestSemantics:
    """Paper Section 2.1: dirty iff valid entry AND bit set."""

    def test_initially_nothing_dirty(self):
        dbi = make_dbi()
        assert not dbi.is_dirty(0)
        assert dbi.live_entries == 0

    def test_mark_dirty_sets_exactly_one_block(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        assert dbi.is_dirty(17)
        assert not dbi.is_dirty(16)
        assert not dbi.is_dirty(18)

    def test_same_region_blocks_share_entry(self):
        dbi = make_dbi(granularity=16)
        dbi.mark_dirty(0)
        dbi.mark_dirty(5)
        dbi.mark_dirty(15)
        assert dbi.live_entries == 1
        assert dbi.dirty_blocks_in_region(3) == [0, 5, 15]

    def test_different_regions_use_different_entries(self):
        dbi = make_dbi(granularity=16)
        dbi.mark_dirty(0)
        dbi.mark_dirty(16)
        assert dbi.live_entries == 2

    def test_mark_clean_clears_bit(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        assert dbi.mark_clean(17)
        assert not dbi.is_dirty(17)

    def test_mark_clean_on_clean_block_is_an_error(self):
        """Clearing an unset bit means a stale-state writeback decision.

        Regression test: this used to silently no-op, masking exactly the
        double-writeback bugs checked mode exists to catch.
        """
        dbi = make_dbi()
        with pytest.raises(ValueError, match="not dirty"):
            dbi.mark_clean(17)  # no entry for the region at all
        dbi.mark_dirty(16)
        with pytest.raises(ValueError, match="not dirty"):
            dbi.mark_clean(17)  # same region, different bit
        assert dbi.is_dirty(16)  # the failed cleans disturbed nothing

    def test_last_clean_invalidates_entry(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        dbi.mark_dirty(18)
        dbi.mark_clean(17)
        assert dbi.live_entries == 1
        dbi.mark_clean(18)
        assert dbi.live_entries == 0
        assert dbi.stats.as_dict()["dbi.entries_emptied"] == 1

    def test_idempotent_mark_dirty(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        dbi.mark_dirty(17)
        assert dbi.live_entries == 1
        assert dbi.live_dirty_blocks == 1


class TestEviction:
    """Paper Section 2.2.4: inserting may displace an entry."""

    def _fill_one_set(self, dbi):
        """Mark one block dirty in enough regions to fill DBI set 0."""
        config = dbi.config
        regions = []
        region = 0
        while len(regions) < config.associativity:
            if config.set_of(region) == 0:
                regions.append(region)
            region += 1
        for r in regions:
            assert dbi.mark_dirty(config.block_of(r, 0)) is None
        return regions

    def test_no_eviction_until_set_full(self):
        dbi = make_dbi()
        self._fill_one_set(dbi)
        assert dbi.stats.as_dict().get("dbi.evictions", 0) == 0

    def test_eviction_returns_all_dirty_blocks(self):
        dbi = make_dbi()
        regions = self._fill_one_set(dbi)
        config = dbi.config
        # Dirty two more blocks in the oldest (LRW) region.
        dbi.mark_dirty(config.block_of(regions[0], 3))
        dbi.mark_dirty(config.block_of(regions[0], 7))
        # Second region is now LRW victim... actually region[0] was rewritten,
        # so the LRW victim is regions[1].
        new_region = regions[-1] + 1
        while config.set_of(new_region) != 0:
            new_region += 1
        eviction = dbi.mark_dirty(config.block_of(new_region, 0))
        assert eviction is not None
        assert eviction.region_id == regions[1]
        assert eviction.dirty_blocks == (config.block_of(regions[1], 0),)

    def test_lrw_victim_is_least_recently_written(self):
        dbi = make_dbi()
        regions = self._fill_one_set(dbi)
        config = dbi.config
        # Touch regions[0] so regions[1] becomes LRW.
        dbi.mark_dirty(config.block_of(regions[0], 1))
        new_region = regions[-1] + 1
        while config.set_of(new_region) != 0:
            new_region += 1
        eviction = dbi.mark_dirty(config.block_of(new_region, 0))
        assert eviction.region_id == regions[1]

    def test_evicted_blocks_no_longer_dirty(self):
        dbi = make_dbi()
        regions = self._fill_one_set(dbi)
        config = dbi.config
        new_region = regions[-1] + 1
        while config.set_of(new_region) != 0:
            new_region += 1
        eviction = dbi.mark_dirty(config.block_of(new_region, 0))
        for block in eviction.dirty_blocks:
            assert not dbi.is_dirty(block)

    def test_eviction_stats(self):
        dbi = make_dbi()
        regions = self._fill_one_set(dbi)
        config = dbi.config
        new_region = regions[-1] + 1
        while config.set_of(new_region) != 0:
            new_region += 1
        dbi.mark_dirty(config.block_of(new_region, 0))
        flat = dbi.stats.as_dict()
        assert flat["dbi.evictions"] == 1
        assert flat["dbi.evicted_dirty_blocks"] == 1


class TestCapacityBound:
    def test_dirty_blocks_never_exceed_alpha_fraction(self):
        """Property 3 from the paper: DBI bounds the dirty working set."""
        dbi = make_dbi(cache_blocks=512, alpha=Fraction(1, 4),
                       granularity=8, associativity=4)
        cap = dbi.config.tracked_blocks
        for addr in range(4096):
            dbi.mark_dirty(addr * 3 % 2048)
            assert dbi.live_dirty_blocks <= cap
            assert dbi.live_entries <= dbi.config.num_entries


class TestAllDirtyBlocks:
    def test_flush_list_matches_marks(self):
        dbi = make_dbi()
        marked = {5, 17, 33, 34, 200}
        for addr in marked:
            dbi.mark_dirty(addr)
        assert set(dbi.all_dirty_blocks()) == marked


class ReferenceDbi:
    """Set-associative reference model used by the property tests."""

    def __init__(self, config):
        self.config = config
        # set -> list of (region, set_of_dirty_offsets) in LRW order (old first)
        self.sets = [[] for _ in range(config.num_sets)]

    def _find(self, region):
        s = self.sets[self.config.set_of(region)]
        for i, (r, bits) in enumerate(s):
            if r == region:
                return i
        return None

    def mark_dirty(self, addr):
        region = self.config.region_of(addr)
        offset = self.config.offset_of(addr)
        s = self.sets[self.config.set_of(region)]
        i = self._find(region)
        evicted = None
        if i is not None:
            r, bits = s.pop(i)
            bits.add(offset)
            s.append((r, bits))
        else:
            if len(s) >= self.config.associativity:
                victim_region, victim_bits = s.pop(0)
                evicted = sorted(
                    self.config.block_of(victim_region, b) for b in victim_bits
                )
            s.append((region, {offset}))
        return evicted

    def mark_clean(self, addr):
        region = self.config.region_of(addr)
        i = self._find(region)
        if i is None:
            return False
        s = self.sets[self.config.set_of(region)]
        r, bits = s[i]
        offset = self.config.offset_of(addr)
        if offset not in bits:
            return False
        bits.discard(offset)
        if not bits:
            s.pop(i)
        return True

    def is_dirty(self, addr):
        region = self.config.region_of(addr)
        i = self._find(region)
        if i is None:
            return False
        return self.config.offset_of(addr) in self.sets[self.config.set_of(region)][i][1]

    def all_dirty(self):
        out = set()
        for s in self.sets:
            for region, bits in s:
                out |= {self.config.block_of(region, b) for b in bits}
        return out


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["dirty", "clean", "query"]),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=300,
    )
)
def test_dbi_matches_reference_model(ops):
    """The DBI (with LRW) agrees exactly with an executable reference model."""
    config = DbiConfig(
        cache_blocks=256, alpha=Fraction(1, 2), granularity=8, associativity=4
    )
    dbi = DirtyBlockIndex(config)
    reference = ReferenceDbi(config)
    for op, addr in ops:
        if op == "dirty":
            eviction = dbi.mark_dirty(addr)
            ref_eviction = reference.mark_dirty(addr)
            got = sorted(eviction.dirty_blocks) if eviction else None
            assert got == ref_eviction
        elif op == "clean":
            if reference.is_dirty(addr):
                assert dbi.mark_clean(addr)
                assert reference.mark_clean(addr)
            else:
                # Strict contract: cleaning a non-dirty block is an error.
                with pytest.raises(ValueError):
                    dbi.mark_clean(addr)
                assert not reference.mark_clean(addr)
        else:
            assert dbi.is_dirty(addr) == reference.is_dirty(addr)
    assert set(dbi.all_dirty_blocks()) == reference.all_dirty()


@settings(max_examples=100, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1023), max_size=400),
    replacement=st.sampled_from(["lrw", "lrw-bip", "rwip", "max-dirty", "min-dirty"]),
)
def test_structural_invariants_all_policies(addrs, replacement):
    """Entry count and capacity invariants hold under every policy."""
    dbi = make_dbi(cache_blocks=512, granularity=8, associativity=4,
                   replacement=replacement)
    written = set()
    evicted_or_cleaned = set()
    for addr in addrs:
        eviction = dbi.mark_dirty(addr)
        written.add(addr)
        if eviction:
            evicted_or_cleaned.update(eviction.dirty_blocks)
            # Evicted blocks must not still be dirty.
            for block in eviction.dirty_blocks:
                assert not dbi.is_dirty(block)
        assert dbi.live_entries <= dbi.config.num_entries
        assert dbi.live_dirty_blocks <= dbi.config.tracked_blocks
        assert dbi.is_dirty(addr)  # the block just written is always dirty
    # Every currently-dirty block was written at some point.
    assert set(dbi.all_dirty_blocks()) <= written
