"""The reference models agree with the real structures they stand in for.

RefLruCache is validated against :class:`repro.cache.cache.Cache` (LRU) and
RefDbi against :class:`repro.core.dbi.DirtyBlockIndex` (LRW) on randomized
operation streams — the differential harness's authority rests on these two
agreements.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.check.oracle import OracleMechanism, RefDbi, RefLruCache
from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex


def real_cache(num_blocks=32, associativity=4):
    return Cache(CacheConfig(
        name="c", num_blocks=num_blocks, associativity=associativity,
        tag_latency=1, data_latency=1, replacement="lru",
    ))


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert_dirty", "touch", "clean"]),
            st.integers(min_value=0, max_value=127),
        ),
        max_size=200,
    )
)
def test_ref_cache_matches_real_lru_cache(ops):
    real = real_cache()
    ref = RefLruCache(32, 4)
    for op, addr in ops:
        if op in ("insert", "insert_dirty"):
            dirty = op == "insert_dirty"
            evicted = real.insert(addr, dirty=dirty)
            ref_evicted = ref.insert(addr, dirty=dirty)
            got = (evicted.addr, evicted.dirty) if evicted else None
            assert got == ref_evicted
        elif op == "touch":
            assert real.touch(addr) == ref.touch(addr)
        else:
            if real.contains(addr):
                real.mark_clean(addr)
                ref.mark_clean(addr)
        assert real.contains(addr) == ref.contains(addr)
    blocks = {b.addr for b in real.iter_valid_blocks()}
    dirty = {b.addr for b in real.iter_valid_blocks() if b.dirty}
    assert blocks == ref.blocks()
    assert dirty == ref.dirty_blocks()


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["dirty", "clean", "query"]),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=250,
    )
)
def test_ref_dbi_matches_real_dbi(ops):
    config = DbiConfig(
        cache_blocks=256, alpha=Fraction(1, 2), granularity=8, associativity=4
    )
    real = DirtyBlockIndex(config)
    ref = RefDbi(config.num_entries, config.associativity, config.granularity)
    for op, addr in ops:
        if op == "dirty":
            eviction = real.mark_dirty(addr)
            ref_evicted = ref.mark_dirty(addr)
            got = sorted(eviction.dirty_blocks) if eviction else []
            assert got == ref_evicted
        elif op == "clean":
            if real.is_dirty(addr):
                real.mark_clean(addr)
                ref.mark_clean(addr)
            else:
                with pytest.raises(KeyError):
                    ref.mark_clean(addr)
        else:
            assert real.is_dirty(addr) == ref.is_dirty(addr)
    assert set(real.all_dirty_blocks()) == ref.dirty_blocks()
    assert real.entries() == ref.entries()


class TestRefDbiStrictness:
    def test_mark_clean_on_clean_block_raises(self):
        ref = RefDbi(16, 2, 8)
        with pytest.raises(KeyError):
            ref.mark_clean(5)
        ref.mark_dirty(4)
        with pytest.raises(KeyError):
            ref.mark_clean(5)  # same region, different offset

    def test_last_clean_drops_the_entry(self):
        ref = RefDbi(16, 2, 8)
        ref.mark_dirty(4)
        ref.mark_clean(4)
        assert ref.entries() == {}


class TestOracleMechanismGuards:
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            OracleMechanism("nonsense", RefLruCache(16, 4), 16)

    def test_dbi_mechanism_requires_ref_dbi(self):
        with pytest.raises(ValueError, match="needs a RefDbi"):
            OracleMechanism("dbi", RefLruCache(16, 4), 16)

    def test_only_writethrough_tolerates_unmodelled_llc(self):
        with pytest.raises(ValueError, match="needs a RefLruCache"):
            OracleMechanism("baseline", None, 16)
        OracleMechanism("skipcache", None, 16)  # fine

    def test_writethrough_counts_one_write_per_request(self):
        oracle = OracleMechanism("skipcache", None, 16)
        for addr in (1, 2, 1):
            oracle.writeback(addr)
        oracle.drain_background()
        assert oracle.writebacks == 3
        assert oracle.writeback_requests == 3
