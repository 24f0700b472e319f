"""Unit and property tests for the functional cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig


def make_cache(num_blocks=16, associativity=4, replacement="lru"):
    return Cache(
        CacheConfig(
            name="test",
            num_blocks=num_blocks,
            associativity=associativity,
            tag_latency=1,
            data_latency=1,
            replacement=replacement,
        )
    )


class TestBasicOperations:
    def test_insert_then_contains(self):
        cache = make_cache()
        cache.insert(0x10)
        assert cache.contains(0x10)
        assert not cache.contains(0x11)

    def test_lookup_hit_and_miss_counters(self):
        cache = make_cache()
        cache.insert(5)
        assert cache.lookup(5)
        assert not cache.lookup(6)
        flat = cache.stats.as_dict()
        assert flat["test.hits"] == 1
        assert flat["test.misses"] == 1

    def test_insert_existing_is_not_a_fill_eviction(self):
        cache = make_cache()
        cache.insert(5)
        assert cache.insert(5) is None
        assert cache.occupancy == 1

    def test_probe_does_not_touch_stats(self):
        cache = make_cache()
        cache.insert(5, dirty=True)
        assert cache.is_dirty(5) and not cache.is_dirty(6)
        assert cache.contains(5) and not cache.contains(6)
        assert cache.stats.as_dict().get("test.lookups", 0) == 0

    def test_invalidate(self):
        cache = make_cache()
        cache.insert(5, dirty=True)
        state = cache.invalidate(5)
        assert state.addr == 5
        assert state.dirty
        assert not cache.contains(5)
        assert cache.invalidate(5) is None


class TestEvictions:
    def test_fills_all_ways_before_evicting(self):
        cache = make_cache(num_blocks=8, associativity=2)  # 4 sets
        # Addresses 0, 4, 8 all map to set 0 (4 sets).
        assert cache.insert(0) is None
        assert cache.insert(4) is None
        evicted = cache.insert(8)
        assert evicted is not None
        assert evicted.addr == 0  # LRU victim

    def test_eviction_reports_dirty_state(self):
        cache = make_cache(num_blocks=8, associativity=2)
        cache.insert(0, dirty=True)
        cache.insert(4)
        evicted = cache.insert(8)
        assert evicted.addr == 0
        assert evicted.dirty

    def test_hit_changes_victim(self):
        cache = make_cache(num_blocks=8, associativity=2)
        cache.insert(0)
        cache.insert(4)
        cache.lookup(0)  # promote 0
        evicted = cache.insert(8)
        assert evicted.addr == 4

    def test_eviction_counters(self):
        cache = make_cache(num_blocks=8, associativity=2)
        cache.insert(0, dirty=True)
        cache.insert(4)
        cache.insert(8)
        cache.insert(12)
        flat = cache.stats.as_dict()
        assert flat["test.evictions"] == 2
        assert flat["test.dirty_evictions"] == 1

    def test_owner_core_travels_with_eviction(self):
        cache = make_cache(num_blocks=8, associativity=2)
        cache.insert(0, core_id=3)
        cache.insert(4)
        evicted = cache.insert(8)
        assert evicted.owner_core == 3


class TestDirtyBits:
    def test_mark_dirty_and_clean(self):
        cache = make_cache()
        cache.insert(5)
        assert not cache.is_dirty(5)
        assert cache.mark_dirty(5)
        assert cache.is_dirty(5)
        assert cache.mark_clean(5)
        assert not cache.is_dirty(5)

    def test_mark_dirty_absent_block(self):
        cache = make_cache()
        assert not cache.mark_dirty(5)
        assert not cache.is_dirty(5)

    def test_insert_dirty_or_semantics(self):
        cache = make_cache()
        cache.insert(5, dirty=True)
        cache.insert(5, dirty=False)  # re-insert must not clean it
        assert cache.is_dirty(5)

    def test_dirty_count(self):
        cache = make_cache()
        cache.insert(1, dirty=True)
        cache.insert(2)
        cache.insert(3, dirty=True)
        assert cache.dirty_count == 2


class TestTouch:
    def test_touch_promotes_without_stats(self):
        cache = make_cache(num_blocks=8, associativity=2)
        cache.insert(0)
        cache.insert(4)
        assert cache.touch(0)
        cache.insert(8)
        assert cache.contains(0)  # 4 was evicted instead
        assert cache.stats.as_dict().get("test.lookups", 0) == 0

    def test_touch_absent_returns_false(self):
        cache = make_cache()
        assert not cache.touch(99)


class TestLruHalf:
    def test_lru_half_for_stack_policy(self):
        cache = make_cache(num_blocks=8, associativity=4)
        half = cache.lru_half_ways(0)
        assert len(half) == 2

    def test_lru_half_for_non_stack_policy(self):
        cache = make_cache(num_blocks=8, associativity=4, replacement="srrip")
        assert cache.lru_half_ways(0) == [0, 1]


class ReferenceCache:
    """Dict-based reference model for property testing."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [dict() for _ in range(num_sets)]  # addr -> dirty

    def insert(self, addr, dirty):
        s = self.sets[addr % self.num_sets]
        if addr in s:
            s[addr] = s[addr] or dirty
            return
        if len(s) >= self.ways:
            # We don't model which victim; only occupancy invariants.
            victim = next(iter(s))
            del s[victim]
        s[addr] = dirty

    def occupancy(self):
        return sum(len(s) for s in self.sets)


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
        max_size=200,
    )
)
def test_structural_invariants_under_random_traffic(ops):
    """Occupancy never exceeds capacity; presence index stays consistent."""
    cache = make_cache(num_blocks=16, associativity=4)
    for addr, dirty in ops:
        cache.insert(addr, dirty=dirty)
        assert cache.occupancy <= 16
        # Every valid block is cached once, in the set it hashes to, at the
        # way the lookup map names.
        blocks = [block.addr for block in cache.iter_valid_blocks()]
        assert len(blocks) == len(set(blocks)) == cache.occupancy
        for at, block_addr in enumerate(cache._addr):
            if block_addr != -1:
                assert divmod(at, 4) == (
                    cache.set_index(block_addr), cache._where[block_addr]
                )
        if cache.contains(addr):
            assert addr in blocks


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "lookup", "invalidate", "dirty"]),
                  st.integers(min_value=0, max_value=31)),
        max_size=300,
    )
)
def test_presence_matches_shadow_set(ops):
    """The cache's contains() agrees with a shadow model of live addresses."""
    cache = make_cache(num_blocks=64, associativity=64)  # fully associative
    shadow = set()
    for op, addr in ops:
        if op == "insert":
            if len(shadow) < 64 or addr in shadow:
                cache.insert(addr)
                shadow.add(addr)
        elif op == "lookup":
            assert cache.lookup(addr) == (addr in shadow)
        elif op == "invalidate":
            cache.invalidate(addr)
            shadow.discard(addr)
        else:
            assert cache.mark_dirty(addr) == (addr in shadow)
    assert cache.occupancy == len(shadow)
