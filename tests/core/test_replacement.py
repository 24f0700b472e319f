"""Unit tests for DBI replacement policies."""

import pytest

from repro.core.replacement import (
    LrwBipPolicy,
    LrwPolicy,
    MaxDirtyPolicy,
    MinDirtyPolicy,
    RwipPolicy,
    make_dbi_policy,
)
from repro.utils.rng import DeterministicRng


def bitvectors_with_counts(counts):
    return [(1 << count) - 1 for count in counts]


class TestLrw:
    def test_victim_is_least_recently_written(self):
        policy = LrwPolicy(num_sets=1, num_ways=3)
        for way in (0, 1, 2):
            policy.on_insert(0, way)
        policy.on_write(0, 0)
        assert policy.victim_way(0, []) == 1

    def test_insert_is_most_recent(self):
        policy = LrwPolicy(num_sets=1, num_ways=2)
        policy.on_insert(0, 0)
        assert policy.victim_way(0, []) == 1

    def test_invalidate_becomes_next_victim(self):
        policy = LrwPolicy(num_sets=1, num_ways=3)
        for way in (0, 1, 2):
            policy.on_insert(0, way)
        policy.on_invalidate(0, 2)
        assert policy.victim_way(0, []) == 2


class TestLrwBip:
    def test_most_inserts_go_to_lrw_end(self):
        policy = LrwBipPolicy(num_sets=1, num_ways=4, rng=DeterministicRng(2))
        stayed_lrw = 0
        for _ in range(640):
            policy.on_insert(0, 2)
            if policy.victim_way(0, []) == 2:
                stayed_lrw += 1
        assert stayed_lrw > 600

    def test_writes_still_promote(self):
        policy = LrwBipPolicy(num_sets=1, num_ways=2, rng=DeterministicRng(2))
        policy.on_insert(0, 0)
        policy.on_write(0, 0)
        assert policy.victim_way(0, []) == 1


class TestRwip:
    def test_insert_long_not_distant(self):
        policy = RwipPolicy(num_sets=1, num_ways=2)
        policy.on_insert(0, 0)
        assert policy.victim_way(0, []) == 1  # untouched way still distant

    def test_write_promotes(self):
        policy = RwipPolicy(num_sets=1, num_ways=2)
        policy.on_insert(0, 0)
        policy.on_insert(0, 1)
        policy.on_write(0, 0)
        assert policy.victim_way(0, []) == 1

    def test_aging_terminates(self):
        policy = RwipPolicy(num_sets=1, num_ways=2)
        for way in (0, 1):
            policy.on_insert(0, way)
            policy.on_write(0, way)
        assert policy.victim_way(0, []) in (0, 1)


class TestCountPolicies:
    def test_max_dirty_picks_fullest(self):
        policy = MaxDirtyPolicy(num_sets=1, num_ways=3)
        bitvectors = bitvectors_with_counts([2, 7, 4])
        assert policy.victim_way(0, bitvectors) == 1

    def test_min_dirty_picks_emptiest(self):
        policy = MinDirtyPolicy(num_sets=1, num_ways=3)
        bitvectors = bitvectors_with_counts([2, 7, 4])
        assert policy.victim_way(0, bitvectors) == 0

    def test_ties_break_to_first(self):
        policy = MaxDirtyPolicy(num_sets=1, num_ways=3)
        bitvectors = bitvectors_with_counts([5, 5, 5])
        assert policy.victim_way(0, bitvectors) == 0


class TestFactory:
    def test_all_names(self):
        for name, cls in [
            ("lrw", LrwPolicy),
            ("lrw-bip", LrwBipPolicy),
            ("rwip", RwipPolicy),
            ("max-dirty", MaxDirtyPolicy),
            ("min-dirty", MinDirtyPolicy),
        ]:
            assert isinstance(make_dbi_policy(name, 4, 4), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_dbi_policy("belady", 4, 4)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LrwPolicy(num_sets=0, num_ways=4)
