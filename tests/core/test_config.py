"""Unit tests for DbiConfig."""

from fractions import Fraction

import pytest

from repro.core.config import DbiConfig


def make(cache_blocks=4096, alpha=Fraction(1, 4), granularity=16, associativity=4):
    return DbiConfig(
        cache_blocks=cache_blocks,
        alpha=alpha,
        granularity=granularity,
        associativity=associativity,
    )


class TestGeometry:
    def test_paper_default_sizing(self):
        # 2MB cache (32768 blocks), alpha=1/4, granularity=64 -> 128 entries.
        config = DbiConfig(cache_blocks=32768, granularity=64, associativity=16)
        assert config.tracked_blocks == 8192
        assert config.num_entries == 128
        assert config.num_sets == 8

    def test_tracked_blocks_scales_with_alpha(self):
        assert make(alpha=Fraction(1, 2)).tracked_blocks == 2048
        assert make(alpha=Fraction(1, 4)).tracked_blocks == 1024
        assert make(alpha=Fraction(1, 2)).num_entries == 2 * make().num_entries

    def test_float_alpha_converted(self):
        config = make(alpha=0.5)
        assert config.alpha == Fraction(1, 2)

    def test_no_entries_rejected(self):
        with pytest.raises(ValueError):
            DbiConfig(cache_blocks=64, alpha=Fraction(1, 4), granularity=64)

    def test_fewer_entries_than_ways_rejected(self):
        with pytest.raises(ValueError):
            make(cache_blocks=256, granularity=16, associativity=16)

    def test_non_power_of_two_granularity_rejected(self):
        with pytest.raises(ValueError):
            make(granularity=48)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            make(alpha=Fraction(-1, 4))


class TestAddressMath:
    def test_region_and_offset(self):
        config = make(granularity=16)
        assert config.region_of(0) == 0
        assert config.region_of(15) == 0
        assert config.region_of(16) == 1
        assert config.offset_of(17) == 1

    def test_block_of_round_trip(self):
        config = make(granularity=16)
        for addr in (0, 1, 15, 16, 1000, 12345):
            assert config.block_of(config.region_of(addr), config.offset_of(addr)) == addr

    def test_block_of_rejects_bad_offset(self):
        config = make(granularity=16)
        with pytest.raises(ValueError):
            config.block_of(0, 16)

    def test_set_mapping_in_range(self):
        config = make()
        for region in range(1000):
            assert 0 <= config.set_of(region) < config.num_sets
