"""Unit tests for scale profiles."""

import pytest

from repro.analysis.scaling import (
    DEFAULT_SCALE,
    FULL_SCALE,
    QUICK_SCALE,
    SCALES,
)


class TestScaleProfiles:
    def test_registry(self):
        assert set(SCALES) == {"quick", "default", "full"}

    def test_divisors_ordered(self):
        assert QUICK_SCALE.divisor > DEFAULT_SCALE.divisor > FULL_SCALE.divisor
        assert FULL_SCALE.divisor == 1

    def test_full_scale_matches_paper_machine(self):
        config = FULL_SCALE.system_config("dbi+awb+clb", num_cores=4)
        assert config.llc.num_blocks * 64 == 8 * 1024 * 1024  # 2MB/core
        assert config.l1.num_blocks * 64 == 32 * 1024
        assert config.l2.num_blocks * 64 == 256 * 1024
        assert config.dram.row_buffer_blocks == 128
        assert config.dbi_granularity == 64

    def test_scaled_machine_preserves_ratios(self):
        full = FULL_SCALE.system_config("dbi", num_cores=1)
        scaled = DEFAULT_SCALE.system_config("dbi", num_cores=1)
        assert full.llc.num_blocks // scaled.llc.num_blocks == 8
        assert full.l2.num_blocks // scaled.l2.num_blocks == 8
        # Granularity : row ratio is preserved (half a row).
        assert scaled.dbi_granularity * 2 == scaled.dram.row_buffer_blocks

    def test_dbi_entry_count_preserved(self):
        """The scaled DBI keeps the paper's 128 entries (α=1/4, g=row/2)
        wherever the DRAM row can scale exactly (divisor <= 8); the quick
        profile's 16-block row floor halves that once more."""
        for scale, expected in ((FULL_SCALE, 128), (DEFAULT_SCALE, 128),
                                (QUICK_SCALE, 64)):
            config = scale.system_config("dbi", num_cores=1)
            tracked = int(config.llc.num_blocks * config.dbi_alpha)
            assert tracked // config.dbi_granularity == expected

    def test_traces_scale_with_machine(self):
        full = FULL_SCALE.benchmark_trace("mcf", refs=1000)
        quick = QUICK_SCALE.benchmark_trace("mcf", refs=1000)
        assert quick.footprint_blocks < full.footprint_blocks

    def test_mixes_generate(self):
        mixes = QUICK_SCALE.mixes(2, count=2)
        assert len(mixes) == 2
        assert all(mix.num_cores == 2 for mix in mixes)

    def test_mechanism_replacement_resolution(self):
        baseline = QUICK_SCALE.system_config("baseline")
        dbi = QUICK_SCALE.system_config("dbi")
        assert baseline.resolve_llc().replacement == "lru"
        assert dbi.resolve_llc().replacement == "tadip"


class TestExplicitZeroCounts:
    """An explicit 0 is a bad argument, not a request for the default."""

    def test_benchmark_trace_rejects_zero_refs(self):
        with pytest.raises(ValueError, match="num_refs must be positive"):
            QUICK_SCALE.benchmark_trace("lbm", refs=0)

    def test_mixes_reject_zero_count_and_refs(self):
        with pytest.raises(ValueError, match="count must be positive"):
            QUICK_SCALE.mixes(2, count=0)
        with pytest.raises(ValueError, match="refs_per_core must be positive"):
            QUICK_SCALE.mixes(2, count=1, refs_per_core=0)

    def test_mix_specs_reject_zero_count(self):
        with pytest.raises(ValueError, match="count must be positive"):
            QUICK_SCALE.mix_specs(2, count=0)

    def test_mix_for_rejects_zero_refs(self):
        spec = QUICK_SCALE.mix_specs(2)[0]
        with pytest.raises(ValueError, match="refs_per_core must be positive"):
            QUICK_SCALE.mix_for(spec, refs_per_core=0)

    def test_none_still_means_the_scale_default(self):
        trace = QUICK_SCALE.benchmark_trace("lbm")
        assert len(trace.records) == QUICK_SCALE.refs_single_core
        assert len(QUICK_SCALE.mix_specs(2)) == QUICK_SCALE.mixes_per_system
