"""Regression tests: SimulationResult.stats must cover every stat group.

Historically ``System._collect`` flattened only a subset of the groups that
``_all_stat_groups`` resets — the DBI, miss-predictor, L1/L2 cache and MSHR
groups were silently dropped, so ``dbi.*`` and ``predictor.*`` keys never
reached consumers (which then read 0 via ``.get(..., 0)``). These tests pin
collection and reset to the same group list, and pin the CLB accounting fix
(bypassed-but-resident blocks are not LLC misses).
"""

import pytest

from repro.sim.system import SimulationResult, run_system
from tests.sim.conftest import random_trace, small_config


def dbi_result(mechanism="dbi+awb+clb", refs=500, **overrides):
    trace = random_trace(refs=refs, write_fraction=0.4)
    return run_system(small_config(mechanism, **overrides), [trace])


class TestStatsCoverage:
    def test_dbi_and_predictor_groups_collected(self):
        result = dbi_result("dbi+awb+clb")
        assert any(k.startswith("dbi.") for k in result.stats)
        assert any(k.startswith("predictor.") for k in result.stats)
        # The DBI saw the writeback traffic: its counters are live, not 0.
        assert result.stats["dbi.queries"] > 0
        assert result.stats["dbi.writes"] > 0

    def test_private_cache_and_mshr_groups_collected(self):
        result = dbi_result("dbi")
        assert any(k.startswith("l1_core0.") for k in result.stats)
        assert any(k.startswith("l2_core0.") for k in result.stats)
        assert any(k.startswith("l1mshr0.") for k in result.stats)

    def test_per_core_groups_do_not_clobber(self):
        traces = [
            random_trace("a", refs=300, seed=1, write_fraction=0.4),
            random_trace("b", refs=300, seed=2, write_fraction=0.4),
        ]
        result = run_system(small_config(num_cores=2), traces)
        # Both cores' private-cache groups survive flattening side by side.
        for core in (0, 1):
            assert any(
                k.startswith(f"l1_core{core}.") for k in result.stats
            ), f"core {core} L1 stats missing"
            assert any(
                k.startswith(f"l2_core{core}.") for k in result.stats
            ), f"core {core} L2 stats missing"

    def test_collection_matches_reset_groups(self):
        """Every group _core_warmed resets must appear in the result."""
        from repro.sim.system import System

        trace = random_trace(refs=300, write_fraction=0.4)
        system = System(small_config("dbi+awb+clb"), [trace])
        expected = {group.name for group in system._all_stat_groups()}
        result = system.run()
        collected = {key.split(".")[0] for key in result.stats}
        assert expected == collected


class TestClbMpkiAccounting:
    def test_bypassed_hits_excluded_from_mpki(self):
        stats = {
            "mech.read_misses": 10,
            "mech.bypassed_lookups": 6,
            "mech.bypassed_hits": 4,
        }
        result = SimulationResult(
            mechanism="dbi+clb", trace_names=["t"], ipc=[1.0], cycles=[1000],
            instructions=[1000], total_instructions_issued=1000, stats=stats,
            events_processed=1,
        )
        # 10 true misses + (6 - 4) bypassed true misses = 12 per kilo-instr.
        assert result.llc_mpki == pytest.approx(12.0)

    def test_clb_mpki_matches_tadip(self):
        """Paper Section 6.1: CLB leaves LLC MPKI unchanged.

        Bypassed-but-resident blocks used to count as misses, inflating
        dbi+clb's MPKI over TA-DIP's on the same trace.
        """
        import dataclasses

        from repro.analysis.scaling import QUICK_SCALE

        scale = dataclasses.replace(
            QUICK_SCALE, name="tiny", refs_single_core=6_000
        )
        trace = scale.benchmark_trace("mcf")
        tadip = run_system(scale.system_config("tadip"), [trace])
        clb = run_system(
            scale.system_config("dbi+clb", predictor_epoch_cycles=2_000),
            [trace],
        )
        assert clb.stats.get("mech.bypassed_lookups", 0) > 0, (
            "trace too small to trigger CLB bypasses; regression test is vacuous"
        )
        assert clb.llc_mpki == pytest.approx(tadip.llc_mpki, rel=0.02)


class TestExportRule:
    """A stat is exported iff it was incremented at least once, by every
    reader of the stat records."""

    #: Stats a baseline run never increments (no row probes, no DBI, no
    #: bypass).
    NEVER = {"mech.row_probes", "mech.dbi_evictions", "mech.bypassed_lookups"}

    def run_baseline(self):
        from repro.sim.system import System
        from repro.telemetry.sampler import TelemetryConfig

        trace = random_trace(refs=400, write_fraction=0.4)
        system = System(
            small_config("baseline"),
            [trace],
            telemetry=TelemetryConfig(epoch_cycles=1_000),
        )
        return system, system.run()

    def test_never_incremented_stats_are_absent_everywhere(self):
        from repro.checkpoint.sampled import _read_raw_stats

        system, result = self.run_baseline()
        assert self.NEVER.isdisjoint(result.stats)
        assert self.NEVER.isdisjoint(system.telemetry._cumulative())
        counters, rates, dists = _read_raw_stats(system)
        assert self.NEVER.isdisjoint(counters)
        # The raw reads cover exactly the exported keys.
        rebuilt = set(counters)
        for key in rates:
            rebuilt |= {key, f"{key}.hits", f"{key}.total"}
        for key in dists:
            rebuilt |= {f"{key}.mean", f"{key}.count"}
        assert rebuilt == set(result.stats)

    def test_reset_keeps_every_exported_stat_as_zero(self):
        system, result = self.run_baseline()
        for group in system._all_stat_groups():
            before = group.as_dict()
            group.reset()
            after = group.as_dict()
            assert list(after) == list(before)
            assert all(value == 0 for value in after.values())
