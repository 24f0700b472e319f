"""End-to-end integration tests: full systems, paper-shaped assertions.

These run small-but-real simulations (quick scale, reduced refs) and assert
the *relationships* the paper's evaluation rests on, not absolute numbers.
The Figure 6b/6c write row-hit and tag-lookup claims live in
tests/test_paper_claims.py with the rest of Section 6.
"""

import pytest

from repro.analysis.scaling import QUICK_SCALE
from repro.sim.system import System, run_system

REFS = 8_000  # enough for steady state at quick scale, fast enough for CI


def bench(name):
    return QUICK_SCALE.benchmark_trace(name, refs=REFS)


def run(mechanism, trace, **overrides):
    return run_system(QUICK_SCALE.system_config(mechanism, **overrides), [trace])


class TestReadPathUnchanged:
    """Paper Section 6.1: DBI does not change the read hit rate."""

    def test_llc_mpki_unchanged_without_clb(self):
        trace = bench("GemsFDTD")
        base = run("tadip", trace)
        dbi = run("dbi+awb", trace)
        assert dbi.llc_mpki == pytest.approx(base.llc_mpki, rel=0.05)


class TestCacheFriendlyWorkloadsUnharmed:
    """Paper Figure 6: no visible impact where the LLC absorbs the traffic."""

    @pytest.mark.parametrize("name", ["bzip2", "astar"])
    def test_ipc_within_three_percent(self, name):
        trace = bench(name)
        base = run("tadip", trace)
        dbi = run("dbi+awb+clb", trace)
        assert dbi.ipc[0] > 0.97 * base.ipc[0]


class TestDbiInvariantsEndToEnd:
    """The paper's DBI semantics hold through a full timing simulation."""

    @pytest.mark.parametrize("name", ["lbm", "mcf", "bzip2"])
    def test_invariants_after_full_run(self, name):
        system = System(
            QUICK_SCALE.system_config("dbi+awb+clb"),
            [QUICK_SCALE.benchmark_trace(name, refs=REFS)],
        )
        system.run()
        system.mechanism.check_invariants()
        assert system.hierarchy.is_idle()
        assert system.memory.is_idle()

    def test_dirty_blocks_bounded_by_alpha(self):
        system = System(
            QUICK_SCALE.system_config("dbi"),
            [QUICK_SCALE.benchmark_trace("lbm", refs=REFS)],
        )
        system.run()
        dbi = system.mechanism.dbi
        assert dbi.live_dirty_blocks <= dbi.config.tracked_blocks


class TestSkipCacheWriteThrough:
    """Skip Cache's write-through policy costs write bandwidth (Section 6)."""

    def test_skipcache_writes_more_than_tadip(self):
        trace = bench("cactusADM")
        tadip = run("tadip", trace)
        skip = run("skipcache", trace)
        assert skip.memory_wpki > tadip.memory_wpki


class TestEndToEndDeterminism:
    def test_full_system_bit_identical(self):
        trace = bench("milc")
        a = run("dbi+awb+clb", trace)
        b = run("dbi+awb+clb", trace)
        assert a.stats == b.stats
        assert a.events_processed == b.events_processed
