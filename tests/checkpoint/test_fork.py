"""Fork-from-warm behavior: warm-image production and mechanism swaps."""

import dataclasses

import pytest

from repro.analysis.scaling import QUICK_SCALE
from repro.checkpoint import (
    CheckpointError,
    fork_system,
    quiesce,
    rebase_measurement,
    restore_system,
    run_until_warm,
    snapshot_system,
    warm_config_for,
)
from repro.sim.system import System

REFS = 3_000


def quick_config(mechanism):
    return QUICK_SCALE.system_config(mechanism)


def quick_trace(benchmark="mcf"):
    return QUICK_SCALE.benchmark_trace(benchmark, refs=REFS)


def warm_group_image(config):
    """``config``'s fork-group warm image, warmed in 2,000-event chunks.

    The fine chunk keeps the warmup-boundary overshoot small relative to
    this deliberately tiny trace — the default 25k-event chunk would blow
    through most of the run before the boundary poll fires.
    """
    system = System(warm_config_for(config), [quick_trace()])
    run_until_warm(system, chunk_events=2_000)
    quiesce(system)
    rebase_measurement(system)
    return snapshot_system(system)


@pytest.fixture(scope="module")
def warm_image_bytes():
    """One warm image shared (read-only) by every test in this module."""
    return warm_group_image(quick_config("dbi"))


class TestWarmConfig:
    def test_mechanism_normalized_away(self):
        for mechanism in ("dbi", "dbi+awb+clb", "vwq", "tadip"):
            warm = warm_config_for(quick_config(mechanism))
            assert warm.mechanism == "tadip"  # quick scale LLC uses TA-DIP

    def test_baseline_group_warms_under_baseline(self):
        config = dataclasses.replace(
            quick_config("baseline"), llc_replacement="lru"
        )
        assert warm_config_for(config).mechanism == "baseline"

    def test_idempotent(self):
        warm = warm_config_for(quick_config("dbi+awb"))
        assert warm_config_for(warm) == warm

    def test_llc_resolution_pinned(self):
        # Every cell of a group must agree on the resolved LLC, whatever
        # mechanism-dependent resolution would otherwise do.
        group = {
            warm_config_for(quick_config(m)).resolve_llc()
            for m in ("tadip", "dbi", "dbi+awb+clb", "vwq", "dawb")
        }
        assert len(group) == 1


class TestWarmImage:
    def test_warm_image_is_paused_and_drained(self, warm_image_bytes):
        system = restore_system(warm_image_bytes)
        assert system.hierarchy.is_idle()
        assert all(core._paused for core in system.cores)
        assert system._warmed == len(system.cores)

    def test_measurement_rebased(self, warm_image_bytes):
        system = restore_system(warm_image_bytes)
        for group in system._all_stat_groups():
            for value in group.as_dict().values():
                assert not value, "warm image must carry zeroed stats"


class TestFork:
    def test_fork_cells_differentiate(self, warm_image_bytes):
        results = {}
        for mechanism in ("tadip", "dbi", "dbi+awb+clb"):
            system = restore_system(warm_image_bytes)
            fork_system(system, quick_config(mechanism))
            results[mechanism] = system.resume()
        for mechanism, result in results.items():
            assert result.ipc[0] > 0, mechanism
            assert result.total_instructions_issued > 0, mechanism
        # DBI changes tag-lookup traffic relative to the tag-dirty group.
        assert (
            results["dbi"].tag_lookups_pki != results["tadip"].tag_lookups_pki
        )

    def test_fork_is_deterministic(self, warm_image_bytes):
        outcomes = []
        for _ in range(2):
            system = restore_system(warm_image_bytes)
            fork_system(system, quick_config("dbi+awb"))
            outcomes.append(system.resume().to_dict())
        assert outcomes[0] == outcomes[1]

    def test_dbi_fork_adopts_dirty_state(self, warm_image_bytes):
        system = restore_system(warm_image_bytes)
        dirty_before = system.llc.dirty_count
        assert dirty_before > 0, "warm image should hold dirty blocks"
        fork_system(system, quick_config("dbi"))
        # In-tag dirty bits moved into the DBI (capacity overflow may have
        # evicted some entries, so <=, but the tags must be clean).
        assert system.llc.dirty_count == 0
        assert system.mechanism.dbi.live_dirty_blocks <= dirty_before
        assert system.mechanism.dbi.live_dirty_blocks > 0

    def test_skipcache_fork_drops_dirty_state(self, warm_image_bytes):
        system = restore_system(warm_image_bytes)
        fork_system(system, quick_config("skipcache"))
        assert system.llc.dirty_count == 0

    def test_fork_refuses_different_llc(self, warm_image_bytes):
        system = restore_system(warm_image_bytes)
        config = quick_config("dbi")
        resolved = config.resolve_llc()
        llc = dataclasses.replace(
            resolved, associativity=resolved.associativity * 2
        )
        with pytest.raises(CheckpointError, match="different LLC"):
            fork_system(system, dataclasses.replace(config, llc=llc))

    def test_fork_refuses_busy_system(self):
        trace = quick_trace()
        system = System(quick_config("tadip"), [trace])
        for core in system.cores:
            core.start()
        system.queue.run(max_events=5_000)
        assert not system.hierarchy.is_idle()
        with pytest.raises(CheckpointError, match="quiesce"):
            fork_system(system, quick_config("dbi"))

    def test_fork_refuses_adding_dram_cache_level(self, warm_image_bytes):
        # The warm image ran without a stacked level; a cell with one would
        # start from a cold level the group never warmed.
        system = restore_system(warm_image_bytes)
        config = dataclasses.replace(
            quick_config("dbi"),
            dram_cache=QUICK_SCALE.dram_cache_config(),
        )
        with pytest.raises(CheckpointError, match="DRAM-cache"):
            fork_system(system, config)

    def test_forked_cell_can_be_sampled_after_quiesce(self, warm_image_bytes):
        from repro.checkpoint import run_windows
        from repro.checkpoint.sampled import SampledConfig

        system = restore_system(warm_image_bytes)
        fork_system(system, quick_config("dbi+awb+clb"))
        quiesce(system)  # drain dirty-adoption writeback probes
        outcome = run_windows(
            system, SampledConfig(windows=4, window_cycles=1_500)
        )
        assert outcome.windows_run >= 2
        assert outcome.result.ipc[0] > 0


class TestForkWithDramCache:
    """The stacked level sits outside the mechanism swap (see fork.py)."""

    @pytest.fixture(scope="class")
    def warm_level_image_bytes(self):
        config = dataclasses.replace(
            quick_config("dbi"),
            dram_cache=QUICK_SCALE.dram_cache_config(dirty_backend="dbi"),
        )
        return warm_group_image(config)

    def test_fork_adopts_stacked_state_unchanged(self, warm_level_image_bytes):
        system = restore_system(warm_level_image_bytes)
        contents = {b.addr for b in system.dram_cache.tags.iter_valid_blocks()}
        dirty = set(system.dram_cache.dirty_blocks())
        assert contents, "warm image should hold a populated level"
        config = dataclasses.replace(
            quick_config("tadip"), dram_cache=system.config.dram_cache
        )
        fork_system(system, config)
        # The mechanism swap rebinds its memory handle to the same level;
        # contents and the level's own dirty domain carry over untouched.
        assert system.mechanism.memory is system.dram_cache
        assert {
            b.addr for b in system.dram_cache.tags.iter_valid_blocks()
        } == contents
        assert set(system.dram_cache.dirty_blocks()) == dirty
        result = system.resume()
        assert result.ipc[0] > 0
        system.dram_cache.check_invariants()

    def test_fork_refuses_backend_change(self, warm_level_image_bytes):
        system = restore_system(warm_level_image_bytes)
        config = dataclasses.replace(
            quick_config("tadip"),
            dram_cache=QUICK_SCALE.dram_cache_config(dirty_backend="tag"),
        )
        with pytest.raises(CheckpointError, match="DRAM-cache"):
            fork_system(system, config)

    def test_fork_refuses_dropping_level(self, warm_level_image_bytes):
        system = restore_system(warm_level_image_bytes)
        with pytest.raises(CheckpointError, match="DRAM-cache"):
            fork_system(system, quick_config("tadip"))
