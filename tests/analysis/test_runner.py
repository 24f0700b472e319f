"""Tests for the parallel, cached sweep engine."""

import dataclasses
import json
import os
import pickle

import pytest

from repro.analysis.runner import (
    SweepJob,
    SweepRunner,
    default_workers,
    job_key,
)
from repro.analysis.scaling import QUICK_SCALE
from repro.sim.system import SimulationResult
from tests.sim.conftest import random_trace, small_config

#: A tiny profile so pool-backed tests stay fast.
TINY = dataclasses.replace(
    QUICK_SCALE,
    name="tiny",
    refs_single_core=3_000,
    refs_per_core_multi=2_000,
    mixes_per_system=2,
)


def tiny_job(mechanism="baseline", refs=300, seed=7):
    config = small_config(mechanism)
    trace = random_trace(refs=refs, seed=seed, write_fraction=0.4)
    return config, [trace]


class TestJobKey:
    def test_stable_across_calls(self):
        config, traces = tiny_job()
        assert job_key(config, traces) == job_key(config, traces)

    def test_sensitive_to_config(self):
        config, traces = tiny_job()
        other = dataclasses.replace(config, mechanism="tadip")
        assert job_key(config, traces) != job_key(other, traces)

    def test_sensitive_to_trace_content(self):
        config, traces = tiny_job(seed=7)
        _, other_traces = tiny_job(seed=8)
        assert job_key(config, traces) != job_key(config, other_traces)

    def test_sensitive_to_event_budget(self):
        config, traces = tiny_job()
        assert job_key(config, traces) != job_key(config, traces, max_events=10)


class TestPicklability:
    def test_job_and_result_round_trip(self):
        """Process-pool dispatch needs job specs and results to pickle."""
        config, traces = tiny_job()
        job = SweepJob(0, job_key(config, traces), config, tuple(traces))
        restored = pickle.loads(pickle.dumps(job))
        assert restored.config == config
        assert restored.traces[0].records == traces[0].records

        runner = SweepRunner(workers=0, cache_dir=None)
        result = runner.run(config, traces)
        assert pickle.loads(pickle.dumps(result)).to_json() == result.to_json()

    def test_result_dict_round_trip(self):
        config, traces = tiny_job()
        result = SweepRunner(workers=0, cache_dir=None).run(config, traces)
        rebuilt = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.to_json() == result.to_json()


class TestMemoization:
    def test_repeated_submissions_coalesce(self):
        runner = SweepRunner(workers=0, cache_dir=None)
        config, traces = tiny_job()
        first = runner.submit(config, traces)
        second = runner.submit(config, traces)
        assert first is second
        assert runner.jobs_executed == 1
        assert runner.memo_hits == 1

    def test_disk_cache_resumes_across_runners(self, tmp_path):
        cache = str(tmp_path / "cache")
        config, traces = tiny_job()
        cold = SweepRunner(workers=0, cache_dir=cache)
        cold_result = cold.run(config, traces)
        assert cold.jobs_executed == 1
        assert os.listdir(cache)  # entry written

        warm = SweepRunner(workers=0, cache_dir=cache)
        warm_result = warm.run(config, traces)
        assert warm.jobs_executed == 0
        assert warm.cache_hits == 1
        assert warm_result.to_json() == cold_result.to_json()

    def test_corrupt_cache_entry_is_ignored(self, tmp_path):
        cache = str(tmp_path / "cache")
        config, traces = tiny_job()
        runner = SweepRunner(workers=0, cache_dir=cache)
        runner.run(config, traces)
        (entry,) = os.listdir(cache)
        with open(os.path.join(cache, entry), "w") as handle:
            handle.write("{not json")
        rerun = SweepRunner(workers=0, cache_dir=cache)
        rerun.run(config, traces)
        assert rerun.jobs_executed == 1  # fell back to simulating

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        cache = str(tmp_path / "cache")
        config, traces = tiny_job()
        runner = SweepRunner(workers=0, cache_dir=cache, use_cache=False)
        runner.run(config, traces)
        assert not os.path.exists(cache)


class TestDeterminism:
    """Same seed through any execution mode yields byte-identical results."""

    def test_serial_parallel_and_cached_agree(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = [tiny_job("dbi+awb+clb"), tiny_job("tadip"), tiny_job("dawb")]

        serial = SweepRunner(workers=1, cache_dir=None)
        serial_json = [serial.run(c, t).to_json() for c, t in jobs]

        with SweepRunner(workers=4, cache_dir=cache) as parallel:
            futures = [parallel.submit(c, t) for c, t in jobs]
            parallel_json = [f.result().to_json() for f in futures]
        assert parallel.jobs_executed == len(jobs)

        warm = SweepRunner(workers=4, cache_dir=cache)
        warm_json = [warm.run(c, t).to_json() for c, t in jobs]
        warm.close()
        assert warm.jobs_executed == 0
        assert warm.cache_hits == len(jobs)

        assert serial_json == parallel_json == warm_json


class TestExperimentIntegration:
    def test_figure6_identical_with_and_without_runner(self, tmp_path):
        from repro.analysis.experiments import run_figure6

        plain = run_figure6(TINY, benchmarks=("bzip2",), mechanisms=("tadip",))
        with SweepRunner(workers=2, cache_dir=str(tmp_path / "c")) as runner:
            swept = run_figure6(
                TINY, benchmarks=("bzip2",), mechanisms=("tadip",),
                runner=runner,
            )
        for exp_id in plain:
            assert plain[exp_id].rows == swept[exp_id].rows

    def test_shared_baselines_computed_once(self):
        """Artifacts sharing runs (fig7 & table3 baselines) coalesce."""
        from repro.analysis.experiments import run_figure7, run_table3

        runner = SweepRunner(workers=0, cache_dir=None)
        run_figure7(TINY, core_counts=(2,), mechanisms=("baseline", "dbi"),
                    mixes_per_system=2, runner=runner)
        executed_after_fig7 = runner.jobs_executed
        # Two mixes x two mechanisms, plus one alone run per core trace;
        # repeated alone requests (one per mechanism) coalesce.
        assert executed_after_fig7 == 2 * 2 + 2 * 2
        # Table 3 re-requests the same baseline mixes and alone-mode runs;
        # only its dbi+awb+clb shared runs are new simulations.
        run_table3(TINY, core_counts=(2,), mechanism="dbi+awb+clb",
                   mixes_per_system=2, runner=runner)
        assert runner.memo_hits > 0
        assert runner.jobs_executed - executed_after_fig7 == 2
        assert runner.jobs_executed == runner.jobs_submitted

    def test_progress_lines_emitted(self):
        lines = []
        runner = SweepRunner(workers=0, cache_dir=None, progress=lines.append)
        config, traces = tiny_job()
        runner.run(config, traces)
        runner.run(config, traces)  # coalesced: no second line
        assert len(lines) == 1
        assert "baseline" in lines[0] and "miss" in lines[0]


class TestDefaults:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_negative_workers_rejected_by_name(self):
        # A negative count once ran every job inline, as 0 does.
        with pytest.raises(ValueError, match="workers must be non-negative"):
            SweepRunner(workers=-3, cache_dir=None)

    def test_summary_mentions_counts(self):
        runner = SweepRunner(workers=0, cache_dir=None)
        config, traces = tiny_job()
        runner.run(config, traces)
        summary = runner.summary()
        assert "1 jobs" in summary and "1 simulated" in summary
