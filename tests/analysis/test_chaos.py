"""Tests for the chaos layer and the sweep runner's fault tolerance.

The headline guarantee: a sweep that survives injected worker crashes,
hangs and cache corruption produces results byte-identical to a fault-free
sweep — fault tolerance repairs execution, never data.

Hang-recovery tests wait out real wall-clock timeouts and are marked
``slow`` (run with ``pytest -m slow``, as tools/ci.sh does).
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.chaos import (
    CRASH_EXIT_CODE,
    ChaosConfig,
    FaultInjector,
    chaos_from_env,
    parse_chaos_spec,
)
from repro.analysis.runner import (
    CACHE_FORMAT,
    RetryPolicy,
    SweepJobError,
    SweepRunner,
    job_key,
)
from repro.check.errors import InvariantViolation
from repro.sim.system import MODEL_VERSION
from tests.analysis.test_runner import tiny_job

#: Fast backoff so retry tests don't sleep for real.
FAST = dict(backoff_base=0.01, backoff_factor=1.0, backoff_max=0.02)


def bad_job():
    """A job whose simulation fails deterministically (2 cores, 1 trace)."""
    config, traces = tiny_job()
    return dataclasses.replace(config, num_cores=2), traces


class TestChaosSpec:
    def test_full_spec_round_trip(self):
        chaos = parse_chaos_spec(
            "seed=7,crash=0.25,hang=0.5,corrupt=0.125,hang_seconds=20,"
            "crash_attempts=2,hang_attempts=1"
        )
        assert chaos == ChaosConfig(
            seed=7, crash=0.25, hang=0.5, corrupt=0.125, hang_seconds=20.0,
            crash_attempts=2, hang_attempts=1,
        )

    @pytest.mark.parametrize("spec", ["", "off", "none", "0", "false", None])
    def test_disabled_specs(self, spec):
        assert parse_chaos_spec(spec) is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bad chaos spec"):
            parse_chaos_spec("crash=0.5,typo=1")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_chaos_spec("crash=1.5")

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=3,crash=0.5")
        assert chaos_from_env() == ChaosConfig(seed=3, crash=0.5)
        monkeypatch.setenv("REPRO_CHAOS", "off")
        assert chaos_from_env() is None
        monkeypatch.delenv("REPRO_CHAOS")
        assert chaos_from_env() is None


class TestFaultInjectorDeterminism:
    def test_decisions_are_pure_functions_of_inputs(self):
        a = FaultInjector(ChaosConfig(seed=11, crash=0.5, hang=0.5, corrupt=0.5))
        b = FaultInjector(ChaosConfig(seed=11, crash=0.5, hang=0.5, corrupt=0.5))
        for key in ("k1", "k2", "k3"):
            for attempt in (1, 2, 3):
                assert a.should_crash(key, attempt) == b.should_crash(key, attempt)
                assert a.should_hang(key, attempt) == b.should_hang(key, attempt)
            assert a.should_corrupt(key) == b.should_corrupt(key)

    def test_decisions_vary_across_keys_and_seeds(self):
        chaos = ChaosConfig(seed=11, crash=0.5)
        injector = FaultInjector(chaos)
        keys = [f"key-{i}" for i in range(64)]
        decisions = [injector.should_crash(k, 1) for k in keys]
        assert any(decisions) and not all(decisions)  # ~50% either way
        other = FaultInjector(dataclasses.replace(chaos, seed=12))
        assert decisions != [other.should_crash(k, 1) for k in keys]

    def test_attempt_limits_gate_faults(self):
        injector = FaultInjector(
            ChaosConfig(crash=1.0, hang=1.0, crash_attempts=2, hang_attempts=1)
        )
        assert injector.should_crash("k", 1) and injector.should_crash("k", 2)
        assert not injector.should_crash("k", 3)
        assert injector.should_hang("k", 1)
        assert not injector.should_hang("k", 2)

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 13

    def test_corrupt_file_tears_the_tail(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"format": 1, "result": {"x": 1}}))
        FaultInjector(ChaosConfig(corrupt=1.0)).corrupt_file(str(path))
        with pytest.raises(ValueError):
            json.loads(path.read_text())


class TestCrashRecovery:
    def test_recovered_sweep_is_byte_identical(self, tmp_path):
        """Acceptance: fault rate >= 0.3 with --keep-going; recovered
        results match a fault-free sweep byte for byte and nothing is
        reported failed."""
        jobs = [tiny_job("baseline"), tiny_job("dbi"), tiny_job("dbi+awb")]
        with SweepRunner(workers=0, cache_dir=None) as clean:
            reference = [clean.run(c, t).to_json() for c, t in jobs]

        chaos = ChaosConfig(seed=7, crash=0.5, crash_attempts=2)
        with SweepRunner(
            workers=3, cache_dir=str(tmp_path / "cache"), chaos=chaos,
            keep_going=True,
            retry=RetryPolicy(max_attempts=5, **FAST),
        ) as runner:
            futures = [runner.submit(c, t) for c, t in jobs]
            recovered = [f.result().to_json() for f in futures]

        assert recovered == reference
        assert runner.jobs_failed == 0 and not runner.failures
        assert runner.jobs_retried > 0  # chaos actually fired
        assert runner.pool_deaths > 0

    def test_worker_crash_retries_and_succeeds(self):
        """The same job: a crash on attempt 1 retries with backoff and
        completes on attempt 2."""
        config, traces = tiny_job()
        chaos = ChaosConfig(seed=1, crash=1.0, crash_attempts=1)
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos,
            retry=RetryPolicy(max_attempts=3, **FAST),
        ) as runner:
            future = runner.submit(config, traces)
            result = future.result()
        assert result.ipc  # completed
        assert future.attempts == 2
        assert runner.jobs_retried == 1 and runner.jobs_failed == 0

    def test_exhausted_job_fails_with_crash_kind(self, tmp_path):
        config, traces = tiny_job()
        chaos = ChaosConfig(seed=1, crash=1.0)  # every attempt dies
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos, keep_going=True,
            retry=RetryPolicy(max_attempts=2, **FAST),
        ) as runner:
            future = runner.submit(config, traces)
            with pytest.raises(SweepJobError) as excinfo:
                future.result()
        failure = excinfo.value.failure
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert runner.jobs_failed == 1

    def test_degrades_to_inline_after_pool_death_limit(self):
        """Past max_pool_deaths the runner stops trusting process isolation;
        inline execution never applies crash chaos, so the job completes."""
        config, traces = tiny_job()
        chaos = ChaosConfig(seed=1, crash=1.0)
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos,
            retry=RetryPolicy(max_attempts=4, max_pool_deaths=1, **FAST),
        ) as runner:
            result = runner.submit(config, traces).result()
        assert result.ipc
        assert runner.degraded_inline
        assert "degraded to inline" in runner.summary()


class TestFatalErrors:
    def test_deterministic_error_surfaces_after_one_attempt(self):
        """A deterministic simulation exception must not be retried: the
        acceptance criterion is exactly one attempt, even though the retry
        policy would allow three."""
        config, traces = bad_job()
        with SweepRunner(
            workers=2, cache_dir=None,
            retry=RetryPolicy(max_attempts=3, **FAST),
        ) as runner:
            future = runner.submit(config, traces)
            with pytest.raises(SweepJobError) as excinfo:
                future.result()
        failure = excinfo.value.failure
        assert failure.kind == "fatal"
        assert failure.attempts == 1
        assert "ValueError" in failure.error
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert runner.jobs_retried == 0

    def test_fatal_inline_matches_pool_classification(self):
        config, traces = bad_job()
        runner = SweepRunner(workers=0, cache_dir=None)
        future = runner.submit(config, traces)
        with pytest.raises(SweepJobError) as excinfo:
            future.result()
        assert excinfo.value.failure.kind == "fatal"
        assert excinfo.value.failure.attempts == 1

    def test_failed_jobs_are_not_memoized(self):
        """Satellite: a failed future must be evicted so a resubmission
        schedules fresh work instead of returning the poisoned future."""
        config, traces = bad_job()
        runner = SweepRunner(workers=0, cache_dir=None)
        first = runner.submit(config, traces)
        with pytest.raises(SweepJobError):
            first.result()
        second = runner.submit(config, traces)
        assert second is not first
        assert runner.memo_hits == 0
        assert runner.jobs_failed == 2  # both attempts failed independently
        assert "2 failed" in runner.summary()


class TestFailureManifest:
    def test_manifest_lists_exactly_the_exhausted_jobs(self, tmp_path):
        good_config, good_traces = tiny_job("baseline")
        bad_config, bad_traces = bad_job()
        with SweepRunner(
            workers=2, cache_dir=None, keep_going=True,
            retry=RetryPolicy(max_attempts=2, **FAST),
        ) as runner:
            good = runner.submit(good_config, good_traces)
            bad = runner.submit(bad_config, bad_traces)
            assert good.result().ipc
            with pytest.raises(SweepJobError):
                bad.result()
            path = runner.write_failure_manifest(
                str(tmp_path / "failures.json")
            )
        with open(path) as handle:
            manifest = json.load(handle)
        assert manifest["jobs_submitted"] == 2
        assert manifest["jobs_failed"] == 1
        (entry,) = manifest["failures"]
        assert entry["key"] == job_key(bad_config, tuple(bad_traces))
        assert entry["kind"] == "fatal"
        assert entry["attempts"] == 1
        assert "ValueError" in entry["traceback"]
        assert bad_config.mechanism in entry["label"]

    def test_empty_manifest_is_explicit(self, tmp_path):
        config, traces = tiny_job()
        runner = SweepRunner(workers=0, cache_dir=None)
        runner.run(config, traces)
        path = runner.write_failure_manifest(str(tmp_path / "failures.json"))
        with open(path) as handle:
            manifest = json.load(handle)
        assert manifest["jobs_failed"] == 0 and manifest["failures"] == []


class TestCacheCorruption:
    def test_chaos_corruption_is_quarantined_and_resimulated(self, tmp_path):
        """Corruption chaos tears cache entries after they are written; a
        later fault-free sweep must quarantine the torn file, resimulate,
        and still produce the identical result."""
        cache = str(tmp_path / "cache")
        config, traces = tiny_job()
        with SweepRunner(workers=0, cache_dir=None) as clean:
            reference = clean.run(config, traces).to_json()

        chaos = ChaosConfig(seed=1, corrupt=1.0)
        with SweepRunner(workers=0, cache_dir=cache, chaos=chaos) as writer:
            assert writer.run(config, traces).to_json() == reference

        with SweepRunner(workers=0, cache_dir=cache) as reader:
            assert reader.run(config, traces).to_json() == reference
        assert reader.cache_corrupt == 1
        assert reader.cache_hits == 0 and reader.jobs_executed == 1
        assert any(
            name.endswith(".corrupt") for name in os.listdir(cache)
        )
        assert "1 corrupt cache entries quarantined" in reader.summary()

    def test_key_mismatch_is_quarantined(self, tmp_path):
        """Satellite: an entry whose embedded key disagrees with its
        filename (e.g. a mis-copied cache) is quarantined, not trusted."""
        cache = str(tmp_path / "cache")
        config, traces = tiny_job()
        runner = SweepRunner(workers=0, cache_dir=cache)
        runner.run(config, traces)
        (entry,) = os.listdir(cache)
        path = os.path.join(cache, entry)
        with open(path) as handle:
            payload = json.load(handle)
        payload["key"] = "0" * 64
        with open(path, "w") as handle:
            json.dump(payload, handle)
        rerun = SweepRunner(workers=0, cache_dir=cache)
        rerun.run(config, traces)
        assert rerun.cache_corrupt == 1
        assert rerun.jobs_executed == 1
        assert os.path.exists(f"{path}.corrupt")

    def test_other_model_version_is_not_served(self, tmp_path):
        """An entry with the right key and format but another model
        version is quarantined and re-simulated, even though it parses."""
        cache = str(tmp_path / "cache")
        config, traces = tiny_job()
        truth = SweepRunner(workers=0, cache_dir=cache).run(config, traces)
        (entry,) = os.listdir(cache)
        path = os.path.join(cache, entry)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["model"] == MODEL_VERSION
        payload["model"] = MODEL_VERSION + 1
        payload["result"]["ipc"] = [ipc * 2 for ipc in truth.ipc]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        rerun = SweepRunner(workers=0, cache_dir=cache)
        assert rerun.run(config, traces).to_json() == truth.to_json()
        assert rerun.cache_hits == 0 and rerun.jobs_executed == 1
        assert rerun.cache_corrupt == 1
        with open(path) as handle:
            stored = json.load(handle)
        assert stored["model"] == MODEL_VERSION
        assert stored["result"] == truth.to_dict()

    @pytest.mark.parametrize("field", ["format", "key", "model", None])
    def test_retry_check_uses_the_serving_rule(self, tmp_path, field):
        """The retry-consistency read accepts exactly the entries a load
        would serve: an invalid entry with another result is overwritten,
        not reported as a divergence; a valid one still is."""
        cache = tmp_path / "cache"
        cache.mkdir()
        config, traces = tiny_job()
        result = SweepRunner(workers=0, cache_dir=None).run(config, traces)
        key = job_key(config, traces)
        planted = {
            "format": CACHE_FORMAT,
            "model": MODEL_VERSION,
            "key": key,
            "label": "planted",
            "result": dict(result.to_dict(), ipc=[0.5]),
        }
        if field is not None:
            planted[field] = "other"
        path = cache / f"{key}.json"
        path.write_text(json.dumps(planted))
        runner = SweepRunner(workers=0, cache_dir=str(cache))
        if field is None:
            with pytest.raises(InvariantViolation, match="retry-consistency"):
                runner._store_cached(key, "tiny", result)
            return
        runner._store_cached(key, "tiny", result)
        assert json.loads(path.read_text())["result"] == result.to_dict()


class TestShutdown:
    def test_exit_on_exception_cancels_pending_work(self):
        """Satellite: __exit__ under an exception must not block on queued
        jobs — it cancels them and returns."""
        calls = {}

        class RecordingPool:
            def shutdown(self, wait=True, cancel_futures=False):
                calls["wait"] = wait
                calls["cancel_futures"] = cancel_futures

        runner = SweepRunner(workers=4, cache_dir=None)
        runner._pool = RecordingPool()
        with pytest.raises(RuntimeError):
            with runner:
                raise RuntimeError("interrupted sweep")
        assert calls == {"wait": False, "cancel_futures": True}

    def test_clean_exit_waits_for_workers(self):
        calls = {}

        class RecordingPool:
            def shutdown(self, wait=True, cancel_futures=False):
                calls["wait"] = wait
                calls["cancel_futures"] = cancel_futures

        runner = SweepRunner(workers=4, cache_dir=None)
        runner._pool = RecordingPool()
        with runner:
            pass
        assert calls == {"wait": True, "cancel_futures": False}


class TestKeepGoingArtifacts:
    def test_partial_figure6_renders_na_cells_and_note(self, tmp_path):
        """--keep-going: exhausted jobs become n/a cells plus an explicit
        "N/M jobs failed" annotation instead of aborting the artifact."""
        from repro.analysis.experiments import run_figure6
        from tests.analysis.test_runner import TINY

        chaos = ChaosConfig(seed=1, crash=1.0)  # every attempt dies
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos, keep_going=True,
            retry=RetryPolicy(max_attempts=2, max_pool_deaths=100, **FAST),
        ) as runner:
            out = run_figure6(
                TINY, benchmarks=("bzip2",), mechanisms=("tadip", "dbi"),
                runner=runner,
            )
            path = runner.write_failure_manifest(
                str(tmp_path / "failures.json")
            )
        text = out["fig6a"].to_text()
        assert "n/a" in text
        assert "2/2 jobs failed" in text
        assert out["fig6a"].rows[0][1] is None
        with open(path) as handle:
            manifest = json.load(handle)
        assert {f["kind"] for f in manifest["failures"]} == {"crash"}
        assert len(manifest["failures"]) == runner.jobs_failed == 2

    def test_strict_mode_still_aborts(self):
        """Without --keep-going the first exhausted job propagates."""
        from repro.analysis.experiments import run_figure6
        from tests.analysis.test_runner import TINY

        chaos = ChaosConfig(seed=1, crash=1.0)
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos, keep_going=False,
            retry=RetryPolicy(max_attempts=2, max_pool_deaths=100, **FAST),
        ) as runner:
            with pytest.raises(SweepJobError):
                run_figure6(
                    TINY, benchmarks=("bzip2",), mechanisms=("tadip",),
                    runner=runner,
                )

    def test_none_cells_render_as_na(self):
        from repro.analysis.report import format_table

        text = format_table(["benchmark", "ipc"], [["lbm", None]])
        assert "n/a" in text


@pytest.mark.slow
class TestHangRecovery:
    """Real wall-clock timeouts: a wedged worker is killed and retried."""

    def test_hung_worker_is_killed_and_job_retried(self):
        config, traces = tiny_job()
        chaos = ChaosConfig(
            seed=1, hang=1.0, hang_attempts=1, hang_seconds=30.0
        )
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos,
            retry=RetryPolicy(max_attempts=3, timeout=1.5, **FAST),
        ) as runner:
            future = runner.submit(config, traces)
            result = future.result()
        assert result.ipc
        assert future.attempts == 2
        assert runner.pool_deaths >= 1
        assert runner.jobs_retried >= 1

    def test_exhausted_hang_reports_hang_kind(self, tmp_path):
        config, traces = tiny_job()
        chaos = ChaosConfig(seed=1, hang=1.0, hang_seconds=30.0)
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos, keep_going=True,
            retry=RetryPolicy(
                max_attempts=2, timeout=1.0, max_pool_deaths=10, **FAST
            ),
        ) as runner:
            future = runner.submit(config, traces)
            with pytest.raises(SweepJobError) as excinfo:
                future.result()
            path = runner.write_failure_manifest(
                str(tmp_path / "failures.json")
            )
        assert excinfo.value.failure.kind == "hang"
        assert excinfo.value.failure.attempts == 2
        with open(path) as handle:
            assert json.load(handle)["failures"][0]["kind"] == "hang"
