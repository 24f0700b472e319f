"""Tests for the chaos layer and the sweep runner's fault tolerance.

The headline guarantee: a sweep that survives injected worker crashes,
hangs and cache corruption produces results byte-identical to a fault-free
sweep — fault tolerance repairs execution, never data.

Hang-recovery tests wait out real wall-clock timeouts and are marked
``slow`` (run with ``pytest -m slow``, as tools/ci.sh does).
"""

import concurrent.futures
import dataclasses
import json
import os
import signal
import sys
import time

import pytest

from repro.__main__ import chaos_from_env
from repro.analysis.chaos import (
    CRASH_EXIT_CODE,
    ChaosConfig,
    FaultInjector,
    parse_chaos_spec,
)
from repro.analysis import runner as runner_module
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


def crash_needs(chaos, jobs):
    """Attempts each job needs under ``chaos``: 1 plus its own crash rolls."""
    injector = FaultInjector(chaos)
    needs = []
    for config, traces in jobs:
        key, need = job_key(config, traces), 1
        while injector.should_crash(key, need):
            need += 1
        needs.append(need)
    return needs


class Starts:
    """The attempts' start log: one ``<mechanism> <pid>`` line per start."""

    def __init__(self, path):
        self.path = path
        #: Runs in each attempt's process after its start is logged, as
        #: ``script(job, n)`` with n this job's start count; set it before
        #: submitting, so the forked attempts inherit it.
        self.script = lambda job, n: None

    def pids(self, mechanism):
        if not self.path.exists():
            return []
        lines = self.path.read_text().splitlines()
        return [
            int(pid) for name, pid in map(str.split, lines)
            if name == mechanism
        ]

    def wait(self, mechanism, count, timeout=20.0):
        deadline = time.monotonic() + timeout
        while len(self.pids(mechanism)) < count:
            assert time.monotonic() < deadline, (
                f"{mechanism} did not start {count} time(s)"
            )
            time.sleep(0.01)


@pytest.fixture
def starts(tmp_path, monkeypatch):
    """Log every attempt's start through a wrapper around ``_execute``,
    installed before any fork so each attempt's process inherits it."""
    log = Starts(tmp_path / "starts.log")
    execute = runner_module._execute

    def logged(job):
        name = job.config.mechanism
        with open(log.path, "a") as handle:
            handle.write(f"{name} {os.getpid()}\n")
        log.script(job, len(log.pids(name)))
        return execute(job)

    monkeypatch.setattr(runner_module, "_execute", logged)
    return log


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
        # Campaign keys share the grammar and mix with sweep keys.
        assert parse_chaos_spec(
            "kill=6,mode=torn,warm_kill=1,image_kill=2,corrupt=1.0,seed=3"
        ) == ChaosConfig(
            seed=3, corrupt=1.0, kill=6, mode="torn", warm_kill=1,
            image_kill=2,
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

    @pytest.mark.parametrize(
        "spec, cause",
        [
            ("hang=1,hang_seconds=-1", "hang_seconds must be >= 0"),
            ("crash=1,crash_attempts=0", "crash_attempts must be >= 1"),
            ("crash=1,crash_attempts=-3", "crash_attempts must be >= 1"),
            ("kill=-2", "kill must be >= 0"),
            ("mode=torn", "mode=torn needs kill"),
            ("crash=0.5,crash=0.9", "'crash' given twice"),
        ],
    )
    def test_specs_that_could_never_fire_are_refused(self, spec, cause):
        with pytest.raises(ValueError, match=cause):
            parse_chaos_spec(spec)

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=3,crash=0.5")
        assert chaos_from_env() == ChaosConfig(seed=3, crash=0.5)
        monkeypatch.setenv("REPRO_CHAOS", "off")
        assert chaos_from_env() is None
        monkeypatch.delenv("REPRO_CHAOS")
        assert chaos_from_env() is None

    def test_runner_ignores_the_environment(self, monkeypatch, tmp_path):
        """Only the CLI reads REPRO_CHAOS: a library-built runner with
        ``chaos=None`` injects nothing, whatever the environment says."""
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,crash=1.0,corrupt=1.0")
        config, traces = tiny_job()
        with SweepRunner(workers=0, cache_dir=None) as clean:
            reference = clean.run(config, traces).to_json()
        with SweepRunner(
            workers=2, cache_dir=str(tmp_path / "cache"),
            retry=RetryPolicy(max_attempts=1, **FAST),
        ) as runner:
            assert runner.chaos is None and runner.injector is None
            assert runner.run(config, traces).to_json() == reference
        assert runner.jobs_retried == 0 and runner.failures == []
        entry = tmp_path / "cache" / f"{job_key(config, traces)}.json"
        json.loads(entry.read_text())  # written intact, not torn


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

        needs = crash_needs(chaos, jobs)
        assert recovered == reference
        assert runner.jobs_failed == 0 and not runner.failures
        assert [future.attempts for future in futures] == needs
        assert runner.jobs_retried == sum(needs) - len(needs) > 0

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
        assert f"exited with code {CRASH_EXIT_CODE}" in failure.error
        assert runner.jobs_failed == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_each_death_is_charged_to_the_job_whose_worker_died(
        self, workers
    ):
        """A job is charged one attempt per crash roll of its own and none
        for another job's: its attempts are exactly 1 plus its own crash
        rolls. Four slots (more than most CI hosts have cores), switching
        threads as often as the interpreter allows, keep the same
        invariant: a lost update to the shared counters would break it."""
        from repro.analysis.experiments import FIGURE6_MECHANISMS

        jobs = [tiny_job(mechanism) for mechanism in FIGURE6_MECHANISMS]
        chaos = ChaosConfig(seed=7, crash=0.5)
        needs = crash_needs(chaos, jobs)
        own_crashes = sum(needs) - len(needs)
        assert own_crashes > 0 and max(needs) > 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SweepRunner(
                workers=workers, cache_dir=None, chaos=chaos,
                retry=RetryPolicy(max_attempts=max(needs) + 1, **FAST),
            ) as runner:
                futures = [runner.submit(c, t) for c, t in jobs]
                for future in futures:
                    assert future.result(timeout=60).ipc
        finally:
            sys.setswitchinterval(interval)
        assert [future.attempts for future in futures] == needs
        assert runner.jobs_failed == 0
        assert runner.jobs_retried == own_crashes

    def test_attempt_killed_from_outside_is_charged_crash(
        self, starts, tmp_path
    ):
        """An attempt SIGKILLed from outside (as the OOM killer would) is
        charged to its own job as a crash naming the signal; the job
        running in the other slot is untouched and starts once."""
        release = tmp_path / "release"

        def script(job, n):
            if job.config.mechanism == "dbi":
                time.sleep(30)  # until killed
            deadline = time.monotonic() + 20
            while not release.exists() and time.monotonic() < deadline:
                time.sleep(0.01)

        starts.script = script
        with SweepRunner(
            workers=2, cache_dir=None, keep_going=True,
            retry=RetryPolicy(max_attempts=1, **FAST),
        ) as runner:
            victim = runner.submit(*tiny_job("dbi"))
            other = runner.submit(*tiny_job("baseline"))
            starts.wait("dbi", 1)
            starts.wait("baseline", 1)
            os.kill(starts.pids("dbi")[0], signal.SIGKILL)
            with pytest.raises(SweepJobError) as excinfo:
                victim.result()
            release.touch()
            assert other.result().ipc
        failure = excinfo.value.failure
        assert (failure.kind, failure.attempts) == ("crash", 1)
        assert "was killed by SIGKILL" in failure.error
        assert len(starts.pids("baseline")) == 1 and other.attempts == 1
        assert runner.jobs_retried == 0 and runner.jobs_failed == 1


class TestAttemptIsolation:
    def test_attempts_run_with_default_signal_handlers(
        self, tmp_path, monkeypatch
    ):
        """A SIGTERM or SIGINT handler installed in the runner's process
        (a campaign's drain) is not inherited by the attempts: a signal
        sent to an attempt's process ends it."""
        record = tmp_path / "handlers"
        execute = runner_module._execute

        def recording(job):
            with open(record, "a") as handle:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    default = signal.getsignal(signum) == signal.SIG_DFL
                    handle.write(f"{signum.name}={default} ")
            return execute(job)

        monkeypatch.setattr(runner_module, "_execute", recording)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with SweepRunner(workers=2, cache_dir=None) as runner:
                assert runner.run(*tiny_job()).ipc
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert record.read_text().split() == ["SIGTERM=True", "SIGINT=True"]

    def test_a_hang_costs_only_its_own_attempt(self, starts):
        """Job A's first attempt hangs while job B runs in the other slot
        (B holds on until A's retry has started): the slot kills A's
        process alone, so A is charged one hang and B starts once."""

        def script(job, n):
            if job.config.mechanism == "dbi" and n == 1:
                time.sleep(30)
            if job.config.mechanism == "baseline":
                starts.wait("dbi", 2)

        starts.script = script
        with SweepRunner(
            workers=2, cache_dir=None,
            retry=RetryPolicy(max_attempts=2, timeout=2.0, **FAST),
        ) as runner:
            hung = runner.submit(*tiny_job("dbi"))
            starts.wait("dbi", 1)
            time.sleep(1.0)  # B's own timeout ends a second after A's
            other = runner.submit(*tiny_job("baseline"))
            assert hung.result().ipc and other.result().ipc
        assert (hung.attempts, other.attempts) == (2, 1)
        assert len(starts.pids("baseline")) == 1
        assert runner.jobs_retried == 1 and runner.failures == []


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
    def test_cancel_kills_live_attempts_and_retries_nothing(self, starts):
        """close(cancel=True) kills the running attempts, cancels the
        queued job and every retry: nothing starts afterwards."""
        starts.script = lambda job, n: time.sleep(30)
        runner = SweepRunner(
            workers=2, cache_dir=None,
            retry=RetryPolicy(max_attempts=3, **FAST),
        )
        mechanisms = ("baseline", "dbi", "dbi+awb")
        futures = [runner.submit(*tiny_job(m)) for m in mechanisms]
        starts.wait("baseline", 1)
        starts.wait("dbi", 1)
        runner.close(cancel=True)
        for future in futures:
            with pytest.raises(concurrent.futures.CancelledError):
                future.result(timeout=20)
        time.sleep(0.2)  # longer than any backoff
        pids = {m: starts.pids(m) for m in mechanisms}
        assert [len(pids[m]) for m in mechanisms] == [1, 1, 0]
        for pid in pids["baseline"] + pids["dbi"]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # killed and reaped
        assert runner.jobs_retried == 0 and runner.failures == []

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
            retry=RetryPolicy(max_attempts=2, **FAST),
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
            retry=RetryPolicy(max_attempts=2, **FAST),
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
        assert runner.jobs_retried == 1

    def test_exhausted_hang_reports_hang_kind(self, tmp_path):
        config, traces = tiny_job()
        chaos = ChaosConfig(seed=1, hang=1.0, hang_seconds=30.0)
        with SweepRunner(
            workers=2, cache_dir=None, chaos=chaos, keep_going=True,
            retry=RetryPolicy(max_attempts=2, timeout=1.0, **FAST),
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
