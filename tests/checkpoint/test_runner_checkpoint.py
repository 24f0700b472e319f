"""SweepRunner integration: fork-from-warm caching, keys, quarantine."""

import json
import os

import pytest

from repro.analysis.chaos import ChaosConfig
from repro.analysis.runner import (
    RetryPolicy,
    SweepJobError,
    SweepRunner,
    job_key,
)
from repro.analysis.scaling import QUICK_SCALE
from repro.checkpoint import snapshot_system, warm_cell, warm_config_for
from repro.checkpoint.sampled import SampledConfig
from repro.sim.system import MODEL_VERSION
from tests.checkpoint.conftest import reformat, restamp

REFS = 3_000


def quick_config(mechanism):
    return QUICK_SCALE.system_config(mechanism)


@pytest.fixture()
def trace():
    return QUICK_SCALE.benchmark_trace("mcf", refs=REFS)


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("progress", None)
    return SweepRunner(**kwargs)


class TestJobKey:
    def test_fork_and_sampled_get_distinct_keys(self, trace):
        config = quick_config("dbi")
        cold = job_key(config, [trace])
        forked = job_key(config, [trace], fork="tadip")
        sampled = job_key(config, [trace], sampled=SampledConfig().key())
        both = job_key(
            config, [trace], fork="tadip", sampled=SampledConfig().key()
        )
        assert len({cold, forked, sampled, both}) == 4

    def test_sampled_key_tracks_parameters(self, trace):
        config = quick_config("dbi")
        default = job_key(config, [trace], sampled=SampledConfig().key())
        tuned = job_key(
            config, [trace], sampled=SampledConfig(windows=4).key()
        )
        assert default != tuned


class TestConstruction:
    def test_checkpoint_dir_refuses_check(self, tmp_path):
        with pytest.raises(ValueError, match="check"):
            make_runner(
                tmp_path, checkpoint_dir=str(tmp_path / "ckpt"), check="full"
            )

    def test_checkpoint_dir_refuses_telemetry(self, tmp_path):
        from repro.telemetry.sampler import TelemetryConfig

        with pytest.raises(ValueError, match="telemetry"):
            make_runner(
                tmp_path,
                checkpoint_dir=str(tmp_path / "ckpt"),
                telemetry=TelemetryConfig(epoch_cycles=1000),
            )

    def test_sampled_refuses_check(self, tmp_path):
        with pytest.raises(ValueError, match="check"):
            make_runner(tmp_path, sampled=SampledConfig(), check="cheap")

    def test_sampled_refuses_max_events(self, tmp_path, trace):
        runner = make_runner(tmp_path, sampled=SampledConfig())
        with pytest.raises(ValueError, match="max_events"):
            runner.submit(quick_config("dbi"), [trace], max_events=1_000)


class TestForkSweep:
    def test_one_warm_image_serves_the_group(self, tmp_path, trace):
        ckpt = str(tmp_path / "ckpt")
        with make_runner(tmp_path, checkpoint_dir=ckpt) as runner:
            results = {
                mech: runner.run(quick_config(mech), [trace])
                for mech in ("tadip", "dbi", "dbi+awb+clb")
            }
        images = [f for f in os.listdir(ckpt) if f.endswith(".ckpt")]
        assert len(images) == 1, "one group => one warm image"
        assert runner.warm_images_built == 1
        for result in results.values():
            assert result.total_instructions_issued > 0
        assert (
            results["dbi"].tag_lookups_pki != results["tadip"].tag_lookups_pki
        )
        assert "warm image" in runner.summary()

    def test_forked_results_cached_and_reused(self, tmp_path, trace):
        ckpt = str(tmp_path / "ckpt")
        config = quick_config("dbi")
        with make_runner(tmp_path, checkpoint_dir=ckpt) as first:
            original = first.run(config, [trace])
        assert first.jobs_executed == 1
        with make_runner(tmp_path, checkpoint_dir=ckpt) as second:
            replay = second.run(config, [trace])
        assert second.cache_hits == 1
        assert second.jobs_executed == 0
        assert replay.to_dict() == original.to_dict()

    def test_fork_cache_never_collides_with_cold_cache(self, tmp_path, trace):
        config = quick_config("dbi")
        with make_runner(tmp_path) as cold:
            cold.run(config, [trace])
        with make_runner(
            tmp_path, checkpoint_dir=str(tmp_path / "ckpt")
        ) as forked:
            forked.run(config, [trace])
        # Both executed: the fork entry is keyed apart from the cold one.
        assert cold.jobs_executed == 1
        assert forked.jobs_executed == 1
        assert forked.cache_hits == 0

    def test_corrupt_warm_image_quarantined_and_rebuilt(self, tmp_path, trace):
        ckpt = str(tmp_path / "ckpt")
        config = quick_config("tadip")
        with make_runner(tmp_path, checkpoint_dir=ckpt) as first:
            expected = first.run(config, [trace])
        (image,) = [f for f in os.listdir(ckpt) if f.endswith(".ckpt")]
        path = os.path.join(ckpt, image)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with make_runner(
            tmp_path,
            checkpoint_dir=ckpt,
            cache_dir=str(tmp_path / "cache2"),
        ) as second:
            replay = second.run(config, [trace])
        assert second.checkpoints_quarantined == 1
        assert second.warm_images_built == 1
        assert os.path.exists(f"{path}.corrupt")
        assert os.path.exists(path), "image must be rebuilt after quarantine"
        assert replay.to_dict() == expected.to_dict()

    def test_stale_warm_image_quarantined_and_rebuilt(self, tmp_path, trace):
        ckpt = str(tmp_path / "ckpt")
        config = quick_config("tadip")
        with make_runner(tmp_path, checkpoint_dir=ckpt) as first:
            expected = first.run(config, [trace])
        (image,) = [f for f in os.listdir(ckpt) if f.endswith(".ckpt")]
        path = os.path.join(ckpt, image)
        # An image warmed on another workload: were it restored, the forked
        # cell would report that workload's results. It is planted once
        # stamped by another model version and once each by the retired
        # formats 2, 5 (stats as Counter objects) and 6 (DBI entries as
        # objects).
        other = QUICK_SCALE.benchmark_trace("lbm", refs=REFS)
        stale = snapshot_system(warm_cell(warm_config_for(config), [other]))
        planted = (
            restamp(stale, MODEL_VERSION + 1),
            reformat(stale, 2),
            reformat(stale, 5),
            reformat(stale, 6),
        )
        for attempt, blob in enumerate(planted, start=1):
            with open(path, "wb") as handle:
                handle.write(blob)
            with make_runner(
                tmp_path,
                checkpoint_dir=ckpt,
                cache_dir=str(tmp_path / f"cache-{attempt}"),
            ) as second:
                replay = second.run(config, [trace])
            assert second.checkpoints_quarantined == 1
            assert second.warm_images_built == 1
            assert os.path.exists(f"{path}.corrupt")
            os.remove(f"{path}.corrupt")
            assert replay.to_dict() == expected.to_dict()


class TestForkImageBuilds:
    """A fork group's image is built by a job, like a sharded cell's."""

    def test_failed_warm_up_fails_its_group_only(
        self, tmp_path, trace, monkeypatch
    ):
        from repro.checkpoint import warm as warm_module

        original = warm_module.run_until_warm

        def run_until_warm(system, *args, **kwargs):
            if system.traces[0].name == "lbm":
                raise RuntimeError("warm-up exploded")
            return original(system, *args, **kwargs)

        monkeypatch.setattr(warm_module, "run_until_warm", run_until_warm)
        other = QUICK_SCALE.benchmark_trace("lbm", refs=REFS)
        with make_runner(
            tmp_path, checkpoint_dir=str(tmp_path / "ckpt"), keep_going=True
        ) as runner:
            broken = runner.submit(quick_config("dbi"), [other])
            healthy = [
                runner.submit(quick_config(mech), [trace])
                for mech in ("tadip", "dbi")
            ]
            with pytest.raises(SweepJobError, match="warm-up exploded") as exc:
                broken.result()
            results = [future.result() for future in healthy]
        assert exc.value.failure.kind == "fatal"
        assert exc.value.failure in runner.failures
        assert runner.jobs_failed == 1
        assert all(result.ipc[0] > 0 for result in results)
        assert runner.warm_images_built == 1

    def test_image_bytes_do_not_depend_on_where_it_was_built(
        self, tmp_path, trace
    ):
        """An image built inline and one built in an attempt's process
        (which inherits its job rather than unpickling it) are the same
        file, byte for byte."""
        images = []
        for workers in (0, 2):
            ckpt = tmp_path / f"ckpt-{workers}"
            with make_runner(
                tmp_path, workers=workers, cache_dir=None,
                checkpoint_dir=str(ckpt),
            ) as runner:
                assert runner.run(quick_config("dbi+awb+clb"), [trace]).ipc
            (image,) = ckpt.glob("warm-*.ckpt")
            images.append((image.name, image.read_bytes()))
        assert images[0] == images[1]

    def test_crashed_builds_retry_to_identical_results(self, tmp_path):
        cells = [
            (quick_config(mech), QUICK_SCALE.benchmark_trace(bench, refs=REFS))
            for bench in ("mcf", "lbm")
            for mech in ("tadip", "dbi")
        ]

        def sweep(runner):
            futures = [runner.submit(config, [tr]) for config, tr in cells]
            return [
                json.dumps(future.result().to_dict(), sort_keys=True)
                for future in futures
            ]

        with make_runner(
            tmp_path, cache_dir=None, checkpoint_dir=str(tmp_path / "clean")
        ) as clean:
            reference = sweep(clean)
        lines = []
        with make_runner(
            tmp_path,
            workers=2,
            cache_dir=None,
            checkpoint_dir=str(tmp_path / "chaos"),
            chaos=ChaosConfig(crash=1.0, crash_attempts=1),
            retry=RetryPolicy(max_attempts=8, backoff_base=0.0),
            progress=lines.append,
        ) as runner:
            recovered = sweep(runner)
        assert recovered == reference
        assert runner.jobs_failed == 0
        assert runner.warm_images_built == 2
        # Every first attempt crashed: both builds and all four forks.
        assert runner.jobs_retried >= 2 + len(cells)
        for bench in ("mcf", "lbm"):
            assert any(
                f"tadip[{bench}]+warm" in line and "retry" in line
                for line in lines
            ), f"the {bench} image build was never retried"


class TestSampledSweep:
    def test_sampled_jobs_return_synthesized_results(self, tmp_path, trace):
        sampled = SampledConfig(windows=4, window_cycles=1_000, warmup_cycles=500)
        with make_runner(tmp_path, sampled=sampled) as runner:
            result = runner.run(quick_config("tadip"), [trace])
        assert result.total_instructions_issued > 0
        assert result.ipc[0] > 0

    def test_fork_plus_sampled(self, tmp_path, trace):
        sampled = SampledConfig(windows=4, window_cycles=1_000, warmup_cycles=500)
        with make_runner(
            tmp_path,
            checkpoint_dir=str(tmp_path / "ckpt"),
            sampled=sampled,
        ) as runner:
            result = runner.run(quick_config("dbi+awb+clb"), [trace])
        assert result.ipc[0] > 0
        assert runner.warm_images_built == 1
