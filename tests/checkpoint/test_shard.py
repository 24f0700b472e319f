"""Within-run sharding: segment runs, stitching, and runner integration."""

import hashlib
import json
import os

import pytest

from repro.analysis.runner import SweepRunner, job_key
from repro.analysis.scaling import SCALES
from repro.checkpoint import shard as shard_module
from repro.checkpoint.shard import (
    ShardSpec,
    run_shard,
    shard_estimates,
    stitch_shards,
    warm_cell,
)
from repro.sim.system import MODEL_VERSION, SimulationResult, System
from repro.telemetry.sampler import TelemetryConfig
from tests.checkpoint.conftest import reformat, restamp

QUICK = SCALES["quick"]

#: ``submit_sharded(_config(), [_trace()], 3)``: the stitched key and the
#: sha256 of its sorted-key result JSON, as pinned when every segment
#: still warmed its own system. Warming once must not move either.
PINNED_STITCHED_KEY = (
    "stitched:e0994de783a5a9ab98e3020bae51d9f89f0dc13bb213613da43abc34fcf244f0"
)
PINNED_RESULT_SHA = (
    "3426a6a8ad9beb6eaa8cc0de5cf11da13c808ff2cf9a548097da7b633e275cb3"
)


def _config(mechanism="dbi", refs=3000, **kwargs):
    return QUICK.system_config(mechanism, **kwargs)


def _trace(bench="lbm", refs=3000):
    return QUICK.benchmark_trace(bench, refs=refs)


def _segment(config, trace, index, count):
    """One segment run on a system warmed in place (no image)."""
    return run_shard(warm_cell(config, [trace]), ShardSpec(index, count))


def _result_sha(result):
    return hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()


@pytest.fixture
def warm_calls(tmp_path, monkeypatch):
    """Count ``run_until_warm`` calls, pool workers included.

    Each call appends a line to a file; forked workers inherit the patch.
    """
    log = tmp_path / "warm-calls.log"
    original = shard_module.run_until_warm

    def counted(system, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(system, *args, **kwargs)

    monkeypatch.setattr(shard_module, "run_until_warm", counted)
    return lambda: len(log.read_text().splitlines()) if log.exists() else 0


class TestShardSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(index=0, count=1)
        with pytest.raises(ValueError):
            ShardSpec(index=4, count=4)
        with pytest.raises(ValueError):
            ShardSpec(index=-1, count=2)

    def test_key_and_roundtrip(self):
        spec = ShardSpec(index=1, count=4)
        assert spec.key() == "1/4"
        assert ShardSpec.from_dict(spec.to_dict()) == spec


class TestRunShard:
    def test_segments_cover_most_of_the_run(self):
        config, trace = _config(), _trace()
        full = System(config, [trace]).run()
        shards = [_segment(config, trace, i, 4) for i in range(4)]
        covered = sum(sum(s.instructions) for s in shards)
        assert covered >= 0.9 * sum(full.instructions)

    def test_deterministic(self):
        config, trace = _config(), _trace()
        a = _segment(config, trace, 1, 3)
        b = _segment(config, trace, 1, 3)
        assert a.to_dict() == b.to_dict()

    def test_restored_image_matches_warming_in_place(self):
        from repro.checkpoint import restore_system, snapshot_system

        config, trace = _config(), _trace()
        image = snapshot_system(warm_cell(config, [trace]))
        for index in range(3):
            restored = run_shard(restore_system(image), ShardSpec(index, 3))
            in_place = _segment(config, trace, index, 3)
            assert restored.to_dict() == in_place.to_dict()



class TestStitchShards:
    def _shard(self, mechanism="dbi", stats=None, instructions=(100,),
               cycles=(50,)):
        return SimulationResult(
            mechanism=mechanism,
            trace_names=["lbm"],
            ipc=[i / c for i, c in zip(instructions, cycles)],
            cycles=list(cycles),
            instructions=list(instructions),
            total_instructions_issued=max(1, sum(instructions)),
            stats=dict(stats or {}),
            events_processed=10,
        )

    def test_counters_sum_and_ipc_recomputed(self):
        a = self._shard(stats={"dram.reads": 5}, instructions=(100,),
                        cycles=(50,))
        b = self._shard(stats={"dram.reads": 7}, instructions=(60,),
                        cycles=(30,))
        merged = stitch_shards([a, b])
        assert merged.stats["dram.reads"] == 12
        assert merged.instructions == [160]
        assert merged.cycles == [80]
        assert merged.ipc == [2.0]

    def test_rates_recomputed_from_components(self):
        a = self._shard(stats={"dram.write_row_hit_rate": 0.5,
                               "dram.write_row_hit_rate.hits": 1,
                               "dram.write_row_hit_rate.total": 2})
        b = self._shard(stats={"dram.write_row_hit_rate": 1.0,
                               "dram.write_row_hit_rate.hits": 6,
                               "dram.write_row_hit_rate.total": 6})
        merged = stitch_shards([a, b])
        assert merged.stats["dram.write_row_hit_rate"] == pytest.approx(7 / 8)

    def test_dist_means_weighted_by_count(self):
        a = self._shard(stats={"dram.batch.mean": 2.0,
                               "dram.batch.count": 1})
        b = self._shard(stats={"dram.batch.mean": 5.0,
                               "dram.batch.count": 3})
        merged = stitch_shards([a, b])
        assert merged.stats["dram.batch.mean"] == pytest.approx(4.25)
        assert merged.stats["dram.batch.count"] == 4

    def test_refuses_mismatched_shards(self):
        with pytest.raises(ValueError):
            stitch_shards([])
        with pytest.raises(ValueError):
            stitch_shards([self._shard("dbi"), self._shard("baseline")])

    def test_stitched_close_to_full_run(self):
        config, trace = _config(), _trace()
        full = System(config, [trace]).run()
        stitched = stitch_shards(
            [_segment(config, trace, i, 4) for i in range(4)]
        )
        assert stitched.ipc[0] == pytest.approx(full.ipc[0], rel=0.15)

    def test_estimates_cover_metrics(self):
        config, trace = _config(), _trace()
        shards = [_segment(config, trace, i, 3) for i in range(3)]
        estimates = shard_estimates(shards)
        assert "ipc" in estimates
        est = estimates["ipc"]
        assert est.samples == 3
        assert est.ci_low <= est.mean <= est.ci_high


class TestRunnerSharding:
    def test_submit_sharded_matches_direct_stitch(self, tmp_path):
        config, trace = _config(), _trace()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path / "cache"))
        future = runner.submit_sharded(config, [trace], 3)
        direct = stitch_shards(
            [_segment(config, trace, i, 3) for i in range(3)]
        )
        assert future.result().to_dict() == direct.to_dict()
        assert future.job.key.startswith("stitched:")
        assert "+stitched3" in future.job.label

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warms_once_and_keeps_pinned_values(
        self, tmp_path, warm_calls, workers
    ):
        config, trace = _config(), _trace()
        with SweepRunner(
            workers=workers, cache_dir=str(tmp_path / "cache")
        ) as runner:
            future = runner.submit_sharded(config, [trace], 3)
            result = future.result()
        assert warm_calls() == 1
        assert runner.warm_images_built == 1
        assert runner.jobs_executed == 3
        assert future.job.key == PINNED_STITCHED_KEY
        assert _result_sha(result) == PINNED_RESULT_SHA
        # The image is deleted once the stitched result is collected.
        assert not [
            name for name in os.listdir(tmp_path / "cache")
            if name.endswith(".ckpt")
        ]

    def test_pool_matches_inline_across_cells(self, tmp_path, warm_calls):
        # Several cells in flight: segments start from the pool's result
        # thread as each image lands, and must still match inline runs.
        cells = [
            (_config(mechanism), _trace(bench, refs=2000))
            for bench in ("lbm", "mcf")
            for mechanism in ("baseline", "dbi")
        ]
        outcomes = {}
        for workers in (0, 2):
            with SweepRunner(
                workers=workers, cache_dir=str(tmp_path / f"cache{workers}")
            ) as runner:
                futures = [
                    runner.submit_sharded(config, [trace], 2)
                    for config, trace in cells
                ]
                outcomes[workers] = [
                    (future.job.key, future.result().to_dict())
                    for future in futures
                ]
        assert outcomes[2] == outcomes[0]
        assert warm_calls() == 2 * len(cells)

    def test_resume_answers_from_cache(self, tmp_path, warm_calls):
        config, trace = _config(), _trace()
        cache = str(tmp_path / "cache")
        first = SweepRunner(workers=0, cache_dir=cache)
        reference = first.submit_sharded(config, [trace], 3).result()
        assert warm_calls() == 1
        second = SweepRunner(workers=0, cache_dir=cache)
        resumed = second.submit_sharded(config, [trace], 3).result()
        assert resumed.to_dict() == reference.to_dict()
        assert second.cache_hits == 3
        assert second.warm_images_built == 0
        assert warm_calls() == 1  # every segment answered, nothing warmed

    def test_corrupt_cell_image_quarantined_and_rebuilt(
        self, tmp_path, warm_calls
    ):
        config, trace = _config(), _trace()
        cache = tmp_path / "cache"
        cache.mkdir()
        image = cache / f"cell-{job_key(config, [trace])}.ckpt"
        image.write_bytes(b"DBICKPT\x00torn-image")
        runner = SweepRunner(workers=0, cache_dir=str(cache))
        future = runner.submit_sharded(config, [trace], 3)
        assert _result_sha(future.result()) == PINNED_RESULT_SHA
        assert future.job.key == PINNED_STITCHED_KEY
        assert runner.checkpoints_quarantined == 1
        assert (cache / f"{image.name}.corrupt").read_bytes() == (
            b"DBICKPT\x00torn-image"
        )
        assert warm_calls() == 1

    def test_stale_cell_image_quarantined_and_rebuilt(
        self, tmp_path, warm_calls
    ):
        from repro.checkpoint import snapshot_system

        config, trace = _config(), _trace()
        # Another mechanism's cell image: were it restored, the segments
        # would report that mechanism's results. It is planted once stamped
        # by another model version and once by the retired format 2.
        stale = snapshot_system(warm_cell(_config("baseline"), [trace]))
        planted = (restamp(stale, MODEL_VERSION + 1), reformat(stale, 2))
        for attempt, blob in enumerate(planted, start=1):
            cache = tmp_path / f"cache-{attempt}"
            cache.mkdir()
            image = cache / f"cell-{job_key(config, [trace])}.ckpt"
            image.write_bytes(blob)
            runner = SweepRunner(workers=0, cache_dir=str(cache))
            future = runner.submit_sharded(config, [trace], 3)
            assert _result_sha(future.result()) == PINNED_RESULT_SHA
            assert future.job.key == PINNED_STITCHED_KEY
            assert runner.checkpoints_quarantined == 1
            assert runner.warm_images_built == 1
            assert (cache / f"{image.name}.corrupt").exists()
            # The planted image's warm-up, then one rebuild per attempt.
            assert warm_calls() == 1 + attempt

    def test_existing_image_is_reused(self, tmp_path, warm_calls):
        from repro.checkpoint import save_snapshot

        config, trace = _config(), _trace()
        cache = tmp_path / "cache"
        cache.mkdir()
        image = cache / f"cell-{job_key(config, [trace])}.ckpt"
        save_snapshot(warm_cell(config, [trace]), str(image))
        assert warm_calls() == 1
        runner = SweepRunner(workers=0, cache_dir=str(cache))
        result = runner.submit_sharded(config, [trace], 3).result()
        assert _result_sha(result) == PINNED_RESULT_SHA
        assert runner.warm_images_built == 0
        assert warm_calls() == 1
        assert not image.exists()

    def test_failed_warm_up_fails_every_segment(self, tmp_path, monkeypatch):
        from repro.analysis.runner import SweepJobError

        def broken(system, *args, **kwargs):
            raise RuntimeError("warm-up exploded")

        monkeypatch.setattr(shard_module, "run_until_warm", broken)
        config, trace = _config(), _trace()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path / "cache"))
        future = runner.submit_sharded(config, [trace], 3)
        with pytest.raises(SweepJobError, match="warm-up exploded"):
            future.result()
        assert runner.jobs_failed == 1
        assert runner.jobs_executed == 0
        # Nothing poisoned is memoized: a resubmission tries again.
        monkeypatch.undo()
        retried = runner.submit_sharded(config, [trace], 3)
        assert _result_sha(retried.result()) == PINNED_RESULT_SHA
        assert not list((tmp_path / "cache").glob("*.ckpt"))

    def test_shard_key_distinct_from_whole_run(self):
        config, trace = _config(), _trace()
        whole = job_key(config, [trace])
        sharded = job_key(config, [trace], shard="0/2")
        other = job_key(config, [trace], shard="1/2")
        assert len({whole, sharded, other}) == 3

    def test_refuses_unshardable_runners(self):
        config, trace = _config(), _trace()
        checked = SweepRunner(workers=0, cache_dir=None, check="full")
        with pytest.raises(ValueError):
            checked.submit_sharded(config, [trace], 2)
        traced = SweepRunner(
            workers=0, cache_dir=None, telemetry=TelemetryConfig()
        )
        with pytest.raises(ValueError):
            traced.submit_sharded(config, [trace], 2)
