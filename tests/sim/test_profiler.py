"""Tests for the cProfile layer table (`repro.sim.profiler`) and the
kernel's per-event hook (`EventQueue.profiler`).

Profiling must be strictly observational: a profiled run produces results
byte-identical to an unprofiled one, and with the hook unset the kernel
behaves exactly as before. The layer table must be the benchmark tracer's.
"""

import importlib.util
import os

import pytest

from repro.analysis.scaling import SCALES
from repro.sim.profiler import (
    LAYER_PREFIXES,
    LAYERS,
    UNATTRIBUTED,
    layer_of,
    profile_system,
)
from repro.sim.system import System, run_system
from repro.telemetry.sampler import TelemetryConfig
from repro.utils.events import EventQueue

TRACER = os.path.join(
    os.path.dirname(__file__), "..", "..", "perfbench", "tracer.py"
)


def recording_hook(seen):
    def hook(callback):
        seen.append(callback)
        callback()

    return hook


class TestZeroPerturbation:
    def test_profiled_run_is_byte_identical(self):
        """The acceptance contract: profiling changes nothing."""
        scale = SCALES["quick"]
        trace = scale.benchmark_trace("mcf", refs=2000)
        config = scale.system_config("dbi+awb")
        plain = run_system(config, [trace])
        profile = profile_system(System(config, [trace]))
        assert plain.to_dict() == profile.result.to_dict()
        assert profile.layers["kernel"][0] > 0

    def test_profiled_telemetry_is_byte_identical(self):
        """Profiling the sampler changes neither results nor epoch records."""
        scale = SCALES["quick"]
        trace = scale.benchmark_trace("mcf", refs=2000)
        config = scale.system_config("dbi+awb")
        telemetry = TelemetryConfig(epoch_cycles=2000)
        plain = System(config, [trace], telemetry=telemetry)
        plain_result = plain.run()
        profiled = System(config, [trace], telemetry=telemetry)
        profile = profile_system(profiled)
        assert profile.result.to_dict() == plain_result.to_dict()
        assert [r.to_dict() for r in profiled.telemetry.records] == [
            r.to_dict() for r in plain.telemetry.records
        ]
        assert profile.layers["telemetry"][0] > 0

    def test_disabled_hook_is_the_default(self):
        queue = EventQueue()
        assert queue.profiler is None

    def test_profiler_counts_every_callback_including_audit(self):
        queue = EventQueue()
        seen = []
        queue.profiler = recording_hook(seen)
        queue.schedule(1, lambda: None)
        queue.schedule(1, lambda: None, audit=True)
        queue.schedule(2, lambda: None)
        queue.run()
        assert len(seen) == 3
        assert queue.events_processed == 2  # audit stays unaccounted

    def test_profiler_does_not_swallow_exceptions(self):
        queue = EventQueue()
        seen = []
        queue.profiler = recording_hook(seen)

        def boom():
            raise RuntimeError("callback failure")

        queue.schedule(1, boom)
        with pytest.raises(RuntimeError, match="callback failure"):
            queue.run()
        assert seen == [boom]


class TestLayerTable:
    def test_table_is_the_tracers(self):
        """Until the tracer imports this table, the two copies must agree."""
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.LAYER_PREFIXES == LAYER_PREFIXES
        assert tracer.UNATTRIBUTED == UNATTRIBUTED
        assert tracer.LAYERS == LAYERS

    def test_layer_of_maps_known_modules(self):
        assert layer_of("repro.utils.events") == "kernel"
        assert layer_of("repro.sim.core_model") == "core"
        assert layer_of("repro.sim.hierarchy") == "hierarchy"
        assert layer_of("repro.cache.port") == "port"
        assert layer_of("repro.cache.cache") == "cache"
        assert layer_of("repro.mechanisms.dbi_mech") == "mechanism"
        assert layer_of("repro.dram.controller") == "dram"
        assert layer_of("repro.dramcache.level") == "dramcache"
        assert layer_of("repro.core.dbi") == "dbi"
        assert layer_of("repro.check.engine") == "check"
        assert layer_of("repro.core.config") is None
        assert layer_of("repro.coreutils") is None
        assert layer_of("some.third.party") is None

    def test_rows_sum_to_wall(self):
        scale = SCALES["quick"]
        trace = scale.benchmark_trace("lbm", refs=2000)
        profile = profile_system(System(scale.system_config("dbi+awb"), [trace]))
        assert set(profile.layers) <= set(LAYERS)
        assert UNATTRIBUTED in profile.layers
        assert all(seconds >= 0.0 for _calls, seconds in profile.layers.values())
        total = sum(seconds for _calls, seconds in profile.layers.values())
        assert total == pytest.approx(profile.wall_seconds, rel=1e-9)
        assert profile.layers["hierarchy"][0] > 0
        rows = list(profile.layers)
        assert rows[-1] == UNATTRIBUTED
        costs = [profile.layers[layer][1] for layer in rows[:-1]]
        assert costs == sorted(costs, reverse=True)
        report = profile.to_dict()
        assert list(report["layers"]) == rows
        assert len(report["top_functions"]) == 10
        assert "unattributed" in profile.to_text()
