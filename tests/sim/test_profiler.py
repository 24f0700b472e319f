"""Tests for the per-event time-share profiler (`repro.sim.profiler`).

The profiler must be strictly observational: a profiled run produces results
byte-identical to an unprofiled one, and with the hook unset the kernel
behaves exactly as before.
"""

import functools

from repro.analysis.scaling import SCALES
from repro.mechanisms.base import _deliver_block
from repro.sim.profiler import SimProfiler, callback_site, component_of
from repro.sim.system import System, run_system
from repro.telemetry.sampler import TelemetryConfig
from repro.utils.events import EventQueue


class TestZeroPerturbation:
    def test_profiled_run_is_byte_identical(self):
        """The acceptance contract: attaching the profiler changes nothing."""
        scale = SCALES["quick"]
        trace = scale.benchmark_trace("mcf", refs=2000)
        config = scale.system_config("dbi+awb")
        plain = run_system(config, [trace])
        profiler = SimProfiler()
        profiled = run_system(config, [trace], profiler=profiler)
        assert plain.to_dict() == profiled.to_dict()
        assert profiler.calls > 0

    def test_profiled_telemetry_is_byte_identical(self):
        """Timing the sampler changes neither results nor epoch records."""
        scale = SCALES["quick"]
        trace = scale.benchmark_trace("mcf", refs=2000)
        config = scale.system_config("dbi+awb")
        telemetry = TelemetryConfig(epoch_cycles=2000)
        plain = System(config, [trace], telemetry=telemetry)
        plain_result = plain.run()
        profiler = SimProfiler()
        profiled = System(config, [trace], profiler=profiler, telemetry=telemetry)
        assert profiled.run().to_dict() == plain_result.to_dict()
        assert [r.to_dict() for r in profiled.telemetry.records] == [
            r.to_dict() for r in plain.telemetry.records
        ]
        assert profiler.component_shares()["telemetry"][0] > 0

    def test_disabled_hook_is_the_default(self):
        queue = EventQueue()
        assert queue.profiler is None

    def test_profiler_counts_every_callback_including_audit(self):
        queue = EventQueue()
        profiler = SimProfiler()
        queue.profiler = profiler
        queue.schedule(1, lambda: None)
        queue.schedule(1, lambda: None, audit=True)
        queue.schedule(2, lambda: None)
        queue.run()
        assert profiler.calls == 3
        assert queue.events_processed == 2  # audit stays unaccounted

    def test_profiler_does_not_swallow_exceptions(self):
        queue = EventQueue()
        profiler = SimProfiler()
        queue.profiler = profiler

        def boom():
            raise RuntimeError("callback failure")

        queue.schedule(1, boom)
        try:
            queue.run()
        except RuntimeError:
            pass
        else:  # pragma: no cover - the raise must propagate
            raise AssertionError("exception was swallowed")
        assert profiler.calls == 1  # timed despite the raise


class TestAttribution:
    def test_component_of_maps_known_modules(self):
        assert component_of("repro.sim.core_model") == "core"
        assert component_of("repro.sim.hierarchy") == "hierarchy"
        assert component_of("repro.cache.port") == "llc-port"
        assert component_of("repro.cache.cache") == "cache"
        assert component_of("repro.mechanisms.dbi_mech") == "mechanism"
        assert component_of("repro.dram.controller") == "dram"
        assert component_of("repro.dramcache.level") == "dramcache"
        assert component_of("repro.core.dbi") == "dbi"
        assert component_of("repro.coreutils") == "other"
        assert component_of("repro.check.engine") == "check"
        assert component_of("some.third.party") == "other"

    def test_sites_aggregate_calls_and_seconds(self):
        profiler = SimProfiler()

        def tick():
            pass

        for _ in range(5):
            profiler(tick)
        sites = profiler.top_sites()
        assert len(sites) == 1
        site, calls, seconds = sites[0]
        assert "tick" in site
        assert calls == 5
        assert seconds >= 0.0
        assert profiler.seconds >= seconds

    def test_component_shares_and_report_shapes(self):
        queue = EventQueue()
        profiler = SimProfiler()
        queue.profiler = profiler
        queue.schedule(1, lambda: None)
        queue.run()
        shares = profiler.component_shares()
        assert sum(calls for calls, _ in shares.values()) == 1
        report = profiler.to_dict(wall_seconds=0.5)
        assert report["events_profiled"] == 1
        assert report["wall_seconds"] == 0.5
        assert set(report["components"]) == set(shares)
        text = profiler.to_text(wall_seconds=0.5)
        assert "profiled 1 callbacks" in text

    def test_callbacks_unwrap_to_the_function_that_runs(self):
        class Owner:
            def method(self, a, b):
                pass

        owner = Owner()
        here = (__name__, Owner.method.__qualname__)
        assert callback_site(owner.method) == here
        assert callback_site(functools.partial(owner.method, 1, 2)) == here
        assert callback_site(functools.partial(_deliver_block, owner.method)) == here

    def test_sites_are_callback_functions_not_instances(self):
        """Thousands of partials over a handful of methods: one row per
        method, and the hierarchy's callbacks are charged to ``hierarchy``."""
        scale = SCALES["quick"]
        trace = scale.benchmark_trace("lbm", refs=2000)
        profiler = SimProfiler()
        run_system(scale.system_config("dbi+awb"), [trace], profiler=profiler)
        sites = profiler.top_sites(limit=10_000)
        functions = {site for site, _calls, _seconds in sites}
        assert len(sites) == len(functions)
        # Every site names a function; none is a partial's repr.
        assert all("partial" not in site and "<" not in site for site in functions)
        # The simulator defines a few dozen callback functions at most.
        assert len(sites) <= 30 < profiler.calls // 100
        shares = profiler.component_shares()
        assert "hierarchy" in shares
        assert "other" not in shares
