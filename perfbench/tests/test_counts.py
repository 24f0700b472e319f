"""Exact counts repeat between traced runs, and tracing changes no result.

A later change may claim a count change (fewer events per reference, fewer
wakes per request) without timing noise only if these counts repeat exactly
for a seed; this test holds the benchmark to that. Workloads are shrunk so
the test stays fast; the counting code is the benchmark's own.
"""

import pytest

import run
import suite
from tracer import LAYERS

EXACT = (
    "kernel.events_per_ref",
    "dram.wakes_per_request",
    "kernel.cancelled_frac",
    "mechanism.tag_lookups_per_ref",
    "hierarchy.l1_hit_frac",
    "dbi.displacements",
    "dram.write_rejects",
    "dramcache.hit_frac",
)


class SmallMemoryBound(suite.MemoryBound):
    refs = 1_500


class SmallStackedChecked(suite.StackedChecked):
    refs = 1_500


def traced_metrics(workload_cls, tmp_path):
    checker = run.Checker({}, pinned=False)
    metrics, _ = run.traced(workload_cls(7, str(tmp_path)), checker)
    assert checker.attempted > 0
    assert checker.failed == 0, checker.mismatches  # traced == untraced
    return {name: value for name, (value, _unit) in metrics.items()}


@pytest.mark.parametrize("workload_cls", [SmallMemoryBound, SmallStackedChecked])
def test_exact_counts_repeat(workload_cls, tmp_path):
    first = traced_metrics(workload_cls, tmp_path)
    second = traced_metrics(workload_cls, tmp_path)
    for name in EXACT:
        assert first[name] == second[name], name
    assert first["kernel.events_per_ref"] > 0
    assert first["dbi.displacements"] > 0
    rows = [first[f"{layer}.self_s"] for layer in LAYERS]
    assert sum(rows) == pytest.approx(first["trace.wall_s"], rel=1e-9)


def test_layers_that_must_stay_off(tmp_path):
    metrics = traced_metrics(SmallMemoryBound, tmp_path)
    for layer in ("dramcache", "check", "telemetry", "runner", "campaign"):
        assert metrics[f"{layer}.calls"] == 0, layer
    for layer in ("mechanism", "dbi", "dram", "kernel"):
        assert metrics[f"{layer}.self_s"] > 0, layer
