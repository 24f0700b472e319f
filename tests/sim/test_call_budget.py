"""Ceilings on Python-level work per simulated memory reference.

Simulator speed is bound by its cost per reference, and in CPython that cost
tracks the number of calls made per reference. Counting calls under
``cProfile`` is deterministic for a given interpreter version, unlike
timing, so a ceiling on it keeps the flattened per-reference paths from
quietly growing back: one cell for the core → L1/L2 → LLC path, one for the
memory side under a die-stacked DRAM cache. Building a System gets a
ceiling of its own, since every cell, sweep job and image restore pays it.

Costs a call count barely sees get their own counters: the
``functools.partial`` objects built per reference (each an allocation of
the partial, its args tuple and a bound method), the FR-FCFS scans the
memory controller makes per reference, the ``Event`` entries built (audit
callbacks only; an unchecked run builds none) and the controller dispatches
per reference.
"""

import cProfile
import functools
import pstats
import sys

import pytest

import repro.dram.controller as controller_module
from repro.analysis.scaling import SCALES
from repro.dram.controller import MemoryController
from repro.sim.system import System
from repro.utils.events import Event
from repro.workloads.spec import spec_trace

pytestmark = pytest.mark.benchmark

#: Calls per reference on one quick single-core cell (bzip2 under TA-DIP,
#: seed 1, 6000 references; the System is built outside the profile).
#: Measured 63.4 on CPython 3.11; the layered kernel and hierarchy (one
#: Event per schedule) made 100.2.
CALLS_PER_REF_CEILING = 70

#: Calls per reference on the stacked path (lbm under dbi+awb over the
#: ``dbi``-backend DRAM cache, seed 1, 6000 references). Measured 157.2 on
#: CPython 3.11; the two-scan FR-FCFS dispatch with a call per decode,
#: phase update, wake arm and issue made 181.7.
STACKED_CALLS_PER_REF_CEILING = 165

#: Calls made building the stacked System above (the trace and config are
#: made outside the profile). Measured 276 on CPython 3.11; one entry
#: object per DBI way made 890 (576 of them entry constructions), one
#: ``CacheBlock`` object per tag entry (10,528, 8,192 of them DRAM-cache
#: tags) and a generator summing the trace's gaps made 18,636. The ceiling
#: leaves a 12% margin.
STACKED_BUILD_CALLS_CEILING = 310

#: ``functools.partial`` builds per reference on a quick memory-bound cell
#: (mcf under DAWB, seed 1, 6000 references). Measured 5.66 on CPython
#: 3.11; building each core's fill continuations on every miss made 7.58.
PARTIALS_PER_REF_CEILING = 6.0

#: ``select_fr_fcfs`` scans per reference on the same cell. Measured 1.894;
#: rescanning lists nothing had changed on since their last empty scan
#: (no blocked-until memo) made 2.605.
SCANS_PER_REF_CEILING = 2.0

#: ``MemoryController._dispatch`` calls per reference on the same cell.
#: Measured 0.977 (5,859 of 10,122 wakes); a wake whose blocked-until memo
#: still holds re-arms without calling it. When every wake dispatched, 1.687.
#: The ceiling leaves a 12% margin.
DISPATCHES_PER_REF_CEILING = 1.1


#: Calls per generated reference while drawing a trace (mcf and bzip2,
#: seed 1, 12000 references). Measured 1.106 and 1.142 on CPython 3.11: one
#: ``math.log`` per gap, every stream drawn a batch at a time, and about
#: three calls per lane step of each ``DeterministicRng.raw`` batch (a
#: scalar ``raw`` loop made 1.007 and 1.010). A method chain per draw made
#: 14.5 and 16.0; the ceiling leaves room for more per-batch calls but not
#: for one more call per reference.
TRACE_GEN_CALLS_PER_REF_CEILING = 1.5


def calls_per_ref(config, trace) -> float:
    system = System(config, [trace])
    profile = cProfile.Profile()
    profile.enable()
    try:
        system.run()
    finally:
        profile.disable()
    calls = sum(row[1] for row in pstats.Stats(profile).stats.values())
    return calls / len(trace.records)


def test_quick_cell_stays_under_the_call_ceiling():
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("bzip2", seed=1, refs=6000)
    per_ref = calls_per_ref(scale.system_config("tadip"), trace)
    assert per_ref <= CALLS_PER_REF_CEILING, (
        f"{per_ref:.1f} calls per reference (ceiling {CALLS_PER_REF_CEILING})"
    )


def test_stacked_memory_side_stays_under_the_call_ceiling():
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("lbm", seed=1, refs=6000)
    config = scale.system_config(
        "dbi+awb", dram_cache=scale.dram_cache_config(dirty_backend="dbi")
    )
    per_ref = calls_per_ref(config, trace)
    assert per_ref <= STACKED_CALLS_PER_REF_CEILING, (
        f"{per_ref:.1f} calls per reference "
        f"(ceiling {STACKED_CALLS_PER_REF_CEILING})"
    )


def test_stacked_build_stays_under_the_call_ceiling():
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("lbm", seed=1, refs=6000)
    config = scale.system_config(
        "dbi+awb", dram_cache=scale.dram_cache_config(dirty_backend="dbi")
    )
    profile = cProfile.Profile()
    profile.enable()
    try:
        System(config, [trace])
    finally:
        profile.disable()
    calls = sum(row[1] for row in pstats.Stats(profile).stats.values())
    assert calls <= STACKED_BUILD_CALLS_CEILING, (
        f"{calls} calls building the System "
        f"(ceiling {STACKED_BUILD_CALLS_CEILING})"
    )


@pytest.mark.parametrize("name", ["mcf", "bzip2"])
def test_trace_generation_stays_under_the_call_ceiling(name):
    refs = 12000
    profile = cProfile.Profile()
    profile.enable()
    try:
        spec_trace(name, refs, seed=1)
    finally:
        profile.disable()
    calls = sum(row[0] for row in pstats.Stats(profile).stats.values())
    per_ref = calls / refs
    assert per_ref <= TRACE_GEN_CALLS_PER_REF_CEILING, (
        f"{per_ref:.2f} calls per generated reference "
        f"(ceiling {TRACE_GEN_CALLS_PER_REF_CEILING})"
    )


def memory_bound_cell():
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("mcf", seed=1, refs=6000)
    return System(scale.system_config("dawb"), [trace]), len(trace.records)


def test_partial_builds_stay_under_the_ceiling(monkeypatch):
    builds = 0

    def counting_partial(*args, **kwargs):
        nonlocal builds
        builds += 1
        return functools.partial(*args, **kwargs)

    system, refs = memory_bound_cell()
    # Every simulator module that builds partials imported the name.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "partial", None) is (
            functools.partial
        ):
            monkeypatch.setattr(module, "partial", counting_partial)
    system.run()
    per_ref = builds / refs
    assert per_ref <= PARTIALS_PER_REF_CEILING, (
        f"{per_ref:.2f} partial builds per reference "
        f"(ceiling {PARTIALS_PER_REF_CEILING})"
    )


def test_fr_fcfs_scans_stay_under_the_ceiling(monkeypatch):
    scans = 0
    select = controller_module.select_fr_fcfs

    def counting_select(candidates, now):
        nonlocal scans
        scans += 1
        return select(candidates, now)

    system, refs = memory_bound_cell()
    monkeypatch.setattr(controller_module, "select_fr_fcfs", counting_select)
    system.run()
    per_ref = scans / refs
    assert per_ref <= SCANS_PER_REF_CEILING, (
        f"{per_ref:.3f} FR-FCFS scans per reference "
        f"(ceiling {SCANS_PER_REF_CEILING})"
    )


def test_an_unchecked_cell_builds_no_event(monkeypatch):
    """Only audit callbacks are ``Event`` entries; the controller's wake is
    its bound method, removed from its bucket rather than cancelled."""
    built = 0
    init = Event.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    system, _refs = memory_bound_cell()
    monkeypatch.setattr(Event, "__init__", counting_init)
    system.run()
    assert built == 0


def test_dispatches_stay_under_the_ceiling(monkeypatch):
    dispatches = 0
    dispatch = MemoryController._dispatch

    def counting_dispatch(controller):
        nonlocal dispatches
        dispatches += 1
        dispatch(controller)

    system, refs = memory_bound_cell()
    monkeypatch.setattr(MemoryController, "_dispatch", counting_dispatch)
    system.run()
    per_ref = dispatches / refs
    assert per_ref <= DISPATCHES_PER_REF_CEILING, (
        f"{per_ref:.3f} dispatches per reference "
        f"(ceiling {DISPATCHES_PER_REF_CEILING})"
    )
