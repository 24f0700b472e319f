"""Ceilings on Python-level work per simulated memory reference.

Simulator speed is bound by its cost per reference, and in CPython that cost
tracks the number of calls made per reference. Counting calls under
``cProfile`` is deterministic for a given interpreter version, unlike
timing, so a ceiling on it keeps the flattened per-reference paths from
quietly growing back: one cell for the core → L1/L2 → LLC path, one for the
memory side under a die-stacked DRAM cache.

Two costs a call count barely sees get their own counters: the
``functools.partial`` objects built per reference (each an allocation of
the partial, its args tuple and a bound method) and the FR-FCFS scans the
memory controller makes per reference.
"""

import cProfile
import functools
import pstats
import sys

import pytest

import repro.dram.controller as controller_module
from repro.analysis.scaling import SCALES
from repro.sim.system import System

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

#: ``functools.partial`` builds per reference on a quick memory-bound cell
#: (mcf under DAWB, seed 1, 6000 references). Measured 5.66 on CPython
#: 3.11; building each core's fill continuations on every miss made 7.58.
PARTIALS_PER_REF_CEILING = 6.0

#: ``select_fr_fcfs`` scans per reference on the same cell. Measured 1.894;
#: rescanning lists nothing had changed on since their last empty scan
#: (no blocked-until memo) made 2.605.
SCANS_PER_REF_CEILING = 2.0


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
