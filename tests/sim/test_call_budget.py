"""Ceilings on Python-level calls per simulated memory reference.

Simulator speed is bound by its cost per reference, and in CPython that cost
tracks the number of calls made per reference. Counting calls under
``cProfile`` is deterministic for a given interpreter version, unlike
timing, so a ceiling on it keeps the flattened per-reference paths from
quietly growing back: one cell for the core → L1/L2 → LLC path, one for the
memory side under a die-stacked DRAM cache.
"""

import cProfile
import pstats

import pytest

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
