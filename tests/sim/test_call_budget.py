"""Ceiling on Python-level calls per simulated memory reference.

Simulator speed is bound by its cost per reference, and in CPython that cost
tracks the number of calls made per reference. Counting calls under
``cProfile`` is deterministic for a given interpreter version, unlike
timing, so a ceiling on it keeps the flattened per-reference path from
quietly growing back.
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


def test_quick_cell_stays_under_the_call_ceiling():
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("bzip2", seed=1, refs=6000)
    system = System(scale.system_config("tadip"), [trace])
    profile = cProfile.Profile()
    profile.enable()
    try:
        system.run()
    finally:
        profile.disable()
    calls = sum(row[1] for row in pstats.Stats(profile).stats.values())
    per_ref = calls / len(trace.records)
    assert per_ref <= CALLS_PER_REF_CEILING, (
        f"{per_ref:.1f} calls per reference (ceiling {CALLS_PER_REF_CEILING})"
    )
