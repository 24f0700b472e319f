"""Host-speed calibration: a fixed pure-Python loop timed next to each step.

A shared host changes speed by 10-30% over tens of seconds as other tenants
load the same cores, and the simulator's host seconds move with it. The
benchmark therefore times this loop right before and right after every timed
step (a cell, a campaign job, a set-up) and scales the step's host seconds
by ``(NOMINAL_S / reading) ** elasticity``, where the reading is the mean
of the two calibrations and the elasticity was fitted for that kind of
step. A step's figure then reads in seconds of a host
running at the reference speed, and a host slowdown mostly cancels.

The loop uses nothing from the simulator, so no change to the program can
move it. It is interpreter-bound (integer arithmetic, attribute reads and
writes on a ``__slots__`` object, a method call and list indexing per step)
over a working set small enough to stay in the core's own caches, so it
tracks the speed the core gives the interpreter, not memory traffic.
"""

from __future__ import annotations

import statistics
import time

#: Seconds of one calibration repetition on the reference box (2 vCPU x86,
#: Python 3.11) in its faster state. It only sets the scale of the figures.
NOMINAL_S = 0.005

#: How a simulation's host seconds scale with the loop's. The loop is pure
#: interpreter work and slows by more than a running simulation, part of
#: whose time goes to memory stalls that do not scale with the core's
#: speed. Fitted on the reference box: over 100-230 back-to-back
#: repetitions of each of four cells (lbm, mcf, bzip2, the 4-core mix)
#: while the host switched between a fast and a slow state, log cell
#: seconds against log loop seconds had slope 0.66-0.71 (correlation
#: 0.88-0.90), and the power 0.75 left the least spread (interquartile
#: range over median 0.09, against 0.27-0.33 uncorrected and 0.11-0.17 at
#: power 1). The slope reads low because the readings themselves are noisy.
RUN_ELASTICITY = 0.75

#: The same for set-up (trace generation, object construction), which is
#: interpreter work like the loop: over 225-424 repetitions of the
#: memory-bound and cache-resident set-ups the slope was 0.82-1.03, and
#: the power 1 left the least spread (0.07-0.08, against 0.20-0.35
#: uncorrected and 0.10-0.15 at power 0.75).
SETUP_ELASTICITY = 1.0

#: Loop steps per repetition, and repetitions per :func:`measure`.
STEPS = 22_000
REPEATS = 5


class _Counter:
    __slots__ = ("state", "total")

    def __init__(self) -> None:
        self.state = 12345
        self.total = 0

    def step(self, table: list) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = self.state & 63
        table[slot] += 1
        return slot


def _loop(steps: int) -> int:
    counter = _Counter()
    table = [0] * 64
    for _ in range(steps):
        counter.total += counter.step(table)
    return counter.total


def measure() -> float:
    """Median host seconds of :data:`REPEATS` calibration repetitions."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop(STEPS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(calibration_s: float, elasticity: float = RUN_ELASTICITY) -> float:
    """What host seconds are multiplied by, given a calibration reading."""
    return (NOMINAL_S / calibration_s) ** elasticity


def normalize(
    host_s: float, calibration_s: float, elasticity: float = RUN_ELASTICITY
) -> float:
    """Host seconds of a step, scaled to the reference speed.

    ``calibration_s`` is what :func:`measure` read while the step ran: the
    mean of a reading just before and one just after it.
    """
    return host_s * factor(calibration_s, elasticity)
