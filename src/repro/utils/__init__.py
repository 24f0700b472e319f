"""Shared infrastructure: event queue, deterministic RNG, bit utilities, stats.

These modules are deliberately dependency-free so every other subpackage
(`repro.dram`, `repro.cache`, `repro.core`, ...) can build on them without
import cycles.
"""

from repro.utils.bits import (
    bit_length_of,
    ceil_div,
    ilog2,
    is_power_of_two,
    iter_set_bits,
    mask,
    popcount,
)
from repro.utils.events import Event, EventQueue
from repro.utils.rng import DeterministicRng
from repro.utils.stats import StatRecord
from repro.utils.validation import check_positive, check_power_of_two, check_range

__all__ = [
    "Event",
    "EventQueue",
    "DeterministicRng",
    "StatRecord",
    "bit_length_of",
    "ceil_div",
    "ilog2",
    "is_power_of_two",
    "iter_set_bits",
    "mask",
    "popcount",
    "check_positive",
    "check_power_of_two",
    "check_range",
]
