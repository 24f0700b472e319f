"""SPEC-CPU2006-like benchmark profiles.

Each profile renders into a deterministic synthetic trace that lands in the
same qualitative regime the paper's Figure 6 shows for the benchmark of the
same name: the x-axis there is sorted by rising baseline IPC (mcf lowest,
bwaves highest), write-heavy workloads (lbm, cactusADM, GemsFDTD, stream)
have high WPKI, libquantum is a huge streaming scan with ~unit miss rate
(Skip-Cache/CLB's best case), and bzip2/astar/bwaves mostly fit in cache.

Footprints are stated in 64 B blocks; the paper's LLC is 32768 blocks
(2 MB/core), so a footprint of 262144 blocks is an 8× overcommit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.sim.trace import Trace
from repro.utils.rng import U64_SPAN, DeterministicRng
from repro.utils.validation import check_positive, check_range
from repro.workloads.synthetic import make_pattern


@dataclass(frozen=True)
class BenchmarkProfile:
    """Shape parameters of one synthetic benchmark.

    Attributes:
        name: benchmark label used in figures.
        pattern: address-pattern kind (see `repro.workloads.synthetic`).
        footprint_blocks: distinct blocks the workload can touch.
        mean_gap: mean non-memory instructions between memory references
            (geometric distribution) — compute density.
        write_fraction: probability a reference is a store.
        read_intensity / write_intensity: "low" | "medium" | "high" category
            labels used to build the paper's Section 5 workload mixes.
        pattern_args: extra keyword arguments for the pattern factory.
        write_pattern / write_pattern_args: optional separate address stream
            for stores. Real programs write a much smaller, more concentrated
            working set than they read (stores target the structures being
            built); cache-friendly profiles use this so their dirty working
            set is compact, as the paper's benchmarks' evidently are.
    """

    name: str
    pattern: str
    footprint_blocks: int
    mean_gap: float
    write_fraction: float
    read_intensity: str
    write_intensity: str
    pattern_args: tuple = ()
    write_pattern: str = None
    write_pattern_args: tuple = ()

    def __post_init__(self) -> None:
        check_positive("footprint_blocks", self.footprint_blocks)
        check_range("mean_gap", self.mean_gap, 0.0, 10_000.0)
        check_range("write_fraction", self.write_fraction, 0.0, 1.0)
        for label in (self.read_intensity, self.write_intensity):
            if label not in ("low", "medium", "high"):
                raise ValueError(f"bad intensity label {label!r}")


def _p(name, pattern, footprint, gap, wf, ri, wi, write_pattern=None,
       write_pattern_args=(), **pattern_args):
    return BenchmarkProfile(
        name=name,
        pattern=pattern,
        footprint_blocks=footprint,
        mean_gap=gap,
        write_fraction=wf,
        read_intensity=ri,
        write_intensity=wi,
        pattern_args=tuple(sorted(pattern_args.items())),
        write_pattern=write_pattern,
        write_pattern_args=tuple(sorted(dict(write_pattern_args).items())),
    )


#: The 14 benchmarks of Figure 6, ordered as in the paper (rising baseline IPC).
SPEC_PROFILES: Dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in [
        # Write-heavy array codes use DRAM-row-sized bursts revisited at
        # scattered times: same-row dirty blocks are *written* together but
        # *evicted* apart — the exact scenario of paper Section 3.1 where
        # the baseline's write row locality collapses and AWB restores it.
        # Pointer codes (mcf/omnetpp/milc) still show page-level allocation
        # locality, so they use short region bursts rather than pure random.
        _p("mcf", "region", 262144, 6.0, 0.30, "high", "medium",
           region_blocks=128, burst_length=6),
        _p("lbm", "region", 262144, 6.0, 0.45, "high", "high",
           region_blocks=128, burst_length=16, revisit="cycle"),
        _p("GemsFDTD", "region", 196608, 7.0, 0.38, "high", "high",
           region_blocks=128, burst_length=12, revisit="cycle"),
        _p("soplex", "region", 262144, 8.0, 0.25, "high", "medium",
           region_blocks=128, burst_length=16, revisit="cycle"),
        _p("omnetpp", "region", 196608, 8.0, 0.35, "medium", "medium",
           region_blocks=128, burst_length=6),
        _p("cactusADM", "region", 131072, 9.0, 0.45, "medium", "high",
           region_blocks=128, burst_length=20, revisit="cycle"),
        _p("stream", "region", 262144, 7.0, 0.34, "high", "high",
           region_blocks=128, burst_length=32, revisit="cycle"),
        _p("leslie3d", "region", 131072, 9.0, 0.30, "medium", "medium",
           region_blocks=128, burst_length=16, revisit="cycle"),
        _p("milc", "region", 131072, 9.0, 0.35, "medium", "high",
           region_blocks=128, burst_length=8, revisit="cycle"),
        _p("sphinx3", "hotcold", 65536, 10.0, 0.05, "medium", "low",
           write_pattern="hotcold",
           write_pattern_args={"hot_fraction": 0.1, "hot_probability": 0.95},
           hot_fraction=0.2, hot_probability=0.8),
        _p("libquantum", "cyclic", 131072, 8.0, 0.20, "high", "low"),
        _p("bzip2", "hotcold", 32768, 14.0, 0.30, "low", "low",
           write_pattern="hotcold",
           write_pattern_args={"hot_fraction": 0.08, "hot_probability": 0.98},
           hot_fraction=0.15, hot_probability=0.85),
        _p("astar", "hotcold", 49152, 14.0, 0.25, "low", "low",
           write_pattern="hotcold",
           write_pattern_args={"hot_fraction": 0.1, "hot_probability": 0.98},
           hot_fraction=0.25, hot_probability=0.9),
        _p("bwaves", "stream", 49152, 16.0, 0.15, "low", "low",
           write_pattern="hotcold",
           write_pattern_args={"hot_fraction": 0.05, "hot_probability": 0.97}),
    ]
}


def profile_names() -> List[str]:
    """Figure 6's benchmark order."""
    return list(SPEC_PROFILES.keys())


#: References drawn per batch. Every stream is drawn a batch at a time, so
#: the lists of raw draws a batch builds stay bounded whatever the length.
TRACE_CHUNK = 4096


def _draw_flags(rng: DeterministicRng, probability: float, count: int) -> list:
    """Exactly ``[rng.chance(probability) for _ in range(count)]``."""
    span = U64_SPAN
    return [x / span < probability for x in rng.raw(count)]


def _draw_gaps(rng: DeterministicRng, mean: float, count: int) -> list:
    """Exactly ``[rng.geometric(mean) for _ in range(count)]``."""
    if mean == 0:
        return [0] * count
    log, span, smallest = math.log, U64_SPAN, 2.0 ** -64
    log_q = log(1.0 - 1.0 / (mean + 1.0))
    # A zero draw is the only one whose quotient is 0.0; ``or`` gives it
    # geometric()'s u <= 0 fallback.
    return [int(log(x / span or smallest) / log_q) for x in rng.raw(count)]


def generate_trace(
    profile: BenchmarkProfile,
    num_refs: int,
    seed: int = 0xDB1,
    base_addr: int = 0,
    footprint_divisor: int = 1,
) -> Trace:
    """Render a profile into a concrete trace.

    Args:
        num_refs: memory references to generate (instruction count follows
            from the profile's mean gap).
        seed: workload RNG seed; same (profile, num_refs, seed, base_addr)
            always yields an identical trace.
        base_addr: block-address offset, used to give each core of a
            multi-programmed mix a private address space.
        footprint_divisor: shrink the footprint by this factor — used when
            the cache hierarchy itself is scaled down (see
            ``repro.analysis.scaling``) so working-set-to-cache ratios stay
            faithful to the paper while runs stay fast.
    """
    check_positive("num_refs", num_refs)
    check_positive("footprint_divisor", footprint_divisor)
    footprint = max(256, profile.footprint_blocks // footprint_divisor)
    pattern_args = dict(profile.pattern_args)
    if "region_blocks" in pattern_args:
        # Region bursts model DRAM-row-local phases; the row shrinks with
        # the machine (repro.analysis.scaling), so the burst region must too.
        pattern_args["region_blocks"] = max(
            16, pattern_args["region_blocks"] // footprint_divisor
        )
    rng = DeterministicRng(seed).derive(f"workload:{profile.name}")
    pattern = make_pattern(
        profile.pattern,
        rng.derive("addresses"),
        footprint,
        **pattern_args,
    )
    write_pattern = pattern
    if profile.write_pattern is not None:
        write_args = dict(profile.write_pattern_args)
        if "region_blocks" in write_args:
            write_args["region_blocks"] = max(
                16, write_args["region_blocks"] // footprint_divisor
            )
        write_pattern = make_pattern(
            profile.write_pattern,
            rng.derive("write-addresses"),
            footprint,
            **write_args,
        )
    gaps = rng.derive("gaps")
    writes = rng.derive("writes")
    split = write_pattern is not pattern
    records = []
    for start in range(0, num_refs, TRACE_CHUNK):
        count = min(TRACE_CHUNK, num_refs - start)
        flags = _draw_flags(writes, profile.write_fraction, count)
        if split:
            # Each pattern draws its own stream in reference order; pick
            # each reference's address from the stream its flag names.
            num_writes = sum(flags)
            reads = iter(pattern.addresses(count - num_writes))
            stores = iter(write_pattern.addresses(num_writes))
            addresses = map(next, [stores if flag else reads for flag in flags])
        else:
            addresses = pattern.addresses(count)
        records += zip(
            _draw_gaps(gaps, profile.mean_gap, count),
            flags,
            map(base_addr.__add__, addresses),
        )
    return Trace(name=profile.name, records=records)


def spec_trace(
    name: str,
    num_refs: int,
    seed: int = 0xDB1,
    base_addr: int = 0,
    footprint_divisor: int = 1,
) -> Trace:
    """Generate the named Figure-6 benchmark's trace."""
    if name not in SPEC_PROFILES:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {profile_names()}"
        )
    return generate_trace(
        SPEC_PROFILES[name], num_refs, seed, base_addr, footprint_divisor
    )
