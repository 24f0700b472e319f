"""Multi-programmed workload mixes (paper Section 5).

The paper classifies benchmarks into nine categories (read intensity ×
write intensity, each low/medium/high) and builds 102 2-core, 259 4-core and
120 8-core mixes spanning them. We reproduce the construction: mixes cycle
through the category grid, and each core samples a benchmark biased towards
the mix's target category. Each core gets a private address-space offset so
the mix is multi-programmed, not multi-threaded.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.trace import Trace
from repro.utils.rng import DeterministicRng
from repro.utils.validation import check_positive
from repro.workloads.spec import SPEC_PROFILES, BenchmarkProfile, generate_trace

#: Block-address offset between cores: 1<<26 blocks = 4 GB of address space.
CORE_ADDRESS_STRIDE = 1 << 26

INTENSITIES = ("low", "medium", "high")

#: Paper Section 5: mixes evaluated per core count (102 / 259 / 120).
PAPER_MIX_COUNTS = {2: 102, 4: 259, 8: 120}


def paper_mix_count(num_cores: int) -> int:
    """Number of mixes the paper evaluates at ``num_cores`` cores."""
    if num_cores not in PAPER_MIX_COUNTS:
        raise ValueError(
            f"the paper has no {num_cores}-core mix table; core counts with "
            f"full-width tables: {sorted(PAPER_MIX_COUNTS)}"
        )
    return PAPER_MIX_COUNTS[num_cores]


@dataclass(frozen=True)
class WorkloadMix:
    """One multi-programmed workload: a trace per core."""

    name: str
    traces: tuple
    benchmark_names: tuple

    @property
    def num_cores(self) -> int:
        return len(self.traces)


def _profiles_matching(read_intensity: str, write_intensity: str):
    """Profiles in (or nearest to) a target category.

    Write intensity is the first-class axis of this paper (it determines how
    much interference a workload *causes*), so when no benchmark matches the
    category exactly, candidates matching the write intensity are preferred
    over ones matching only the read intensity.
    """
    exact = [
        p
        for p in SPEC_PROFILES.values()
        if p.read_intensity == read_intensity
        and p.write_intensity == write_intensity
    ]
    if exact:
        return exact
    by_write = [
        p for p in SPEC_PROFILES.values()
        if p.write_intensity == write_intensity
    ]
    if by_write:
        return by_write
    by_read = [
        p for p in SPEC_PROFILES.values()
        if p.read_intensity == read_intensity
    ]
    return by_read or list(SPEC_PROFILES.values())


def make_mix(
    name: str,
    profiles: Sequence[BenchmarkProfile],
    refs_per_core: int,
    seed: int = 0xDB1,
    footprint_divisor: int = 1,
) -> WorkloadMix:
    """Build a mix from explicit profiles, one per core."""
    check_positive("refs_per_core", refs_per_core)
    traces: List[Trace] = []
    for core, profile in enumerate(profiles):
        traces.append(
            generate_trace(
                profile,
                refs_per_core,
                # Distinct seeds per core avoid lock-step address streams
                # when the same benchmark appears twice in a mix.
                seed=seed + core * 7919,
                base_addr=core * CORE_ADDRESS_STRIDE,
                footprint_divisor=footprint_divisor,
            )
        )
    return WorkloadMix(
        name=name,
        traces=tuple(traces),
        benchmark_names=tuple(p.name for p in profiles),
    )


@dataclass(frozen=True)
class MixSpec:
    """A mix's identity without its traces: cheap to enumerate at full width.

    Planning the paper's complete 102/259/120 grids must not generate half a
    billion trace records up front, so the benchmark draw (which consumes the
    category rng) is separated from trace construction. ``mix_from_spec``
    builds the traces for exactly one spec, reproducing what
    :func:`category_mixes` would have produced at the same index.
    """

    name: str
    index: int
    benchmark_names: tuple

    @property
    def num_cores(self) -> int:
        return len(self.benchmark_names)


def category_mix_specs(
    num_cores: int, count: int, seed: int = 0xDB1
) -> List[MixSpec]:
    """The benchmark composition of ``count`` category-cycling mixes.

    Consumes the derived rng exactly as :func:`category_mixes` does, so the
    spec at index ``i`` names the same benchmarks the full generator would
    assign to mix ``i``.
    """
    check_positive("num_cores", num_cores)
    check_positive("count", count)
    rng = DeterministicRng(seed).derive(f"mixes:{num_cores}")
    grid = list(itertools.product(INTENSITIES, INTENSITIES))
    specs: List[MixSpec] = []
    for index in range(count):
        read_intensity, write_intensity = grid[index % len(grid)]
        pool = _profiles_matching(read_intensity, write_intensity)
        names = tuple(rng.choice(pool).name for _ in range(num_cores))
        specs.append(
            MixSpec(
                name=(
                    f"{num_cores}c_r{read_intensity[0].upper()}"
                    f"_w{write_intensity[0].upper()}_{index:03d}"
                ),
                index=index,
                benchmark_names=names,
            )
        )
    return specs


def mix_from_spec(
    spec: MixSpec,
    refs_per_core: int,
    seed: int = 0xDB1,
    footprint_divisor: int = 1,
) -> WorkloadMix:
    """Materialize one spec's traces (identical to the full-table mix)."""
    return make_mix(
        spec.name,
        [SPEC_PROFILES[name] for name in spec.benchmark_names],
        refs_per_core,
        seed=seed + spec.index,
        footprint_divisor=footprint_divisor,
    )


def category_mixes(
    num_cores: int,
    count: int,
    refs_per_core: int,
    seed: int = 0xDB1,
    footprint_divisor: int = 1,
) -> List[WorkloadMix]:
    """Generate ``count`` mixes cycling over the 9 intensity categories.

    Within a mix, each core draws a benchmark biased to the mix's target
    (read, write) intensity, so the returned set spans interference-light
    through interference-heavy combinations, as in the paper's methodology.
    """
    check_positive("refs_per_core", refs_per_core)
    return [
        mix_from_spec(
            spec, refs_per_core, seed=seed, footprint_divisor=footprint_divisor
        )
        for spec in category_mix_specs(num_cores, count, seed=seed)
    ]


def full_mix_specs(num_cores: int, seed: int = 0xDB1) -> List[MixSpec]:
    """The paper's complete mix table for ``num_cores`` cores, as specs."""
    return category_mix_specs(num_cores, paper_mix_count(num_cores), seed=seed)


def mix_table_fingerprint(
    specs: Sequence[MixSpec],
    refs_per_core: int,
    seed: int = 0xDB1,
    footprint_divisor: int = 1,
) -> str:
    """A digest pinning a mix table's identity.

    Covers every input that determines the generated traces — mix names,
    benchmark composition, per-core trace length, seed and footprint scaling
    — without materializing the traces, so campaign resume can cross-check
    that the planned table still regenerates bit-identically.
    """
    digest = hashlib.sha256()
    digest.update(f"mixtable:v1:{refs_per_core}:{seed}:{footprint_divisor}"
                  .encode())
    for spec in specs:
        digest.update(
            f"|{spec.index}:{spec.name}:{','.join(spec.benchmark_names)}"
            .encode()
        )
    return digest.hexdigest()
