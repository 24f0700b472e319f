"""Batch trace generation against the per-draw generator it replaced.

The oracle below is the per-draw generator verbatim: one ``randint`` /
``chance`` / ``geometric`` method chain per draw and one ``next_address()``
call per reference. It lives only here. The batch generator in ``src/`` must
reproduce its records exactly, and leave every pattern in the state the
per-draw calls leave it in, because job keys, warm images, golden fixtures
and benchmark digests all hash those records.
"""

import tracemalloc

import pytest

from repro.utils.rng import LANE, MIN_LANES, DeterministicRng
from repro.workloads.mix import (
    CORE_ADDRESS_STRIDE,
    category_mix_specs,
    make_mix,
    mix_from_spec,
)
from repro.workloads.spec import (
    SPEC_PROFILES,
    TRACE_CHUNK,
    generate_trace,
    spec_trace,
)
from repro.workloads.synthetic import make_pattern


# ---------------------------------------------------------------------------
# Oracle: the per-draw patterns and generator.
# ---------------------------------------------------------------------------


class OracleStream:
    def __init__(self, rng, footprint, stride=1):
        self.rng = rng
        self.footprint = footprint
        self.stride = stride
        self._cursor = 0

    def next_address(self):
        addr = self._cursor
        self._cursor = (self._cursor + self.stride) % self.footprint
        return addr


class OracleRandom:
    def __init__(self, rng, footprint):
        self.rng = rng
        self.footprint = footprint

    def next_address(self):
        return self.rng.randint(0, self.footprint - 1)


class OracleHotCold:
    def __init__(self, rng, footprint, hot_fraction=0.1, hot_probability=0.9):
        self.rng = rng
        self.footprint = footprint
        self.hot_blocks = max(1, int(footprint * hot_fraction))
        self.hot_probability = hot_probability

    def next_address(self):
        if self.rng.chance(self.hot_probability):
            return self.rng.randint(0, self.hot_blocks - 1)
        return self.rng.randint(0, self.footprint - 1)


class OracleRegion:
    def __init__(
        self, rng, footprint, region_blocks=128, burst_length=24,
        revisit="random",
    ):
        self.rng = rng
        self.footprint = footprint
        self.region_blocks = min(region_blocks, footprint)
        self.burst_length = burst_length
        self.revisit = revisit
        self._remaining = 0
        self._region_base = 0
        num_regions = max(1, self.footprint // self.region_blocks)
        self._num_regions = num_regions
        if revisit == "cycle":
            self._order = list(range(num_regions))
            self.rng.shuffle(self._order)
            self._cursor = 0

    def _next_region(self):
        if self.revisit == "cycle":
            region = self._order[self._cursor]
            self._cursor = (self._cursor + 1) % self._num_regions
            return region
        return self.rng.randint(0, self._num_regions - 1)

    def next_address(self):
        if self._remaining == 0:
            self._region_base = self._next_region() * self.region_blocks
            self._remaining = self.burst_length
        self._remaining -= 1
        offset = self.rng.randint(0, self.region_blocks - 1)
        return min(self._region_base + offset, self.footprint - 1)


ORACLE_PATTERNS = {
    "stream": OracleStream,
    "cyclic": OracleStream,
    "random": OracleRandom,
    "hotcold": OracleHotCold,
    "region": OracleRegion,
}


def oracle_trace_records(
    profile, num_refs, seed=0xDB1, base_addr=0, footprint_divisor=1
):
    footprint = max(256, profile.footprint_blocks // footprint_divisor)
    pattern_args = dict(profile.pattern_args)
    if "region_blocks" in pattern_args:
        pattern_args["region_blocks"] = max(
            16, pattern_args["region_blocks"] // footprint_divisor
        )
    rng = DeterministicRng(seed).derive(f"workload:{profile.name}")
    pattern = ORACLE_PATTERNS[profile.pattern](
        rng.derive("addresses"), footprint, **pattern_args
    )
    write_pattern = pattern
    if profile.write_pattern is not None:
        write_args = dict(profile.write_pattern_args)
        if "region_blocks" in write_args:
            write_args["region_blocks"] = max(
                16, write_args["region_blocks"] // footprint_divisor
            )
        write_pattern = ORACLE_PATTERNS[profile.write_pattern](
            rng.derive("write-addresses"), footprint, **write_args
        )
    gaps = rng.derive("gaps")
    writes = rng.derive("writes")
    records = []
    for _ in range(num_refs):
        is_write = writes.chance(profile.write_fraction)
        source = write_pattern if is_write else pattern
        records.append(
            (
                gaps.geometric(profile.mean_gap),
                is_write,
                base_addr + source.next_address(),
            )
        )
    return records


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------

SEEDS = (1, 0xDB1, 101)
DIVISORS = (1, 8, 16)
BASES = (0, CORE_ADDRESS_STRIDE)
#: Lengths on both sides of the first batch edge, and one past two edges.
LENGTHS = (1, 7, TRACE_CHUNK, TRACE_CHUNK + 1, 12000)


def test_lengths_cross_batch_edges():
    assert max(LENGTHS) > 2 * TRACE_CHUNK


@pytest.mark.parametrize("name", list(SPEC_PROFILES))
def test_generate_trace_matches_the_per_draw_oracle(name):
    profile = SPEC_PROFILES[name]
    for seed in SEEDS:
        for divisor in DIVISORS:
            # The oracle's loop never looks ahead, so its first n records
            # are its n-record trace, and base_addr only offsets addresses.
            oracle = oracle_trace_records(
                profile, max(LENGTHS), seed, footprint_divisor=divisor
            )
            for base in BASES:
                for length in LENGTHS:
                    trace = generate_trace(
                        profile, length, seed, base_addr=base,
                        footprint_divisor=divisor,
                    )
                    expected = [
                        (gap, is_write, base + addr)
                        for gap, is_write, addr in oracle[:length]
                    ]
                    assert trace.records == expected, (
                        name, seed, divisor, base, length
                    )


def test_mixes_match_the_per_draw_oracle():
    refs = TRACE_CHUNK + 100
    for spec in category_mix_specs(4, 9, seed=3):
        mix = mix_from_spec(spec, refs, seed=3, footprint_divisor=16)
        for core, (name, trace) in enumerate(
            zip(spec.benchmark_names, mix.traces)
        ):
            assert trace.records == oracle_trace_records(
                SPEC_PROFILES[name],
                refs,
                seed=3 + spec.index + core * 7919,
                base_addr=core * CORE_ADDRESS_STRIDE,
                footprint_divisor=16,
            ), (spec.name, core)
    profiles = [SPEC_PROFILES["mcf"], SPEC_PROFILES["mcf"]]
    mix = make_mix("twins", profiles, 500, seed=9)
    for core, trace in enumerate(mix.traces):
        assert trace.records == oracle_trace_records(
            profiles[core], 500, seed=9 + core * 7919,
            base_addr=core * CORE_ADDRESS_STRIDE,
        )


#: Batch sizes for ``raw``: the scalar loop alone, either side of the
#: smallest lane batch, whole lanes and a lane plus or minus one, and
#: trace-sized batches with and without a scalar tail.
RAW_COUNTS = (
    0, 1, 5, 63, 64, 65,
    LANE * MIN_LANES - 1, LANE * MIN_LANES, LANE * MIN_LANES + 1,
    1000, 1023, 1024, 1025, 4096, 8192, 12345,
)


def test_raw_counts_cross_the_lane_threshold():
    assert min(RAW_COUNTS) < LANE * MIN_LANES < max(RAW_COUNTS)


@pytest.mark.parametrize(
    "seed", [0, 1, 0xDB1, 2**64 - 1, (1 << 63) | 0xDB1]
)
def test_raw_equals_next_u64_draws(seed):
    batch, single = DeterministicRng(seed), DeterministicRng(seed)
    for count in RAW_COUNTS:
        assert batch.raw(count) == [single.next_u64() for _ in range(count)], (
            seed, count
        )
        assert batch._state == single._state, (seed, count)


def test_raw_rejects_a_negative_count():
    rng = DeterministicRng(1)
    with pytest.raises(ValueError, match="count must be non-negative, got -3"):
        rng.raw(-3)
    assert rng._state == DeterministicRng(1)._state


#: (kind, pattern kwargs) covering every pattern and both region revisits,
#: with bursts shorter and longer than the split points below.
PATTERN_CASES = [
    ("stream", {}),
    ("stream", {"stride": 3}),
    ("cyclic", {}),
    ("random", {}),
    ("hotcold", {"hot_fraction": 0.2, "hot_probability": 0.8}),
    ("region", {"region_blocks": 16, "burst_length": 6}),
    ("region", {"region_blocks": 16, "burst_length": 1}),
    ("region", {"region_blocks": 64, "burst_length": 16, "revisit": "cycle"}),
    ("region", {"region_blocks": 16, "burst_length": 7, "revisit": "cycle"}),
]

SPLITS = [(0, 0), (0, 5), (1, 1), (5, 0), (6, 6), (7, 30), (100, 37)]


def pattern_state(pattern):
    state = {k: v for k, v in vars(pattern).items() if k != "rng"}
    state["rng"] = pattern.rng._state
    return state


def oracle_state(pattern):
    state = {
        k: v for k, v in vars(pattern).items()
        if k.startswith("_") or k == "rng"
    }
    state["rng"] = pattern.rng._state
    return state


@pytest.mark.parametrize("kind,kwargs", PATTERN_CASES)
def test_pattern_batches_split_anywhere(kind, kwargs):
    footprint = 1000
    for first, second in SPLITS:
        whole = make_pattern(kind, DeterministicRng(7), footprint, **kwargs)
        parts = make_pattern(kind, DeterministicRng(7), footprint, **kwargs)
        expected = whole.addresses(first + second)
        assert parts.addresses(first) + parts.addresses(second) == expected
        assert pattern_state(parts) == pattern_state(whole)


@pytest.mark.parametrize("kind,kwargs", PATTERN_CASES)
def test_pattern_batches_match_the_per_draw_oracle(kind, kwargs):
    footprint = 1000
    batch = make_pattern(kind, DeterministicRng(11), footprint, **kwargs)
    oracle = ORACLE_PATTERNS[kind](DeterministicRng(11), footprint, **kwargs)
    for count in (1, 2, 9, 50, 1, 333):
        assert batch.addresses(count) == [
            oracle.next_address() for _ in range(count)
        ]
        expected_state = oracle_state(oracle)
        assert {
            key: pattern_state(batch)[key] for key in expected_state
        } == expected_state
    assert batch.next_address() == oracle.next_address()


# ---------------------------------------------------------------------------
# Bounded temporaries.
# ---------------------------------------------------------------------------

#: Peak traced memory while generating, over the memory the finished trace
#: holds. The per-draw generator peaked at what it held (20.4 MB for 200k
#: bzip2 references); drawing each stream in one batch peaked at 1.61x.
#: Batched, bzip2 and mcf measure 1.011 and 1.012 on CPython 3.11.
PEAK_OVER_HELD_CEILING = 1.10


def test_generation_peak_stays_near_the_trace_it_holds():
    # bzip2 splits reads and stores into two streams, the most per-batch
    # lists any profile builds. (tracemalloc makes this run take seconds.)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        trace = spec_trace("bzip2", 200_000, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 200_000
    held -= before
    peak -= before
    assert peak <= PEAK_OVER_HELD_CEILING * held, (
        f"peak {peak / 1e6:.1f} MB for a trace holding {held / 1e6:.1f} MB"
    )
