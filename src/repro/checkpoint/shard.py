"""Within-run sharding: one long run split into stitched epoch segments.

The SweepRunner parallelizes *across* cells; a full-scale campaign cell is
one long run, so the slowest cell bounds wall-clock. Sharding splits the
measurement region of a single run into ``count`` contiguous instruction
segments, simulates each in its own job (distributable across workers),
and stitches the per-segment stat deltas back into one
:class:`~repro.sim.system.SimulationResult`.

A sharded cell warms once. :func:`warm_cell` builds the system, runs it to
its warmup boundary and quiesces and rebases it (the same protocol as
sampled mode); the sweep runner snapshots that state to a content-addressed
cell image. Each segment job restores its own copy of the image, and
:func:`run_shard` functionally fast-forwards past the earlier segments
(:func:`repro.checkpoint.sampled.fast_forward_core`), then runs its own
segment in detail, bracketing cumulative stats around it. A snapshot
restores exactly, so a segment run from the image is byte-identical to one
run on a system warmed in place. The result is a SMARTS-style
approximation of the whole run: detailed coverage of the entire
measurement region, with segment boundaries warmed functionally rather than
carried over cycle-exactly. Segments are deterministic, so a killed
campaign re-simulates any lost segment to identical bytes and the stitched
cell stays byte-stable across resumes.

Per-shard results double as segment samples: :func:`shard_estimates` runs
the sampled-window Student-t estimator over the per-shard metric values,
which is where campaign surfaces get their confidence intervals for
sharded cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.checkpoint.sampled import (
    MetricEstimate,
    _estimate,
    _read_raw_stats,
    _synthesize_result,
    _window_delta,
    fast_forward_core,
)
from repro.checkpoint.snapshot import CheckpointError
from repro.checkpoint.warm import quiesce, rebase_measurement, run_until_warm
from repro.sim.system import SimulationResult, System, SystemConfig

#: Detailed-run granularity: the segment boundary is checked every chunk.
SHARD_CHUNK_CYCLES = 1_000


@dataclass(frozen=True)
class ShardSpec:
    """Which contiguous segment of the measurement region this job covers."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"sharding needs count >= 2, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} out of range for {self.count}"
            )

    def key(self) -> str:
        """Stable cache-key component for this shard."""
        return f"{self.index}/{self.count}"

    def to_dict(self) -> Dict:
        return {"index": self.index, "count": self.count}

    @classmethod
    def from_dict(cls, data: Dict) -> "ShardSpec":
        return cls(index=data["index"], count=data["count"])


def warm_cell(config: SystemConfig, traces: Sequence) -> System:
    """Build the cell's system and bring it to the start of segment 0.

    Warm → quiesce → rebase: the state every segment of the cell starts
    from, and what the sweep runner snapshots as the cell image.
    """
    system = System(config, traces)
    if system.check_engine is not None:
        raise CheckpointError(
            "sharded runs do not compose with the check engine: the "
            "functional fast-forward between segments mutates dirty state "
            "without the writeback events the ledger audits"
        )
    run_until_warm(system)
    quiesce(system)
    rebase_measurement(system)
    return system


def run_shard(system: System, spec: ShardSpec) -> SimulationResult:
    """Simulate one segment of a warmed cell and return its stat deltas.

    ``system`` is a fresh :func:`warm_cell` result (or a restore of its
    image); the segment consumes it. Functionally skip the first
    ``index/count`` of each core's measurement span, then run the segment
    in detail. The last shard runs until every core finishes measuring, so
    the union of segments covers the whole region.
    """
    cores = system.cores
    queue = system.queue
    spans = [
        max(0, core.instruction_limit - core._instr_count) for core in cores
    ]
    for core, span in zip(cores, spans):
        skip = (span * spec.index) // spec.count
        if skip > 0 and not core.finished:
            fast_forward_core(system, core, skip)
    targets = [
        (span * (spec.index + 1)) // spec.count
        - (span * spec.index) // spec.count
        for span in spans
    ]

    start_stats = _read_raw_stats(system)
    start_instr = [core._instr_count for core in cores]
    start_cycle = queue.now
    for core in cores:
        core.unpause()
    last = spec.index == spec.count - 1
    while True:
        before = queue.events_processed
        queue.run(until=queue.now + SHARD_CHUNK_CYCLES)
        if system._measured >= len(cores):
            break
        if queue.events_processed == before:
            break  # queue drained without measuring out: nothing left to do
        if not last and all(
            core.finished
            or core._instr_count - start_instr[index] >= targets[index]
            for index, core in enumerate(cores)
        ):
            break
    # Bracket at the chunk boundary, before the drain (same rationale as
    # sampled windows: the quiesce's forced flush is not steady-state work).
    end_stats = _read_raw_stats(system)
    end_instr = [core._instr_count for core in cores]
    window = _window_delta(
        start_stats, end_stats, start_instr, end_instr,
        cycles=max(1, queue.now - start_cycle),
    )
    if window.instructions <= 0:
        raise CheckpointError(
            f"shard {spec.key()} issued no instructions (measurement region "
            "shorter than the shard grid; lower the shard count)"
        )
    return _synthesize_result(system, [window])


def stitch_shards(results: Sequence[SimulationResult]) -> SimulationResult:
    """Merge per-shard results into one whole-run result.

    Counters, rate ``.hits``/``.total`` and dist ``.count`` components sum;
    rate ratios and dist means are recomputed from the summed components;
    per-core instructions and cycles sum, and IPC is recomputed. Key order
    follows first appearance, so stitching is deterministic.
    """
    if not results:
        raise ValueError("nothing to stitch")
    first = results[0]
    num_cores = len(first.ipc)
    for result in results[1:]:
        if result.mechanism != first.mechanism:
            raise ValueError(
                f"cannot stitch shards of different mechanisms "
                f"({first.mechanism!r} vs {result.mechanism!r})"
            )
        if list(result.trace_names) != list(first.trace_names):
            raise ValueError("cannot stitch shards of different workloads")

    sums: Dict[str, float] = {}
    dist_totals: Dict[str, float] = {}
    for result in results:
        for key, value in result.stats.items():
            sums[key] = sums.get(key, 0) + value
            if key.endswith(".mean"):
                count = result.stats.get(f"{key[:-5]}.count", 0)
                dist_totals[key] = dist_totals.get(key, 0.0) + value * count

    stats: Dict[str, float] = {}
    for key, value in sums.items():
        if f"{key}.hits" in sums and f"{key}.total" in sums:
            total = sums[f"{key}.total"]
            stats[key] = sums[f"{key}.hits"] / total if total else 0.0
        elif key.endswith(".mean"):
            count = sums.get(f"{key[:-5]}.count", 0)
            stats[key] = dist_totals.get(key, 0.0) / count if count else 0.0
        else:
            stats[key] = value

    instructions = [
        sum(result.instructions[core] for result in results)
        for core in range(num_cores)
    ]
    cycles = [
        sum(result.cycles[core] for result in results)
        for core in range(num_cores)
    ]
    return SimulationResult(
        mechanism=first.mechanism,
        trace_names=list(first.trace_names),
        ipc=[
            instr / cyc if cyc else 0.0
            for instr, cyc in zip(instructions, cycles)
        ],
        cycles=cycles,
        instructions=instructions,
        total_instructions_issued=max(1, sum(instructions)),
        stats=stats,
        events_processed=sum(result.events_processed for result in results),
    )


def shard_estimates(
    results: Sequence[SimulationResult], rel_ci_floor: float = 0.0
) -> Dict[str, MetricEstimate]:
    """Student-t 95% estimates over per-shard metric values.

    Treats each segment as one sample of the run's steady state — the same
    estimator the sampled-window mode uses, so sharded campaign cells
    surface comparable confidence intervals.
    """
    series: Dict[str, List[float]] = {}
    for result in results:
        cycles = result.cycles[0] if result.cycles else 0
        if cycles:
            series.setdefault("ipc", []).append(
                sum(result.instructions) / cycles
            )
        for name in ("write_row_hit_rate", "read_row_hit_rate"):
            total = result.stats.get(f"dram.{name}.total", 0)
            if total:
                series.setdefault(name, []).append(
                    result.stats.get(f"dram.{name}.hits", 0) / total
                )
    return {
        name: _estimate(values, rel_ci_floor)
        for name, values in series.items()
        if values
    }
