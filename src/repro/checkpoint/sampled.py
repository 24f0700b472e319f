"""SMARTS-style sampled simulation: detailed windows + functional fast-forward.

Instead of simulating the whole measurement region in detail, sampled mode
alternates:

* a **detailed window** of ``window_cycles`` simulated cycles, driven by the
  normal event-driven model — per-metric values are taken as stat *deltas*
  bracketed by the window (state pollution from fast-forwarding is excluded
  by construction);
* a **functional fast-forward** that advances each core's trace cursor by
  its share of the remaining instructions, warming the L1/L2/LLC contents,
  replacement state and dirty bits (in-tag or DBI) without events, timing,
  or stat-visible side effects inside any window.

Per-window metric values yield a mean and a Student-t confidence interval
(95%); a relative half-width floor absorbs the small bias the functional
warming cannot remove. The summed window deltas also synthesize an ordinary
:class:`~repro.sim.system.SimulationResult`, so sampled runs drop into the
experiment tables unchanged.

Sampled results approximate full-run results (validated against full-run
goldens by ``tests/checkpoint/test_sampled.py``); they are never
byte-identical, so sweep-cache keys include the sampled parameters.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.snapshot import CheckpointError
from repro.checkpoint.warm import quiesce, warm_cell
from repro.sim.system import SimulationResult, System, SystemConfig

#: Two-sided 95% Student-t critical values by degrees of freedom; beyond the
#: table the normal approximation is used.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value (normal approximation past df=30)."""
    if df < 1:
        raise ValueError("need at least two samples for an interval")
    return _T95.get(df, 1.960)


@dataclass(frozen=True)
class SampledConfig:
    """Knobs of one sampled run.

    Attributes:
        windows: number of detailed measurement windows.
        window_cycles: simulated cycles per measured detailed window.
        warmup_cycles: detailed cycles run after each fast-forward *before*
            the stat bracket opens (SMARTS "detailed warming"): refills the
            instruction window, MSHRs and DRAM queues so the measured window
            sees steady-state timing, and absorbs the burst of writebacks a
            fast-forward's dirty-state adoption can trigger.
        rel_ci_floor: minimum confidence-interval half-width as a fraction
            of the estimate — absorbs residual functional-warming bias so a
            lucky low-variance sample cannot claim implausible precision.
    """

    windows: int = 8
    window_cycles: int = 2_000
    warmup_cycles: int = 2_000
    rel_ci_floor: float = 0.05

    def __post_init__(self) -> None:
        if self.windows < 2:
            raise ValueError("sampled mode needs at least 2 windows")
        if self.window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be non-negative")
        if not 0.0 <= self.rel_ci_floor < 1.0:
            raise ValueError("rel_ci_floor must be in [0, 1)")

    def key(self) -> str:
        """Stable cache-key component for this parameterization."""
        return (
            f"windows={self.windows},window_cycles={self.window_cycles},"
            f"warmup_cycles={self.warmup_cycles},"
            f"rel_ci_floor={self.rel_ci_floor}"
        )

    @classmethod
    def parse(cls, spec: str) -> "SampledConfig":
        """Build from a CLI spec like ``"windows=8,window_cycles=2000"``."""
        if not spec or spec in ("1", "true", "default"):
            return cls()
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad --sampled component {part!r}; expected key=value"
                )
            key, value = part.split("=", 1)
            key = key.strip()
            if key not in (
                "windows", "window_cycles", "warmup_cycles", "rel_ci_floor"
            ):
                raise ValueError(f"unknown --sampled knob {key!r}")
            kwargs[key] = float(value) if key == "rel_ci_floor" else int(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class MetricEstimate:
    """Mean and 95% confidence interval of one metric over the windows."""

    mean: float
    ci_low: float
    ci_high: float
    samples: int

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high

    def to_dict(self) -> Dict:
        return {
            "mean": self.mean,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "samples": self.samples,
        }


@dataclass
class SampledResult:
    """Outcome of a sampled run: point estimates plus per-metric intervals."""

    result: SimulationResult
    estimates: Dict[str, MetricEstimate]
    windows_run: int
    detailed_instructions: int
    skipped_instructions: int
    sampled: SampledConfig

    def to_dict(self) -> Dict:
        return {
            "windows_run": self.windows_run,
            "detailed_instructions": self.detailed_instructions,
            "skipped_instructions": self.skipped_instructions,
            "estimates": {
                name: estimate.to_dict()
                for name, estimate in self.estimates.items()
            },
            "result": self.result.to_dict(),
        }


# -------------------------------------------------------- stat bracketing


def _read_raw_stats(system: System) -> Tuple[Dict, Dict, Dict]:
    """Raw cumulative values: counters, rate (hits, total), dist (count, sum)."""
    counters: Dict[str, int] = {}
    rates: Dict[str, Tuple[int, int]] = {}
    dists: Dict[str, Tuple[int, int]] = {}
    for group in system._all_stat_groups():
        prefix = group.name
        for name, value in group.counters():
            counters[f"{prefix}.{name}"] = value
        for name, hits, total in group.rates():
            rates[f"{prefix}.{name}"] = (hits, total)
        for name, count, total in group.distributions():
            dists[f"{prefix}.{name}"] = (count, total)
    return counters, rates, dists


@dataclass
class _Window:
    """Deltas of one detailed window."""

    cycles: int
    instructions: int
    per_core_instructions: List[int]
    counters: Dict[str, int]
    rates: Dict[str, Tuple[int, int]]
    dists: Dict[str, Tuple[int, int]]

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)

    def metric_values(self) -> Dict[str, Optional[float]]:
        """Per-window values of the headline metrics (None = no signal)."""
        instr = self.instructions
        values: Dict[str, Optional[float]] = {
            "ipc": instr / self.cycles if self.cycles else None,
        }
        if instr > 0:
            values["tag_lookups_pki"] = 1000.0 * self.counter("mech.tag_lookups") / instr
            values["memory_wpki"] = (
                1000.0 * self.counter("dram.dram_writes_performed") / instr
            )
            values["llc_mpki"] = 1000.0 * (
                self.counter("mech.read_misses")
                + self.counter("mech.bypassed_lookups")
                - self.counter("mech.bypassed_hits")
            ) / instr
        else:
            values["tag_lookups_pki"] = None
            values["memory_wpki"] = None
            values["llc_mpki"] = None
        for name, key in (
            ("write_row_hit_rate", "dram.write_row_hit_rate"),
            ("read_row_hit_rate", "dram.read_row_hit_rate"),
        ):
            hits, total = self.rates.get(key, (0, 0))
            values[name] = hits / total if total else None
        return values


def _window_delta(
    start: Tuple[Dict, Dict, Dict],
    end: Tuple[Dict, Dict, Dict],
    start_instr: List[int],
    end_instr: List[int],
    cycles: int,
) -> _Window:
    counters = {
        key: value - start[0].get(key, 0) for key, value in end[0].items()
    }
    rates = {
        key: (
            hits - start[1].get(key, (0, 0))[0],
            total - start[1].get(key, (0, 0))[1],
        )
        for key, (hits, total) in end[1].items()
    }
    dists = {
        key: (
            count - start[2].get(key, (0, 0))[0],
            total - start[2].get(key, (0, 0))[1],
        )
        for key, (count, total) in end[2].items()
    }
    per_core = [e - s for s, e in zip(start_instr, end_instr)]
    return _Window(
        cycles=cycles,
        instructions=sum(per_core),
        per_core_instructions=per_core,
        counters=counters,
        rates=rates,
        dists=dists,
    )


# --------------------------------------------------- functional fast-forward


def _functional_mark_dirty(mechanism, addr: int) -> None:
    if mechanism.write_through:
        return  # the write went through to memory; no dirty state to keep
    if mechanism.uses_tag_dirty_bits:
        mechanism.llc.mark_dirty(addr)
        return
    # DBI: entry evictions drop their bits; the blocks stay cached (clean)
    # and their writebacks have no timing side to model functionally.
    mechanism.dbi.mark_dirty(addr)


def _functional_evicted(mechanism, evicted) -> None:
    if evicted.dirty:
        return  # functional writeback to memory: nothing to model
    if not mechanism.uses_tag_dirty_bits:
        dbi = getattr(mechanism, "dbi", None)
        if dbi is not None and dbi.peek_dirty(evicted.addr):
            dbi.mark_clean(evicted.addr)


def _functional_llc_read(mechanism, core_id: int, addr: int) -> None:
    llc = mechanism.llc
    if llc.lookup(addr, core_id):
        return
    evicted = llc.insert(addr, core_id=core_id, dirty=False)
    if evicted is not None:
        _functional_evicted(mechanism, evicted)


def _functional_llc_writeback(mechanism, core_id: int, addr: int) -> None:
    llc = mechanism.llc
    if llc.contains(addr):
        llc.touch(addr, core_id)
        _functional_mark_dirty(mechanism, addr)
        return
    dirty_in_tag = mechanism.uses_tag_dirty_bits and not mechanism.write_through
    evicted = llc.insert(addr, core_id=core_id, dirty=dirty_in_tag)
    if evicted is not None:
        _functional_evicted(mechanism, evicted)
    if not dirty_in_tag:
        _functional_mark_dirty(mechanism, addr)


def _functional_l1_writeback(hierarchy, mechanism, core_id: int, addr: int) -> None:
    l2 = hierarchy.l2s[core_id]
    if l2.contains(addr):
        l2.mark_dirty(addr)
        l2.touch(addr, core_id)
        return
    evicted = l2.insert(addr, core_id=core_id, dirty=True)
    if evicted is not None and evicted.dirty:
        _functional_llc_writeback(mechanism, core_id, evicted.addr)


def _functional_access(
    hierarchy, mechanism, core_id: int, addr: int, is_write: bool
) -> None:
    """One memory reference through the hierarchy, contents-only."""
    l1 = hierarchy.l1s[core_id]
    if l1.lookup(addr, core_id):
        if is_write:
            l1.mark_dirty(addr)
        return
    l2 = hierarchy.l2s[core_id]
    if not l2.lookup(addr, core_id):
        _functional_llc_read(mechanism, core_id, addr)
        evicted = l2.insert(addr, core_id=core_id, dirty=False)
        if evicted is not None and evicted.dirty:
            _functional_llc_writeback(mechanism, core_id, evicted.addr)
    evicted = l1.insert(addr, core_id=core_id, dirty=False)
    if evicted is not None and evicted.dirty:
        _functional_l1_writeback(hierarchy, mechanism, core_id, evicted.addr)
    if is_write:
        l1.mark_dirty(addr)


def fast_forward_core(system: System, core, instructions: int) -> int:
    """Advance one (paused, drained) core functionally by ``instructions``.

    Replays the trace into the cache contents and dirty state without
    events or timing; the core's issue pacing is re-anchored at the current
    cycle. Returns the instructions actually skipped.
    """
    if instructions <= 0:
        return 0
    hierarchy = system.hierarchy
    mechanism = system.mechanism
    records = core._records
    pos = core._pos
    count = core._instr_count
    target = count + instructions
    core_id = core.core_id
    while count < target:
        gap, is_write, addr = records[pos]
        pos += 1
        if pos >= len(records):
            pos = 0  # replay the trace, as the detailed core does
        count += gap + 1
        _functional_access(hierarchy, mechanism, core_id, addr, is_write)
    skipped = count - core._instr_count
    core._pos = pos
    core._instr_count = count
    core._issue_time = system.queue.now
    return skipped


# ------------------------------------------------------------- window loop


def _estimate(values: Sequence[float], rel_floor: float) -> MetricEstimate:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        half = abs(mean)  # degenerate: one sample carries no spread information
    else:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        half = t_critical_95(n - 1) * math.sqrt(variance / n)
    half = max(half, rel_floor * abs(mean))
    return MetricEstimate(
        mean=mean, ci_low=mean - half, ci_high=mean + half, samples=n
    )


def _synthesize_result(
    system: System, windows: List[_Window]
) -> SimulationResult:
    """An ordinary SimulationResult from the summed window deltas."""
    num_cores = len(system.cores)
    per_core_instr = [0] * num_cores
    total_cycles = 0
    counters: Dict[str, int] = {}
    rates: Dict[str, List[int]] = {}
    dists: Dict[str, List[int]] = {}
    for window in windows:
        total_cycles += window.cycles
        for index in range(num_cores):
            per_core_instr[index] += window.per_core_instructions[index]
        for key, value in window.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, (hits, total) in window.rates.items():
            entry = rates.setdefault(key, [0, 0])
            entry[0] += hits
            entry[1] += total
        for key, (count, total) in window.dists.items():
            entry = dists.setdefault(key, [0, 0])
            entry[0] += count
            entry[1] += total

    stats: Dict[str, float] = dict(counters)
    for key, (hits, total) in rates.items():
        stats[key] = hits / total if total else 0.0
        stats[f"{key}.hits"] = hits
        stats[f"{key}.total"] = total
    for key, (count, total) in dists.items():
        stats[f"{key}.mean"] = total / count if count else 0.0
        stats[f"{key}.count"] = count

    total_instructions = sum(per_core_instr)
    return SimulationResult(
        mechanism=system.config.mechanism,
        trace_names=[trace.name for trace in system.traces],
        ipc=[
            instr / total_cycles if total_cycles else 0.0
            for instr in per_core_instr
        ],
        cycles=[total_cycles] * num_cores,
        instructions=list(per_core_instr),
        total_instructions_issued=max(1, total_instructions),
        stats=stats,
        events_processed=system.queue.events_processed,
    )


def run_windows(system: System, sampled: SampledConfig) -> SampledResult:
    """Drive a warmed, quiesced system through the detailed-window schedule.

    ``system`` must be paused with all traffic drained (a fresh output of
    :func:`~repro.checkpoint.warm.warm_cell`, a restored warm image,
    or a just-forked cell that has been re-paused); its measurement window
    must be rebased at the current cycle.
    """
    if system.check_engine is not None:
        raise CheckpointError(
            "sampled mode does not compose with the check engine: functional "
            "fast-forward mutates dirty state without the writeback events "
            "the ledger audits"
        )
    if not system.hierarchy.is_idle():
        raise CheckpointError("sampled mode requires a quiesced system")

    cores = system.cores
    queue = system.queue
    spans = []
    for core in cores:
        remaining = max(0, core.instruction_limit - core._instr_count)
        spans.append(max(1, remaining // sampled.windows))

    windows: List[_Window] = []
    detailed = 0
    skipped = 0
    for _ in range(sampled.windows):
        warm_start_instr = [core._instr_count for core in cores]
        for core in cores:
            core.unpause()
        # Detailed warming (unbracketed): refill the pipeline, MSHRs and
        # DRAM queues after the quiesce/fast-forward so the measured window
        # sees steady-state timing. Stats read *after* this sub-window.
        if sampled.warmup_cycles:
            queue.run(until=queue.now + sampled.warmup_cycles)
            if system._measured >= len(cores):
                quiesce(system)
                break
        start_stats = _read_raw_stats(system)
        start_instr = [core._instr_count for core in cores]
        start_cycle = queue.now
        queue.run(until=queue.now + sampled.window_cycles)
        # Bracket closes at the until-boundary, *before* the drain: the
        # quiesce below force-flushes the write buffer and runs zero-issue
        # cycles, neither of which a steady-state window would contain.
        # In-flight work crossing the boundary is symmetric window-to-window.
        end_stats = _read_raw_stats(system)
        end_instr = [core._instr_count for core in cores]
        window = _window_delta(
            start_stats, end_stats, start_instr, end_instr,
            # == window_cycles unless the queue drained early (last window).
            cycles=max(1, min(sampled.window_cycles, queue.now - start_cycle)),
        )
        all_measured = system._measured >= len(cores)
        quiesce(system)  # drain between windows, before the next fast-forward
        if window.instructions > 0:
            windows.append(window)
            detailed += window.instructions
        if all_measured:
            break
        for index, core in enumerate(cores):
            if core.finished:
                continue
            issued = end_instr[index] - warm_start_instr[index]
            gap = spans[index] - issued
            if gap > 0:
                skipped += fast_forward_core(system, core, gap)

    if not windows:
        raise CheckpointError("no detailed window issued any instructions")

    series: Dict[str, List[float]] = {}
    for window in windows:
        for name, value in window.metric_values().items():
            if value is not None:
                series.setdefault(name, []).append(value)
    estimates = {
        name: _estimate(values, sampled.rel_ci_floor)
        for name, values in series.items()
        if values
    }
    return SampledResult(
        result=_synthesize_result(system, windows),
        estimates=estimates,
        windows_run=len(windows),
        detailed_instructions=detailed,
        skipped_instructions=skipped,
        sampled=sampled,
    )


def run_sampled(
    config: SystemConfig, traces: Sequence, sampled: SampledConfig
) -> SampledResult:
    """One-shot sampled run: warm under ``config``'s own mechanism, sample.

    Unlike fork-from-warm there is no mechanism swap — the only
    approximation is the sampling itself.
    """
    return run_windows(warm_cell(config, traces), sampled)
