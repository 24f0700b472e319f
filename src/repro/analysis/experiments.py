"""Experiment runners — one per table/figure of the paper's Section 6.

Every runner returns :class:`ExperimentResult` objects whose rows mirror the
paper's artifact (same series, same comparisons); ``to_text()`` renders them
for EXPERIMENTS.md. Runners accept a :class:`ScaleProfile` so the same code
drives quick benchmark-harness runs and the longer default runs.

Execution goes through a :class:`~repro.analysis.runner.SweepRunner`: each
runner first *submits* every independent simulation it needs, then collects
the futures and assembles rows. With a parallel runner the submissions fan
out over worker processes; with the default serial runner (``runner=None``)
jobs execute inline at submission, reproducing the historical behaviour
exactly. Duplicate submissions coalesce onto one future in the runner's
content-keyed memo, and a disk-cached runner skips anything a previous sweep
already finished.

Every multi-core artifact — Figures 7 and 8, Tables 3 and 7, the DRRIP study
and the case study — is a view of one :func:`mix_grid`: the Section 5
metrics of each (mix, mechanism) point, each core normalized by its own
alone run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.analysis.runner import SweepFuture, SweepJobError, SweepRunner
from repro.analysis.scaling import DEFAULT_SCALE, ScaleProfile
from repro.sim.metrics import (
    geometric_mean,
    harmonic_speedup,
    instruction_throughput,
    maximum_slowdown,
    weighted_speedup,
)
from repro.sim.system import SimulationResult
from repro.sim.trace import Trace
from repro.workloads.mix import WorkloadMix
from repro.workloads.spec import profile_names

#: Mechanisms plotted in Figure 6 (paper omits Baseline-LRU there).
FIGURE6_MECHANISMS = (
    "tadip", "dawb", "vwq", "dbi", "dbi+awb", "dbi+clb", "dbi+awb+clb",
)
#: Figure 6 panels: id, title, metric extractor (the campaign surfaces' too).
FIGURE6_PANELS = (
    ("fig6a", "Instructions per cycle", lambda r: r.ipc[0]),
    ("fig6b", "Write row hit rate", lambda r: r.write_row_hit_rate),
    ("fig6c", "LLC tag lookups per kilo-instruction",
     lambda r: r.tag_lookups_pki),
    ("fig6d", "Memory writes per kilo-instruction",
     lambda r: r.memory_wpki),
    ("fig6e", "Read row hit rate", lambda r: r.read_row_hit_rate),
)
#: Mechanisms plotted in Figure 7 (and the campaign's default lineup).
FIGURE7_MECHANISMS = (
    "baseline", "tadip", "dawb", "dbi", "dbi+awb", "dbi+clb", "dbi+awb+clb",
)
#: Mechanisms Figure 8 normalizes to the Baseline; the last one orders the
#: S-curve. The DRRIP study compares the same pair.
FIGURE8_MECHANISMS = ("dawb", "dbi+awb+clb")
#: Table 3's metric columns, in order.
SECTION5_METRICS = (
    "weighted_speedup", "instruction_throughput",
    "harmonic_speedup", "maximum_slowdown",
)

#: ``{cores: {mix name: {mechanism: Section 5 metrics, or None}}}``.
MixGrid = Dict[int, Dict[str, Dict[str, Optional[Dict[str, float]]]]]


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: str = ""
    raw: Dict = field(default_factory=dict)

    def to_text(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def to_json(self) -> str:
        """Serializable form (``raw`` is omitted: it holds live objects)."""
        import json

        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=2,
        )


# --------------------------------------------------------------- utilities


def _serial_runner() -> SweepRunner:
    """Inline, uncached runner: the behaviour runners default to."""
    return SweepRunner(workers=0, cache_dir=None)


def _collect(runner: SweepRunner, future: SweepFuture):
    """Resolve a future, tolerating exhausted jobs in ``--keep-going`` mode.

    Returns None for a job whose retries were exhausted when the runner was
    built with ``keep_going=True`` — the runner's failure list already holds
    the traceback, and :func:`_failure_note` surfaces the count. Any failure
    on a strict runner propagates unchanged.
    """
    try:
        return future.result()
    except SweepJobError:
        if runner.keep_going:
            return None
        raise


def _failure_note(runner: SweepRunner) -> str:
    """The "N/M jobs failed" annotation appended to partial artifacts."""
    if not runner.failures:
        return ""
    return (
        f"PARTIAL RESULTS: {runner.jobs_failed}/{runner.jobs_submitted} "
        f"jobs failed after retries; missing cells render as n/a "
        f"(see the sweep failure manifest for tracebacks)."
    )


def _with_note(notes: str, extra: str) -> str:
    if not extra:
        return notes
    return f"{notes}\n{extra}" if notes else extra


def _mean(values: Sequence[float]) -> Optional[float]:
    """Arithmetic mean, or None when every contributing job failed."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def _pct(value: Optional[float], negate: bool = False) -> Optional[str]:
    if value is None:
        return None
    return f"{-value:+.1%}" if negate else f"{value:+.1%}"


def _submit(
    runner: SweepRunner,
    scale: ScaleProfile,
    mechanism: str,
    traces: Sequence[Trace],
    num_cores: int = 1,
    **config_overrides,
) -> SweepFuture:
    config = scale.system_config(mechanism, num_cores=num_cores, **config_overrides)
    return runner.submit(config, traces)


# ------------------------------------------------------------- Figure 6


def run_figure6(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    mechanisms: Sequence[str] = FIGURE6_MECHANISMS,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, ExperimentResult]:
    """Figure 6a-e: single-core IPC, write RHR, tag lookups PKI, WPKI, read RHR."""
    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or profile_names())
    futures: Dict[str, Dict[str, SweepFuture]] = {}
    for bench in benchmarks:
        trace = scale.benchmark_trace(bench)
        futures[bench] = {
            mech: _submit(runner, scale, mech, [trace]) for mech in mechanisms
        }
    results: Dict[str, Dict[str, Optional[SimulationResult]]] = {
        bench: {
            mech: _collect(runner, future)
            for mech, future in per_bench.items()
        }
        for bench, per_bench in futures.items()
    }
    note = _failure_note(runner)

    out: Dict[str, ExperimentResult] = {}
    for exp_id, title, extract in FIGURE6_PANELS:
        headers = ["benchmark"] + list(mechanisms)
        rows = [
            [bench]
            + [
                extract(results[bench][mech])
                if results[bench][mech] is not None
                else None
                for mech in mechanisms
            ]
            for bench in benchmarks
        ]
        # Figure 6a carries a gmean column in the paper. In keep-going mode
        # the gmean spans only the benchmarks that finished for a mechanism.
        if exp_id == "fig6a":
            gmeans = []
            for mech in mechanisms:
                values = [
                    extract(results[b][mech]) for b in benchmarks
                    if results[b][mech] is not None
                ]
                gmeans.append(geometric_mean(values) if values else None)
            rows.append(["gmean"] + gmeans)
        out[exp_id] = ExperimentResult(
            experiment_id=exp_id,
            title=f"Figure 6{exp_id[-1]}: {title} (scale={scale.name})",
            headers=headers,
            rows=rows,
            notes=note,
            raw={"results": results},
        )
    return out


# ------------------------------------------------------------- mix grid


def mix_grid(
    runner: SweepRunner,
    scale: ScaleProfile,
    mixes: Dict[int, Sequence[WorkloadMix]],
    mechanisms: Sequence[str],
    mb_per_core: int = 2,
    llc_replacement: Optional[str] = None,
) -> MixGrid:
    """Section 5 metrics of every mix in ``mixes`` under every mechanism.

    Submits each shared run, plus one Baseline alone run per core trace on
    the whole shared LLC, straight to ``runner``; its content-keyed memo
    coalesces repeats (an alone run every mechanism of a mix needs, or a
    shared run two artifacts need). Each core is normalized by the alone run
    of its own trace. A point is None when one of its jobs failed under
    ``--keep-going``.
    """
    pending = {}
    for cores, core_mixes in mixes.items():
        alone_config = scale.system_config(
            "baseline", mb_per_core=mb_per_core * cores,
            llc_replacement=llc_replacement,
        )
        shared_configs = {
            mech: scale.system_config(
                mech, num_cores=cores, mb_per_core=mb_per_core,
                llc_replacement=llc_replacement,
            )
            for mech in mechanisms
        }
        pending[cores] = {
            mix.name: (
                [runner.submit(alone_config, [trace]) for trace in mix.traces],
                {
                    mech: runner.submit(config, mix.traces)
                    for mech, config in shared_configs.items()
                },
            )
            for mix in core_mixes
        }
    return {
        cores: {
            name: {
                mech: _mix_metrics(runner, shared, alone)
                for mech, shared in per_mech.items()
            }
            for name, (alone, per_mech) in per_mix.items()
        }
        for cores, per_mix in pending.items()
    }


def _mix_metrics(
    runner: SweepRunner, shared: SweepFuture, alone: List[SweepFuture]
) -> Optional[Dict[str, float]]:
    result = _collect(runner, shared)
    alone_results = [_collect(runner, future) for future in alone]
    if result is None or any(r is None for r in alone_results):
        return None
    alone_ipcs = [r.ipc[0] for r in alone_results]
    return {
        "weighted_speedup": weighted_speedup(result.ipc, alone_ipcs),
        "instruction_throughput": instruction_throughput(result.ipc),
        "harmonic_speedup": harmonic_speedup(result.ipc, alone_ipcs),
        "maximum_slowdown": maximum_slowdown(result.ipc, alone_ipcs),
    }


def _mixes(
    scale: ScaleProfile, core_counts: Sequence[int], count: Optional[int]
) -> Dict[int, List[WorkloadMix]]:
    return {cores: scale.mixes(cores, count=count) for cores in core_counts}


def _speedups(per_mix, mechanism: str) -> List[float]:
    """Weighted speedups of the mixes that finished under ``mechanism``."""
    return [
        point[mechanism]["weighted_speedup"]
        for point in per_mix.values()
        if point[mechanism] is not None
    ]


def _improvements(per_mix, mechanism: str) -> Dict[str, List[float]]:
    """Per-mix change of each metric, ``mechanism`` over the Baseline, over
    the mixes where both finished."""
    improvements: Dict[str, List[float]] = {key: [] for key in SECTION5_METRICS}
    for point in per_mix.values():
        base, ours = point["baseline"], point[mechanism]
        if base is None or ours is None:
            continue
        for key in SECTION5_METRICS:
            improvements[key].append(ours[key] / base[key] - 1.0)
    return improvements


def _figure7_view(
    scale: ScaleProfile, grid: MixGrid, mechanisms: Sequence[str], note: str
) -> ExperimentResult:
    """Figure 7: mean weighted speedup per system per mechanism."""
    return ExperimentResult(
        experiment_id="fig7",
        title=f"Figure 7: Multi-core weighted speedup (scale={scale.name})",
        headers=["system"] + list(mechanisms),
        rows=[
            [f"{cores}-core"]
            + [_mean(_speedups(per_mix, mech)) for mech in mechanisms]
            for cores, per_mix in grid.items()
        ],
        notes=note,
        raw=grid,
    )


def _figure8_view(
    scale: ScaleProfile, grid: MixGrid, cores: int,
    mechanisms: Sequence[str], note: str,
) -> ExperimentResult:
    """Figure 8: per-mix weighted speedup over the Baseline, as an S-curve
    ascending in the last mechanism."""
    per_mix = grid[cores]
    names = list(per_mix)
    normalized: Dict[str, List[Optional[float]]] = {
        mech: [] for mech in mechanisms
    }
    for point in per_mix.values():
        base = point["baseline"]
        for mech in mechanisms:
            ours = point[mech]
            normalized[mech].append(
                None if base is None or ours is None
                else ours["weighted_speedup"] / base["weighted_speedup"]
            )
    anchor = normalized[mechanisms[-1]]
    # Mixes missing their reference series sort to the front, labelled n/a.
    order = sorted(
        range(len(names)), key=lambda i: (anchor[i] is not None, anchor[i] or 0.0)
    )
    plotted = [v for v in anchor if v is not None]
    degradations = sum(1 for v in plotted if v < 1.0)
    return ExperimentResult(
        experiment_id="fig8",
        title=(
            f"Figure 8: {cores}-core normalized weighted speedup "
            f"(scale={scale.name})"
        ),
        headers=["workload"] + [f"{m}/baseline" for m in mechanisms],
        rows=[
            [names[i], *(normalized[mech][i] for mech in mechanisms)]
            for i in order
        ],
        notes=_with_note(
            f"{degradations}/{len(plotted)} workloads degrade under "
            f"{mechanisms[-1]} (paper: 7/259).",
            note,
        ),
        raw=normalized,
    )


def _table3_view(
    scale: ScaleProfile, grid: MixGrid, mechanism: str, note: str
) -> ExperimentResult:
    """Table 3: mean improvement of ``mechanism`` over the Baseline."""
    rows = []
    raw = {}
    for cores, per_mix in grid.items():
        improvements = raw[cores] = _improvements(per_mix, mechanism)
        mean = {key: _mean(values) for key, values in improvements.items()}
        rows.append([
            f"{cores}-core",
            len(improvements["weighted_speedup"]),
            _pct(mean["weighted_speedup"]),
            _pct(mean["instruction_throughput"]),
            _pct(mean["harmonic_speedup"]),
            _pct(mean["maximum_slowdown"], negate=True),  # reduction is good
        ])
    return ExperimentResult(
        experiment_id="table3",
        title=f"Table 3: {mechanism} vs Baseline (scale={scale.name})",
        headers=[
            "system", "workloads", "weighted speedup", "instr throughput",
            "harmonic speedup", "max slowdown reduction",
        ],
        rows=rows,
        notes=note,
        raw=raw,
    )


# ------------------------------------------------------ Figures 7/8, Table 3


def run_figure7(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mechanisms: Sequence[str] = FIGURE7_MECHANISMS,
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Figure 7: average weighted speedup for 2/4/8-core systems."""
    runner = runner or _serial_runner()
    grid = mix_grid(
        runner, scale, _mixes(scale, core_counts, mixes_per_system), mechanisms
    )
    return _figure7_view(scale, grid, mechanisms, _failure_note(runner))


def run_figure8(
    scale: ScaleProfile = DEFAULT_SCALE,
    mechanisms: Sequence[str] = FIGURE8_MECHANISMS,
    num_mixes: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Figure 8: per-workload normalized weighted speedup, 4-core S-curve."""
    runner = runner or _serial_runner()
    grid = mix_grid(
        runner, scale, _mixes(scale, (4,), num_mixes), ("baseline", *mechanisms)
    )
    return _figure8_view(scale, grid, 4, mechanisms, _failure_note(runner))


def run_table3(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mechanism: str = "dbi+awb+clb",
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Table 3: performance/fairness of DBI+AWB+CLB vs the Baseline."""
    runner = runner or _serial_runner()
    grid = mix_grid(
        runner, scale, _mixes(scale, core_counts, mixes_per_system),
        ("baseline", mechanism),
    )
    return _table3_view(scale, grid, mechanism, _failure_note(runner))


def run_multicore_suite(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mechanisms: Sequence[str] = FIGURE7_MECHANISMS,
    mixes_per_system: Optional[int] = None,
    figure8_mechanisms: Sequence[str] = FIGURE8_MECHANISMS,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, ExperimentResult]:
    """Figure 7 + Figure 8 + Table 3 as views of one mix grid.

    The separate runners simulate the same (mix, mechanism) points, so one
    grid over the Figure 7 lineup answers all three (``mechanisms`` must
    include the Baseline). Figure 8 plots the 4-core system, or the last of
    ``core_counts`` when 4 is not among them.
    """
    runner = runner or _serial_runner()
    grid = mix_grid(
        runner, scale, _mixes(scale, core_counts, mixes_per_system), mechanisms
    )
    note = _failure_note(runner)
    s_cores = 4 if 4 in core_counts else core_counts[-1]
    best = "dbi+awb+clb" if "dbi+awb+clb" in mechanisms else mechanisms[-1]
    return {
        "fig7": _figure7_view(scale, grid, mechanisms, note),
        "fig8": _figure8_view(scale, grid, s_cores, figure8_mechanisms, note),
        "table3": _table3_view(scale, grid, best, note),
    }


# -------------------------------------------------------------- Table 6


def run_table6(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    alphas: Sequence[Fraction] = (Fraction(1, 4), Fraction(1, 2)),
    granularities: Optional[Sequence[int]] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Table 6: AWB's IPC gain vs DBI size (α) and granularity.

    Granularities sweep the scaled equivalents of the paper's 16/32/64/128
    (the machine, and with it the DRAM row, is shrunk by ``scale.divisor``).
    """
    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or ("lbm", "GemsFDTD", "cactusADM", "stream"))
    if granularities is None:
        granularities = sorted(
            {max(2, g // scale.divisor) for g in (16, 32, 64, 128)}
        )
    traces = {b: scale.benchmark_trace(b) for b in benchmarks}
    baseline_pending = {
        bench: _submit(runner, scale, "baseline", [traces[bench]])
        for bench in benchmarks
    }
    sweep_pending = {
        (alpha, granularity, bench): _submit(
            runner, scale, "dbi+awb", [traces[bench]],
            dbi_alpha=alpha, dbi_granularity=granularity,
        )
        for alpha in alphas
        for granularity in granularities
        for bench in benchmarks
    }
    baseline_ipc = {
        bench: (lambda r: r.ipc[0] if r is not None else None)(
            _collect(runner, future)
        )
        for bench, future in baseline_pending.items()
    }
    rows = []
    raw = {}
    for alpha in alphas:
        row = [f"alpha={alpha}"]
        for granularity in granularities:
            gains = []
            for bench in benchmarks:
                result = _collect(
                    runner, sweep_pending[(alpha, granularity, bench)]
                )
                if result is None or baseline_ipc[bench] is None:
                    continue
                gains.append(result.ipc[0] / baseline_ipc[bench] - 1.0)
            mean_gain = _mean(gains)
            raw[(alpha, granularity)] = gains
            row.append(f"{mean_gain:+.1%}" if mean_gain is not None else None)
        rows.append(row)
    return ExperimentResult(
        experiment_id="table6",
        title=f"Table 6: DBI+AWB IPC gain vs size x granularity (scale={scale.name})",
        headers=["DBI size"] + [f"g={g}" for g in granularities],
        rows=rows,
        notes=_with_note(
            "Granularities are the scaled equivalents of the paper's "
            "16/32/64/128 (divide by the scale divisor).",
            _failure_note(runner),
        ),
        raw=raw,
    )


# -------------------------------------------------------------- Table 7


def run_table7(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mb_per_core_options: Sequence[int] = (2, 4),
    mechanism: str = "dbi+awb+clb",
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Table 7: weighted-speedup gain vs LLC capacity (2 vs 4 MB/core).

    Each row is Table 3's weighted-speedup column at one LLC capacity.
    """
    runner = runner or _serial_runner()
    mixes = _mixes(scale, core_counts, mixes_per_system)
    rows = []
    raw = {}
    for mb in mb_per_core_options:
        grid = mix_grid(
            runner, scale, mixes, ("baseline", mechanism), mb_per_core=mb
        )
        row = [f"{mb}MB/core"]
        for cores, per_mix in grid.items():
            gains = _improvements(per_mix, mechanism)["weighted_speedup"]
            raw[(mb, cores)] = gains
            row.append(_pct(_mean(gains)))
        rows.append(row)
    return ExperimentResult(
        experiment_id="table7",
        title=f"Table 7: {mechanism} gain vs LLC capacity (scale={scale.name})",
        headers=["LLC size"] + [f"{c}-core" for c in core_counts],
        rows=rows,
        notes=_failure_note(runner),
        raw=raw,
    )


# ------------------------------------------------- Section 6.4/6.5 studies


def run_dbi_replacement_study(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    policies: Sequence[str] = ("lrw", "lrw-bip", "rwip", "max-dirty", "min-dirty"),
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Section 4.3/6.4: LRW is comparable-or-best among DBI policies."""
    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or ("lbm", "GemsFDTD", "mcf", "cactusADM"))
    traces = {b: scale.benchmark_trace(b) for b in benchmarks}
    pending = {
        policy: [
            _submit(runner, scale, "dbi+awb", [traces[b]],
                    dbi_replacement=policy)
            for b in benchmarks
        ]
        for policy in policies
    }
    rows = []
    raw = {}
    for policy in policies:
        results = [_collect(runner, future) for future in pending[policy]]
        ipcs = [r.ipc[0] for r in results if r is not None]
        raw[policy] = {
            bench: (r.ipc[0] if r is not None else None)
            for bench, r in zip(benchmarks, results)
        }
        rows.append([policy, geometric_mean(ipcs) if ipcs else None])
    return ExperimentResult(
        experiment_id="dbi-replacement",
        title=f"DBI replacement policy study (scale={scale.name})",
        headers=["policy", "gmean IPC"],
        rows=rows,
        notes=_failure_note(runner),
        raw=raw,
    )


def run_drrip_study(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_count: int = 4,
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Section 6.5: DBI's gain survives a better replacement policy (DRRIP)."""
    runner = runner or _serial_runner()
    grid = mix_grid(
        runner, scale, _mixes(scale, (core_count,), mixes_per_system),
        FIGURE8_MECHANISMS, llc_replacement="drrip",
    )
    raw = {
        mech: _speedups(grid[core_count], mech) for mech in FIGURE8_MECHANISMS
    }
    rows = [
        [f"{mech} (DRRIP LLC)", _mean(speedups)]
        for mech, speedups in raw.items()
    ]
    theirs, ours = FIGURE8_MECHANISMS
    if rows[0][1] is not None and rows[1][1] is not None:
        gain_note = (
            f"{ours} over {theirs} under DRRIP: "
            f"{rows[1][1] / rows[0][1] - 1.0:+.1%} (paper: +7%)."
        )
    else:
        gain_note = f"{ours} over {theirs} under DRRIP: n/a (jobs failed)."
    return ExperimentResult(
        experiment_id="drrip",
        title=f"DRRIP interaction study, {core_count}-core (scale={scale.name})",
        headers=["mechanism", "avg weighted speedup"],
        rows=rows,
        notes=_with_note(gain_note, _failure_note(runner)),
        raw=raw,
    )


def run_case_study(
    scale: ScaleProfile = DEFAULT_SCALE,
    mechanisms: Sequence[str] = (
        "baseline", "dawb", "dbi", "dbi+awb", "dbi+awb+clb"
    ),
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Section 6.2 case study: 2-core GemsFDTD + libquantum.

    The paper: DAWB +40% over baseline; plain DBI +83% (DBI evictions give
    row-batched writebacks without DAWB's tag-lookup storm); CLB adds more.
    """
    from repro.workloads.mix import make_mix
    from repro.workloads.spec import SPEC_PROFILES

    runner = runner or _serial_runner()
    mix = make_mix(
        "case_study",
        [SPEC_PROFILES["GemsFDTD"], SPEC_PROFILES["libquantum"]],
        refs_per_core=scale.refs_per_core_multi,
        footprint_divisor=scale.divisor,
    )
    grid = mix_grid(runner, scale, {mix.num_cores: [mix]}, mechanisms)
    point = grid[mix.num_cores][mix.name]
    rows = []
    raw = {}
    baseline_ws = None
    for mech in mechanisms:
        metrics = point[mech]
        ws = metrics["weighted_speedup"] if metrics is not None else None
        raw[mech] = ws
        if baseline_ws is None and ws is not None and mech == mechanisms[0]:
            baseline_ws = ws
        if ws is None or baseline_ws is None:
            rows.append([mech, ws, None])
        else:
            rows.append([mech, ws, f"{ws / baseline_ws - 1.0:+.1%}"])
    return ExperimentResult(
        experiment_id="case-study",
        title=f"Case study: GemsFDTD + libquantum, 2-core (scale={scale.name})",
        headers=["mechanism", "weighted speedup", "vs baseline"],
        rows=rows,
        notes=_failure_note(runner),
        raw=raw,
    )


# ------------------------------------------- Section 3.3 reliability study


#: Write-heavy benchmarks where the dirty-tracking trade-off is visible.
DRAMCACHE_TRADEOFF_BENCHMARKS = ("lbm", "milc", "mcf")


def run_dramcache(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    mechanism: str = "baseline",
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Die-stacked DRAM-cache dirty-tracking trade-off study.

    Runs each benchmark twice behind the same LLC mechanism — once with the
    level's per-line tag dirty bits, once with the DBI backend whose
    aggressive writeback drains whole dirty rows. The DBI side must raise
    the off-chip writeback row-hit rate and lower the write-stream cost in
    DRAM cycles (row misses pay t_RP+t_RCD) without hurting IPC — the
    trade-off DRAM-cache proposals (TicToc, Banshee) navigate.
    """
    from repro.dramcache.config import DIRTY_BACKENDS

    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or DRAMCACHE_TRADEOFF_BENCHMARKS)
    traces = {b: scale.benchmark_trace(b) for b in benchmarks}
    pending = {
        (bench, backend): _submit(
            runner, scale, mechanism, [traces[bench]],
            dram_cache=scale.dram_cache_study_config(backend),
        )
        for bench in benchmarks
        for backend in DIRTY_BACKENDS
    }
    dram = scale.dram_config()
    miss_penalty = dram.t_rp + dram.t_rcd
    rows: List[List] = []
    raw: Dict = {}
    for bench in benchmarks:
        cells: Dict[str, Optional[Dict[str, float]]] = {}
        for backend in DIRTY_BACKENDS:
            result = _collect(runner, pending[(bench, backend)])
            if result is None:
                cells[backend] = None
                continue
            stats = result.stats
            writes = stats.get("dram.dram_writes_performed", 0)
            row_misses = stats.get(
                "dram.write_row_hit_rate.total", 0
            ) - stats.get("dram.write_row_hit_rate.hits", 0)
            cells[backend] = {
                "ipc": result.ipc[0],
                "write_row_hit_rate": result.write_row_hit_rate,
                "offchip_writes": stats.get("dramcache.offchip_writes", 0),
                "write_cost_cycles": writes * dram.t_burst
                + row_misses * miss_penalty,
            }
        raw[bench] = cells
        tag, dbi = cells.get("tag"), cells.get("dbi")
        rows.append([
            bench,
            tag["write_row_hit_rate"] if tag else None,
            dbi["write_row_hit_rate"] if dbi else None,
            tag["write_cost_cycles"] if tag else None,
            dbi["write_cost_cycles"] if dbi else None,
            tag["ipc"] if tag else None,
            dbi["ipc"] if dbi else None,
        ])
    complete = [
        c for c in raw.values() if c.get("tag") and c.get("dbi")
    ]
    if complete:
        hit_wins = sum(
            1 for c in complete
            if c["dbi"]["write_row_hit_rate"] > c["tag"]["write_row_hit_rate"]
        )
        cost_wins = sum(
            1 for c in complete
            if c["dbi"]["write_cost_cycles"] < c["tag"]["write_cost_cycles"]
        )
        note = (
            f"DBI-backed aggressive writeback raises the off-chip writeback "
            f"row-hit rate on {hit_wins}/{len(complete)} benchmarks and "
            f"lowers the write-stream cost on {cost_wins}/{len(complete)} "
            f"(write cost = performed writes x t_burst + row misses x "
            f"(t_RP+t_RCD) = {dram.t_burst} / {miss_penalty} cycles)."
        )
    else:
        note = "dirty-backend comparison: n/a (jobs failed)."
    return ExperimentResult(
        experiment_id="dramcache",
        title=(
            f"DRAM-cache dirty-tracking trade-off, mechanism={mechanism} "
            f"(scale={scale.name})"
        ),
        headers=[
            "benchmark",
            "tag wb row-hit", "dbi wb row-hit",
            "tag write cost", "dbi write cost",
            "tag IPC", "dbi IPC",
        ],
        rows=rows,
        notes=_with_note(note, _failure_note(runner)),
        raw=raw,
    )


def plan_reliability(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmark: str = "lbm",
    mechanisms: Sequence[str] = ("baseline", "dbi", "dbi+awb+clb"),
    alphas: Sequence[Fraction] = (Fraction(1, 4), Fraction(1, 2)),
    faults: int = 200,
    interval: int = 500,
    seed: int = 0x5EED,
    double_bit_fraction: float = 0.0,
    refs: Optional[int] = None,
) -> Callable[[], ExperimentResult]:
    """Section 3.3 heterogeneous-ECC soft-error study, ready to run.

    Runs each mechanism with a :class:`~repro.core.ecc.SoftErrorInjector`
    attached and tallies fault outcomes per (mechanism, α). Mechanisms that
    keep dirty bits in a DBI get ECC aimed at exactly the dirty blocks
    (:class:`~repro.core.ecc.EccDomain`); conventional mechanisms get the
    same α budget spread blind over the cache
    (:class:`~repro.core.ecc.UntrackedEccDomain`). The paper's argument is
    the contrast in the data-loss column: DBI-tracked domains never lose a
    single-bit upset, the budget-matched untracked ones do.

    Injection is observational (audit events), so the simulation statistics
    of these runs are byte-identical to uninstrumented ones; the campaign is
    driven inline rather than through a SweepRunner because its product —
    injector tallies — is not part of :class:`SimulationResult`.

    Every cell's system is built here, so a bad argument (an unknown
    benchmark or mechanism, an alpha outside [0, 1], a bad fault count)
    raises ValueError before anything is simulated; the returned callable
    runs the cells and builds the table.
    """
    from repro.core.ecc import SoftErrorConfig
    from repro.sim.system import System

    trace = scale.benchmark_trace(benchmark, refs=refs)
    soft = SoftErrorConfig(
        faults=faults, interval=interval, seed=seed,
        double_bit_fraction=double_bit_fraction,
    )
    cells = [
        (mechanism, alpha, System(
            scale.system_config(mechanism, dbi_alpha=alpha), [trace],
            soft_errors=soft,
        ))
        for mechanism in mechanisms
        for alpha in alphas
    ]
    return partial(
        _run_reliability, cells, scale, benchmark, faults, double_bit_fraction
    )


def _run_reliability(
    cells, scale, benchmark, faults, double_bit_fraction
) -> ExperimentResult:
    rows = []
    raw: Dict = {}
    tracked_loss = 0
    untracked_loss = 0
    for mechanism, alpha, system in cells:
        system.run()
        injector = system.soft_errors
        counts = dict(injector.counts)
        raw[(mechanism, str(alpha))] = counts
        if injector.tracked:
            domain = "DBI-tracked"
            tracked_loss += counts["data_loss"]
        else:
            domain = f"untracked (coverage={alpha})"
            untracked_loss += counts["data_loss"]
        rows.append([
            mechanism,
            f"alpha={alpha}",
            domain,
            counts["injected"],
            counts["detected"],
            counts["corrected"],
            counts["refetched"],
            counts["data_loss"],
        ])
    notes = (
        f"Single-bit upsets on DBI-tracked domains lost {tracked_loss} "
        f"blocks (paper Section 3.3 predicts 0: every dirty block is "
        f"SECDED-protected by construction); budget-matched untracked "
        f"domains lost {untracked_loss}."
    )
    if double_bit_fraction:
        notes += (
            f" {double_bit_fraction:.0%} of upsets were double-bit, which "
            f"SECDED detects but cannot correct."
        )
    return ExperimentResult(
        experiment_id="reliability",
        title=(
            f"Heterogeneous ECC soft-error study, {benchmark} "
            f"(scale={scale.name}, {faults} faults)"
        ),
        headers=[
            "mechanism", "DBI size", "protection domain", "injected",
            "detected", "corrected", "refetched", "data loss",
        ],
        rows=rows,
        notes=notes,
        raw=raw,
    )
