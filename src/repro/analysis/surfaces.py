"""Campaign surface assembly: Figure 6/7/8 tables plus the sensitivity sweep.

A finished campaign holds one :class:`~repro.sim.system.SimulationResult`
per cell. This module folds those per-cell results into the paper's result
*surfaces* — the complete Figure 6a–e single-core tables, the Figure 7
weighted-speedup averages, the Figure 8 S-curve, and the stacked-bandwidth
sensitivity table for the die-stacked DRAM-cache level — rendered with the
same :class:`~repro.analysis.experiments.ExperimentResult` machinery the
interactive experiment runners use.

Summary rows carry Student-t 95% confidence intervals computed by the
sampled-window estimator (:func:`repro.checkpoint.sampled._estimate`):
each benchmark (Figure 6) or mix (Figure 7) is one sample of the
mechanism's behaviour, so the CI quantifies spread across the workload
population, exactly like the error bars on the paper's bar charts.

Assembly is purely deterministic — iteration follows the campaign plan's
cell order and all floats render through fixed-width formats — so a resumed
campaign regenerates byte-identical surface files, which is what the soak
gate byte-compares after a mid-campaign kill.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import (
    FIGURE6_PANELS,
    FIGURE8_MECHANISMS,
    ExperimentResult,
)
from repro.analysis.scaling import SCALES
from repro.checkpoint.sampled import MetricEstimate, _estimate
from repro.sim.metrics import geometric_mean, weighted_speedup
from repro.sim.system import SimulationResult
from repro.utils.atomic import atomic_write_json, atomic_write_text

#: Subdirectory of the campaign directory holding the rendered surfaces.
SURFACES_DIRNAME = "surfaces"
#: Machine-readable form of every surface, one JSON document.
SURFACES_JSON = "surfaces.json"


def _fmt_ci(estimate: Optional[MetricEstimate]) -> Optional[str]:
    """``mean ±half (n=samples)`` with fixed widths for byte stability."""
    if estimate is None:
        return None
    half = estimate.ci_high - estimate.mean
    return f"{estimate.mean:.4f} ±{half:.4f} (n={estimate.samples})"


def _ci_row(
    label: str, columns: Sequence[Sequence[float]]
) -> List[Optional[str]]:
    """One summary row: a Student-t 95% CI per column's sample list."""
    return [label] + [
        _fmt_ci(_estimate(values, 0.0) if values else None)
        for values in columns
    ]


def _results(cell_payload: Dict[str, Dict]) -> Dict[str, SimulationResult]:
    return {
        cell_id: SimulationResult.from_dict(entry["result"])
        for cell_id, entry in cell_payload.items()
    }


# ------------------------------------------------------------- Figure 6


def _figure6(
    config, cells, results: Dict[str, SimulationResult]
) -> Dict[str, ExperimentResult]:
    mechanisms = list(config.mechanisms)
    # Workload axis: single-core benchmarks in plan order, then ingested
    # traces — external captures are first-class Figure 6 workloads.
    workloads: List[str] = []
    lookup: Dict[tuple, Optional[SimulationResult]] = {}
    for cell in cells:
        if cell.category not in ("bench", "trace"):
            continue
        workload = cell.workload
        if workload not in workloads:
            workloads.append(workload)
        lookup[(workload, cell.mechanism)] = results.get(cell.cell_id)

    out: Dict[str, ExperimentResult] = {}
    for exp_id, title, extract in FIGURE6_PANELS:
        rows: List[List] = []
        columns: List[List[float]] = [[] for _ in mechanisms]
        for workload in workloads:
            row: List = [workload]
            for index, mech in enumerate(mechanisms):
                result = lookup.get((workload, mech))
                value = extract(result) if result is not None else None
                row.append(value)
                if value is not None:
                    columns[index].append(value)
            rows.append(row)
        if exp_id == "fig6a":
            rows.append(
                ["gmean"]
                + [
                    geometric_mean(values) if values else None
                    for values in columns
                ]
            )
        rows.append(_ci_row("mean ±95% CI", columns))
        out[exp_id] = ExperimentResult(
            experiment_id=exp_id,
            title=f"Figure 6{exp_id[-1]}: {title} "
                  f"(campaign scale={config.scale})",
            headers=["workload"] + mechanisms,
            rows=rows,
        )
    return out


# ----------------------------------------------------------- Figure 7/8


def _alone_ipcs(cells, results) -> Dict[tuple, float]:
    """(context cores, benchmark) -> alone-run IPC, from the alone cells."""
    alone: Dict[tuple, float] = {}
    for cell in cells:
        if cell.category != "alone":
            continue
        result = results.get(cell.cell_id)
        if result is not None and result.ipc and result.ipc[0] > 0:
            alone[(cell.num_cores, cell.benchmark)] = result.ipc[0]
    return alone


def _mix_ws(
    result: SimulationResult, cores: int, alone: Dict[tuple, float]
) -> Optional[float]:
    """Weighted speedup of one mix result, None when unnormalizable."""
    alone_ipcs = [
        alone.get((cores, name)) for name in result.trace_names
    ]
    if any(a is None for a in alone_ipcs):
        return None
    if any(ipc <= 0 for ipc in result.ipc):
        return None
    return weighted_speedup(result.ipc, alone_ipcs)


def _figure7(config, cells, results) -> ExperimentResult:
    mechanisms = list(config.mechanisms)
    alone = _alone_ipcs(cells, results)
    core_counts = sorted(
        {cell.num_cores for cell in cells if cell.category == "mix"}
    )
    rows: List[List] = []
    notes = ""
    for cores in core_counts:
        row: List = [f"{cores}-core"]
        for mech in mechanisms:
            speedups = [
                ws
                for cell in cells
                if cell.category == "mix"
                and cell.num_cores == cores
                and cell.mechanism == mech
                and cell.cell_id in results
                for ws in [_mix_ws(results[cell.cell_id], cores, alone)]
                if ws is not None
            ]
            row.append(
                _fmt_ci(_estimate(speedups, 0.0)) if speedups else None
            )
        rows.append(row)
    if core_counts and not alone:
        notes = (
            "weighted speedup needs the alone-IPC normalizer cells; "
            "plan the campaign with full_width to emit them."
        )
    if not core_counts:
        notes = "no multi-core mix cells in this campaign."
    return ExperimentResult(
        experiment_id="fig7",
        title="Figure 7: Multi-core weighted speedup, "
              "mean ±95% CI across mixes "
              f"(campaign scale={config.scale})",
        headers=["system"] + mechanisms,
        rows=rows,
        notes=notes,
    )


def _figure8(config, cells, results) -> ExperimentResult:
    mechanisms = list(config.mechanisms)
    alone = _alone_ipcs(cells, results)
    core_counts = sorted(
        {cell.num_cores for cell in cells if cell.category == "mix"}
    )
    # The paper's Figure 8 lineup, intersected with the campaign's.
    plotted = [m for m in FIGURE8_MECHANISMS if m in mechanisms]
    if not plotted:
        plotted = [m for m in mechanisms if m != "baseline"]

    cores = 4 if 4 in core_counts else (core_counts[-1] if core_counts else 0)
    headers = ["workload"] + [f"{m}/baseline" for m in plotted]
    skip = None
    if not core_counts:
        skip = "no multi-core mix cells in this campaign."
    elif "baseline" not in mechanisms:
        skip = "normalization needs the baseline mechanism in the campaign."
    elif not plotted:
        skip = "no non-baseline mechanism to plot."
    elif not alone:
        skip = (
            "weighted speedup needs the alone-IPC normalizer cells; "
            "plan the campaign with full_width to emit them."
        )
    if skip:
        return ExperimentResult(
            experiment_id="fig8",
            title=f"Figure 8: {cores or 4}-core normalized weighted speedup "
                  f"(campaign scale={config.scale})",
            headers=headers,
            rows=[],
            notes=skip,
        )

    mix_cells: Dict[str, Dict[str, object]] = {}
    for cell in cells:
        if cell.category == "mix" and cell.num_cores == cores:
            mix_cells.setdefault(cell.mix_name, {})[cell.mechanism] = cell
    normalized: Dict[str, Dict[str, Optional[float]]] = {}
    for mix_name, per_mech in mix_cells.items():
        base_cell = per_mech.get("baseline")
        base_ws = (
            _mix_ws(results[base_cell.cell_id], cores, alone)
            if base_cell is not None and base_cell.cell_id in results
            else None
        )
        normalized[mix_name] = {}
        for mech in plotted:
            cell = per_mech.get(mech)
            ws = (
                _mix_ws(results[cell.cell_id], cores, alone)
                if cell is not None and cell.cell_id in results
                else None
            )
            normalized[mix_name][mech] = (
                ws / base_ws if ws is not None and base_ws else None
            )
    # The paper's S-curve: ascending in the last plotted mechanism, with
    # unplottable mixes sorted to the front as n/a.
    anchor = plotted[-1]
    order = sorted(
        normalized,
        key=lambda name: (
            normalized[name][anchor] is not None,
            normalized[name][anchor] or 0.0,
            name,
        ),
    )
    rows = [
        [name] + [normalized[name][mech] for mech in plotted]
        for name in order
    ]
    values = [
        normalized[name][anchor]
        for name in order
        if normalized[name][anchor] is not None
    ]
    degradations = sum(1 for v in values if v < 1.0)
    return ExperimentResult(
        experiment_id="fig8",
        title=f"Figure 8: {cores}-core normalized weighted speedup "
              f"(campaign scale={config.scale})",
        headers=headers,
        rows=rows,
        notes=f"{degradations}/{len(values)} workloads degrade under "
              f"{anchor} (paper: 7/259).",
    )


# ---------------------------------------------------------- sensitivity


def _sensitivity(config, cells, results) -> Optional[ExperimentResult]:
    sens_cells = [cell for cell in cells if cell.category == "sens"]
    if not sens_cells:
        return None
    scale = SCALES[config.scale]
    points = []  # (bandwidth, backend) in plan order
    for cell in sens_cells:
        point = (cell.bandwidth, cell.backend)
        if point not in points:
            points.append(point)

    rows: List[List] = []
    for bandwidth, backend in points:
        cache = scale.dram_cache_study_config(backend, bandwidth)
        group = [
            results[cell.cell_id]
            for cell in sens_cells
            if cell.bandwidth == bandwidth
            and cell.backend == backend
            and cell.cell_id in results
        ]
        ipcs = [r.ipc[0] for r in group if r.ipc]
        hit_rates = [
            r.stats.get("dramcache.read_hits", 0)
            / r.stats["dramcache.reads"]
            for r in group
            if r.stats.get("dramcache.reads")
        ]
        wpki = [
            1000.0 * r.stats.get("dramcache.offchip_writes", 0)
            / r.total_instructions_issued
            for r in group
            if r.total_instructions_issued
        ]
        rows.append([
            f"1/{bandwidth}x",
            backend,
            cache.stacked.t_burst,
            cache.stacked.t_cas + cache.stacked.t_burst,
            sum(ipcs) / len(ipcs) if ipcs else None,
            sum(hit_rates) / len(hit_rates) if hit_rates else None,
            sum(wpki) / len(wpki) if wpki else None,
        ])
    benches = ", ".join(config.sensitivity_benchmarks)
    return ExperimentResult(
        experiment_id="sensitivity",
        title="Stacked-DRAM bandwidth sensitivity of the dramcache level "
              f"(campaign scale={config.scale})",
        headers=["bandwidth", "backend", "t_burst", "hit latency",
                 "mean ipc", "stacked read hit rate", "offchip WPKI"],
        rows=rows,
        notes=f"means over: {benches}. Hit latency is the analytic "
              "t_cas + t_burst of the stacked channel; halving pin "
              "bandwidth doubles t_burst (TDRAM/Gemini-style sweep).",
    )


# --------------------------------------------------------------- driver


def assemble_surfaces(
    config, cells, cell_payload: Dict[str, Dict]
) -> Dict[str, ExperimentResult]:
    """Fold finished campaign cells into the paper's result surfaces.

    ``config``/``cells`` are the campaign's
    :class:`~repro.campaign.orchestrator.CampaignConfig` and planned
    :class:`~repro.campaign.plan.CampaignCell` list (duck-typed here, so
    tests can feed lightweight stand-ins); ``cell_payload`` maps cell id to
    the ``results.json`` entry (``{"key": ..., "result": ...}``).
    """
    results = _results(cell_payload)
    surfaces: Dict[str, ExperimentResult] = {}
    surfaces.update(_figure6(config, cells, results))
    surfaces["fig7"] = _figure7(config, cells, results)
    surfaces["fig8"] = _figure8(config, cells, results)
    sensitivity = _sensitivity(config, cells, results)
    if sensitivity is not None:
        surfaces["sensitivity"] = sensitivity
    return surfaces


def write_surfaces(
    directory: str, surfaces: Dict[str, ExperimentResult]
) -> str:
    """Render every surface under ``<directory>/surfaces/``, atomically.

    One aligned-text file per surface plus a machine-readable
    ``surfaces.json``; deterministic bytes, so crash recovery and the soak
    gate can byte-compare reruns.
    """
    out_dir = os.path.join(directory, SURFACES_DIRNAME)
    os.makedirs(out_dir, exist_ok=True)
    payload: Dict[str, Dict] = {}
    for surface_id in sorted(surfaces):
        surface = surfaces[surface_id]
        atomic_write_text(
            os.path.join(out_dir, f"{surface_id}.txt"),
            surface.to_text() + "\n",
        )
        payload[surface_id] = json.loads(surface.to_json())
    atomic_write_json(
        os.path.join(out_dir, SURFACES_JSON),
        {"format": 1, "surfaces": payload},
        indent=2, sort_keys=True,
    )
    return out_dir
