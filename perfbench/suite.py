"""The benchmark's four workloads.

Each workload is a closed-loop batch: a fixed list of cells run back to back,
one at a time (``campaign-slice`` hands its cells to 2 worker processes).
All inputs come from the seed at quick-scale geometry; caches start empty and
statistics start after the 40% warm-up (``SystemConfig.warmup_fraction``).

A workload exposes two steps:

* ``setup()`` generates the inputs and builds (then drops) each cell's
  ``System``, or plans the campaign; ``run.py`` times it as ``setup_s``;
* ``run_pass(prepared)`` runs every cell once and returns a :class:`Pass`.

A calibrated pass (the default) times the host-speed loop of
:mod:`calibrate` around each timed step and records each step's seconds
scaled to the reference speed as well as its host seconds; the traced run
passes ``calibrated=False``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import calibrate

#: Quick-scale profile every workload shrinks the machine with.
SCALE = "quick"
MEMORY_MECHANISMS = ("tadip", "dawb", "dbi+awb+clb")
CAMPAIGN_MECHANISMS = ("baseline", "dawb", "dbi+awb+clb")


def result_digest(result_dict: Dict) -> str:
    """sha256 of a ``SimulationResult.to_dict()`` without ``events_processed``.

    The event count is left out because a change that removes events without
    changing any simulated statistic is exactly the kind of change the
    benchmark must accept.
    """
    payload = {k: v for k, v in result_dict.items() if k != "events_processed"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class Pass:
    """One pass over a workload's cells."""

    wall_s: float
    refs: int
    cell_s: List[float] = field(default_factory=list)
    #: Calibrated passes only: cell id -> seconds at the reference speed,
    #: and the whole pass at the reference speed.
    cell_norm_s: Dict[str, float] = field(default_factory=dict)
    norm_wall_s: float = 0.0
    #: cell id -> result digest; None marks a cell that raised.
    digests: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Flattened stats of every result (for per-layer ratios).
    stats: List[Dict[str, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Extra exact figures a workload reports (campaign runner counters).
    extra: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------- simulator


@dataclass
class Cell:
    """One ``run_system`` call."""

    cell_id: str
    config: object
    traces: list
    check: str = "off"
    telemetry: Optional[object] = None

    @property
    def refs(self) -> int:
        return sum(len(trace.records) for trace in self.traces)

    def build(self):
        from repro.sim.system import System

        return System(
            self.config, self.traces, check=self.check, telemetry=self.telemetry
        )

    def run(self):
        from repro.sim.system import run_system

        return run_system(
            self.config, self.traces, check=self.check, telemetry=self.telemetry
        )


class SimWorkload:
    """A workload of in-process ``run_system`` cells."""

    name = ""
    why = ""
    #: Nominal untraced seconds per pass on a 2-vCPU x86 host. ``run.py``
    #: runs round(--seconds / pass_s) passes, so a run's work is fixed.
    pass_s = 1.0
    #: Timed set-ups per untraced run (median = ``setup_s``): about two
    #: seconds of them, so that short set-ups still give a steady median.
    setup_repeats = 11
    #: Cells run one after another, so a pass takes the sum of its cells.
    sequential = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def cells(self) -> List[Cell]:
        raise NotImplementedError

    def setup(self) -> List[Cell]:
        cells = self.cells()
        for cell in cells:
            cell.build()
        return cells

    def run_pass(self, cells: List[Cell], calibrated: bool = True) -> Pass:
        out = Pass(wall_s=0.0, refs=0)
        start = time.perf_counter()
        before = calibrate.measure() if calibrated else 0.0
        for cell in cells:
            # The previous cell's garbage is not charged to this one.
            gc.collect()
            t0 = time.perf_counter()
            try:
                result = cell.run()
            except Exception as exc:  # counted in fail_frac, run continues
                out.digests[cell.cell_id] = None
                out.errors.append(f"{cell.cell_id}: {type(exc).__name__}: {exc}")
                continue
            host_s = time.perf_counter() - t0
            out.cell_s.append(host_s)
            if calibrated:
                after = calibrate.measure()
                out.cell_norm_s[cell.cell_id] = calibrate.normalize(
                    host_s, (before + after) / 2
                )
                before = after
            out.refs += cell.refs
            result_dict = result.to_dict()
            out.digests[cell.cell_id] = result_digest(result_dict)
            out.stats.append(result_dict["stats"])
        out.wall_s = time.perf_counter() - start
        out.norm_wall_s = sum(out.cell_norm_s.values())
        return out

    @staticmethod
    def scale():
        from repro.analysis.scaling import SCALES

        return SCALES[SCALE]


class MemoryBound(SimWorkload):
    name = "memory-bound"
    why = (
        "lbm/mcf x tadip, dawb, dbi+awb+clb: the DRAM controller, mechanism "
        "and LLC DBI do most of the work"
    )
    refs = 12_000
    pass_s = 4.8
    setup_repeats = 15

    def cells(self) -> List[Cell]:
        scale = self.scale()
        cells = []
        for bench in ("lbm", "mcf"):
            trace = scale.benchmark_trace(bench, seed=self.seed, refs=self.refs)
            for mech in MEMORY_MECHANISMS:
                cells.append(
                    Cell(f"1c/{bench}/{mech}", scale.system_config(mech), [trace])
                )
        return cells


class CacheResident(SimWorkload):
    name = "cache-resident"
    why = (
        "bzip2/astar and a 4-core low-read/low-write mix: core, hierarchy, "
        "cache and kernel dominate; control for DRAM-side changes"
    )
    refs = 12_000
    refs_per_core = 5_000
    pass_s = 4.1

    def cells(self) -> List[Cell]:
        scale = self.scale()
        cells = []
        for bench in ("bzip2", "astar"):
            trace = scale.benchmark_trace(bench, seed=self.seed, refs=self.refs)
            for mech in MEMORY_MECHANISMS:
                cells.append(
                    Cell(f"1c/{bench}/{mech}", scale.system_config(mech), [trace])
                )
        # The mix's benchmarks come from the scale's (seed-independent) mix
        # table so the seed changes the traces, not which programs run.
        spec = scale.mix_specs(4, count=1)[0]
        mix = scale.mix_for(spec, seed=self.seed, refs_per_core=self.refs_per_core)
        for mech in MEMORY_MECHANISMS:
            cells.append(
                Cell(
                    f"4c/{mix.name}/{mech}",
                    scale.system_config(mech, num_cores=4),
                    list(mix.traces),
                )
            )
        return cells


class StackedChecked(SimWorkload):
    name = "stacked-checked"
    why = (
        "lbm/mcf under dbi+awb over the die-stacked DRAM cache (tag and dbi "
        "backends) with check=full and telemetry on"
    )
    refs = 6_000
    epoch_cycles = 5_000
    pass_s = 2.75
    setup_repeats = 21

    def cells(self) -> List[Cell]:
        from repro.telemetry.sampler import TelemetryConfig

        scale = self.scale()
        telemetry = TelemetryConfig(epoch_cycles=self.epoch_cycles)
        cells = []
        for bench in ("lbm", "mcf"):
            trace = scale.benchmark_trace(bench, seed=self.seed, refs=self.refs)
            for backend in ("tag", "dbi"):
                config = scale.system_config(
                    "dbi+awb",
                    dram_cache=scale.dram_cache_config(dirty_backend=backend),
                )
                cells.append(
                    Cell(
                        f"1c/{bench}/dbi+awb/{backend}",
                        config,
                        [trace],
                        check="full",
                        telemetry=telemetry,
                    )
                )
        return cells


# --------------------------------------------------------------- campaign


def _sampling_execute(execute, samples_dir: str):
    """Wrap the runner's job function so that each worker times the
    calibration loop just before and just after every job it runs, and
    appends the job's host seconds and both readings to a file of its own.
    """

    @functools.wraps(execute)
    def run_job(job):
        before = calibrate.measure()
        t0 = time.perf_counter()
        result = execute(job)
        host_s = time.perf_counter() - t0
        after = calibrate.measure()
        path = os.path.join(samples_dir, f"{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{host_s!r} {before!r} {after!r}\n")
        return result

    return run_job


def _pass_factor(samples_dir: str) -> Optional[float]:
    """The calibration factor the workers saw over a pass: each job's own
    (from the mean of its two readings), weighted by the job's host seconds.
    """
    host_total = norm_total = 0.0
    for name in os.listdir(samples_dir):
        with open(os.path.join(samples_dir, name), encoding="utf-8") as fh:
            for line in fh:
                host_s, before, after = (float(x) for x in line.split())
                host_total += host_s
                norm_total += calibrate.normalize(host_s, (before + after) / 2)
    return norm_total / host_total if host_total else None


@dataclass
class CampaignPlan:
    """What one campaign-slice pass needs: the seeded trace registry."""

    config: object
    refs: int
    cell_ids: List[str]


class CampaignSlice:
    """A fresh ``Campaign``: create, ``run(workers=2)``, finalize.

    The single-core traces are generated from the seed and registered
    through ``repro ingest``'s registry, because campaign plans take no seed;
    the 2-core cells use the scale's (seed-independent) mix table.
    """

    name = "campaign-slice"
    why = (
        "18-cell campaign (lbm/mcf/bzip2 + 2-core mixes x 3 mechanisms, "
        "shards=2, 2 workers): runner, journal, checkpoint stitching"
    )
    benchmarks = ("lbm", "mcf", "bzip2")
    refs = 8_000
    refs_per_core = 4_000
    shards = 2
    workers = 2
    pass_s = 7.4
    setup_repeats = 7
    #: Two workers run cells side by side, so a pass is timed as a whole.
    sequential = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._serial = 0

    def _fresh_dir(self, kind: str) -> str:
        self._serial += 1
        return os.path.join(self.workdir, f"{kind}-{self._serial}")

    def setup(self) -> CampaignPlan:
        from repro.analysis.scaling import SCALES
        from repro.campaign.orchestrator import Campaign, CampaignConfig
        from repro.campaign.plan import cell_traces
        from repro.sim.ingest import ingest_trace
        from repro.sim.tracefile import save_trace

        scale = SCALES[SCALE]
        registry = self._fresh_dir("ingest")
        staging = os.path.join(registry, "staging")
        os.makedirs(staging)
        ingested = []
        for bench in self.benchmarks:
            source = os.path.join(staging, f"{bench}.dbitrace")
            save_trace(
                scale.benchmark_trace(bench, seed=self.seed, refs=self.refs),
                source,
            )
            entry = ingest_trace(source, registry, name=bench)
            ingested.append((bench, entry["sha256"]))
        shutil.rmtree(staging)
        config = CampaignConfig(
            scale=SCALE,
            mechanisms=CAMPAIGN_MECHANISMS,
            core_counts=(2,),
            refs=self.refs_per_core,
            workers=self.workers,
            shards=self.shards,
            ingested=tuple(ingested),
            ingest_dir=registry,
        )
        directory = self._fresh_dir("plan")
        with Campaign.create(directory, config) as campaign:
            cells = campaign.cells
        refs = 0
        for cell in cells:
            refs += sum(
                len(trace.records)
                for trace in cell_traces(
                    scale, cell, refs=config.refs, ingest_dir=registry
                )
            )
        shutil.rmtree(directory)
        return CampaignPlan(config, refs, [cell.cell_id for cell in cells])

    def run_pass(self, plan: CampaignPlan, calibrated: bool = True) -> Pass:
        from repro.analysis import runner as runner_module
        from repro.campaign.orchestrator import Campaign

        directory = self._fresh_dir("campaign")
        samples_dir = self._fresh_dir("calibration")
        out = Pass(wall_s=0.0, refs=0)
        dispatched: Dict[str, float] = {}
        finished: Dict[str, float] = {}
        runners = []
        execute = runner_module._execute
        if calibrated:
            # The pool forks after this, so its workers inherit the wrapper.
            os.makedirs(samples_dir)
            runner_module._execute = _sampling_execute(execute, samples_dir)
        gc.collect()
        try:
            campaign = Campaign.create(directory, plan.config)
            append = campaign.journal.append

            def timed_append(kind, **payload):
                record = append(kind, **payload)
                if kind == "dispatch":
                    dispatched[payload["cell"]] = time.perf_counter()
                elif kind == "done":
                    finished[payload["cell"]] = time.perf_counter()
                return record

            campaign.journal.append = timed_append
            make_runner = campaign._make_runner

            def keep_runner(*args, **kwargs):
                runner = make_runner(*args, **kwargs)
                runners.append(runner)
                return runner

            campaign._make_runner = keep_runner
            start = time.perf_counter()
            try:
                outcome = campaign.run(workers=self.workers, progress=None)
            finally:
                out.wall_s = time.perf_counter() - start
                campaign.close()
            if outcome.status != "complete":
                raise RuntimeError(f"campaign ended {outcome.status}")
            out.refs = plan.refs
            # Without worker samples (no fork), read the host in the parent.
            scale = (
                _pass_factor(samples_dir)
                or calibrate.factor(calibrate.measure())
            ) if calibrated else None
            for cell_id in plan.cell_ids:
                if cell_id in dispatched and cell_id in finished:
                    host_s = finished[cell_id] - dispatched[cell_id]
                    out.cell_s.append(host_s)
                    if scale:
                        out.cell_norm_s[cell_id] = host_s * scale
            if scale:
                out.norm_wall_s = out.wall_s * scale
            self._digest_artifacts(directory, plan, out)
        except Exception as exc:  # counted in fail_frac, run continues
            out.errors.append(f"campaign: {type(exc).__name__}: {exc}")
            for cell_id in plan.cell_ids:
                out.digests.setdefault(cell_id, None)
        finally:
            runner_module._execute = execute
            shutil.rmtree(directory, ignore_errors=True)
            shutil.rmtree(samples_dir, ignore_errors=True)
        if runners:
            runner = runners[0]
            out.extra = {
                "runner.jobs_executed": runner.jobs_executed,
                "runner.cache_hits": runner.cache_hits,
                "runner.retries": runner.jobs_retried,
            }
        return out

    @staticmethod
    def _digest_artifacts(directory: str, plan: CampaignPlan, out: Pass) -> None:
        from repro.analysis.surfaces import SURFACES_DIRNAME

        with open(os.path.join(directory, "results.json"), encoding="utf-8") as fh:
            results = json.load(fh)
        for cell_id in plan.cell_ids:
            entry = results["cells"].get(cell_id)
            if entry is None:
                out.digests[cell_id] = None
                continue
            out.digests[cell_id] = result_digest(entry["result"])
            out.stats.append(entry["result"]["stats"])
        for entry in results["cells"].values():
            entry["result"].pop("events_processed", None)
        out.digests["results.json"] = hashlib.sha256(
            json.dumps(results, sort_keys=True).encode("utf-8")
        ).hexdigest()
        surfaces = os.path.join(directory, SURFACES_DIRNAME)
        for name in sorted(os.listdir(surfaces)):
            with open(os.path.join(surfaces, name), "rb") as fh:
                out.digests[f"surfaces/{name}"] = hashlib.sha256(
                    fh.read()
                ).hexdigest()


WORKLOADS = {
    workload.name: workload
    for workload in (MemoryBound, CacheResident, StackedChecked, CampaignSlice)
}
