#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload memory-bound --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload memory-bound --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed:
the workload is set up ``setup_repeats`` times (median = ``setup_s``), then
run for ``round(--seconds / pass_s)`` whole passes.

``--trace 1`` runs one untraced pass, then installs the owner-attributing
tracer (:mod:`tracer`), sets the workload up again and runs one traced pass.
It prints the per-layer self-time table (its rows sum to the traced wall
time) and the per-layer metrics.

Every cell's result is digested (``SimulationResult.to_dict()`` without
``events_processed``). At the default seed the digests must equal the ones
pinned in ``digests.json``; at any other seed they are printed, and every
pass of the run must agree with the first. The traced pass must agree with
the untraced one. Each disagreement, and each cell that raised, counts in
``failed`` and ``fail_frac``.

All times are host (wall-clock) seconds, scaled to the reference host
speed by the calibration loop of :mod:`calibrate`; the uncorrected host
figures are printed on a ``#`` line. Simulated statistics are
deterministic for a seed, so they serve as correctness checks only; the
model is not validated against hardware and no error figure is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1


def peak_rss_mib() -> float:
    """Max RSS of this process and its waited-for children, in MiB."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if platform.system() == "Darwin":  # bytes there, KiB on Linux
        peak /= 1024
    return peak / 1024


def load_pins(workload: str) -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get("workloads", {}).get(workload, {})


class Checker:
    """Counts attempted and failed cells against a reference digest table.

    With ``pinned`` the reference is the pinned table and a cell missing
    from it fails; otherwise the first digest seen for a cell becomes its
    reference.
    """

    def __init__(self, reference: dict, pinned: bool) -> None:
        self.reference = dict(reference)
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, run_pass, label: str) -> None:
        for error in run_pass.errors:
            print(f"error [{label}] {error}", file=sys.stderr)
        for cell_id, digest in run_pass.digests.items():
            self.attempted += 1
            if self.pinned:
                expected = self.reference.get(cell_id)
            else:
                expected = self.reference.setdefault(cell_id, digest)
            if digest is None or digest != expected:
                self.failed += 1
                self.mismatches.append(f"{label}:{cell_id}")
        for cell_id in self.reference:
            if cell_id not in run_pass.digests:
                self.attempted += 1
                self.failed += 1
                self.mismatches.append(f"{label}:{cell_id} (missing)")


def untraced(workload, seconds: float, checker: Checker):
    setup_host, setup_norm = [], []
    prepared = None
    before = calibrate.measure()
    for _ in range(workload.setup_repeats):
        prepared = None
        gc.collect()
        t0 = time.perf_counter()
        prepared = workload.setup()
        host_s = time.perf_counter() - t0
        after = calibrate.measure()
        setup_host.append(host_s)
        setup_norm.append(calibrate.normalize(
            host_s, (before + after) / 2, calibrate.SETUP_ELASTICITY
        ))
        before = after
    # The pass count is fixed by the budget and the workload's nominal pass
    # time, not by a clock, so both sides of a comparison do the same work.
    passes = []
    for index in range(max(1, round(seconds / workload.pass_s))):
        run_pass = workload.run_pass(prepared)
        checker.check(run_pass, f"pass{index}")
        passes.append(run_pass)
    # Each cell's time is the median over passes of its calibrated seconds;
    # a pass of sequential cells takes the sum of those medians, a pass of
    # overlapping cells the median calibrated pass.
    by_cell = {}
    for p in passes:
        for cell_id, norm_s in p.cell_norm_s.items():
            by_cell.setdefault(cell_id, []).append(norm_s)
    cell_p50 = [statistics.median(times) for times in by_cell.values()]
    for cell_id, norm_s in zip(by_cell, cell_p50):
        print(f"# cell {cell_id} {norm_s:.4f} s")
    if workload.sequential:
        pass_norm = sum(cell_p50)
    else:
        pass_norm = statistics.median(p.norm_wall_s for p in passes)
    wall = sum(p.wall_s for p in passes)
    pass_norm = pass_norm or wall  # every cell raised; the run fails anyway
    host_cell_s = [t for p in passes for t in p.cell_s]
    metrics = {
        "sim_refs_per_s": (max(p.refs for p in passes) / pass_norm, "refs/s"),
        "cell_s_p50": (statistics.median(cell_p50) if cell_p50 else pass_norm, "s"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    print(
        f"# {len(passes)} passes, {len(host_cell_s)} cells, {wall:.3f} s wall, "
        f"setup x{workload.setup_repeats}; host seconds before calibration: "
        f"pass {statistics.median(p.wall_s for p in passes):.4f}, "
        f"cell p50 {statistics.median(host_cell_s) if host_cell_s else 0:.4f}, "
        f"setup {statistics.median(setup_host):.4f}"
    )
    return metrics, passes[0]


def traced(workload, checker: Checker):
    from tracer import LAYERS, Tracer

    baseline = workload.run_pass(workload.setup(), calibrated=False)
    checker.check(baseline, "untraced")
    tracer = Tracer()
    tracer.install()
    tracer.start()
    try:
        prepared = workload.setup()
        run_pass = workload.run_pass(prepared, calibrated=False)
    finally:
        wall = tracer.stop()
        tracer.uninstall()
    checker.check(run_pass, "traced")

    counts = tracer.counts
    refs = run_pass.refs or 1

    def ratio(num, den):
        return num / den if den else 0.0

    def stat_sum(key):
        return sum(stats.get(key, 0) for stats in run_pass.stats)

    depth_n = stat_sum("llc_port.queue_depth.count")
    depth_total = sum(
        stats.get("llc_port.queue_depth.mean", 0)
        * stats.get("llc_port.queue_depth.count", 0)
        for stats in run_pass.stats
    )
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        if layer != "unattributed":
            metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
    metrics.update({
        "kernel.events_per_ref": (ratio(counts["kernel.events"], refs), "events/ref"),
        "kernel.cancelled_frac": (
            ratio(counts["kernel.cancels"], counts["kernel.scheduled"]), "ratio"),
        "dram.wakes_per_request": (
            ratio(counts["dram.wakes"], counts["dram.completions"]), "wakes/request"),
        "dram.write_rejects": (counts["dram.write_rejects"], "count"),
        "hierarchy.l1_hit_frac": (
            ratio(counts["hierarchy.l1_hits"], counts["hierarchy.loads"]), "ratio"),
        "port.queue_depth_mean": (ratio(depth_total, depth_n), "requests"),
        "mechanism.tag_lookups_per_ref": (
            ratio(counts["mechanism.tag_lookups"], refs), "lookups/ref"),
        "mechanism.bypass_frac": (
            ratio(stat_sum("mech.bypassed_lookups"), stat_sum("mech.read_requests")),
            "ratio"),
        "dbi.displacements": (counts["dbi.displacements"], "count"),
        "dramcache.hit_frac": (
            ratio(stat_sum("dramcache.read_hits"), stat_sum("dramcache.reads")),
            "ratio"),
        "runner.jobs_executed": (run_pass.extra.get("runner.jobs_executed", 0), "count"),
        "runner.cache_hits": (run_pass.extra.get("runner.cache_hits", 0), "count"),
        "runner.retries": (run_pass.extra.get("runner.retries", 0), "count"),
        "runner.wait_s": (tracer.timed_s["runner.wait_s"], "s"),
        "checkpoint.stitch_s": (tracer.timed_s["checkpoint.stitch_s"], "s"),
        "campaign.journal_appends": (counts["campaign.journal_appends"], "count"),
        "campaign.journal_s": (tracer.timed_s["campaign.journal_s"], "s"),
        "workloads.trace_gen_s": (tracer.timed_s["workloads.trace_gen_s"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (ratio(run_pass.wall_s, baseline.wall_s) - 1.0, "ratio"),
    })

    print(f"# self-time table, traced wall {wall:.3f} s (setup + one pass)")
    print(f"# {'layer':<13} {'self_s':>9} {'share':>7} {'calls':>10}")
    for layer in LAYERS:
        share = tracer.self_s[layer] / wall if wall else 0.0
        print(
            f"# {layer:<13} {tracer.self_s[layer]:>9.4f} {share:>6.1%} "
            f"{tracer.calls[layer]:>10}"
        )
    print(f"# {'sum':<13} {sum(tracer.self_s.values()):>9.4f}")
    return metrics, run_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help="re-pin this workload's digests (default seed only)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.write_digests and args.seed != DEFAULT_SEED:
        print("error: digests are pinned at the default seed", file=sys.stderr)
        return 2

    pinned = args.seed == DEFAULT_SEED and not args.write_digests
    checker = Checker(load_pins(args.workload) if pinned else {}, pinned)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        if args.trace:
            metrics, first = traced(workload, checker)
        else:
            metrics, first = untraced(workload, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.write_digests:
        if checker.failed:
            print("error: not pinning a run with failed cells", file=sys.stderr)
            return 1
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table["seed"] = DEFAULT_SEED
        table.setdefault("workloads", {})[args.workload] = dict(first.digests)
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    if not pinned:
        for cell_id, digest in first.digests.items():
            print(f"# digest seed={args.seed} {cell_id} {digest}")
    for mismatch in checker.mismatches:
        print(f"# MISMATCH {mismatch}", file=sys.stderr)

    fail_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {fail_frac:.6g} ratio")
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
