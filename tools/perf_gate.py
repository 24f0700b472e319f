#!/usr/bin/env python3
"""CI performance gate: self-relative speedup of quick-scale fig6 cells.

Runs a fixed, representative subset of the Figure 6 sweep *inline* — one
process, no workers, no sweep cache — so the aggregate events/sec is a clean
measurement of per-event simulator cost. The same cells are then re-measured
on a pinned **reference commit** (pre-overhaul ``main``, checked out into a
throwaway git worktree) in the same job, so both numbers come from identical
hardware and the gated quantity is the *speedup ratio*, which is stable
across machines. Absolute events/sec varies 20-50% between dev boxes and
hosted CI runners, so it is recorded for the trajectory but never gated on.

The gate:

* writes its report (events/sec, wall-clock, peak RSS, per-cell
  breakdown, and the speedup vs the reference commit) to the gitignored
  :data:`REPORT_PATH`, which CI uploads as an artifact — never to a
  ``BENCH_<date>.json``, whose name belongs to the committed perf
  trajectory (a different schema, written by ``perfbench``);
* exits 1 if the speedup ratio regressed more than ``--threshold``
  (default 20%) against the ratio pinned in ``BENCH_baseline.json``.

``--update-baseline`` rewrites ``BENCH_baseline.json`` from this run instead
of gating (used to seed the baseline, or to deliberately re-pin it after an
accepted perf change — commit the result). Requires the reference commit in
the local object store: CI checks out with ``fetch-depth: 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The measured cells: a quick-scale fig6 subset that exercises the baseline
#: tag path, the DRAM-aware writeback scan, and the full DBI+AWB stack.
BENCHMARKS = ("lbm", "mcf")
MECHANISMS = ("tadip", "dawb", "dbi+awb")

#: Pre-overhaul ``main`` — the commit the hot-path speedup is claimed
#: against. Measured fresh in every gate run, on the same machine as HEAD,
#: so the gated ratio carries no cross-machine noise.
REFERENCE_COMMIT = "e6f17ebf719c77747953fdd65a7284c0687b8f94"

BASELINE_PATH = REPO_ROOT / "BENCH_baseline.json"
#: This run's report (gitignored; uploaded by CI).
REPORT_PATH = REPO_ROOT / "tools" / "perf_gate_report.json"

#: Stand-alone driver executed inside the reference worktree. The reference
#: commit predates this tool, so the measurement loop is shipped to it here;
#: it relies only on APIs that exist there (SCALES, run_system).
_REFERENCE_DRIVER = """\
import json, sys, time

sys.path.insert(0, sys.argv[1])
from repro.analysis.scaling import SCALES
from repro.sim.system import run_system

scale = SCALES[sys.argv[2]]
total_events = 0
total_wall = 0.0
for benchmark in sys.argv[3].split(","):
    trace = scale.benchmark_trace(benchmark)
    for mechanism in sys.argv[4].split(","):
        config = scale.system_config(mechanism)
        start = time.perf_counter()
        result = run_system(config, [trace])
        total_wall += time.perf_counter() - start
        total_events += result.events_processed
print(json.dumps({
    "events_per_second": round(total_events / total_wall),
    "total_events": total_events,
    "wall_seconds": round(total_wall, 3),
}))
"""


def measure(scale_name: str = "quick") -> dict:
    """Run every cell inline and return the aggregate + per-cell report."""
    from repro.analysis.scaling import SCALES
    from repro.sim.system import run_system

    scale = SCALES[scale_name]
    cells = []
    total_events = 0
    total_wall = 0.0
    for benchmark in BENCHMARKS:
        trace = scale.benchmark_trace(benchmark)
        for mechanism in MECHANISMS:
            config = scale.system_config(mechanism)
            start = time.perf_counter()
            result = run_system(config, [trace])
            wall = time.perf_counter() - start
            total_events += result.events_processed
            total_wall += wall
            cells.append(
                {
                    "benchmark": benchmark,
                    "mechanism": mechanism,
                    "events": result.events_processed,
                    "wall_seconds": round(wall, 4),
                    "events_per_second": round(result.events_processed / wall),
                }
            )
            print(
                f"perf: {benchmark:>6} / {mechanism:<11} "
                f"{result.events_processed:>8} events  {wall:6.3f}s  "
                f"{result.events_processed / wall:>9,.0f} ev/s",
                flush=True,
            )
    # ru_maxrss is KiB on Linux, bytes on macOS.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":
        peak_rss //= 1024
    return {
        "recorded_utc": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "scale": scale_name,
        "events_per_second": round(total_events / total_wall),
        "total_events": total_events,
        "wall_seconds": round(total_wall, 3),
        "peak_rss_kib": peak_rss,
        "python": platform.python_version(),
        "cells": cells,
    }


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ("git", *args), cwd=REPO_ROOT, capture_output=True, text=True
    )


def measure_reference(scale_name: str = "quick") -> dict:
    """Measure the same cells on the pinned reference commit, same machine.

    Checks the commit out into a temporary ``git worktree`` and runs the
    measurement loop in a subprocess whose import path points at the
    worktree's ``src``, so the two measurements share hardware, load and
    Python build — everything except the code under test.
    """
    if _git("cat-file", "-e", f"{REFERENCE_COMMIT}^{{commit}}").returncode:
        # Shallow clone: try to deepen before giving up.
        _git("fetch", "--quiet", "origin", REFERENCE_COMMIT)
        if _git("cat-file", "-e", f"{REFERENCE_COMMIT}^{{commit}}").returncode:
            raise RuntimeError(
                f"reference commit {REFERENCE_COMMIT[:12]} not in the local "
                "object store; clone with full history (CI: checkout "
                "fetch-depth: 0)"
            )
    tmp = Path(tempfile.mkdtemp(prefix="perf-gate-ref-"))
    worktree = tmp / "ref"
    added = _git("worktree", "add", "--detach", str(worktree), REFERENCE_COMMIT)
    if added.returncode:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"git worktree add failed: {added.stderr.strip()}")
    try:
        driver = tmp / "driver.py"
        driver.write_text(_REFERENCE_DRIVER)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            (
                sys.executable,
                str(driver),
                str(worktree / "src"),
                scale_name,
                ",".join(BENCHMARKS),
                ",".join(MECHANISMS),
            ),
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode:
            raise RuntimeError(
                f"reference measurement failed:\n{proc.stderr.strip()}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        _git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(tmp, ignore_errors=True)
        _git("worktree", "prune")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="max tolerated speedup-ratio regression vs baseline "
             "(default 0.20)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite BENCH_baseline.json from this run instead of gating",
    )
    parser.add_argument(
        "--scale", default="quick",
        help="scale profile to measure (default: quick)",
    )
    args = parser.parse_args(argv)

    report = measure(args.scale)
    print(
        f"perf: measuring reference commit {REFERENCE_COMMIT[:12]} "
        "(pre-overhaul main) on this machine...",
        flush=True,
    )
    reference = measure_reference(args.scale)
    speedup = report["events_per_second"] / reference["events_per_second"]
    report["reference_commit"] = REFERENCE_COMMIT
    report["reference_events_per_second"] = reference["events_per_second"]
    report["reference_wall_seconds"] = reference["wall_seconds"]
    report["speedup_vs_reference"] = round(speedup, 3)
    if reference["total_events"] != report["total_events"]:
        print(
            f"perf: WARNING — reference fired {reference['total_events']} "
            f"events vs {report['total_events']} on HEAD; the workloads have "
            "diverged and the ratio mixes per-event cost with event count",
            file=sys.stderr,
        )

    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"perf: aggregate {report['events_per_second']:,} ev/s over "
        f"{report['total_events']} events in {report['wall_seconds']}s "
        f"(peak RSS {report['peak_rss_kib']} KiB) -> "
        f"{REPORT_PATH.relative_to(REPO_ROOT)}"
    )
    print(
        f"perf: reference {reference['events_per_second']:,} ev/s in "
        f"{reference['wall_seconds']}s; speedup {speedup:.2f}x on this machine"
    )

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"perf: baseline re-pinned at {BASELINE_PATH.name}")
        return 0

    if not BASELINE_PATH.exists():
        print(
            "perf: FAIL — no committed BENCH_baseline.json; seed one with "
            "--update-baseline",
            file=sys.stderr,
        )
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    baseline_speedup = baseline.get("speedup_vs_reference")
    if baseline_speedup is None:
        print(
            "perf: FAIL — BENCH_baseline.json predates ratio gating (no "
            "speedup_vs_reference field); re-seed with --update-baseline",
            file=sys.stderr,
        )
        return 1
    floor = baseline_speedup * (1.0 - args.threshold)
    print(
        f"perf: baseline speedup {baseline_speedup:.2f}x "
        f"(recorded {baseline['recorded_utc']}); this run is {speedup:.2f}x, "
        f"gate floor {floor:.2f}x"
    )
    if speedup < floor:
        print(
            f"perf: FAIL — speedup vs the reference commit regressed more "
            f"than {args.threshold:.0%} vs baseline",
            file=sys.stderr,
        )
        return 1
    print("perf: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
