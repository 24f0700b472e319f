#!/usr/bin/env python3
"""CI performance gate: the repo benchmark on HEAD against a pinned commit.

For each workload in :data:`WORKLOADS` the gate runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 0

twice in the same job: once in HEAD's tree and once in a throwaway git
worktree of :data:`REFERENCE_COMMIT`, alternating which side runs first.
``perfbench/`` is the same at both commits, so both sides run the same
workload and report calibrated ``sim_refs_per_s`` from the same hardware
under the same load. The gated quantity is the ratio HEAD / reference,
which, unlike absolute refs/s, carries no cross-machine noise.

The gate:

* fails if either side's result line reports a failed cell or is not
  ``correct`` (a digest moved or a cell raised);
* writes its report (both sides' result lines in brief and the ratio per
  workload) to the gitignored :data:`REPORT_PATH`, which CI uploads as an
  artifact, never to a ``BENCH_<date>.json``, whose name belongs to the
  committed perf trajectory;
* exits 1 if a workload's ratio is more than ``--threshold`` (default 20%)
  below the ratio pinned for it in ``BENCH_baseline.json``.

``--update-baseline`` rewrites ``BENCH_baseline.json`` from this run instead
of gating (to deliberately re-pin after an accepted perf change; commit the
result). Requires the reference commit in the local object store: CI checks
out with ``fetch-depth: 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The gated workloads: the DRAM side and the cache side of the simulator.
WORKLOADS = ("memory-bound", "cache-resident")
PERFBENCH_ARGS = ("--seed", "1", "--seconds", "10", "--trace", "0")

#: The commit that introduced ``perfbench/``, measured fresh in every gate
#: run on the same machine as HEAD.
REFERENCE_COMMIT = "5591d04d4875c79ce0f9acf179e58af80916633f"

#: Format of the report and of ``BENCH_baseline.json``.
SCHEMA = "perf-gate/2"

BASELINE_PATH = REPO_ROOT / "BENCH_baseline.json"
#: This run's report (gitignored; uploaded by CI).
REPORT_PATH = REPO_ROOT / "tools" / "perf_gate_report.json"


def parse_result(stdout: str) -> dict:
    """The result object on the last line of a ``perfbench/run.py`` run."""
    return json.loads(stdout.strip().splitlines()[-1])


def compare(head: dict, reference: dict) -> dict:
    """One workload's report row from the two sides' result objects."""

    def side(result: dict) -> dict:
        return {
            "sim_refs_per_s": result["metrics"]["sim_refs_per_s"]["value"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
        }

    row = {"head": side(head), "reference": side(reference)}
    row["ratio"] = round(
        row["head"]["sim_refs_per_s"] / row["reference"]["sim_refs_per_s"], 4
    )
    return row


def make_report(workloads: Dict[str, dict]) -> dict:
    return {
        "schema": SCHEMA,
        "recorded_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "reference_commit": REFERENCE_COMMIT,
        "command": "python3 perfbench/run.py --workload <w> " + " ".join(PERFBENCH_ARGS),
        "workloads": workloads,
    }


def check(report: dict, baseline: dict, threshold: float) -> List[str]:
    """Why the gate fails: one line per reason, empty when it passes."""
    failures = []
    if baseline.get("schema") != SCHEMA:
        failures.append(
            f"BENCH_baseline.json is not schema {SCHEMA}; re-pin with "
            "--update-baseline"
        )
    pinned = baseline.get("workloads", {})
    for workload, row in report["workloads"].items():
        for name in ("head", "reference"):
            side = row[name]
            if side["failed"] or not side["correct"]:
                failures.append(
                    f"{workload}: {name} failed {side['failed']} of "
                    f"{side['attempted']} cells"
                )
        ratio = pinned.get(workload, {}).get("ratio")
        if ratio is None:
            failures.append(f"{workload}: no ratio pinned in BENCH_baseline.json")
        elif row["ratio"] < ratio * (1.0 - threshold):
            failures.append(
                f"{workload}: HEAD/reference {row['ratio']:.3f} is more than "
                f"{threshold:.0%} below the pinned {ratio:.3f}"
            )
    return failures


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ("git", *args), cwd=REPO_ROOT, capture_output=True, text=True
    )


def run_perfbench(tree: Path, workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        (sys.executable, "perfbench/run.py", "--workload", workload, *PERFBENCH_ARGS),
        cwd=tree, capture_output=True, text=True, env=env,
    )
    if proc.returncode:
        raise RuntimeError(
            f"perfbench {workload} in {tree} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return parse_result(proc.stdout)


def measure() -> dict:
    """Run every workload on both sides and return the report.

    The reference side runs in a temporary ``git worktree`` of
    :data:`REFERENCE_COMMIT`, so the two measurements share hardware, load
    and Python build: everything except the code under test.
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
        trees = {"head": REPO_ROOT, "reference": worktree}
        rows = {}
        for index, workload in enumerate(WORKLOADS):
            order = ("head", "reference") if index % 2 == 0 else ("reference", "head")
            results = {name: run_perfbench(trees[name], workload) for name in order}
            row = rows[workload] = compare(results["head"], results["reference"])
            print(
                f"perf: {workload:<15} HEAD {row['head']['sim_refs_per_s']:>9,.0f}"
                f" refs/s, reference {row['reference']['sim_refs_per_s']:>9,.0f}"
                f" refs/s, ratio {row['ratio']:.3f}",
                flush=True,
            )
        return make_report(rows)
    finally:
        _git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(tmp, ignore_errors=True)
        _git("worktree", "prune")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="max tolerated drop of a workload's HEAD/reference ratio below "
             "its pinned ratio (default 0.20)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite BENCH_baseline.json from this run instead of gating",
    )
    args = parser.parse_args(argv)

    print(
        f"perf: perfbench on HEAD and on {REFERENCE_COMMIT[:12]} (this machine)",
        flush=True,
    )
    report = measure()
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"perf: report -> {REPORT_PATH.relative_to(REPO_ROOT)}")

    if args.update_baseline:
        # Checked against itself, a run fails only on a failed cell.
        failures = check(report, report, args.threshold)
        if failures:
            for failure in failures:
                print(f"perf: FAIL — {failure}", file=sys.stderr)
            print("perf: not re-pinning a failed run", file=sys.stderr)
            return 1
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"perf: baseline re-pinned at {BASELINE_PATH.name}")
        return 0

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    )
    failures = check(report, baseline, args.threshold)
    for failure in failures:
        print(f"perf: FAIL — {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf: ok (every ratio within {args.threshold:.0%} of its pin)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
