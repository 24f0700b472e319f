#!/usr/bin/env python
"""Campaign soak gate: crash recovery must be byte-identical.

Runs the kill-and-resume chaos proof (:mod:`repro.campaign.proof`) over
two campaign variants and gates CI on every recovered campaign producing
``results.json`` / ``report.txt`` (and telemetry streams) **byte for
byte** equal to an uninterrupted reference run:

* **telemetry variant** — three scheduled faults against a 2-cell inline
  campaign: SIGKILL *mid-journal-append* (a torn half record is durable
  when the process dies), SIGKILL right after the first dispatch record,
  and a SIGTERM graceful drain;
* **checkpoint variant** — SIGKILL *mid-warm-image-build*, while the
  build lock is held and partial staging litter is on disk; the resume
  must reclaim the dead owner's lock and rebuild;
* **sharded variant** — SIGKILL right after the first sharded cell's
  image is written, before any of its segments is collected; the resume
  must verify and reuse the image and finish the cell's segments.

Faults are scheduled at exact journal sequence offsets or build ordinals
(``kill``, ``mode``, ``warm_kill`` and ``image_kill`` keys of the one
``REPRO_CHAOS`` spec grammar), not sampled from a probability, so the gate
is deterministic: the same instant dies on every CI run. ``--quick`` runs only the three load-bearing points (torn
append, warm build, cell image) for a faster smoke.

``--tier`` instead proves a shrunken *quick-tier* campaign — full-width
mix tables, alone-IPC normalizer cells and the sensitivity sweep — and
byte-compares the Figure 6/7/8 surface files on top of the standard
artifacts. Its kill seq is computed from the tier's actual plan length
(the cell count depends on the mix tables), so it always lands
mid-dispatch rather than at a hard-coded offset.

Exit status 0 = every kill point recovered byte-identically, 1 = not.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaign.proof import KillPoint, kill_and_resume_proof  # noqa: E402

# Journal seq layout of the 2-cell inline campaign (--workers 0):
# 0 header, 1-2 cell, 3 planned, 4-5 dispatch, 6-7 done, 8 complete.
TELEMETRY_POINTS = [
    KillPoint("torn-mid-append", "kill=6,mode=torn"),
    KillPoint("kill-after-dispatch", "kill=4,mode=kill"),
    KillPoint("term-drain", "kill=4,mode=term", expect="drain"),
]
CHECKPOINT_POINTS = [
    KillPoint("kill-mid-warm-build", "warm_kill=1"),
]
SHARDED_POINTS = [
    KillPoint("kill-after-cell-image", "image_kill=1"),
]

# The shrunken quick-tier grid the --tier proof runs: small enough for CI,
# wide enough to exercise full-width mixes, alone cells and sens cells.
# The sensitivity grid is cut to one divisor and one benchmark because
# sens cells run SENSITIVITY_REFS_FLOOR refs regardless of --refs.
TIER_BENCHMARKS = "lbm"
TIER_MECHANISMS = "baseline,dbi"
TIER_CORES = "1,2"
TIER_REFS = 200
TIER_SENSITIVITY = "2"
TIER_SENS_BENCHMARKS = "lbm"


def tier_kill_points() -> list:
    """Kill points for the tier proof, placed from the actual plan length.

    The tier plan's cell count depends on the full-width mix tables, so
    the journal seq of "mid-dispatch" is computed, not hard-coded: after
    the header (seq 0), ``n`` cell records and the planned record, the
    first dispatch/done pairs start at seq ``n + 2``.
    """
    from repro.campaign.tiers import tier_config

    cells = len(
        tier_config(
            "quick",
            benchmarks=tuple(TIER_BENCHMARKS.split(",")),
            mechanisms=tuple(TIER_MECHANISMS.split(",")),
            core_counts=tuple(int(c) for c in TIER_CORES.split(",")),
            refs=TIER_REFS,
            sensitivity=tuple(
                int(d) for d in TIER_SENSITIVITY.split(",")
            ),
            sensitivity_benchmarks=tuple(TIER_SENS_BENCHMARKS.split(",")),
        ).plan()
    )
    mid = cells + 2 + 18  # 9 dispatch/done pairs into the grid
    return [
        KillPoint("tier-torn-mid-append", f"kill={mid},mode=torn"),
        KillPoint("tier-kill-mid-dispatch", f"kill={mid + 1},mode=kill"),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="only the torn-append, mid-warm-build and cell-image points",
    )
    parser.add_argument(
        "--refs",
        type=int,
        default=800,
        help="trace length per campaign cell (default 800)",
    )
    parser.add_argument(
        "--keep",
        metavar="DIR",
        default=None,
        help="run under DIR and keep the campaign directories for autopsy",
    )
    parser.add_argument(
        "--tier",
        action="store_true",
        help="prove a shrunken quick-tier campaign (full-width mixes, "
             "surfaces) instead of the legacy variants",
    )
    args = parser.parse_args()

    telemetry_points = TELEMETRY_POINTS[:1] if args.quick else TELEMETRY_POINTS

    if args.keep is not None:
        os.makedirs(args.keep, exist_ok=True)
        context = None
        base = args.keep
    else:
        context = tempfile.TemporaryDirectory(prefix="soak-gate-")
        base = context.name

    if args.tier:
        variants = [
            (
                "tier-quick",
                tier_kill_points(),
                {
                    "tier": "quick",
                    "benchmarks": TIER_BENCHMARKS,
                    "mechanisms": TIER_MECHANISMS,
                    "cores": TIER_CORES,
                    "refs": TIER_REFS,
                    "sensitivity": TIER_SENSITIVITY,
                    "sensitivity_benchmarks": TIER_SENS_BENCHMARKS,
                },
            )
        ]
    else:
        variants = [
            ("telemetry", telemetry_points,
             {"telemetry": True, "refs": args.refs}),
            ("checkpoint", CHECKPOINT_POINTS,
             {"checkpoint": True, "refs": args.refs}),
            ("sharded", SHARDED_POINTS, {"shards": 2, "refs": args.refs}),
        ]

    failed = False
    total = 0
    try:
        for variant, points, flags in variants:
            report = kill_and_resume_proof(
                base, variant=variant, kill_points=points, **flags,
            )
            print(report.to_text())
            total += len(points)
            if not report.ok:
                failed = True
    finally:
        if context is not None:
            context.cleanup()

    if failed:
        print("soak gate: FAIL — recovery diverged from the reference run",
              file=sys.stderr)
        return 1
    print(f"soak gate: ok ({total} kill points recovered byte-identically)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
