#!/usr/bin/env python
"""Multi-core write-interference study (paper Figures 7/8, condensed).

Builds multi-programmed mixes spanning the paper's read/write intensity
categories, runs them under the baseline, DAWB and the full DBI mechanism,
and reports weighted speedup plus fairness metrics — the paper's headline
multi-core result is that DBI+AWB+CLB beats DAWB because its proactive
writebacks cost no wasted tag lookups.

Run:  python examples/multicore_interference.py [--cores 4] [--mixes 3]
"""

import argparse

from repro.analysis.experiments import mix_grid
from repro.analysis.report import format_table
from repro.analysis.runner import SweepRunner
from repro.analysis.scaling import SCALES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="quick", choices=sorted(SCALES))
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--mixes", type=int, default=3)
    parser.add_argument(
        "--mechanisms", default="baseline,dawb,dbi+awb+clb",
        help="comma-separated mechanism names",
    )
    args = parser.parse_args()

    scale = SCALES[args.scale]
    mechanisms = [m.strip() for m in args.mechanisms.split(",")]
    mixes = scale.mixes(args.cores, count=args.mixes)
    for mix in mixes:
        print(f"{mix.name}: {', '.join(mix.benchmark_names)}")
    grid = mix_grid(
        SweepRunner(workers=0, cache_dir=None), scale, {args.cores: mixes},
        mechanisms,
    )

    rows = [
        [name] + [point[mech]["weighted_speedup"] for mech in mechanisms]
        for name, point in grid[args.cores].items()
    ]

    averages = ["average"] + [
        sum(row[i] for row in rows) / len(rows)
        for i in range(1, len(mechanisms) + 1)
    ]
    rows.append(averages)
    print()
    print(format_table(
        ["workload"] + mechanisms, rows,
        title=f"{args.cores}-core weighted speedup ({scale.name} scale)",
    ))
    best, base = averages[-1], averages[1]
    print(f"\n{mechanisms[-1]} vs {mechanisms[0]}: {best / base - 1:+.1%}")


if __name__ == "__main__":
    main()
