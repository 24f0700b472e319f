"""Experiment harness: one runner per paper figure/table.

* :mod:`repro.analysis.scaling` — quick/default/full scale profiles (the
  Python simulator cannot run 500M-instruction SPEC traces, so the hierarchy
  and footprints scale down together, keeping every ratio of Table 1).
* :mod:`repro.analysis.experiments` — ``run_figure6``, ``run_figure7``, ...
  each reproducing one evaluation artifact. The multi-core artifacts
  (Figures 7/8, Tables 3/7, the DRRIP and case studies) are views of one
  ``mix_grid``: the Section 5 metrics per (mix, mechanism), each core
  normalized by the alone run of its own trace.
* :mod:`repro.analysis.surfaces` — the same figures folded from a finished
  campaign's cells, with confidence intervals.
* :mod:`repro.analysis.runner` — the parallel, disk-cached sweep engine the
  experiment runners submit their independent simulations to.
* :mod:`repro.analysis.report` — plain-text table/CSV rendering.
"""

from repro.analysis.experiments import (
    ExperimentResult,
    run_case_study,
    run_dbi_replacement_study,
    run_drrip_study,
    run_figure6,
    run_figure7,
    run_figure8,
    run_table3,
    run_table6,
    run_table7,
)
from repro.analysis.report import format_table, to_csv
from repro.analysis.runner import SweepFuture, SweepJob, SweepRunner, job_key
from repro.analysis.scaling import (
    DEFAULT_SCALE,
    FULL_SCALE,
    QUICK_SCALE,
    SCALES,
    ScaleProfile,
)

__all__ = [
    "ExperimentResult",
    "ScaleProfile",
    "SCALES",
    "QUICK_SCALE",
    "DEFAULT_SCALE",
    "FULL_SCALE",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_table3",
    "run_table6",
    "run_table7",
    "run_case_study",
    "run_dbi_replacement_study",
    "run_drrip_study",
    "format_table",
    "to_csv",
    "SweepRunner",
    "SweepFuture",
    "SweepJob",
    "job_key",
]
