"""Checkpoint/restore, fork-from-warm sweeps, and sampled simulation.

Three layers, bottom-up:

* :mod:`repro.checkpoint.snapshot` — serialize a live system to a versioned,
  self-verifying ``.ckpt`` container and restore it byte-identically;
* :mod:`repro.checkpoint.warm` / :mod:`repro.checkpoint.fork` — warm a
  system to a quiesced boundary (:func:`warm_cell`, where every fork, shard
  and sampled run starts) and fork per-mechanism cells from a group's image;
* :mod:`repro.checkpoint.sampled` — SMARTS-style detailed windows with
  functional fast-forward and per-metric confidence intervals.

See ``docs/architecture.md`` §11 for the protocol and its guarantees.
"""

from repro.checkpoint.fork import fork_system
from repro.checkpoint.sampled import (
    MetricEstimate,
    SampledConfig,
    SampledResult,
    run_sampled,
    run_windows,
)
from repro.checkpoint.snapshot import (
    SNAPSHOT_FORMAT,
    CheckpointError,
    load_snapshot,
    restore_system,
    save_snapshot,
    snapshot_system,
    verify_snapshot,
)
from repro.checkpoint.warm import (
    quiesce,
    rebase_measurement,
    run_until_warm,
    warm_cell,
    warm_config_for,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "CheckpointError",
    "MetricEstimate",
    "SampledConfig",
    "SampledResult",
    "fork_system",
    "load_snapshot",
    "quiesce",
    "rebase_measurement",
    "restore_system",
    "run_sampled",
    "run_until_warm",
    "run_windows",
    "save_snapshot",
    "snapshot_system",
    "verify_snapshot",
    "warm_cell",
    "warm_config_for",
]
