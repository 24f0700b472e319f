"""Fork a warm image into a per-mechanism cell (fork-from-warm sweeps).

A sweep group (one benchmark × one shared config, varying only the LLC
mechanism) warms *once* under the group's normalized mechanism (see
:func:`~repro.checkpoint.warm.warm_config_for`), snapshots at the warmup
boundary, and forks each cell from the shared image: restore a fresh copy,
swap in the cell's mechanism, adopt the warm dirty state, and resume. The
0.4 × run warmup cost is paid once per group instead of once per cell.

Dirty-state adoption across mechanism families:

* tag-dirty mechanisms (baseline/tadip/dawb/vwq): the in-tag dirty bits of
  the warm image carry over unchanged;
* DBI mechanisms: every in-tag dirty bit moves into the fresh DBI
  (``mark_clean`` on the tag, ``mark_dirty`` on the DBI). DBI capacity
  overflow during adoption triggers real entry evictions whose writebacks
  issue once the fork resumes — exactly the behaviour of a DBI that had
  tracked the warm working set;
* write-through (skipcache): dirty bits are dropped; the adopted blocks
  count as already written back (their data went to memory when the warm
  run would have written through).

The die-stacked DRAM-cache level (when present) sits *outside* the fork:
its dirty domain belongs to the level, not to the LLC mechanism, so cells
of one group must share the exact level config and the warm level's
contents and dirty state carry over unchanged. A fork that changes the
level's geometry or dirty backend is refused.

Forked results are a documented approximation of cold per-cell runs (the
quiesce at the warm boundary perturbs timing, and the warm phase ran under
the group mechanism), so fork-mode sweep results are cached under a key that
includes the fork parameters — they never collide with cold-run entries.
"""

from __future__ import annotations

from repro.checkpoint.snapshot import CheckpointError
from repro.checkpoint.warm import rebase_measurement
from repro.mechanisms.registry import make_mechanism
from repro.sim.system import System, SystemConfig
from repro.utils.rng import DeterministicRng


def _adopt_dirty_state(new_mechanism, llc) -> None:
    """Move the warm image's in-tag dirty bits into the new mechanism."""
    if new_mechanism.uses_tag_dirty_bits and not new_mechanism.write_through:
        return  # in-tag bits are already exactly where this mechanism keeps them
    dirty = llc.dirty_blocks()
    for addr in dirty:
        llc.mark_clean(addr)
    if new_mechanism.write_through:
        return  # skipcache: adopted blocks count as already written through
    for addr in dirty:
        # DBI capacity overflow evicts entries here; their writeback probes
        # queue behind the tag port and fire once the fork resumes.
        new_mechanism._mark_dirty(addr)


def fork_system(system: System, config: SystemConfig) -> System:
    """Turn a restored warm image into a ready-to-resume cell of ``config``.

    ``system`` must be a freshly restored (never previously forked) warm
    image: paused, drained, produced by
    :func:`~repro.checkpoint.warm.warm_cell` under
    :func:`~repro.checkpoint.warm.warm_config_for`'s config. It is mutated
    in place and returned.
    """
    base = system.config
    if config.num_cores != base.num_cores:
        raise CheckpointError(
            f"fork config has {config.num_cores} cores, warm image has "
            f"{base.num_cores}"
        )
    if config.resolve_llc() != base.resolve_llc():
        raise CheckpointError(
            "fork config resolves a different LLC than the warm image; "
            "cells of one fork group must share every non-mechanism knob"
        )
    if config.dram_cache != base.dram_cache:
        raise CheckpointError(
            "fork config changes the DRAM-cache level; the stacked level's "
            "warm contents and dirty state cannot be adopted across "
            "geometries or dirty backends"
        )
    if not system.hierarchy.is_idle():
        raise CheckpointError("fork requires a quiesced warm image")
    if system.dram_cache is not None and not system.dram_cache.is_idle():
        raise CheckpointError("fork requires a quiesced warm image")
    if system.check_engine is not None or system.telemetry is not None:
        raise CheckpointError(
            "fork does not compose with check engines or telemetry riders"
        )

    rng = DeterministicRng(config.seed)
    mechanism = make_mechanism(
        config.mechanism,
        queue=system.queue,
        llc=system.llc,
        port=system.port,
        memory=system.dram_cache or system.memory,
        mapper=system.memory.mapper,
        num_cores=config.num_cores,
        dbi_config=config.dbi_config,
        dbi_alpha=config.dbi_alpha,
        dbi_granularity=config.dbi_granularity,
        dbi_replacement=config.dbi_replacement,
        predictor_epoch_cycles=config.predictor_epoch_cycles,
        rng=rng.derive("dbi-policy"),
    )
    _adopt_dirty_state(mechanism, system.llc)
    system.mechanism = mechanism
    system.hierarchy.mechanism = mechanism
    system.config = config
    rebase_measurement(system)
    for core in system.cores:
        core.unpause()
    return system
