"""Warm-image production: run to the warmup boundary and quiesce.

Fork-from-warm (see :mod:`repro.checkpoint.fork`) snapshots one run per
(benchmark, shared-config) group at its warmup boundary and forks every
per-mechanism cell from that image; a sharded cell restores its own image
per segment (see :mod:`repro.checkpoint.shard`). :func:`warm_cell` produces
either image from these helpers:

* :func:`run_until_warm` drives the queue in bounded chunks until every core
  has crossed its warmup boundary (chunked so the hot ``run()`` loop does
  the work, with only a per-chunk flag poll on top);
* :func:`quiesce` pauses instruction issue and drains all in-flight traffic
  so the snapshot's mechanism is idle — a forked mechanism swap must not
  leave events bound to the old mechanism object;
* :func:`rebase_measurement` zeroes every stat group and re-anchors the IPC
  measurement window at the (post-drain) current cycle.

The quiesce perturbs event timing relative to an uninterrupted run, so a
fork-from-warm result is a documented approximation (gem5-style checkpoint
methodology), *not* byte-identical to a cold run of the same cell. Snapshots
taken without quiescing — plain ``run(max_events=N)`` boundaries — restore
byte-identically; that is what the restore-equivalence tests and CI stage
enforce.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.checkpoint.snapshot import CheckpointError
from repro.sim.system import System, SystemConfig

#: Events per ``queue.run`` chunk while polling for the warmup boundary.
WARM_CHUNK_EVENTS = 25_000

#: Default event budget for draining in-flight traffic during a quiesce.
QUIESCE_EVENT_BUDGET = 2_000_000


def warm_config_for(config: SystemConfig) -> SystemConfig:
    """The shared-group config a warm image is produced under.

    The mechanism is normalized away (cells of one group differ only by
    mechanism): groups whose LLC runs TA-DIP warm under ``tadip``; an LRU
    LLC (the baseline, or an explicit override) warms under ``baseline``.
    The resolved LLC config is pinned so the group key — and the fork-time
    compatibility check — cannot drift with mechanism-dependent resolution.
    """
    resolved = config.resolve_llc()
    mechanism = "baseline" if resolved.replacement == "lru" else "tadip"
    return dataclasses.replace(
        config,
        mechanism=mechanism,
        llc=resolved,
        llc_replacement=resolved.replacement,
    )


def run_until_warm(
    system: System, chunk_events: int = WARM_CHUNK_EVENTS
) -> int:
    """Start the cores and run until every core crossed its warmup boundary.

    Returns the number of events fired. Overshoots the boundary by up to
    ``chunk_events`` events (the boundary is detected between chunks); the
    chunk, counted in events, is capped at the warmup target, counted in
    instructions. That cap assumed about 3–4 events per instruction, but a
    quick single-core cell fires 0.27 (bzip2), 0.84 (lbm) or 1.06 (mcf)
    events per instruction up to its boundary, so one chunk can cover more
    instructions than the whole warm-up: a quick 8,000-reference bzip2 cell
    targets 47,478 instructions and is found warm at 93,596 of 118,695. A
    known defect (ROADMAP); fixing it moves every sharded, forked and
    sampled result.
    """
    # The cap is in instructions, the chunk in events: see the docstring.
    warm_target = sum(core.warmup_instructions for core in system.cores)
    if warm_target:
        chunk_events = max(1_000, min(chunk_events, warm_target))
    for core in system.cores:
        core.start()
    fired = 0
    while system._warmed < len(system.cores):
        before = system.queue.events_processed
        system.queue.run(max_events=chunk_events)
        chunk = system.queue.events_processed - before
        fired += chunk
        if chunk == 0:
            raise CheckpointError(
                "event queue drained before the warmup boundary — "
                "warmup_fraction too close to the trace length?"
            )
    return fired


def quiesce(system: System, max_events: int = QUIESCE_EVENT_BUDGET) -> None:
    """Pause issue and drain every in-flight access and fill.

    On return the hierarchy is idle — no MSHR waiters, no pending LLC fills,
    no queued tag-port grants — so the event graph holds no callbacks bound
    to the mechanism and a fork can swap it out safely. The DRAM write
    buffer is deliberately *not* flushed: its entries are callback-free
    plain requests, and force-draining them would destroy the controller's
    steady state (sampled windows would start with an empty buffer and
    under-count write-drain interference). The cores stay paused —
    ``unpause()`` them (or fork, which does) to continue.
    """
    for core in system.cores:
        core.pause()

    def drained() -> bool:
        if not system.hierarchy.is_idle():
            return False
        # The DRAM-cache level's pending fills and overflow retries hold
        # event-graph callbacks too; a fork must find it just as idle.
        return system.dram_cache is None or system.dram_cache.is_idle()

    queue = system.queue
    fired = 0
    while not drained():
        if fired >= max_events:
            raise CheckpointError(
                f"system failed to quiesce within {max_events} events"
            )
        if not queue.step():
            break
        fired += 1
    if not drained():
        raise CheckpointError("event queue drained but traffic is still in flight")


def rebase_measurement(system: System) -> None:
    """Drop all statistics and restart IPC measurement at the current cycle.

    Called after a quiesce (whose drain pollutes the post-warmup-reset stats)
    and after a fork's mechanism swap, so every cell measures from the same
    clean anchor.
    """
    for group in system._all_stat_groups():
        group.reset()
    system._issued_at_reset = sum(
        core.instructions_issued for core in system.cores
    )
    for core in system.cores:
        core._measure_start_cycle = system.queue.now


def warm_cell(config: SystemConfig, traces: Sequence) -> System:
    """Build ``config``'s system and bring it to a quiesced warm boundary.

    Warm → quiesce → rebase: the one warm routine. A sharded cell's
    segments start from this state, a fork group's cells fork from it
    (built under :func:`warm_config_for`'s config), and a sampled run opens
    its first window on it; the sweep runner snapshots it as the image.
    """
    system = System(config, traces)
    if system.check_engine is not None:
        raise CheckpointError(
            "warm images do not compose with the check engine: the "
            "quiesce, fork and fast-forward that follow mutate dirty state "
            "without the writeback events the ledger audits"
        )
    run_until_warm(system)
    quiesce(system)
    rebase_measurement(system)
    return system
