"""Analysis over epoch streams: warmup detection, phases, steady state.

The headline experiment tables assume a *fixed* 40% instruction warmup
(``SystemConfig.warmup_fraction``, mirroring the paper's 200M of 500M). The
functions here turn that assumption into a measurement: where does the
per-epoch IPC actually stabilise, and what do the headline metrics look
like when recomputed over the measured steady state only?

Records flagged ``stats_reset`` (the epoch in which the warmup reset zeroed
the stat groups) are excluded from every aggregate — their counter deltas
cover an unknowable fraction of the epoch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.telemetry.sampler import EpochRecord


def series(records: Sequence[EpochRecord], key: str) -> List[float]:
    """The per-epoch time series of ``key`` (see :meth:`EpochRecord.value`)."""
    return [record.value(key) for record in records]


def rate_series(
    records: Sequence[EpochRecord], name: str
) -> List[Optional[float]]:
    """Per-epoch ratio of a rate stat, e.g. ``dram.write_row_hit_rate``.

    Computed from the epoch's hits/total deltas; epochs in which the rate's
    denominator saw no traffic yield None.
    """
    out: List[Optional[float]] = []
    for record in records:
        hits = record.deltas.get(f"{name}.hits", 0)
        total = record.deltas.get(f"{name}.total", 0)
        out.append(hits / total if total else None)
    return out


def detect_warmup(
    records: Sequence[EpochRecord],
    window: int = 4,
    tolerance: float = 0.25,
) -> Optional[int]:
    """First epoch index at which IPC has stabilised, or None.

    Scans for the earliest index ``i`` such that (a) the ``window`` epochs
    starting at ``i`` all have IPC within ``tolerance`` (relative spread,
    ``(max - min) / mean``) of each other, and (b) the window's mean is
    within ``tolerance`` of the mean over *everything* from ``i`` on.
    Condition (b) rejects the cold-start plateau: the first epochs of a run
    are often mutually consistent (caches still filling, everything hits)
    yet far from where the run settles, and a warmup boundary placed there
    would make the entire transient "steady state".
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    ipcs = [record.ipc for record in records]
    for start in range(0, len(ipcs) - window + 1):
        chunk = ipcs[start : start + window]
        mean = sum(chunk) / window
        if mean <= 0:
            continue
        if (max(chunk) - min(chunk)) / mean > tolerance:
            continue
        rest = ipcs[start:]
        rest_mean = sum(rest) / len(rest)
        if rest_mean > 0 and abs(mean - rest_mean) <= tolerance * rest_mean:
            return start
    return None


def _aggregate(records: Sequence[EpochRecord]) -> Dict[str, float]:
    """Summed deltas over ``records``, skipping stats-reset epochs."""
    totals: Dict[str, float] = {}
    cycles = instructions = 0
    for record in records:
        if record.stats_reset:
            continue
        cycles += record.cycles
        instructions += record.instructions
        for key, delta in record.deltas.items():
            totals[key] = totals.get(key, 0) + delta
    totals["cycles"] = cycles
    totals["instructions"] = instructions
    return totals


def _rate(totals: Dict[str, float], name: str) -> float:
    total = totals.get(f"{name}.total", 0)
    return totals.get(f"{name}.hits", 0) / total if total else 0.0


def _pki(totals: Dict[str, float], count: float) -> float:
    instructions = totals.get("instructions", 0)
    return 1000.0 * count / instructions if instructions else 0.0


def summarize(records: Sequence[EpochRecord]) -> Dict[str, float]:
    """Headline metrics recomputed from a slice of the epoch stream.

    Mirrors the derived metrics of ``SimulationResult`` (write/read row-hit
    rate, memory WPKI, tag lookups PKI, LLC MPKI) plus IPC, but over
    exactly the epochs given — pass ``records[boundary:]`` for a
    steady-state-only view.
    """
    totals = _aggregate(records)
    cycles = totals["cycles"]
    misses = (
        totals.get("mech.read_misses", 0)
        + totals.get("mech.bypassed_lookups", 0)
        - totals.get("mech.bypassed_hits", 0)
    )
    return {
        "epochs": sum(1 for r in records if not r.stats_reset),
        "cycles": cycles,
        "instructions": totals["instructions"],
        "ipc": totals["instructions"] / cycles if cycles else 0.0,
        "write_row_hit_rate": _rate(totals, "dram.write_row_hit_rate"),
        "read_row_hit_rate": _rate(totals, "dram.read_row_hit_rate"),
        "memory_wpki": _pki(totals, totals.get("dram.dram_writes_performed", 0)),
        "tag_lookups_pki": _pki(totals, totals.get("mech.tag_lookups", 0)),
        "llc_mpki": _pki(totals, misses),
    }


def phase_summaries(
    records: Sequence[EpochRecord], phases: int = 4
) -> List[Dict[str, float]]:
    """Split the stream into ``phases`` contiguous slices and summarize each.

    Useful for "where in the run did it happen": each summary carries
    ``first_epoch``/``last_epoch`` alongside the :func:`summarize` metrics.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    records = list(records)
    if not records:
        return []
    phases = min(phases, len(records))
    size = len(records) / phases
    out = []
    for index in range(phases):
        chunk = records[int(index * size) : int((index + 1) * size)]
        if not chunk:
            continue
        summary = summarize(chunk)
        summary["first_epoch"] = chunk[0].epoch
        summary["last_epoch"] = chunk[-1].epoch
        out.append(summary)
    return out


def warmup_report(
    records: Sequence[EpochRecord],
    window: int = 4,
    tolerance: float = 0.25,
) -> Dict:
    """Measured warmup boundary plus warmup/steady-state summaries.

    ``measured_warmup_fraction`` is the fraction of all issued instructions
    spent before the boundary — directly comparable to the fixed
    ``SystemConfig.warmup_fraction`` (0.4 in every committed experiment).
    """
    records = list(records)
    boundary = detect_warmup(records, window=window, tolerance=tolerance)
    total_instructions = sum(r.instructions for r in records)
    if boundary is None:
        warm_instructions = total_instructions
    else:
        warm_instructions = sum(r.instructions for r in records[:boundary])
    return {
        "boundary_epoch": boundary,
        "boundary_cycle": (
            records[boundary].cycle - records[boundary].cycles
            if boundary is not None and boundary < len(records)
            else None
        ),
        "measured_warmup_fraction": (
            warm_instructions / total_instructions if total_instructions else 0.0
        ),
        # Identity check, not truthiness: boundary == 0 is a valid measured
        # boundary (steady from the first epoch) and must yield an explicit
        # zero-epoch warmup summary, distinguishable from "never settled".
        "warmup": (
            summarize(records[:boundary]) if boundary is not None else None
        ),
        "steady_state": (
            summarize(records[boundary:]) if boundary is not None else None
        ),
    }
