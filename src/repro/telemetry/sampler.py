"""The epoch sampler: stat-counter deltas and gauges, ring + JSONL stream.

Sampling contract (enforced by ``tests/telemetry/``):

* The kernel calls :meth:`TelemetrySampler.sample` at most once per distinct
  timestamp, immediately *before* firing the first bucket whose time is at
  or past :attr:`TelemetrySampler.next_cycle`. An epoch record therefore
  covers every event with ``last_sample < time <= cycle`` — boundaries are
  deterministic functions of the event schedule, never of wall clock.
* The sampler only reads: the int slots of the stat records, plain
  integer attributes, and container lengths. It never calls
  ``is_dirty``/``lookup``-style methods that count their own invocations,
  so enabled and disabled runs export byte-identical final statistics.
* Counter deltas are monotonic except across the warmup statistics reset
  (``System._core_warmed`` zeroes every stat group). A negative delta marks
  the record ``stats_reset=True`` and reports the post-reset value as the
  delta; analysis code skips such records when aggregating.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.utils.stats import StatRecord

#: Bump when the JSONL record schema changes; readers reject newer formats.
JSONL_FORMAT = 1


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of one telemetry attachment.

    Attributes:
        epoch_cycles: epoch length in simulated cycles.
        ring_size: epochs kept in memory (None = all; long runs should set
            this and rely on the JSONL stream for the full trace).
        jsonl_path: stream each closed epoch to this file as one JSON line
            (None = in-memory only). The file is opened lazily on the first
            sample and always starts with a header line.
        meta: extra key/values for the JSONL header (benchmark, mechanism).
    """

    epoch_cycles: int = 5_000
    ring_size: Optional[int] = None
    jsonl_path: Optional[str] = None
    meta: Optional[Tuple[Tuple[str, str], ...]] = None

    def __post_init__(self) -> None:
        if self.epoch_cycles <= 0:
            raise ValueError(
                f"epoch_cycles must be positive, got {self.epoch_cycles}"
            )
        if self.ring_size is not None and self.ring_size <= 0:
            raise ValueError(f"ring_size must be positive, got {self.ring_size}")


@dataclass
class EpochRecord:
    """Deltas and gauges for one sampled epoch.

    ``cycle`` is the sample point (the closing boundary); ``cycles`` is the
    span covered since the previous sample — normally ``epoch_cycles``, but
    larger when the event schedule skipped entire epochs, and smaller for
    the trailing partial epoch emitted by :meth:`TelemetrySampler.finalize`.
    """

    epoch: int
    cycle: int
    cycles: int
    instructions: int
    ipc: float
    stats_reset: bool = False
    final: bool = False
    deltas: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def value(self, key: str) -> float:
        """Resolve a stat key: record field, counter delta, or gauge."""
        if key in ("ipc", "instructions", "cycles", "cycle", "epoch"):
            return getattr(self, key)
        if key in self.deltas:
            return self.deltas[key]
        return self.gauges.get(key, 0.0)

    def to_dict(self) -> Dict:
        return {
            "epoch": self.epoch,
            "cycle": self.cycle,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "stats_reset": self.stats_reset,
            "final": self.final,
            "deltas": dict(self.deltas),
            "gauges": dict(self.gauges),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EpochRecord":
        return cls(
            epoch=data["epoch"],
            cycle=data["cycle"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            ipc=data["ipc"],
            stats_reset=data.get("stats_reset", False),
            final=data.get("final", False),
            deltas=dict(data.get("deltas", {})),
            gauges=dict(data.get("gauges", {})),
        )


#: A named cumulative-integer probe (monotonic outside stat resets).
CounterProbe = Tuple[str, Callable[[], int]]
#: A named instantaneous probe, recorded as-is each epoch.
GaugeProbe = Tuple[str, Callable[[], float]]


class TelemetrySampler:
    """Snapshots component statistics at epoch boundaries.

    Attach by assigning to ``EventQueue.telemetry``; the kernel calls
    :meth:`sample` when the clock reaches :attr:`next_cycle`. Construction
    is usually done by :class:`repro.sim.system.System`, which registers
    its stat groups and per-component probes.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        groups: Sequence[StatRecord] = (),
        counters: Sequence[CounterProbe] = (),
        gauges: Sequence[GaugeProbe] = (),
    ) -> None:
        self.config = config
        self._groups = list(groups)
        self._counters = list(counters)
        self._gauges = list(gauges)
        self.next_cycle = config.epoch_cycles
        self.records: Deque[EpochRecord] = deque(maxlen=config.ring_size)
        self.epochs_emitted = 0
        self._last_cycle = 0
        self._prev: Dict[str, float] = {}
        self._prev_instructions = 0
        self._stream = None
        self._finalized = False

    # ------------------------------------------------------------- sampling

    def _cumulative(self) -> Dict[str, float]:
        """Raw cumulative counter values, read without side effects."""
        snap: Dict[str, float] = {}
        for group in self._groups:
            prefix = group.name
            for name, value in group.counters():
                snap[f"{prefix}.{name}"] = value
            for name, hits, total in group.rates():
                snap[f"{prefix}.{name}.hits"] = hits
                snap[f"{prefix}.{name}.total"] = total
            for name, count, total in group.distributions():
                snap[f"{prefix}.{name}.count"] = count
                snap[f"{prefix}.{name}.sum"] = total
        for key, probe in self._counters:
            snap[key] = probe()
        return snap

    def sample(self, cycle: int, final: bool = False) -> None:
        """Close the epoch ending at ``cycle`` and open the next one.

        Called by the event kernel (``cycle >= next_cycle``) or by
        :meth:`finalize` for the trailing partial epoch.
        """
        snapshot = self._cumulative()
        prev = self._prev
        deltas: Dict[str, float] = {}
        stats_reset = False
        for key, value in snapshot.items():
            delta = value - prev.get(key, 0)
            if delta < 0:
                # The warmup boundary reset this group mid-epoch; the
                # pre-reset share of the epoch is unrecoverable, so report
                # the post-reset count and flag the record.
                stats_reset = True
                delta = value
            if delta:
                deltas[key] = delta
        instructions = deltas.pop("instructions", 0)
        cycles = cycle - self._last_cycle
        record = EpochRecord(
            epoch=self._last_cycle // self.config.epoch_cycles,
            cycle=cycle,
            cycles=cycles,
            instructions=int(instructions),
            ipc=instructions / cycles if cycles else 0.0,
            stats_reset=stats_reset,
            final=final,
            deltas=deltas,
            gauges={key: probe() for key, probe in self._gauges},
        )
        self._prev = snapshot
        self._last_cycle = cycle
        # Next boundary: the first multiple of epoch_cycles beyond `cycle`
        # (skipped epochs collapse into the record that crosses them).
        step = self.config.epoch_cycles
        self.next_cycle = (cycle // step + 1) * step
        self.records.append(record)
        self.epochs_emitted += 1
        self._write(record)

    def finalize(self, cycle: int) -> None:
        """Emit the trailing partial epoch and close the JSONL stream."""
        if self._finalized:
            return
        self._finalized = True
        if cycle > self._last_cycle:
            self.sample(cycle, final=True)
        self.close()

    # -------------------------------------------------------------- JSONL

    def _write(self, record: EpochRecord) -> None:
        if self.config.jsonl_path is None:
            return
        if self._stream is None:
            self._stream = open(self.config.jsonl_path, "w")
            header = {
                "format": JSONL_FORMAT,
                "kind": "header",
                "epoch_cycles": self.config.epoch_cycles,
            }
            if self.config.meta:
                header.update(dict(self.config.meta))
            self._stream.write(json.dumps(header, sort_keys=True) + "\n")
        self._stream.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self._stream.flush()  # a killed run still leaves every closed epoch

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


def read_jsonl(path: str) -> Tuple[Dict, List[EpochRecord]]:
    """Load a telemetry stream: ``(header, records)``.

    Streams the file line by line — a long-running sweep's epoch stream can
    be far larger than the parsed records (each line also carries its JSON
    framing), so the raw text is never held in memory all at once. The
    header is validated on the first non-blank line, *before* any record
    parsing: a foreign file fails fast instead of after a full parse.

    A *torn tail* — the final record cut mid-write by a crash or SIGKILL —
    is tolerated: the partial line is dropped with a :class:`UserWarning`
    and every complete epoch before it is returned, so a killed run's
    forensic ``.partial`` stream stays readable. Only the very last line
    gets this treatment; a malformed record with complete records after it
    is corruption, not a crash, and still raises. A torn *header* also
    raises — with no header the stream has no provenance at all.

    Raises:
        ValueError: on a missing/foreign/torn header, an unsupported
            format, or a malformed record before the final line.
    """
    header: Optional[Dict] = None
    records: List[EpochRecord] = []
    pending_error: Optional[ValueError] = None
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            if pending_error is not None:
                # The bad line was not the stream's tail: real corruption.
                raise pending_error
            if header is None:
                header = json.loads(line)
                if header.get("kind") != "header":
                    raise ValueError(f"{path}: missing telemetry header line")
                if header.get("format", 0) > JSONL_FORMAT:
                    raise ValueError(
                        f"{path}: format {header.get('format')} is newer "
                        f"than supported ({JSONL_FORMAT})"
                    )
                continue
            try:
                records.append(EpochRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                pending_error = ValueError(
                    f"{path}: malformed telemetry record: {exc}"
                )
    if header is None:
        raise ValueError(f"{path}: empty telemetry stream")
    if pending_error is not None:
        import warnings

        warnings.warn(
            f"{path}: dropped torn trailing record (crashed writer); "
            f"{len(records)} complete epoch(s) retained",
            UserWarning,
            stacklevel=2,
        )
    return header, records
