"""Instruction trace format.

A trace is a sequence of memory references, each annotated with the number of
non-memory instructions preceding it — the standard compressed format for
cache-hierarchy studies (the paper collects equivalent traces with
Pinpoints [38]). Records are plain tuples on the hot path; :class:`Trace`
wraps them with metadata and integrity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, Sequence, Tuple

#: (non-memory instruction gap, is_write, block address)
TraceRecord = Tuple[int, bool, int]


@dataclass
class Trace:
    """A named instruction trace.

    Attributes:
        name: workload label (e.g. "mcf"); used in reports.
        records: (gap, is_write, block_addr) tuples.
    """

    name: str
    records: List[TraceRecord]

    def __post_init__(self) -> None:
        # One tight pass settles the all-valid case; only a trace holding a
        # bad record pays for the indexed pass that names the first one.
        # (bool cannot be subclassed, so the type test is isinstance's.)
        for gap, is_write, addr in self.records:
            if gap < 0 or addr < 0 or type(is_write) is not bool:
                self._raise_first_bad_record()

    def _raise_first_bad_record(self) -> None:
        for i, (gap, is_write, addr) in enumerate(self.records):
            if gap < 0:
                raise ValueError(f"record {i}: negative gap {gap}")
            if addr < 0:
                raise ValueError(f"record {i}: negative address {addr}")
            if not isinstance(is_write, bool):
                raise ValueError(f"record {i}: is_write must be bool")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def total_instructions(self) -> int:
        """Instructions represented: every gap plus one per memory op."""
        return sum(map(itemgetter(0), self.records)) + len(self.records)

    @property
    def memory_references(self) -> int:
        return len(self.records)

    @property
    def write_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for _g, w, _a in self.records if w) / len(self.records)

    @property
    def footprint_blocks(self) -> int:
        """Distinct blocks touched."""
        return len({addr for _g, _w, addr in self.records})

    def mpki_upper_bound(self) -> float:
        """Memory references per kilo-instruction (an MPKI ceiling)."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * len(self.records) / instructions


def merge_traces(name: str, traces: Sequence[Trace]) -> Trace:
    """Concatenate traces (utility for building long workloads)."""
    records: List[TraceRecord] = []
    for trace in traces:
        records.extend(trace.records)
    return Trace(name=name, records=records)
