"""Op-relative drain schedules: the ordering witness of oracle v2.

The untimed oracle can predict *what* a mechanism does architecturally, but
not *when* timing-dependent work retires: background writebacks (AWB
flushes, DBI-displacement drains, DAWB/VWQ probe hits) land at port-grant
times, and predictor-driven fetches (CLB's bypassed-but-resident reads,
Skip Cache's bypasses) depend on epoch clocks the oracle does not model.
Both are invisible at the LLC — final state there is order-free — but
visible one level down, where every read/write reorders the DRAM-cache
level's LRU stacks.

Oracle v2 splits the two concerns. The timed serialized run carries a
:class:`DrainRecorder` that logs, per demand op, every ledger-tracked
memory writeback (with its cause) and every memory fetch as it retires.
The resulting :class:`DrainSchedule` is handed to the oracle, which still
*decides* architecturally — which blocks a probe round writes back, which
reads miss — but validates its decisions against the witness per op
(exactly-once, same multiset) and *emits* them in the recorded op-relative
order. A timing bug that drops, duplicates or invents a drain therefore
surfaces as a witness mismatch at the op where it happened, rather than as
an unattributable LRU divergence thousands of ops later.

Causes are stable strings (coverage keys for ``repro conformance``):

=================  ========================================================
``evict``          demand writeback of a dirty block falling out of a cache
``writethrough``   Skip Cache's per-request memory write
``awb``            DBI Aggressive Writeback row-mate flush (Section 3.1)
``dbi-displace``   DBI entry displacement drain (Section 2.2.4)
``dawb-probe``     DAWB background row probe that found a dirty block
``vwq-probe``      VWQ LRU-half probe that found a dirty block
``awb-drain``      DRAM-cache level: whole-row drain on a dirty eviction
=================  ========================================================
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Causes the oracle predicts inline at its own demand-op processing points;
#: everything else is background work whose retire order the witness fixes.
DEMAND_CAUSES = frozenset({"evict", "writethrough"})

#: Every writeback cause the LLC mechanisms can report.
WRITEBACK_CAUSES = (
    "evict",
    "writethrough",
    "awb",
    "dbi-displace",
    "dawb-probe",
    "vwq-probe",
)


class DrainRecorder:
    """Timed-side witness log, attached as ``mechanism.recorder``.

    :meth:`begin_op` is called by the serialized driver before each trace
    record is issued; the mechanism hooks call :meth:`on_memory_writeback`
    and :meth:`on_memory_fetch` as requests leave for the memory side, which
    under one-op-at-a-time driving is the op-relative retire order.
    """

    def __init__(self) -> None:
        self.op_index = -1
        #: op -> background writeback addrs, in retire order.
        self.background: Dict[int, List[int]] = {}
        #: op -> fetched addrs, in issue order.
        self.fetches: Dict[int, List[int]] = {}
        #: cause -> count over the whole run (coverage surface).
        self.cause_counts: Dict[str, int] = {}

    def begin_op(self, op_index: int) -> None:
        self.op_index = op_index

    def on_memory_writeback(self, addr: int, cause: str) -> None:
        self.cause_counts[cause] = self.cause_counts.get(cause, 0) + 1
        if cause in DEMAND_CAUSES:
            return
        self.background.setdefault(self.op_index, []).append(addr)

    def on_memory_fetch(self, addr: int) -> None:
        self.fetches.setdefault(self.op_index, []).append(addr)

    def schedule(self) -> "DrainSchedule":
        return DrainSchedule(self.background, self.fetches, self.cause_counts)


class DrainSchedule:
    """Replay cursor over one recorded run (consumed by the oracle)."""

    def __init__(
        self,
        background: Dict[int, List[int]],
        fetches: Dict[int, List[int]],
        cause_counts: Dict[str, int],
    ) -> None:
        self._background = {op: list(addrs) for op, addrs in background.items()}
        self._fetches = {op: list(addrs) for op, addrs in fetches.items()}
        self.cause_counts = dict(cause_counts)
        self._fetch_cursor: Dict[int, int] = {}

    # ------------------------------------------------------- writebacks

    def background_for_op(self, op_index: int) -> List[int]:
        """Recorded background writebacks of one op (consumed once)."""
        return self._background.pop(op_index, [])

    # ----------------------------------------------------------- fetches

    def peek_fetch(self, op_index: int) -> int | None:
        """Next unconsumed fetched address of the op, if any."""
        pending = self._fetches.get(op_index)
        cursor = self._fetch_cursor.get(op_index, 0)
        if pending is None or cursor >= len(pending):
            return None
        return pending[cursor]

    def take_fetch(self, op_index: int) -> int | None:
        """Consume and return the op's next fetched address."""
        addr = self.peek_fetch(op_index)
        if addr is not None:
            self._fetch_cursor[op_index] = self._fetch_cursor.get(op_index, 0) + 1
        return addr

    def take_fetches(self, op_index: int) -> List[int]:
        """Consume every remaining fetch of the op (Skip Cache replay)."""
        taken = []
        while True:
            addr = self.take_fetch(op_index)
            if addr is None:
                return taken
            taken.append(addr)

    # -------------------------------------------------------- leftovers

    def leftovers(self) -> List[str]:
        """Witness events the oracle never consumed (end-of-run check)."""
        problems: List[str] = []
        for op, addrs in sorted(self._background.items()):
            problems.append(
                f"op {op}: {len(addrs)} recorded background writeback(s) "
                f"never replayed (e.g. {['%#x' % a for a in addrs[:4]]})"
            )
        for op, addrs in sorted(self._fetches.items()):
            cursor = self._fetch_cursor.get(op, 0)
            if cursor < len(addrs):
                rest = addrs[cursor:]
                problems.append(
                    f"op {op}: timing fetched "
                    f"{['%#x' % a for a in rest[:4]]} but the oracle never "
                    f"issued the fetch"
                )
        return problems

    def interleaving_profile(self) -> Dict[str, int]:
        """Structural coverage of drain interleavings (conformance map).

        Buckets how many background drains each op carried and whether ops
        mixed replayed fetches with drains — the shapes that distinguish
        a schedule that actually exercised op-relative ordering from one
        that never left the demand-only fast path.
        """
        profile: Dict[str, int] = {}

        def bump(key: str) -> None:
            profile[key] = profile.get(key, 0) + 1

        for op, addrs in self._background.items():
            bucket = "1" if len(addrs) == 1 else ("2-4" if len(addrs) <= 4 else "5+")
            bump(f"drain-burst:{bucket}")
            if op in self._fetches:
                bump("drain-with-fetch-op")
        for addrs in self._fetches.values():
            bump("fetch-replay-op")
            if len(addrs) > 1:
                bump("fetch-replay-multi")
        return profile


def schedule_events(schedule: DrainSchedule) -> List[Tuple[int, str, int]]:
    """Flatten a schedule for tests: (op, kind, addr) in op order."""
    events: List[Tuple[int, str, int]] = []
    for op, addrs in sorted(schedule._background.items()):
        events.extend((op, "wb", addr) for addr in addrs)
    for op, addrs in sorted(schedule._fetches.items()):
        events.extend((op, "fetch", addr) for addr in addrs)
    return events
