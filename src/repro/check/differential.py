"""Differential oracle: timing simulator vs. golden reference model.

``repro check-diff`` drives the *real* LLC-mechanism/hierarchy/DRAM stack one
trace record at a time (issue, drain the event queue, next), which removes
every source of timing-dependent reordering — MSHR merges, overlapping fills,
core overshoot — while exercising the exact production datapaths. The same
interleaved reference stream replays through the untimed
:class:`~repro.check.oracle.OracleSystem`, and the two must agree on:

* L1/L2 contents and dirty sets per core (every mechanism);
* LLC contents (every mechanism except skipcache, whose bypass-without-fill
  decisions are predictor/timing state the oracle does not model);
* the dirty set — in-tag bits for conventional mechanisms, DBI entry
  bit-vectors for the DBI family;
* total writeback traffic: mechanism writebacks, and DRAM writes performed
  plus coalesced.

The timed side additionally records an op-relative
:class:`~repro.check.schedule.DrainSchedule` — which background writebacks
retired within each op, and which memory fetches timing-dependent bypasses
issued — and the oracle replays against it (oracle v2): the oracle decides
*what* is written back, the witness pins *when*, and any disagreement is a
reported divergence. This is what makes every mechanism family checkable,
including below a DRAM-cache level whose LRU state is order-sensitive.

Replacement is pinned to LRU on both sides (TA-DIP's coin flips are
exercised by the timing tests); all other datapaths run unmodified,
including CLB bypasses and predictor training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.port import TagPort
from repro.check.errors import InvariantViolation
from repro.check.invariants import (
    check_cache_structure,
    check_dbi_structure,
    check_dbi_tag_agreement,
    check_policy_recency,
    check_write_buffer,
)
from repro.check.oracle import (
    OracleMechanism,
    OracleSystem,
    RefDbi,
    RefDramCache,
    RefLruCache,
)
from repro.check.schedule import DrainRecorder, DrainSchedule
from repro.core.config import DbiConfig
from repro.dram.config import DramConfig
from repro.dram.controller import MemoryController
from repro.dramcache.config import DramCacheConfig, stacked_dram_config
from repro.dramcache.level import DramCacheLevel
from repro.mechanisms.registry import MECHANISM_NAMES, make_mechanism
from repro.sim.hierarchy import Hierarchy
from repro.sim.trace import Trace
from repro.utils.events import EventQueue
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class DiffGeometry:
    """Small machine shape shared by both sides of the differential run."""

    llc_blocks: int = 256
    llc_associativity: int = 4
    l1_blocks: int = 16
    l1_associativity: int = 2
    l2_blocks: int = 64
    l2_associativity: int = 4
    dbi_alpha: Fraction = Fraction(1, 2)
    dbi_granularity: int = 8
    dbi_associativity: int = 2
    dram_row_blocks: int = 16
    dram_banks: int = 4
    write_buffer_entries: int = 8
    #: Short predictor epochs so CLB/skipcache bypasses actually trigger.
    predictor_epoch_cycles: int = 5_000
    #: DRAM-cache level shape (used only when a backend is requested).
    #: Small and low-associativity so evictions and DBI displacements fire
    #: constantly at differential trace lengths.
    dramcache_blocks: int = 64
    dramcache_associativity: int = 4
    dramcache_dbi_alpha: Fraction = Fraction(1, 2)
    dramcache_dbi_granularity: int = 8
    dramcache_dbi_associativity: int = 2

    def llc_config(self) -> CacheConfig:
        return CacheConfig(
            name="llc",
            num_blocks=self.llc_blocks,
            associativity=self.llc_associativity,
            tag_latency=4,
            data_latency=8,
            serial_lookup=True,
            replacement="lru",
        )

    def l1_config(self) -> CacheConfig:
        return CacheConfig(
            name="l1",
            num_blocks=self.l1_blocks,
            associativity=self.l1_associativity,
            tag_latency=1,
            data_latency=1,
        )

    def l2_config(self) -> CacheConfig:
        return CacheConfig(
            name="l2",
            num_blocks=self.l2_blocks,
            associativity=self.l2_associativity,
            tag_latency=2,
            data_latency=2,
        )

    def dram_config(self) -> DramConfig:
        return DramConfig(
            num_banks=self.dram_banks,
            row_buffer_blocks=self.dram_row_blocks,
            write_buffer_entries=self.write_buffer_entries,
        )

    def dbi_config(self) -> DbiConfig:
        return DbiConfig(
            cache_blocks=self.llc_blocks,
            alpha=self.dbi_alpha,
            granularity=self.dbi_granularity,
            associativity=self.dbi_associativity,
        )

    def dram_cache_config(self, dirty_backend: str) -> DramCacheConfig:
        return DramCacheConfig(
            num_blocks=self.dramcache_blocks,
            associativity=self.dramcache_associativity,
            dirty_backend=dirty_backend,
            dbi_alpha=self.dramcache_dbi_alpha,
            dbi_granularity=self.dramcache_dbi_granularity,
            dbi_associativity=self.dramcache_dbi_associativity,
            stacked=stacked_dram_config(
                row_buffer_blocks=self.dram_row_blocks,
                write_buffer_entries=self.write_buffer_entries,
            ),
        )


def _interleave(traces: Sequence[Trace]) -> Iterable[Tuple[int, bool, int]]:
    """Round-robin merge of per-core reference streams: (core, write, addr)."""
    streams = [trace.records for trace in traces]
    for index in range(max(len(records) for records in streams)):
        for core_id, records in enumerate(streams):
            if index < len(records):
                _gap, is_write, addr = records[index]
                yield core_id, is_write, addr


@dataclass
class TimingSnapshot:
    """Architectural state of the timing stack after a serialized run."""

    llc_blocks: Set[int]
    llc_dirty: Set[int]
    dbi_dirty: Set[int]
    dbi_entries: Dict[int, int]
    l1_blocks: List[Set[int]]
    l1_dirty: List[Set[int]]
    l2_blocks: List[Set[int]]
    l2_dirty: List[Set[int]]
    read_requests: int
    writeback_requests: int
    memory_writebacks: int
    dram_writes_performed: int
    dram_writes_coalesced: int
    # DRAM-cache level state (populated only when a level is attached).
    dramcache_blocks: Set[int] = field(default_factory=set)
    dramcache_dirty: Set[int] = field(default_factory=set)
    dramcache_dbi_entries: Dict[int, int] = field(default_factory=dict)
    dramcache_reads: int = 0
    dramcache_writes: int = 0
    dramcache_offchip_writes: int = 0


def _cache_sets(cache: Cache) -> Tuple[Set[int], Set[int]]:
    blocks, dirty = set(), set()
    for block in cache.iter_valid_blocks():
        blocks.add(block.addr)
        if block.dirty:
            dirty.add(block.addr)
    return blocks, dirty


def run_timing_serialized(
    mechanism_name: str,
    traces: Sequence[Trace],
    geometry: DiffGeometry,
    dram_cache: Optional[str] = None,
    recorder: Optional[DrainRecorder] = None,
) -> TimingSnapshot:
    """Drive the real stack one reference at a time and snapshot its state.

    With a ``recorder`` attached, the mechanism logs every memory writeback
    (with cause) and fetch per op — the drain schedule the oracle replays.
    """
    queue = EventQueue()
    memory = MemoryController(queue, geometry.dram_config())
    level = None
    if dram_cache is not None:
        level = DramCacheLevel(
            queue,
            geometry.dram_cache_config(dram_cache),
            memory,
            rng=DeterministicRng(0xD3A),
        )
    llc = Cache(geometry.llc_config(), num_threads=len(traces))
    port = TagPort(queue, occupancy=geometry.llc_config().port_occupancy)
    mechanism = make_mechanism(
        mechanism_name,
        queue=queue,
        llc=llc,
        port=port,
        memory=level or memory,
        mapper=memory.mapper,
        num_cores=len(traces),
        dbi_config=geometry.dbi_config(),
        predictor_epoch_cycles=geometry.predictor_epoch_cycles,
        rng=DeterministicRng(0xD1FF),
    )
    hierarchy = Hierarchy(
        queue, len(traces), geometry.l1_config(), geometry.l2_config(), mechanism
    )
    if recorder is not None:
        mechanism.recorder = recorder

    for op_index, (core_id, is_write, addr) in enumerate(_interleave(traces)):
        if recorder is not None:
            recorder.begin_op(op_index)
        if is_write:
            hierarchy.store(core_id, addr)
        else:
            hierarchy.load(core_id, addr, lambda _addr: None)
        queue.run()

    if not (hierarchy.is_idle() and memory.is_idle()):
        raise InvariantViolation(
            "writeback-conservation",
            f"{mechanism_name}: serialized run left in-flight work after the "
            f"event queue drained",
        )
    if level is not None and not level.is_idle():
        raise InvariantViolation(
            "writeback-conservation",
            f"{mechanism_name}: serialized run left DRAM-cache work in flight "
            f"after the event queue drained",
        )
    # The production structural checks must hold on the final state too.
    mechanism.check_invariants()
    check_cache_structure(llc)
    check_policy_recency(llc.policy, "llc")
    check_dbi_tag_agreement(mechanism, llc)
    check_write_buffer(memory.write_buffer)
    dbi = getattr(mechanism, "dbi", None)
    if dbi is not None:
        check_dbi_structure(dbi)
    if level is not None:
        level.check_invariants()
        check_cache_structure(level.tags, "dramcache")
        if level.dbi is not None:
            check_dbi_structure(level.dbi)

    llc_blocks, llc_dirty = _cache_sets(llc)
    l1_states = [_cache_sets(cache) for cache in hierarchy.l1s]
    l2_states = [_cache_sets(cache) for cache in hierarchy.l2s]
    dbi_entries: Dict[int, int] = {}
    if dbi is not None:
        dbi_entries = dbi.entries()
    dramcache_blocks: Set[int] = set()
    dramcache_dirty: Set[int] = set()
    dramcache_dbi_entries: Dict[int, int] = {}
    dramcache_reads = dramcache_writes = dramcache_offchip = 0
    if level is not None:
        dramcache_blocks, _tag_dirty = _cache_sets(level.tags)
        dramcache_dirty = set(level.dirty_blocks())
        if level.dbi is not None:
            dramcache_dbi_entries = level.dbi.entries()
        dramcache_reads = level.stats.reads
        dramcache_writes = level.stats.writes
        dramcache_offchip = level.stats.offchip_writes

    stats = mechanism.stats
    return TimingSnapshot(
        llc_blocks=llc_blocks,
        llc_dirty=llc_dirty,
        dbi_dirty=set(dbi.all_dirty_blocks()) if dbi is not None else set(),
        dbi_entries=dbi_entries,
        l1_blocks=[state[0] for state in l1_states],
        l1_dirty=[state[1] for state in l1_states],
        l2_blocks=[state[0] for state in l2_states],
        l2_dirty=[state[1] for state in l2_states],
        read_requests=stats.read_requests,
        writeback_requests=stats.writeback_requests,
        memory_writebacks=stats.memory_writebacks,
        dram_writes_performed=memory.stats.dram_writes_performed,
        dram_writes_coalesced=memory.stats.writes_coalesced,
        dramcache_blocks=dramcache_blocks,
        dramcache_dirty=dramcache_dirty,
        dramcache_dbi_entries=dramcache_dbi_entries,
        dramcache_reads=dramcache_reads,
        dramcache_writes=dramcache_writes,
        dramcache_offchip_writes=dramcache_offchip,
    )


def run_oracle(
    mechanism_name: str,
    traces: Sequence[Trace],
    geometry: DiffGeometry,
    dram_cache: Optional[str] = None,
    schedule: Optional[DrainSchedule] = None,
) -> OracleSystem:
    """Replay the same interleaved stream through the reference model."""
    if mechanism_name == "skipcache":
        llc = None
        dbi = None
    else:
        llc = RefLruCache(geometry.llc_blocks, geometry.llc_associativity)
        dbi = None
        if mechanism_name.startswith("dbi"):
            dbi_config = geometry.dbi_config()
            dbi = RefDbi(
                dbi_config.num_entries,
                dbi_config.associativity,
                dbi_config.granularity,
            )
    ref_level = None
    if dram_cache is not None:
        level_config = geometry.dram_cache_config(dram_cache)
        level_dbi = level_config.dbi_config()
        ref_level = RefDramCache(
            level_config.num_blocks,
            level_config.associativity,
            backend=dram_cache,
            dbi_entries=level_dbi.num_entries,
            dbi_associativity=level_dbi.associativity,
            dbi_granularity=level_dbi.granularity,
        )
    mechanism = OracleMechanism(
        mechanism_name, llc, geometry.dram_row_blocks, dbi=dbi,
        dram_cache=ref_level, schedule=schedule,
    )
    oracle = OracleSystem(
        len(traces),
        (geometry.l1_blocks, geometry.l1_associativity),
        (geometry.l2_blocks, geometry.l2_associativity),
        mechanism,
    )
    for core_id, is_write, addr in _interleave(traces):
        oracle.access(core_id, is_write, addr)
    return oracle


@dataclass
class MechanismReport:
    """Agreement verdict for one mechanism."""

    mechanism: str
    failures: List[str] = field(default_factory=list)
    llc_blocks: int = 0
    dirty_blocks: int = 0
    writebacks: int = 0
    read_requests: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class DiffReport:
    """Full differential-validation outcome over a set of mechanisms."""

    trace_names: List[str]
    references: int
    reports: List[MechanismReport]
    dram_cache: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    def to_text(self) -> str:
        level_note = (
            f" + DRAM-cache level ({self.dram_cache} backend)"
            if self.dram_cache
            else ""
        )
        lines = [
            f"differential validation: traces={','.join(self.trace_names)} "
            f"({self.references} refs interleaved){level_note}",
            f"{'mechanism':<14} {'llc blocks':>10} {'dirty':>7} "
            f"{'writebacks':>10} {'reads':>8}  verdict",
        ]
        for report in self.reports:
            verdict = "OK" if report.ok else "DIVERGED"
            lines.append(
                f"{report.mechanism:<14} {report.llc_blocks:>10} "
                f"{report.dirty_blocks:>7} {report.writebacks:>10} "
                f"{report.read_requests:>8}  {verdict}"
            )
            for failure in report.failures:
                lines.append(f"    - {failure}")
        return "\n".join(lines)


def _compare_sets(
    failures: List[str], label: str, actual: Set[int], expected: Set[int]
) -> None:
    if actual == expected:
        return
    extra = sorted(actual - expected)[:4]
    missing = sorted(expected - actual)[:4]
    failures.append(
        f"{label}: timing has {len(actual)}, oracle has {len(expected)} "
        f"(timing-only={['%#x' % a for a in extra]}, "
        f"oracle-only={['%#x' % a for a in missing]})"
    )


def _compare_counts(
    failures: List[str], label: str, actual: int, expected: int
) -> None:
    if actual != expected:
        failures.append(f"{label}: timing={actual}, oracle={expected}")


def diff_one_mechanism(
    mechanism_name: str,
    traces: Sequence[Trace],
    geometry: DiffGeometry,
    dram_cache: Optional[str] = None,
    recorder: Optional[DrainRecorder] = None,
) -> Tuple[MechanismReport, TimingSnapshot]:
    """Run both sides for one mechanism and compare architectural state.

    A caller-supplied ``recorder`` keeps its witness log after the run —
    ``repro conformance`` mines it for coverage (causes, interleavings).
    """
    report = MechanismReport(mechanism=mechanism_name)
    recorder = recorder if recorder is not None else DrainRecorder()
    try:
        snapshot = run_timing_serialized(
            mechanism_name, traces, geometry, dram_cache=dram_cache,
            recorder=recorder,
        )
    except AssertionError as error:
        report.failures.append(f"timing-side invariant failure: {error}")
        empty = TimingSnapshot(
            set(), set(), set(), {}, [], [], [], [], 0, 0, 0, 0, 0
        )
        return report, empty
    oracle = run_oracle(
        mechanism_name, traces, geometry, dram_cache=dram_cache,
        schedule=recorder.schedule(),
    )
    reference = oracle.mechanism

    failures = report.failures
    failures.extend(oracle.schedule_failures())
    for core_id in range(len(traces)):
        _compare_sets(
            failures, f"core{core_id} L1 contents",
            snapshot.l1_blocks[core_id], oracle.l1s[core_id].blocks(),
        )
        _compare_sets(
            failures, f"core{core_id} L1 dirty set",
            snapshot.l1_dirty[core_id], oracle.l1s[core_id].dirty_blocks(),
        )
        _compare_sets(
            failures, f"core{core_id} L2 contents",
            snapshot.l2_blocks[core_id], oracle.l2s[core_id].blocks(),
        )
        _compare_sets(
            failures, f"core{core_id} L2 dirty set",
            snapshot.l2_dirty[core_id], oracle.l2s[core_id].dirty_blocks(),
        )

    if reference.llc is not None:
        _compare_sets(
            failures, "LLC contents", snapshot.llc_blocks, reference.llc.blocks()
        )

    if reference.dbi is not None:
        _compare_sets(
            failures, "dirty set (DBI)",
            snapshot.dbi_dirty, reference.dbi.dirty_blocks(),
        )
        if snapshot.dbi_entries != reference.dbi.entries():
            failures.append(
                f"DBI entries diverge: timing has {len(snapshot.dbi_entries)} "
                f"regions, oracle has {len(reference.dbi.entries())}"
            )
        dirty_count = len(snapshot.dbi_dirty)
    elif reference.kind == "writethrough":
        _compare_counts(
            failures, "write-through dirty set", len(snapshot.llc_dirty), 0
        )
        dirty_count = 0
    else:
        _compare_sets(
            failures, "dirty set (tags)",
            snapshot.llc_dirty, reference.llc.dirty_blocks(),
        )
        dirty_count = len(snapshot.llc_dirty)

    _compare_counts(
        failures, "LLC read requests",
        snapshot.read_requests, reference.read_requests,
    )
    _compare_counts(
        failures, "writeback requests",
        snapshot.writeback_requests, reference.writeback_requests,
    )
    _compare_counts(
        failures, "memory writebacks",
        snapshot.memory_writebacks, reference.writebacks,
    )
    if reference.dram_cache is not None:
        ref_level = reference.dram_cache
        _compare_sets(
            failures, "DRAM-cache contents",
            snapshot.dramcache_blocks, ref_level.blocks(),
        )
        _compare_sets(
            failures, "DRAM-cache dirty set",
            snapshot.dramcache_dirty, ref_level.dirty_blocks(),
        )
        if snapshot.dramcache_dbi_entries != ref_level.dbi_entries():
            failures.append(
                f"DRAM-cache DBI entries diverge: timing has "
                f"{len(snapshot.dramcache_dbi_entries)} regions, oracle has "
                f"{len(ref_level.dbi_entries())}"
            )
        _compare_counts(
            failures, "DRAM-cache reads",
            snapshot.dramcache_reads, ref_level.received_reads,
        )
        _compare_counts(
            failures, "DRAM-cache writes",
            snapshot.dramcache_writes, ref_level.received_writes,
        )
        _compare_counts(
            failures, "DRAM-cache off-chip writes",
            snapshot.dramcache_offchip_writes, ref_level.offchip_writes,
        )
        # With a level attached, off-chip DRAM sees the *level's* write
        # stream rather than the mechanism's.
        _compare_counts(
            failures, "DRAM writes (performed+coalesced)",
            snapshot.dram_writes_performed + snapshot.dram_writes_coalesced,
            ref_level.offchip_writes,
        )
    else:
        _compare_counts(
            failures, "DRAM writes (performed+coalesced)",
            snapshot.dram_writes_performed + snapshot.dram_writes_coalesced,
            reference.writebacks,
        )

    report.llc_blocks = len(snapshot.llc_blocks)
    report.dirty_blocks = dirty_count
    report.writebacks = snapshot.memory_writebacks
    report.read_requests = snapshot.read_requests
    return report, snapshot


def run_check_diff(
    traces: Sequence[Trace],
    mechanisms: Optional[Sequence[str]] = None,
    geometry: Optional[DiffGeometry] = None,
    dram_cache: Optional[str] = None,
) -> DiffReport:
    """Differentially validate mechanisms against the golden model.

    Beyond per-mechanism agreement with the oracle, all LLC-modelled
    mechanisms must agree with *each other* on final LLC contents: dirty-bit
    placement and proactive writebacks may only change traffic, never
    architectural content (the paper's safety argument).

    With ``dram_cache`` set to a dirty-backend name ("tag" or "dbi"), every
    run carries a die-stacked DRAM-cache level between the mechanism and
    off-chip DRAM, and the level's contents, dirty set, DBI entries and
    off-chip write traffic must also match the untimed reference. Every
    mechanism family is eligible in both modes: the recorded drain schedule
    gives the oracle the op-relative retire order of background writebacks
    and timing-dependent bypass fetches (see :mod:`repro.check.schedule`).
    """
    mechanisms = list(mechanisms or MECHANISM_NAMES)
    geometry = geometry or DiffGeometry()
    reports: List[MechanismReport] = []
    content_sets: Dict[str, Set[int]] = {}
    for name in mechanisms:
        report, snapshot = diff_one_mechanism(
            name, traces, geometry, dram_cache=dram_cache
        )
        if name != "skipcache":
            content_sets[name] = snapshot.llc_blocks
        reports.append(report)

    if len(content_sets) > 1:
        names = sorted(content_sets)
        baseline_name = names[0]
        baseline = content_sets[baseline_name]
        for name in names[1:]:
            if content_sets[name] != baseline:
                for report in reports:
                    if report.mechanism == name:
                        _compare_sets(
                            report.failures,
                            f"cross-mechanism LLC contents vs {baseline_name}",
                            content_sets[name],
                            baseline,
                        )
    return DiffReport(
        trace_names=[trace.name for trace in traces],
        references=sum(len(trace) for trace in traces),
        reports=reports,
        dram_cache=dram_cache,
    )


def assert_check_diff(
    traces: Sequence[Trace],
    mechanisms: Optional[Sequence[str]] = None,
    geometry: Optional[DiffGeometry] = None,
    dram_cache: Optional[str] = None,
) -> DiffReport:
    """:func:`run_check_diff` that raises on any divergence (test helper)."""
    report = run_check_diff(
        traces, mechanisms=mechanisms, geometry=geometry, dram_cache=dram_cache
    )
    if not report.ok:
        raise InvariantViolation("differential-oracle", "\n" + report.to_text())
    return report
