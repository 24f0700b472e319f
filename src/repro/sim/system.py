"""Full-system builder and run loop.

:class:`SystemConfig` captures every knob of paper Table 1 plus the scaled
run length; :class:`System` wires cores, hierarchy, mechanism and memory to
one event queue and runs until every core has been measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.cache.cache import Cache
from repro.cache.config import (
    CacheConfig,
    paper_l1_config,
    paper_l2_config,
    paper_llc_config,
)
from repro.cache.port import TagPort
from repro.core.config import DbiConfig
from repro.dram.config import DramConfig
from repro.dram.controller import MemoryController
from repro.dramcache.config import DramCacheConfig
from repro.dramcache.level import DramCacheLevel
from repro.mechanisms.registry import llc_replacement_for, make_mechanism
from repro.sim.core_model import OooCore
from repro.sim.hierarchy import Hierarchy
from repro.sim.trace import Trace
from repro.utils.events import EventQueue
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class SystemConfig:
    """Knobs of one simulation (defaults follow paper Table 1).

    ``instruction_limit`` is per core; ``None`` measures each core over one
    full pass of its trace.
    """

    num_cores: int = 1
    mechanism: str = "baseline"
    mb_per_core: int = 2
    llc_replacement: Optional[str] = None  # None = Table 2 default
    dbi_alpha: Fraction = Fraction(1, 4)
    dbi_granularity: int = 64
    dbi_replacement: str = "lrw"
    dbi_config: Optional[DbiConfig] = None
    dram: DramConfig = field(default_factory=DramConfig)
    #: Optional die-stacked DRAM-cache level between the LLC and off-chip
    #: DRAM (see :mod:`repro.dramcache`). None = conventional hierarchy.
    dram_cache: Optional[DramCacheConfig] = None
    l1: CacheConfig = field(default_factory=paper_l1_config)
    l2: CacheConfig = field(default_factory=paper_l2_config)
    llc: Optional[CacheConfig] = None
    window: int = 128
    max_outstanding_loads: int = 32
    predictor_epoch_cycles: int = 250_000
    instruction_limit: Optional[int] = None
    #: Fraction of each core's instructions run before statistics reset and
    #: IPC measurement begins (the paper warms 200M of 500M instructions).
    warmup_fraction: float = 0.4
    seed: int = 0xDB1

    def resolve_llc(self) -> CacheConfig:
        """The LLC config, derived from core count if not given explicitly."""
        base = self.llc or paper_llc_config(self.num_cores, self.mb_per_core)
        replacement = llc_replacement_for(self.mechanism, self.llc_replacement)
        if base.replacement == replacement:
            return base
        import dataclasses

        return dataclasses.replace(base, replacement=replacement)


@dataclass
class SimulationResult:
    """Outcome of one run: per-core IPCs plus flattened component stats."""

    mechanism: str
    trace_names: List[str]
    ipc: List[float]
    cycles: List[int]
    instructions: List[int]
    total_instructions_issued: int
    stats: Dict[str, float]
    events_processed: int

    def _per_kilo_instruction(self, count: float) -> float:
        if self.total_instructions_issued == 0:
            return 0.0
        return 1000.0 * count / self.total_instructions_issued

    @property
    def tag_lookups_pki(self) -> float:
        """Figure 6c's metric: LLC tag lookups per kilo-instruction."""
        return self._per_kilo_instruction(self.stats.get("mech.tag_lookups", 0))

    @property
    def memory_wpki(self) -> float:
        """Figure 6d's metric: DRAM writes per kilo-instruction."""
        return self._per_kilo_instruction(
            self.stats.get("dram.dram_writes_performed", 0)
        )

    @property
    def llc_mpki(self) -> float:
        """LLC read misses (including true-miss bypasses) per kilo-instruction.

        A CLB bypass that skipped the tag lookup of a block actually resident
        in the LLC (``mech.bypassed_hits``) is not a miss — the fill path
        re-touches the block and no reload was needed — so it is excluded;
        the paper reports CLB leaves LLC MPKI unchanged (Section 6.1).
        """
        misses = (
            self.stats.get("mech.read_misses", 0)
            + self.stats.get("mech.bypassed_lookups", 0)
            - self.stats.get("mech.bypassed_hits", 0)
        )
        return self._per_kilo_instruction(misses)

    @property
    def write_row_hit_rate(self) -> float:
        """Figure 6b's metric."""
        return self.stats.get("dram.write_row_hit_rate", 0.0)

    def to_dict(self) -> Dict:
        """Plain-data form that round-trips through :meth:`from_dict`.

        Field and stats ordering are preserved, so a result rebuilt from a
        sweep-cache entry serializes byte-identically to the original.
        """
        return {
            "mechanism": self.mechanism,
            "trace_names": list(self.trace_names),
            "ipc": list(self.ipc),
            "cycles": list(self.cycles),
            "instructions": list(self.instructions),
            "total_instructions_issued": self.total_instructions_issued,
            "stats": dict(self.stats),
            "events_processed": self.events_processed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationResult":
        """Rebuild a result stored by :meth:`to_dict` (e.g. a cache entry)."""
        return cls(
            mechanism=data["mechanism"],
            trace_names=list(data["trace_names"]),
            ipc=list(data["ipc"]),
            cycles=list(data["cycles"]),
            instructions=list(data["instructions"]),
            total_instructions_issued=data["total_instructions_issued"],
            stats=dict(data["stats"]),
            events_processed=data["events_processed"],
        )

    def to_json(self) -> str:
        """Full result as JSON (stats flattened; derived metrics included)."""
        import json

        payload = self.to_dict()
        stats = payload.pop("stats")
        payload["derived"] = {
            "tag_lookups_pki": self.tag_lookups_pki,
            "memory_wpki": self.memory_wpki,
            "llc_mpki": self.llc_mpki,
            "write_row_hit_rate": self.write_row_hit_rate,
            "read_row_hit_rate": self.read_row_hit_rate,
        }
        payload["stats"] = stats
        return json.dumps(payload, indent=2)

    @property
    def read_row_hit_rate(self) -> float:
        """Figure 6e's metric."""
        return self.stats.get("dram.read_row_hit_rate", 0.0)


class System:
    """One simulated machine: N cores over a shared LLC and one DRAM channel.

    ``check`` selects runtime verification ("off", "cheap" or "full"; see
    :mod:`repro.check`). ``soft_errors`` attaches a seeded
    :class:`~repro.core.ecc.SoftErrorInjector` that upsets resident LLC
    blocks during the run (the ``repro reliability`` experiment).
    ``profiler`` attaches a per-event time-share hook (see
    :mod:`repro.sim.profiler`). ``telemetry`` attaches an epoch sampler
    (see :mod:`repro.telemetry`) that snapshots stat deltas and gauges
    every ``epoch_cycles``; the sampler object is exposed as
    ``self.telemetry`` after construction. All four are deliberately *not*
    part of :class:`SystemConfig`: they only observe — results are
    byte-identical either way — so sweep-cache keys (derived from the
    config) must not depend on them.
    """

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        check: str = "off",
        soft_errors: Optional["SoftErrorConfig"] = None,
        profiler: Optional["SimProfiler"] = None,
        telemetry: Optional["TelemetryConfig"] = None,
    ) -> None:
        if len(traces) != config.num_cores:
            raise ValueError(
                f"{config.num_cores} cores need {config.num_cores} traces, "
                f"got {len(traces)}"
            )
        self.config = config
        self.traces = list(traces)
        self.queue = EventQueue()
        rng = DeterministicRng(config.seed)

        self.memory = MemoryController(self.queue, config.dram)
        # The DRAM-cache level speaks the controller's interface upward, so
        # the mechanism's "memory" handle is simply rebound to it; nothing
        # above the LLC knows whether the next level is stacked or off-chip.
        self.dram_cache = None
        if config.dram_cache is not None:
            self.dram_cache = DramCacheLevel(
                self.queue,
                config.dram_cache,
                self.memory,
                rng=rng.derive("dramcache-policy"),
            )
        llc_config = config.resolve_llc()
        self.llc = Cache(
            llc_config,
            num_threads=config.num_cores,
            rng=rng.derive("llc-policy"),
        )
        self.port = TagPort(self.queue, occupancy=llc_config.port_occupancy)
        self.mechanism = make_mechanism(
            config.mechanism,
            queue=self.queue,
            llc=self.llc,
            port=self.port,
            memory=self.dram_cache or self.memory,
            mapper=self.memory.mapper,
            num_cores=config.num_cores,
            dbi_config=config.dbi_config,
            dbi_alpha=config.dbi_alpha,
            dbi_granularity=config.dbi_granularity,
            dbi_replacement=config.dbi_replacement,
            predictor_epoch_cycles=config.predictor_epoch_cycles,
            rng=rng.derive("dbi-policy"),
        )
        self.hierarchy = Hierarchy(
            self.queue, config.num_cores, config.l1, config.l2, self.mechanism
        )

        if not 0.0 <= config.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self._measured = 0
        self._warmed = 0
        self._issued_at_reset = 0
        self.cores: List[OooCore] = []
        for core_id, trace in enumerate(self.traces):
            limit = config.instruction_limit or trace.total_instructions
            self.cores.append(
                OooCore(
                    core_id=core_id,
                    queue=self.queue,
                    hierarchy=self.hierarchy,
                    trace=trace,
                    instruction_limit=limit,
                    window=config.window,
                    max_outstanding_loads=config.max_outstanding_loads,
                    on_measured=self._core_measured,
                    warmup_instructions=int(limit * config.warmup_fraction),
                    on_warmed=self._core_warmed,
                )
            )
        self._warmed = sum(1 for core in self.cores if core.warmed)

        self.check_engine = None
        if str(check).lower() != "off":
            # Imported here so unchecked runs never touch the check package.
            from repro.check.engine import CheckEngine, CheckLevel

            self.check_engine = CheckEngine(self, CheckLevel.parse(check))
            self.check_engine.attach()

        self.soft_errors = None
        if soft_errors is not None:
            from repro.core.ecc import SoftErrorInjector

            self.soft_errors = SoftErrorInjector(self, soft_errors)
            self.soft_errors.attach()

        if profiler is not None:
            self.queue.profiler = profiler

        self.telemetry = None
        if telemetry is not None:
            # Imported here so telemetry-free runs never touch the package.
            from repro.telemetry.sampler import TelemetrySampler

            self.telemetry = TelemetrySampler(
                telemetry,
                groups=self._all_stat_groups(),
                counters=self._telemetry_counters(),
                gauges=self._telemetry_gauges(),
            )
            self.queue.telemetry = self.telemetry
            if profiler is not None:
                # The kernel calls the sampler outside any callback.
                self.telemetry.sample = profiler.timed(self.telemetry.sample)

    def _telemetry_counters(self):
        """Cumulative-integer probes outside the stat groups.

        These never reset at the warmup boundary, so the sampler's IPC
        series stays meaningful across the whole run (the stat groups all
        zero at ``_core_warmed``).
        """
        probes = [
            (
                "instructions",
                lambda: sum(core.instructions_issued for core in self.cores),
            )
        ]
        for bank in self.memory.banks:
            probes.append(
                (f"dram.bank{bank.bank_id}.row_hits", lambda b=bank: b.row_hits)
            )
            probes.append(
                (
                    f"dram.bank{bank.bank_id}.row_conflicts",
                    lambda b=bank: b.row_conflicts,
                )
            )
        return probes

    def _telemetry_gauges(self):
        """Instantaneous depth/occupancy probes (sampled, never summed)."""
        gauges = [
            ("dram.write_buffer_depth", lambda: len(self.memory.write_buffer)),
            ("dram.read_queue_depth", lambda: len(self.memory.read_queue)),
            ("port.queued", lambda: self.port.queued),
        ]
        for index, mshr in enumerate(self.hierarchy.l1_mshrs):
            gauges.append((f"l1mshr{index}.occupancy", lambda m=mshr: len(m)))
        for name, probe in self.mechanism.telemetry_gauges().items():
            gauges.append((f"mech.{name}", probe))
        if self.dram_cache is not None:
            level = self.dram_cache
            gauges.extend(
                [
                    ("dramcache.occupancy", lambda: level.occupancy),
                    ("dramcache.dirty_blocks", lambda: level.dirty_count),
                    (
                        "dramcache.pending_fills",
                        lambda: len(level._pending_reads),
                    ),
                    (
                        "stacked.write_buffer_depth",
                        lambda: len(level.stacked.write_buffer),
                    ),
                ]
            )
        return gauges

    def _all_stat_groups(self):
        groups = [
            self.mechanism.stats,
            self.memory.stats,
            self.port.stats,
            self.llc.stats,
        ]
        dbi = getattr(self.mechanism, "dbi", None)
        if dbi is not None:
            groups.append(dbi.stats)
        predictor = getattr(self.mechanism, "predictor", None)
        if predictor is not None:
            groups.append(predictor.stats)
        if self.dram_cache is not None:
            groups.extend(self.dram_cache.stat_groups())
        groups.extend(self.hierarchy.core_stats)
        groups.extend(cache.stats for cache in self.hierarchy.l1s)
        groups.extend(cache.stats for cache in self.hierarchy.l2s)
        groups.extend(mshr.stats for mshr in self.hierarchy.l1_mshrs)
        groups.extend(core.stats for core in self.cores)
        return groups

    def _core_warmed(self, _core: OooCore) -> None:
        self._warmed += 1
        if self._warmed == len(self.cores):
            # Measurement window begins: drop all warm-up statistics.
            for group in self._all_stat_groups():
                group.reset()
            self._issued_at_reset = sum(
                core.instructions_issued for core in self.cores
            )

    def _core_measured(self, core: OooCore) -> None:
        self._measured += 1
        if self._measured >= len(self.cores):
            for other in self.cores:
                other.stop()

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        """Run to completion and collect results.

        Args:
            max_events: optional hard event budget (guards runaway configs).

        Raises:
            RuntimeError: if the budget is exhausted before every core is
                measured, or the queue drains with cores unmeasured.
        """
        for core in self.cores:
            core.start()
        return self.resume(max_events=max_events)

    def resume(self, max_events: Optional[int] = None) -> SimulationResult:
        """Continue an already-started system to completion and collect.

        Unlike :meth:`run` this does not (re)start the cores: a system
        restored from a checkpoint (see :mod:`repro.checkpoint`) already has
        its advance events in the queue, and a second ``start()`` on a
        window-stalled core would schedule a spurious advance.
        """
        self.queue.run(max_events=max_events)
        if self._measured < len(self.cores):
            raise RuntimeError(
                f"simulation ended with {self._measured}/{len(self.cores)} "
                f"cores measured (event budget too small or deadlock)"
            )
        if self.check_engine is not None:
            self.check_engine.finalize()
        if self.telemetry is not None:
            self.telemetry.finalize(self.queue.now)
        return self._collect()

    def _collect(self) -> SimulationResult:
        # Collect exactly the groups that _core_warmed resets: dropping any
        # of them (historically the DBI, predictor, L1/L2 and MSHR groups)
        # silently zeroes their stats for every downstream consumer.
        stats: Dict[str, float] = {}
        for group in self._all_stat_groups():
            stats.update(group.as_dict())
        return SimulationResult(
            mechanism=self.config.mechanism,
            trace_names=[trace.name for trace in self.traces],
            ipc=[core.measured_ipc for core in self.cores],
            cycles=[core.measured_cycles for core in self.cores],
            instructions=[
                core.instruction_limit - core.warmup_instructions
                for core in self.cores
            ],
            total_instructions_issued=max(
                1,
                sum(core.instructions_issued for core in self.cores)
                - self._issued_at_reset,
            ),
            stats=stats,
            events_processed=self.queue.events_processed,
        )


def run_system(
    config: SystemConfig,
    traces: Sequence[Trace],
    max_events: Optional[int] = None,
    check: str = "off",
    soft_errors: Optional["SoftErrorConfig"] = None,
    profiler: Optional["SimProfiler"] = None,
    telemetry: Optional["TelemetryConfig"] = None,
) -> SimulationResult:
    """Convenience one-shot: build a System and run it."""
    system = System(
        config,
        traces,
        check=check,
        soft_errors=soft_errors,
        profiler=profiler,
        telemetry=telemetry,
    )
    return system.run(max_events=max_events)
