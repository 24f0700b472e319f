"""Crash-consistent campaign orchestrator.

A *campaign* is a full sweep grid (see :mod:`repro.campaign.plan`) run
under write-ahead discipline: every decision is journaled durably
(:mod:`repro.campaign.journal`) before it is acted on, every result lands
in the sweep runner's content-addressed cache, and every artifact is
published atomically. The consequence is a single, strong guarantee:

    **a campaign killed at any instant — SIGKILL included — resumes to
    final artifacts byte-identical to an uninterrupted run.**

The pieces, and who handles which failure:

* ``journal.jsonl`` — what was planned, dispatched, finished. A torn tail
  from a killed append is quarantined and truncated on open; completed
  cells are never re-simulated because the cache answers them.
* ``cache/`` — content-addressed results (:func:`repro.analysis.runner.
  job_key`); corrupt entries self-quarantine and re-simulate.
* ``campaign.lock`` — one orchestrator per directory; a SIGKILLed owner's
  lock is reclaimed by pid death (:mod:`repro.utils.locks`). The owner
  beats it once per scheduling round, so on another host only a lock that
  has stopped beating for ``CAMPAIGN_LOCK_STALE_SECONDS`` is reclaimed.
* worker deaths and hangs — the sweep runner charges each to the job whose
  worker died and retries it (:mod:`repro.analysis.runner`).
* SIGTERM/SIGINT — handled signal-safely: the handler only sets a flag;
  the dispatch loop stops submitting, drains in-flight jobs, journals a
  ``drain`` record, writes a resumable manifest, and exits ``128+signum``.
  SIGKILL needs no handler *by design*: recovery subsumes it.

Layout of a campaign directory::

    journal.jsonl   WAL (plus journal.jsonl.torn after a crashed append)
    campaign.lock   orchestrator mutual exclusion (mtime = last beat)
    cache/          content-addressed results
    telemetry/      per-cell epoch streams      (telemetry campaigns)
    checkpoints/    shared warm images          (checkpoint campaigns)
    manifest.json   resumable progress summary  (atomic, always valid)
    results.json    final per-cell metrics      (atomic, deterministic)
    report.txt      rendered summary table      (atomic, deterministic)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.chaos import ChaosConfig
from repro.analysis.report import format_table
from repro.analysis.runner import (
    RetryPolicy,
    SweepJobError,
    SweepRunner,
    stderr_progress,
)
from repro.analysis.scaling import SCALES
from repro.campaign.journal import CampaignJournal, recover_journal
from repro.campaign.plan import (
    DEFAULT_MECHANISMS,
    CampaignCell,
    cell_config,
    cell_traces,
    plan_cells,
    plan_fingerprint,
)
from repro.sim.system import MODEL_VERSION
from repro.utils.atomic import atomic_write_json, atomic_write_text
from repro.utils.locks import FileLock, LockHeldError
from repro.utils.validation import check_non_negative, check_positive
from repro.workloads.mix import mix_table_fingerprint, paper_mix_count

#: Bump when the manifest schema changes.
MANIFEST_FORMAT = 1

#: Bump when the results schema changes.
RESULTS_FORMAT = 1

#: Orchestrator lock staleness TTL (backstop; pid death reclaims fast).
CAMPAIGN_LOCK_STALE_SECONDS = 900.0

JOURNAL_NAME = "journal.jsonl"
LOCK_NAME = "campaign.lock"
MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.json"
REPORT_NAME = "report.txt"


class CampaignError(ValueError):
    """A campaign directory cannot be created, opened, or safely resumed.

    A ``ValueError``, so the command line reports it as a bad argument.
    """


def journal_path(directory: str) -> str:
    return os.path.join(directory, JOURNAL_NAME)


def lock_path(directory: str) -> str:
    return os.path.join(directory, LOCK_NAME)


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def results_path(directory: str) -> str:
    return os.path.join(directory, RESULTS_NAME)


def report_path(directory: str) -> str:
    return os.path.join(directory, REPORT_NAME)


def result_digest(result_dict: Dict) -> str:
    """Content hash of one cell's result (journaled as the artifact hash)."""
    return hashlib.sha256(
        json.dumps(result_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign (stored in the journal header).

    ``benchmarks`` must be concrete (the CLI resolves "all" before
    planning) so the plan fingerprint pins the exact grid.  ``workers`` and
    ``ingest_dir`` are runtime knobs: they ride along for convenience but
    are excluded from the fingerprint, so a resume may change parallelism
    or point at a relocated trace registry freely (the registry *contents*
    stay pinned — each ingested cell records its trace's sha256).

    ``full_width`` switches multi-core counts to the paper's complete
    102/259/120 mix tables and adds the alone-IPC normalizer cells;
    ``shards`` >= 2 splits each long run into that many epoch segments,
    restored from one warm-up per cell and stitched back together (see
    :mod:`repro.checkpoint.shard`); ``tier`` records which preset produced
    this config.
    """

    scale: str = "quick"
    benchmarks: Tuple[str, ...] = ()
    mechanisms: Tuple[str, ...] = DEFAULT_MECHANISMS
    core_counts: Tuple[int, ...] = (1,)
    refs: Optional[int] = None
    telemetry: bool = False
    epoch_cycles: int = 5_000
    checkpoint: bool = False
    workers: int = 0
    tier: Optional[str] = None
    full_width: bool = False
    shards: int = 0
    sensitivity: Tuple[int, ...] = ()
    sensitivity_benchmarks: Tuple[str, ...] = ()
    ingested: Tuple[Tuple[str, str], ...] = ()
    ingest_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; choose from {sorted(SCALES)}"
            )
        if not self.benchmarks and 1 in self.core_counts:
            raise ValueError("benchmarks must be resolved before planning")
        if self.telemetry and self.checkpoint:
            raise ValueError(
                "telemetry and checkpoint campaigns are mutually exclusive "
                "(fork-from-warm epoch streams would be full of "
                "discontinuities); run two campaigns"
            )
        if self.refs is not None:
            check_positive("refs", self.refs)
        check_non_negative("workers", self.workers)
        if self.shards < 0 or self.shards == 1:
            raise ValueError(
                f"shards must be 0 (whole runs) or >= 2, got {self.shards}"
            )
        if self.shards and (self.telemetry or self.checkpoint):
            raise ValueError(
                "sharded runs cannot stream telemetry or fork from warm "
                "images (each cell warms into an image of its own, which "
                "its segments restore and fast-forward); pick one"
            )
        if self.sensitivity and not self.sensitivity_benchmarks:
            raise ValueError(
                "sensitivity sweep requested without benchmarks to sweep"
            )
        if self.full_width:
            for cores in self.core_counts:
                if cores != 1:
                    paper_mix_count(cores)  # raises for unknown tables
        if self.ingested and self.ingest_dir is None:
            raise ValueError(
                "ingested traces require an ingest_dir (the trace registry)"
            )

    def to_dict(self) -> Dict:
        data = {
            "scale": self.scale,
            "benchmarks": list(self.benchmarks),
            "mechanisms": list(self.mechanisms),
            "core_counts": list(self.core_counts),
            "refs": self.refs,
            "telemetry": self.telemetry,
            "epoch_cycles": self.epoch_cycles,
            "checkpoint": self.checkpoint,
            "workers": self.workers,
        }
        # New fields appear only when set so pre-existing journals (and
        # their fingerprints) stay byte-identical.
        if self.tier is not None:
            data["tier"] = self.tier
        if self.full_width:
            data["full_width"] = True
        if self.shards:
            data["shards"] = self.shards
        if self.sensitivity:
            data["sensitivity"] = list(self.sensitivity)
        if self.sensitivity_benchmarks:
            data["sensitivity_benchmarks"] = list(self.sensitivity_benchmarks)
        if self.ingested:
            data["ingested"] = [[name, sha] for name, sha in self.ingested]
        if self.ingest_dir is not None:
            data["ingest_dir"] = self.ingest_dir
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignConfig":
        return cls(
            scale=data["scale"],
            benchmarks=tuple(data["benchmarks"]),
            mechanisms=tuple(data["mechanisms"]),
            core_counts=tuple(data["core_counts"]),
            refs=data.get("refs"),
            telemetry=data.get("telemetry", False),
            epoch_cycles=data.get("epoch_cycles", 5_000),
            checkpoint=data.get("checkpoint", False),
            workers=data.get("workers", 0),
            tier=data.get("tier"),
            full_width=data.get("full_width", False),
            shards=data.get("shards", 0),
            sensitivity=tuple(data.get("sensitivity", ())),
            sensitivity_benchmarks=tuple(
                data.get("sensitivity_benchmarks", ())
            ),
            ingested=tuple(
                (name, sha) for name, sha in data.get("ingested", ())
            ),
            ingest_dir=data.get("ingest_dir"),
        )

    def plan_identity(self) -> Dict:
        """The fingerprinted subset: what is simulated and how it is keyed.

        Multi-core plans additionally pin each mix table's *composition*
        fingerprint: cell records alone pin names and indices, but a
        benchmark-pool drift that keeps names stable would silently swap
        traces — the table fingerprint catches it at resume.
        """
        identity = self.to_dict()
        identity.pop("workers")
        identity.pop("ingest_dir", None)
        scale = SCALES[self.scale]
        tables = {}
        for cores in self.core_counts:
            if cores == 1:
                continue
            count = paper_mix_count(cores) if self.full_width else None
            tables[str(cores)] = mix_table_fingerprint(
                scale.mix_specs(cores, count),
                scale.refs_per_core_multi if self.refs is None else self.refs,
                footprint_divisor=scale.divisor,
            )
        if tables:
            identity["mix_tables"] = tables
        return identity

    def plan(self) -> List[CampaignCell]:
        return plan_cells(
            SCALES[self.scale],
            benchmarks=self.benchmarks,
            mechanisms=self.mechanisms,
            core_counts=self.core_counts,
            full_width=self.full_width,
            ingested=self.ingested,
            sensitivity=self.sensitivity,
            sensitivity_benchmarks=self.sensitivity_benchmarks,
        )


@dataclass
class CampaignOutcome:
    """What one ``run()`` call achieved."""

    status: str  # "complete" | "failed" | "drained"
    exit_code: int
    cells_total: int
    cells_done: int
    cells_failed: int
    pending: List[str] = field(default_factory=list)
    signal: Optional[int] = None
    sweep_summary: str = ""


class Campaign:
    """One campaign directory, exclusively held while this object is open.

    Use :meth:`create` for a fresh directory, :meth:`open` to recover and
    resume an existing one; both acquire ``campaign.lock`` (reclaiming a
    dead owner's). Always :meth:`close` (or use as a context manager).
    """

    def __init__(
        self,
        directory: str,
        config: CampaignConfig,
        cells: List[CampaignCell],
        journal: CampaignJournal,
        lock: FileLock,
        done: Dict[str, Dict],
        failed_cells: List[str],
        completed: bool,
    ) -> None:
        self.directory = directory
        self.config = config
        self.cells = cells
        self.journal = journal
        self.lock = lock
        self.done = done  # cell_id -> {"key": ..., "digest": ...}
        self.failed_cells = failed_cells  # forensic: had a failure record
        self.completed = completed
        self.recovered_torn: Optional[str] = None
        self.locks_reclaimed = lock.reclaimed
        self._drain_signal: Optional[int] = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, directory: str, config: CampaignConfig) -> "Campaign":
        """Plan a fresh campaign: journal header + one record per cell.

        The trailing ``planned`` record is the plan's commit point: a
        journal without it died mid-plan and is refused by :meth:`open`
        (nothing has been simulated yet — delete the directory and
        re-plan).
        """
        os.makedirs(directory, exist_ok=True)
        path = journal_path(directory)
        if os.path.exists(path):
            raise CampaignError(
                f"{directory}: journal already exists; open/resume it "
                "instead of re-planning"
            )
        lock = cls._acquire_lock(directory)
        try:
            cells = config.plan()
            journal = CampaignJournal(path)
            journal.append(
                "header",
                format=1,
                model_version=MODEL_VERSION,
                config=config.to_dict(),
                fingerprint=plan_fingerprint(config.plan_identity(), cells),
                cell_count=len(cells),
            )
            for cell in cells:
                journal.append("cell", **cell.to_dict())
            journal.append("planned")
        except BaseException:
            lock.release()
            raise
        return cls(
            directory, config, cells, journal, lock,
            done={}, failed_cells=[], completed=False,
        )

    @classmethod
    def open(cls, directory: str) -> "Campaign":
        """Recover an existing campaign: quarantine any torn journal tail,
        refuse a journal from another model version, rebuild done/pending
        state, verify the plan fingerprint."""
        path = journal_path(directory)
        if not os.path.exists(path):
            raise CampaignError(
                f"{directory}: no campaign journal; plan one first"
            )
        lock = cls._acquire_lock(directory)
        try:
            scan, torn_path = recover_journal(path)
            header = scan.header
            version = header.get("model_version")
            if version != MODEL_VERSION:
                raise CampaignError(
                    f"{directory}: journal was written by model version "
                    f"{version}, this simulator is model version "
                    f"{MODEL_VERSION}; its cells would mix models, so "
                    "re-plan the campaign in a fresh directory"
                )
            config = CampaignConfig.from_dict(header["config"])
            cells: List[CampaignCell] = []
            done: Dict[str, Dict] = {}
            failed_cells: List[str] = []
            planned = False
            completed = False
            for record in scan.records[1:]:
                kind = record.get("kind")
                if kind == "cell":
                    cells.append(CampaignCell.from_dict(record))
                elif kind == "planned":
                    planned = True
                elif kind == "done":
                    done[record["cell"]] = {
                        "key": record.get("key"),
                        "digest": record.get("digest"),
                    }
                elif kind == "failed":
                    failed_cells.append(record["cell"])
                elif kind == "complete":
                    completed = True
            if not planned:
                raise CampaignError(
                    f"{directory}: campaign died mid-plan (no cells were "
                    "simulated); delete the directory and re-plan"
                )
            fingerprint = plan_fingerprint(config.plan_identity(), cells)
            if fingerprint != header.get("fingerprint"):
                raise CampaignError(
                    f"{directory}: plan fingerprint mismatch — the journal "
                    "was written by a different plan (config edited or "
                    "generators drifted); refusing to resume"
                )
            journal = CampaignJournal(path, next_seq=scan.next_seq)
        except BaseException:
            lock.release()
            raise
        campaign = cls(
            directory, config, cells, journal, lock,
            done=done, failed_cells=failed_cells, completed=completed,
        )
        campaign.recovered_torn = torn_path
        return campaign

    @staticmethod
    def _acquire_lock(directory: str) -> FileLock:
        lock = FileLock(
            lock_path(directory), stale_seconds=CAMPAIGN_LOCK_STALE_SECONDS
        )
        try:
            # A held lock fails fast (timeout=0 semantics via a tiny wait):
            # two live orchestrators on one directory is an operator error,
            # not something to queue behind.
            lock.acquire(timeout=0.5)
        except LockHeldError as exc:
            owner = exc.owner
            raise CampaignError(
                f"{directory}: another orchestrator holds the campaign "
                f"lock (pid {owner.pid if owner else '?'} on "
                f"{owner.host if owner else '?'})"
            ) from exc
        return lock

    def close(self) -> None:
        self.journal.close()
        self.lock.release()

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------ querying

    @property
    def pending(self) -> List[CampaignCell]:
        """Cells with no durable completion — including previously failed
        ones, which a resume retries."""
        return [c for c in self.cells if c.cell_id not in self.done]

    # ------------------------------------------------------------- running

    def run(
        self,
        workers: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = stderr_progress,
        chaos: Optional[ChaosConfig] = None,
        max_attempts: int = 3,
        job_timeout: Optional[float] = None,
    ) -> CampaignOutcome:
        """Dispatch pending cells, then finalize artifacts.

        Installs SIGTERM/SIGINT drain handlers for the duration (main
        thread only — the CLI's situation). Returns instead of raising for
        every expected end state; the exit code is in the outcome.
        ``chaos`` drives the runner's faults and the journal's kill points
        through one injector.
        """
        if self.completed and os.path.exists(results_path(self.directory)):
            return CampaignOutcome(
                status="complete",
                exit_code=0,
                cells_total=len(self.cells),
                cells_done=len(self.done),
                cells_failed=0,
            )
        previous_handlers = self._install_signal_handlers()
        runner = self._make_runner(
            workers, progress, max_attempts, job_timeout, chaos
        )
        self.journal.chaos = runner.injector
        scale = SCALES[self.config.scale]
        # Each distinct workload's traces, built once for this run (the
        # runner likewise encodes each trace tuple once for its keys).
        workloads: Dict[CampaignCell, List] = {}
        failed_now: Dict[str, str] = {}
        try:
            pending = self.pending
            wave_limit = max(4, 2 * max(1, runner.workers))
            in_flight: List[Tuple[CampaignCell, object, str]] = []
            index = 0
            while index < len(pending) or in_flight:
                self.lock.beat()
                while (
                    self._drain_signal is None
                    and index < len(pending)
                    and len(in_flight) < wave_limit
                ):
                    cell = pending[index]
                    index += 1
                    self.journal.append("dispatch", cell=cell.cell_id)
                    hits_before = runner.cache_hits
                    future = self._submit_cell(runner, scale, cell, workloads)
                    source = (
                        "cache" if runner.cache_hits > hits_before else "run"
                    )
                    in_flight.append((cell, future, source))
                if not in_flight:
                    break  # drained before anything was in flight
                cell, future, source = in_flight.pop(0)
                try:
                    result = future.result()
                except SweepJobError as exc:
                    self.journal.append(
                        "failed", cell=cell.cell_id,
                        kind=exc.failure.kind, error=exc.failure.error,
                    )
                    failed_now[cell.cell_id] = exc.failure.error
                    if progress is not None:
                        progress(
                            f"[campaign] {cell.cell_id:<40s} FAILED "
                            f"({exc.failure.kind})"
                        )
                else:
                    digest = result_digest(result.to_dict())
                    self.journal.append(
                        "done", cell=cell.cell_id, key=future.job.key,
                        digest=digest, source=source,
                    )
                    self.done[cell.cell_id] = {
                        "key": future.job.key, "digest": digest,
                    }
                    if progress is not None:
                        progress(
                            f"[campaign] {cell.cell_id:<40s} done "
                            f"({len(self.done)}/{len(self.cells)}, {source})"
                        )
            if self._drain_signal is not None:
                return self._drained(runner, failed_now)
            return self._finalize(runner, scale, failed_now, workloads)
        finally:
            self.journal.chaos = None
            runner.close()
            self._restore_signal_handlers(previous_handlers)

    # ------------------------------------------------------------ internals

    def _submit_cell(
        self,
        runner: SweepRunner,
        scale,
        cell: CampaignCell,
        workloads: Dict[CampaignCell, List],
    ):
        """Submit one cell's job(s); sharded for long whole-run cells.

        Alone and sensitivity cells stay whole — they are short normalizer
        or single-point runs where shard warmup overhead dominates.
        ``workloads`` memoizes traces by the cell fields they depend on.
        """
        config = cell_config(scale, cell)
        workload = dataclasses.replace(
            cell, cell_id="", mechanism="", backend=None, bandwidth=None
        )
        traces = workloads.get(workload)
        if traces is None:
            traces = workloads[workload] = cell_traces(
                scale, cell,
                refs=self.config.refs,
                full_width=self.config.full_width,
                ingest_dir=self.config.ingest_dir,
            )
        if (
            self.config.shards >= 2
            and cell.category in ("bench", "mix", "trace")
        ):
            return runner.submit_sharded(config, traces, self.config.shards)
        return runner.submit(config, traces)

    def _make_runner(
        self,
        workers: Optional[int],
        progress: Optional[Callable[[str], None]],
        max_attempts: int,
        job_timeout: Optional[float],
        chaos: Optional[ChaosConfig] = None,
    ) -> SweepRunner:
        from repro.telemetry.sampler import TelemetryConfig

        telemetry = (
            TelemetryConfig(epoch_cycles=self.config.epoch_cycles)
            if self.config.telemetry
            else None
        )
        return SweepRunner(
            workers=self.config.workers if workers is None else workers,
            cache_dir=os.path.join(self.directory, "cache"),
            progress=progress,
            retry=RetryPolicy(max_attempts=max_attempts, timeout=job_timeout),
            chaos=chaos,
            telemetry=telemetry,
            telemetry_dir=(
                os.path.join(self.directory, "telemetry")
                if self.config.telemetry
                else None
            ),
            checkpoint_dir=(
                os.path.join(self.directory, "checkpoints")
                if self.config.checkpoint
                else None
            ),
        )

    def _install_signal_handlers(self) -> Dict[int, object]:
        previous: Dict[int, object] = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(
                    signum, self._request_drain
                )
            except ValueError:
                # Not the main thread (some embedders/tests): drain can
                # then only be requested programmatically.
                pass
        return previous

    def _restore_signal_handlers(self, previous: Dict[int, object]) -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    def _request_drain(self, signum, _frame=None) -> None:
        """Signal handler: async-signal-safe by doing nothing but noting."""
        self._drain_signal = int(signum)

    def _drained(
        self, runner: SweepRunner, failed_now: Dict[str, str]
    ) -> CampaignOutcome:
        """SIGTERM/SIGINT path: in-flight work is already collected; journal
        the drain, persist a resumable manifest, and report 128+signum."""
        signum = self._drain_signal
        self.journal.append("drain", signal=signum)
        pending_ids = [c.cell_id for c in self.pending]
        self._write_manifest("drained", pending_ids, failed_now, signum)
        return CampaignOutcome(
            status="drained",
            exit_code=128 + int(signum),
            cells_total=len(self.cells),
            cells_done=len(self.done),
            cells_failed=len(failed_now),
            pending=pending_ids,
            signal=signum,
            sweep_summary=runner.summary(),
        )

    def _finalize(
        self,
        runner: SweepRunner,
        scale,
        failed_now: Dict[str, str],
        workloads: Dict[CampaignCell, List],
    ) -> CampaignOutcome:
        """Assemble final artifacts from the cache and commit completion.

        Every cell is (re)submitted: just-computed cells answer from the
        in-process memo, previously-done cells from the content-addressed
        cache — nothing re-simulates unless its cache entry was lost, in
        which case the deterministic simulator regenerates identical
        bytes. Artifacts are written atomically *before* the ``complete``
        record, so that record proves the artifacts are durable.
        """
        self.lock.beat()
        cell_payload: Dict[str, Dict] = {}
        for cell in self.cells:
            if cell.cell_id in failed_now:
                continue
            future = self._submit_cell(runner, scale, cell, workloads)
            try:
                result = future.result()
            except SweepJobError as exc:
                failed_now[cell.cell_id] = exc.failure.error
                continue
            cell_payload[cell.cell_id] = {
                "key": future.job.key,
                "result": result.to_dict(),
            }
        pending_ids = [
            c.cell_id for c in self.cells if c.cell_id not in cell_payload
        ]
        if failed_now:
            self._write_manifest("failed", pending_ids, failed_now, None)
            return CampaignOutcome(
                status="failed",
                exit_code=1,
                cells_total=len(self.cells),
                cells_done=len(self.done),
                cells_failed=len(failed_now),
                pending=pending_ids,
                sweep_summary=runner.summary(),
            )
        results_payload = {
            "format": RESULTS_FORMAT,
            "config": self.config.plan_identity(),
            "cells": cell_payload,
        }
        atomic_write_json(
            results_path(self.directory), results_payload,
            indent=2, sort_keys=True,
        )
        atomic_write_text(
            report_path(self.directory), self._render_report(cell_payload)
        )
        # Figure 6/7/8 surfaces + sensitivity table: deterministic bytes
        # derived from the same payload, written before the complete record
        # so crash recovery reproduces them byte-identically.
        from repro.analysis.surfaces import assemble_surfaces, write_surfaces

        write_surfaces(
            self.directory,
            assemble_surfaces(self.config, self.cells, cell_payload),
        )
        digest = result_digest(results_payload)
        self.journal.append("complete", results_digest=digest)
        self.completed = True
        self._write_manifest("complete", [], {}, None)
        return CampaignOutcome(
            status="complete",
            exit_code=0,
            cells_total=len(self.cells),
            cells_done=len(self.done),
            cells_failed=0,
            sweep_summary=runner.summary(),
        )

    def _write_manifest(
        self,
        status: str,
        pending_ids: List[str],
        failed_now: Dict[str, str],
        signum: Optional[int],
    ) -> None:
        atomic_write_json(
            manifest_path(self.directory),
            {
                "format": MANIFEST_FORMAT,
                "status": status,
                "signal": signum,
                "cells_total": len(self.cells),
                "cells_done": len(self.done),
                "failed": failed_now,
                "pending": pending_ids,
            },
            indent=2,
            sort_keys=True,
        )

    def _render_report(self, cell_payload: Dict[str, Dict]) -> str:
        """The human-readable summary table (deterministic bytes)."""
        from repro.sim.system import SimulationResult

        headers = [
            "cell", "mechanism", "workload", "cores",
            "IPC", "write RHR", "tag PKI", "WPKI",
        ]
        rows = []
        for cell in self.cells:
            entry = cell_payload.get(cell.cell_id)
            if entry is None:
                rows.append(
                    [cell.cell_id, cell.mechanism, cell.workload,
                     cell.num_cores, "n/a", "n/a", "n/a", "n/a"]
                )
                continue
            result = SimulationResult.from_dict(entry["result"])
            ipc = result.ipc
            mean_ipc = sum(ipc) / len(ipc) if ipc else 0.0
            rows.append(
                [
                    cell.cell_id,
                    cell.mechanism,
                    cell.workload,
                    cell.num_cores,
                    f"{mean_ipc:.4f}",
                    f"{result.write_row_hit_rate:.4f}",
                    f"{result.tag_lookups_pki:.1f}",
                    f"{result.memory_wpki:.1f}",
                ]
            )
        title = (
            f"campaign: {len(cell_payload)}/{len(self.cells)} cells "
            f"({self.config.scale} scale)"
        )
        return format_table(headers, rows, title=title) + "\n"


# ---------------------------------------------------------------- status


def campaign_status(directory: str) -> Dict:
    """Read-only progress/health snapshot of a campaign directory.

    Never takes the lock and never mutates (a torn journal tail is
    *reported*, not recovered — recovery belongs to the resuming
    orchestrator). Safe to run while a campaign is live.
    """
    from repro.campaign.journal import scan_journal
    from repro.utils.locks import pid_alive

    path = journal_path(directory)
    if not os.path.exists(path):
        raise CampaignError(f"{directory}: no campaign journal")
    scan = scan_journal(path)
    config = CampaignConfig.from_dict(scan.header["config"])
    cells: List[str] = []
    done = set()
    failed = set()
    completed = False
    drained: Optional[int] = None
    for record in scan.records[1:]:
        kind = record.get("kind")
        if kind == "cell":
            cells.append(record["cell_id"])
        elif kind == "done":
            done.add(record["cell"])
            failed.discard(record["cell"])
        elif kind == "failed":
            failed.add(record["cell"])
        elif kind == "complete":
            completed = True
        elif kind == "drain":
            drained = record.get("signal")
    lock = FileLock(lock_path(directory))
    owner, beat_age = lock.read_owner(), lock.beat_age()
    return {
        "directory": directory,
        "config": config.to_dict(),
        "cells_total": len(cells),
        "cells_done": len(done),
        "cells_failed": len(failed - done),
        "pending": [c for c in cells if c not in done],
        "completed": completed,
        "drained_signal": drained,
        "torn_tail_bytes": len(scan.torn),
        "journal_records": len(scan.records),
        "lock_owner": None if owner is None or beat_age is None else {
            "pid": owner.pid,
            "host": owner.host,
            "alive": pid_alive(owner.pid),
            "beat_age_s": beat_age,
        },
    }


def render_status(status: Dict) -> str:
    """CI-friendly table for ``repro campaign status``."""
    owner = status["lock_owner"]
    state = "complete" if status["completed"] else (
        "drained" if status["drained_signal"] is not None else "in progress"
    )
    rows = [
        ["state", state],
        ["cells", f"{status['cells_done']}/{status['cells_total']} done"],
        ["failed", status["cells_failed"]],
        ["pending", len(status["pending"])],
        ["journal records", status["journal_records"]],
        ["torn tail", f"{status['torn_tail_bytes']} bytes"
         if status["torn_tail_bytes"] else "none"],
        ["lock", "free" if owner is None else (
            f"pid {owner['pid']} on {owner['host']} "
            f"({'alive' if owner['alive'] else 'DEAD'}, last beat "
            f"{owner['beat_age_s']:.0f}s ago)"
        )],
    ]
    return format_table(
        ["field", "value"], rows,
        title=f"campaign {status['directory']}",
    )
