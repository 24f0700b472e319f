"""Parallel, cached, fault-tolerant sweep engine.

Every table/figure of the paper decomposes into dozens of *independent*
simulations — (config, traces) pairs that share nothing at runtime. The
:class:`SweepRunner` exploits that: jobs are submitted up front, fanned out
over a :class:`concurrent.futures.ProcessPoolExecutor`, and each completed
:class:`SimulationResult` is memoized in a content-addressed on-disk cache so
interrupted sweeps resume for free and artifacts that share runs (e.g. the
baseline simulations common to Figure 7, Figure 8 and Table 3) compute each
configuration exactly once.

Job identity
    :func:`job_key` hashes the full :class:`SystemConfig` (which embeds the
    scale profile's cache geometries, DRAM shape and run length) together
    with each trace's name, length and record content. Two jobs with the
    same key are the same simulation, byte for byte — the simulator is
    deterministic by construction (see ``repro.utils.rng``) — so a cached
    result is indistinguishable from a fresh run.

Cache layout
    One JSON file per job under ``cache_dir``, named ``<sha256>.json``,
    holding a format version, the model version, the key, a human-readable
    label and the full result. Files are written atomically (temp file +
    ``os.replace``), so a killed sweep never leaves a truncated entry;
    rerunning it skips every job that finished. Entries that fail to parse,
    or whose format, model version or embedded key disagree with this
    simulator and their filename, are *quarantined* (renamed to
    ``<key>.json.corrupt``) and counted in ``cache_corrupt``, so repeated
    corruption shows up in :meth:`SweepRunner.summary` instead of being an
    invisible performance cliff.

Execution modes
    ``workers >= 2`` uses a process pool; ``workers in (0, 1)`` runs jobs
    inline at submission, which keeps single-process determinism tests and
    small scripts free of pool overhead. Results are identical either way.

Fault tolerance
    Pool execution survives the two ways a worker fails, and charges each
    failure to exactly the job whose worker failed. Before a worker runs an
    attempt it announces (pid, job key, attempt, start time) on its pool's
    pipe, so the runner always knows which worker ran which attempt:

    * **worker deaths** (``BrokenProcessPool``) — a job whose own worker
      exited by itself (a crash, a fatal signal, the OOM killer) is charged
      that attempt as a ``crash`` and retried with exponential backoff plus
      deterministic jitter. Every other job the death touched — queued,
      running on a worker the pool terminated or the runner killed, or
      collected from a pool that was already replaced — goes back on the
      queue at the same attempt, uncharged. A broken pool is replaced once,
      by whoever collects it first, and never takes its successor down;
    * **wedged workers** — an optional per-attempt wall-clock timeout
      (:attr:`RetryPolicy.timeout`), counted from the attempt's announced
      start: a waiting collector kills every worker whose attempt has run
      past it, and each such attempt is charged as a ``hang``.

    Each job is bounded by :attr:`RetryPolicy.max_attempts` alone; a job
    that runs out fails with its worker's exit code or signal named in
    :attr:`JobFailure.error`.

    Deterministic *simulation* exceptions are different: retrying a
    deterministic failure wastes cycles to learn nothing, so they surface
    after exactly one attempt. Either way the job's key is evicted from the
    in-process memo table (a resubmission gets a fresh future rather than
    the poisoned one) and a :class:`JobFailure` is recorded; failures raise
    :class:`SweepJobError` from ``result()`` with the original exception
    chained as ``__cause__``. Under ``keep_going=True`` callers are expected
    to catch that error per job, render partial artifacts, and persist
    :meth:`SweepRunner.write_failure_manifest` — the CLI's ``--keep-going``
    does exactly this.

    The :mod:`repro.analysis.chaos` layer injects crashes, hangs and cache
    corruption deterministically (the ``chaos=`` argument) so tests can
    prove recovered sweeps are byte-identical to fault-free ones.

Checkpoint acceleration
    ``checkpoint_dir=`` turns on fork-from-warm sweeps: each (traces,
    shared-config) group warms once, snapshots at the warmup boundary, and
    every per-mechanism cell forks from the shared image. ``sampled=`` runs
    SMARTS-style detailed windows with functional fast-forward between them.
    Both are documented approximations of cold full-length runs, carry their
    own :func:`job_key` components (their cache entries never collide with
    cold ones), and refuse to compose with ``check`` or ``telemetry``. See
    :mod:`repro.checkpoint` and ``docs/architecture.md`` §11.

    :meth:`SweepRunner.submit_sharded` splits one long run into segment
    jobs behind a single warm-up (see :mod:`repro.checkpoint.shard`).

    Both kinds of image are built the same way: an image-build job,
    memoized by image path, runs :func:`~repro.checkpoint.warm.warm_cell`
    and snapshots the result, and every job that restores the image waits
    on it as its ``prerequisite``. Builds are pool jobs like any other, so
    they get the same retries, chaos and failure records.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import functools
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.chaos import ChaosConfig, FaultInjector
from repro.sim.system import (
    MODEL_VERSION,
    SimulationResult,
    SystemConfig,
    run_system,
)
from repro.sim.trace import Trace
from repro.telemetry.sampler import TelemetryConfig
from repro.utils.atomic import atomic_write_json, publish_file

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.sampled import SampledConfig
    from repro.checkpoint.shard import ShardSpec

#: Default location of the on-disk result cache (relative to the cwd).
DEFAULT_CACHE_DIR = os.path.join("results", "sweep_cache")

#: Default telemetry artifact directory when the disk cache is disabled.
DEFAULT_TELEMETRY_DIR = os.path.join("results", "telemetry")

#: Default location of the per-sweep failure manifest (``--keep-going``).
DEFAULT_FAILURE_MANIFEST = os.path.join("results", "sweep_failures.json")

#: Bump when the cache entry schema changes; old entries are ignored.
CACHE_FORMAT = 1

#: Bump when the failure-manifest schema changes.
FAILURE_MANIFEST_FORMAT = 1

#: Trace records hashed per chunk (bounds peak memory for FULL_SCALE traces).
_KEY_CHUNK = 8192


def default_workers() -> int:
    """One process per core, minus one to keep the submitting process live."""
    return max(1, (os.cpu_count() or 2) - 1)


def job_key(
    config: SystemConfig,
    traces: Sequence[Trace],
    max_events: Optional[int] = None,
    check: str = "off",
    fork: Optional[str] = None,
    sampled: Optional[str] = None,
    shard: Optional[str] = None,
) -> str:
    """Stable content hash identifying one simulation.

    Covers every field of ``config`` (dataclass repr is deterministic and
    includes the nested cache/DRAM/DBI configs, so the scale profile is
    captured through the geometry it produced) plus each trace's name,
    length and full record stream — the trace generator's seed and footprint
    divisor are functions of the records, so they are covered too.

    ``check`` is hashed only when enabled: checking cannot change results,
    so checked runs may *reuse* entries cached by unchecked sweeps, but a
    result produced under ``--check`` gets its own entry — a pre-existing
    cache must never let a verification sweep silently skip simulating.

    ``fork`` (the warm-image mechanism of a fork-from-warm job),
    ``sampled`` (a :meth:`SampledConfig.key` spec) and ``shard`` (a
    :meth:`ShardSpec.key` segment) are hashed whenever set: all three modes
    are documented approximations of a cold full-length run, so their
    entries must never collide with — or be served to — cold sweeps.
    """
    hasher = _hash_prefix(config, _trace_chunks(traces))
    return _finish_key(hasher, max_events, check, fork, sampled, shard)


def _trace_chunks(traces: Sequence[Trace]) -> Iterator[bytes]:
    """The bytes :func:`job_key` hashes for ``traces``, chunk by chunk."""
    for trace in traces:
        yield f"|trace:{trace.name}:{len(trace.records)}|".encode()
        for start in range(0, len(trace.records), _KEY_CHUNK):
            yield repr(trace.records[start : start + _KEY_CHUNK]).encode()


def _hash_prefix(config: SystemConfig, chunks: Iterable[bytes]):
    """SHA-256 over ``config`` and the trace chunks: a key's shared prefix."""
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(repr(config).encode())
    for chunk in chunks:
        hasher.update(chunk)
    return hasher


def _finish_key(
    hasher,
    max_events: Optional[int] = None,
    check: str = "off",
    fork: Optional[str] = None,
    sampled: Optional[str] = None,
    shard: Optional[str] = None,
) -> str:
    """Hash the optional components into ``hasher``; returns the key."""
    if max_events is not None:
        hasher.update(f"|max_events:{max_events}".encode())
    if str(check).lower() != "off":
        hasher.update(f"|check:{str(check).lower()}".encode())
    if fork is not None:
        hasher.update(f"|fork:{fork}".encode())
    if sampled is not None:
        hasher.update(f"|sampled:{sampled}".encode())
    if shard is not None:
        hasher.update(f"|shard:{shard}".encode())
    return hasher.hexdigest()


def _entry_result(payload, key: str) -> Optional[Dict]:
    """The result dict of a cache entry valid for ``key``, else None.

    Valid means this cache format, this key and this
    :data:`~repro.sim.system.MODEL_VERSION`. Serving an entry and checking
    a retry against one apply the same rule: an entry from another model
    version is as foreign as one for another key.
    """
    if (
        not isinstance(payload, dict)
        or payload.get("format") != CACHE_FORMAT
        or payload.get("model") != MODEL_VERSION
        or payload.get("key") != key
    ):
        return None
    result = payload.get("result")
    return result if isinstance(result, dict) else None


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner treats a pool job that did not come back clean.

    Attributes:
        max_attempts: total attempts per job (1 = never retry). An attempt
            is charged only when the job's own worker failed it: the worker
            exited by itself (``crash``) or overran ``timeout`` (``hang``).
            A job that merely shared a pool with a failing worker is
            requeued at the same attempt. Deterministic simulation
            exceptions always surface after one attempt regardless.
        timeout: per-attempt wall-clock seconds, from the attempt's start
            in its worker, before it is declared hung (None = wait
            forever). A hung attempt cannot be cancelled — its worker is
            wedged — so the worker is killed and its pool replaced.
        backoff_base: first retry delay, seconds.
        backoff_factor: multiplier per further retry (exponential).
        backoff_max: delay ceiling, seconds.
        jitter: fraction of the delay added as deterministic per-(job,
            attempt) jitter, de-synchronizing retry stampedes.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 8.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before ``attempt`` (2nd attempt = first retry) in seconds."""
        import hashlib

        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 2)
        base = min(base, self.backoff_max)
        digest = hashlib.sha256(f"jitter:{key}:{attempt}".encode()).digest()
        roll = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * roll)


@dataclass(frozen=True)
class JobFailure:
    """Terminal record of one job the sweep could not complete.

    ``kind`` is ``"fatal"`` (deterministic simulation exception), ``"crash"``
    (the job's worker died, retries exhausted; ``error`` names its exit
    code or signal) or ``"hang"`` (timeouts, retries exhausted).
    """

    job_id: int
    key: str
    label: str
    kind: str
    attempts: int
    error: str
    traceback: str

    def to_dict(self) -> Dict:
        return {
            "job_id": self.job_id,
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
            "traceback": self.traceback,
        }


class SweepJobError(RuntimeError):
    """A job failed terminally; details in :attr:`failure`.

    The underlying exception (the simulation error, ``BrokenProcessPool``,
    or the final ``TimeoutError``) is chained as ``__cause__``.
    """

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(
            f"sweep job {failure.label!r} failed ({failure.kind}) after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )
        self.failure = failure


@dataclass(frozen=True)
class SweepJob:
    """Picklable spec of one simulation (what a worker process receives).

    ``telemetry``/``telemetry_path`` are observational riders: they are NOT
    part of :func:`job_key` (telemetry cannot change results), so a cache
    hit legitimately skips producing a telemetry artifact.

    ``image`` is a warm image on disk. A job with a ``shard`` restores it
    and runs that segment of a sharded cell; a job with a
    ``warm_mechanism`` restores it and forks the cell from its group's
    image. Each worker restores its own private copy of the (read-only)
    file, so any number of jobs restore one image concurrently. A job with
    neither is the image's build: it warms the system, writes the image
    and returns its header. ``sampled`` switches the job to SMARTS-style
    sampled execution. Forks and samples change results, so both are part
    of :func:`job_key`.
    """

    job_id: int
    key: str
    config: SystemConfig
    traces: Tuple[Trace, ...]
    max_events: Optional[int] = None
    check: str = "off"
    telemetry: Optional[TelemetryConfig] = None
    telemetry_path: Optional[str] = None
    image: Optional[str] = None
    warm_mechanism: Optional[str] = None
    sampled: Optional["SampledConfig"] = None
    shard: Optional["ShardSpec"] = None

    @property
    def builds_image(self) -> bool:
        """Whether this job writes its image rather than restoring it."""
        return (
            self.image is not None
            and self.shard is None
            and self.warm_mechanism is None
        )

    @property
    def label(self) -> str:
        names = ",".join(trace.name for trace in self.traces)
        tags = ""
        if self.builds_image:
            tags += "+warm"
        if self.warm_mechanism is not None:
            tags += "+fork"
        if self.sampled is not None:
            tags += "+sampled"
        if self.shard is not None:
            tags += f"+shard{self.shard.key()}"
        return f"{self.config.mechanism}[{names}]{tags}"


def _telemetry_partial_path(path: str) -> str:
    """Where a job streams epochs while running (see :func:`_execute`)."""
    return f"{path}.partial"


def _execute(job: SweepJob) -> SimulationResult:
    """Run one job (module-level so the process pool can pickle it).

    An image build writes its image and returns the image header instead
    of a result. Image and sampled jobs import the checkpoint package
    lazily, so plain sweeps never pay for it; the runner refuses them check
    and telemetry riders, so they never stream epochs or audit ledgers.

    Telemetry-enabled jobs stream epochs to ``<telemetry_path>.partial``
    while running and rename to the final path on success, so a crashed or
    hung attempt leaves a ``.partial`` forensic trail of exactly the epochs
    it completed, while finished artifacts are never torn.
    """
    if job.image is not None or job.sampled is not None:
        from repro.checkpoint import (
            fork_system,
            load_snapshot,
            quiesce,
            run_sampled,
            run_windows,
            save_snapshot,
            warm_cell,
        )
        from repro.checkpoint.shard import run_shard

        if job.image is None:
            traces = list(job.traces)
            return run_sampled(job.config, traces, job.sampled).result
        if job.builds_image:
            system = warm_cell(job.config, list(job.traces))
            return save_snapshot(system, job.image)
        system = load_snapshot(job.image)
        if job.shard is not None:
            return run_shard(system, job.shard)
        fork_system(system, job.config)
        if job.sampled is not None:
            # Dirty-state adoption may have queued DBI-eviction writeback
            # probes behind the tag port; drain them (quiesce re-pauses the
            # cores, as run_windows expects) before the first window opens.
            quiesce(system)
            return run_windows(system, job.sampled).result
        return system.resume(max_events=job.max_events)
    if job.telemetry is None or job.telemetry_path is None:
        return run_system(
            job.config,
            list(job.traces),
            max_events=job.max_events,
            check=job.check,
        )
    import dataclasses

    partial = _telemetry_partial_path(job.telemetry_path)
    directory = os.path.dirname(partial)
    if directory:
        os.makedirs(directory, exist_ok=True)
    meta = (
        ("label", job.label),
        ("key", job.key),
        ("mechanism", job.config.mechanism),
        ("traces", ",".join(trace.name for trace in job.traces)),
    )
    telemetry = dataclasses.replace(
        job.telemetry, jsonl_path=partial, meta=meta
    )
    result = run_system(
        job.config,
        list(job.traces),
        max_events=job.max_events,
        check=job.check,
        telemetry=telemetry,
    )
    publish_file(partial, job.telemetry_path)
    return result


#: The pipe end this pool worker announces its attempts on (set by
#: :func:`_worker_init` in each worker; unused in the runner's process).
_announce: Optional[multiprocessing.connection.Connection] = None


def _worker_init(announce: multiprocessing.connection.Connection) -> None:
    """Pool initializer: keep the pipe end this worker announces on."""
    global _announce
    _announce = announce


def _execute_in_worker(
    job: SweepJob, attempt: int, chaos: Optional[ChaosConfig]
) -> SimulationResult:
    """Pool-side entry point: announce the attempt, apply chaos, simulate.

    The announcement is one pipe write far below ``PIPE_BUF``, so a pool's
    workers share the pipe without a lock, and it is in the pipe before
    chaos (or anything else) can kill the worker: whatever happens next,
    the runner knows which attempt this worker was running. The chaos
    config rides along with the job; decisions are pure functions of (seed,
    kind, key, attempt). ``_execute`` is looked up at call time, so a
    wrapper installed before the pool forks runs in every worker.
    """
    _announce.send((os.getpid(), job.key, attempt, time.monotonic()))
    if chaos is not None:
        FaultInjector(chaos).apply_in_worker(job.key, attempt)
    return _execute(job)


def _exit_text(code: int) -> str:
    """A worker's exit code in words (negative codes are signals)."""
    if code >= 0:
        return f"exited with code {code}"
    try:
        return f"was killed by {signal.Signals(-code).name}"
    except ValueError:
        return f"was killed by signal {-code}"


class _WorkerPool:
    """One process pool plus what its workers announced.

    ``running`` maps each attempt a worker announced and has not finished,
    as (key, attempt), to that worker's (pid, start). When the pool breaks,
    that map and the workers' exit codes say, per job, whether the job's
    own worker died by itself, was killed (by the pool, or by the runner:
    as collateral in ``killed``, for overrunning the timeout in ``hung``),
    or never ran the job at all.
    """

    def __init__(self, workers: int) -> None:
        context = multiprocessing.get_context("fork")
        self._reader, self._writer = context.Pipe(duplex=False)
        self.executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(self._writer,),
        )
        self._lock = threading.Lock()
        self.processes: Dict[int, multiprocessing.process.BaseProcess] = {}
        self.running: Dict[Tuple[str, int], Tuple[int, float]] = {}
        self.hung: Set[int] = set()
        self.killed: Set[int] = set()
        self.retired = False  # replaced after a death (see SweepRunner._retire)

    def submit(
        self, job: SweepJob, attempt: int, chaos: Optional[ChaosConfig]
    ) -> concurrent.futures.Future:
        inner = self.executor.submit(_execute_in_worker, job, attempt, chaos)
        with self._lock:
            if self._writer is not None:
                # The fork start method starts every worker at the first
                # submit: record them, and drop this process's pipe end so
                # later pools' workers do not inherit it.
                self.processes = dict(self.executor._processes)
                self._writer.close()
                self._writer = None
        inner.add_done_callback(
            functools.partial(self._attempt_done, job.key, attempt)
        )
        return inner

    def _attempt_done(self, key: str, attempt: int, inner) -> None:
        """An attempt that returned or raised no longer runs; one ended by
        the pool's death keeps its entry, which attributes that death."""
        self._drain()
        if not inner.cancelled() and not isinstance(
            inner.exception(), concurrent.futures.BrokenExecutor
        ):
            with self._lock:
                self.running.pop((key, attempt), None)

    def _drain(self) -> None:
        """Read every announcement waiting in the pipe."""
        with self._lock:
            try:
                while self._reader.poll():
                    pid, key, attempt, started = self._reader.recv()
                    self.running[key, attempt] = (pid, started)
            except (EOFError, OSError):
                pass  # every worker has exited

    def announced(self, key: str, attempt: int) -> Optional[Tuple[int, float]]:
        """(pid, start) of the worker running this attempt, if one is."""
        self._drain()
        with self._lock:
            return self.running.get((key, attempt))

    def exit_code(self, pid: int) -> Optional[int]:
        """The worker's exit code (negative: its signal); None while alive."""
        process = self.processes[pid]
        if not multiprocessing.connection.wait([process.sentinel], 0):
            return None
        # Dead; the pool's own thread may be reaping it right now.
        deadline = time.monotonic() + 1.0
        while process.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.001)
        return process.exitcode

    def kill(self, pid: int, reason: Set[int]) -> None:
        """SIGKILL a live worker, recording why in ``reason``."""
        if self.exit_code(pid) is None:
            reason.add(pid)
            try:
                self.processes[pid].kill()
            except OSError:
                pass

    def _starts(self) -> List[Tuple[int, float]]:
        """(pid, start) of every running attempt not already killed."""
        self._drain()
        with self._lock:
            return [
                (pid, started) for pid, started in self.running.values()
                if pid not in self.hung and pid not in self.killed
            ]

    def next_deadline(self, timeout: float) -> Optional[float]:
        """When the earliest running attempt overruns ``timeout``."""
        starts = [started for _pid, started in self._starts()]
        return min(starts) + timeout if starts else None

    def kill_overdue(self, timeout: float) -> None:
        """Kill every worker whose attempt has run past ``timeout``."""
        now = time.monotonic()
        for pid, started in self._starts():
            if now - started >= timeout:
                self.kill(pid, self.hung)

    def retire(self) -> None:
        """Release a broken pool: kill its survivors as collateral."""
        for pid in self.processes:
            self.kill(pid, self.killed)
        self.executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self.executor.shutdown(wait=wait, cancel_futures=cancel_futures)


class SweepFuture:
    """Handle to one submitted job; ``result()`` blocks until it is done.

    For pool-backed jobs, ``result()`` drives the runner's retry loop: it is
    where timeouts are detected, crashed attempts are re-dispatched, and the
    completed result is cached and accounted exactly once.
    """

    def __init__(
        self,
        job: SweepJob,
        inner: Optional[concurrent.futures.Future] = None,
        value: Optional[SimulationResult] = None,
        runner: Optional["SweepRunner"] = None,
    ) -> None:
        self.job = job
        self.attempts = 1
        self.started = time.perf_counter()
        self._inner = inner
        #: The pool ``_inner`` runs on (None inline).
        self._pool: Optional[_WorkerPool] = None
        self._value = value
        self._runner = runner
        self._failure: Optional[JobFailure] = None
        self._resolve_lock = threading.Lock()
        #: The image build whose image this job restores: no attempt
        #: starts before it lands.
        self.prerequisite: Optional["SweepFuture"] = None
        #: The jobs waiting on this image build.
        self.dependents: List["SweepFuture"] = []

    def done(self) -> bool:
        inner = self._inner
        return (
            self._value is not None
            or self._failure is not None
            or (inner is not None and inner.done())
        )

    def landed(self) -> bool:
        """Whether the job has succeeded, collected or not (for an image
        build: its image is on disk)."""
        inner = self._inner
        return self._value is not None or (
            inner is not None
            and inner.done()
            and not inner.cancelled()
            and inner.exception() is None
        )

    def result(self, timeout: Optional[float] = None) -> SimulationResult:
        """The job's result.

        Raises:
            SweepJobError: the job failed terminally (deterministic
                simulation error, or retries exhausted); the original
                exception is chained as ``__cause__``.
        """
        if self._value is not None:
            return self._value
        if self._failure is not None:
            raise SweepJobError(self._failure)
        if self._runner is not None:
            return self._runner._await(self)
        self._value = self._inner.result(timeout)
        return self._value


@dataclass(frozen=True)
class _StitchedJob:
    """Job-shaped identity of a sharded cell (key + label only)."""

    key: str
    label: str


class ShardedSweepFuture:
    """Handle to one sharded run: N segment futures stitched on collect.

    Quacks like :class:`SweepFuture` where callers care: ``job.key`` is a
    deterministic composite of the segment keys (stable across resumes, so
    campaign journals can record it), and ``result()`` blocks for every
    segment and returns the stitched whole-run result. A failing segment
    (or the cell warm-up it restores) raises its :class:`SweepJobError`
    unchanged. ``on_collected`` runs once, when ``result()`` first stitches
    the segments or surfaces a failure.
    """

    def __init__(
        self,
        futures: Sequence[SweepFuture],
        on_collected: Optional[Callable[[], None]] = None,
    ) -> None:
        import hashlib

        if not futures:
            raise ValueError("a sharded future needs at least one segment")
        self.futures = list(futures)
        composite = hashlib.sha256(
            "|".join(future.job.key for future in self.futures).encode()
        ).hexdigest()
        base = self.futures[0].job
        label = base.label.split("+shard")[0]
        self.job = _StitchedJob(
            key=f"stitched:{composite}",
            label=f"{label}+stitched{len(self.futures)}",
        )
        self._value: Optional[SimulationResult] = None
        self._on_collected = on_collected

    def done(self) -> bool:
        return self._value is not None or all(
            future.done() for future in self.futures
        )

    def result(self, timeout: Optional[float] = None) -> SimulationResult:
        from repro.checkpoint.shard import stitch_shards

        if self._value is None:
            try:
                results = [future.result(timeout) for future in self.futures]
            except SweepJobError:
                self._collected()
                raise
            self._value = stitch_shards(results)
            self._collected()
        return self._value

    def _collected(self) -> None:
        on_collected, self._on_collected = self._on_collected, None
        if on_collected is not None:
            on_collected()


def stderr_progress(line: str) -> None:
    """Default progress sink: one line per completed job on stderr."""
    print(line, file=sys.stderr, flush=True)


class SweepRunner:
    """Fan (config, traces) jobs over worker processes with result caching.

    Args:
        workers: process count; ``None`` = ``os.cpu_count() - 1``; values
            below 2 run jobs inline in this process (deterministically
            identical results, no pool overhead).
        cache_dir: on-disk cache directory; created on first write.
        use_cache: set False to neither read nor write the disk cache
            (in-memory memoization of repeated submissions still applies).
        progress: callable receiving one formatted line per finished job
            (job id, mechanism/traces, elapsed seconds, hit/miss/retry/
            failed); ``None`` is silent, :func:`stderr_progress` prints to
            stderr.
        check: runtime verification level passed to every job ("off",
            "cheap" or "full"; see :mod:`repro.check`). Non-off levels get
            distinct cache keys so verification sweeps actually simulate.
        retry: crash/hang recovery policy (:class:`RetryPolicy`); the
            default retries crashes twice with backoff and never times out.
        keep_going: advisory partial-results mode. The runner itself always
            records failures and keeps scheduling; this flag tells
            *collectors* (``repro.analysis.experiments``) to swallow
            :class:`SweepJobError` per job and render partial artifacts.
        chaos: deterministic fault schedule (tests/CI); None injects
            nothing. Worker crashes and hangs travel to pool workers with
            each job, image builds included; cache corruption and the
            image-build and image-written kills fire in this process
            through :attr:`injector`.
        telemetry: epoch-sampling config attached to every *simulated* job;
            each produces a ``<key>.telemetry.jsonl`` artifact. Telemetry is
            observational (results are byte-identical with it on or off), so
            it is excluded from :func:`job_key` — which also means cache
            hits skip simulating and therefore produce no artifact; delete
            the cache entry (or disable the cache) to regenerate a trace.
        telemetry_dir: where telemetry artifacts land; defaults to the
            cache directory (so traces sit next to the results they
            describe) or ``results/telemetry`` when the cache is off.
        retain_failed_telemetry: keep the ``.partial`` epoch stream of a
            terminally failed job as a forensic trail instead of deleting
            it (chaos-killed and hung runs show exactly how far they got).
        checkpoint_dir: enables fork-from-warm sweeps. Each (traces,
            shared-config) group warms *once* under its normalized
            mechanism: the first cell of the group that is not answered
            from the cache registers an image-build job that writes
            ``<checkpoint_dir>/warm-<key>.ckpt`` (kept for reuse), and
            every cell forks from that shared image once it lands (see
            :mod:`repro.checkpoint.fork`). Forked results are a documented
            approximation of cold runs; their cache entries carry a
            distinct key component. Existing warm images are
            digest-verified before reuse; corrupt or stale ones are
            quarantined to ``.ckpt.corrupt`` and rebuilt.
        sampled: switches every job to SMARTS-style sampled execution
            (:mod:`repro.checkpoint.sampled`): detailed measurement windows
            separated by functional fast-forward. Composes with
            ``checkpoint_dir`` (fork, then sample) or stands alone (warm
            under the cell's own mechanism, then sample). Sampled results
            are estimates with confidence intervals; the cached
            :class:`SimulationResult` is synthesized from the window sums
            and keyed separately from full runs.

        Neither checkpoint mode composes with ``check`` or ``telemetry``:
        the mechanism swap and functional fast-forward violate the ledger
        invariants the check engine audits, and sampled epoch streams would
        be full of fast-forward discontinuities. Construction raises
        ``ValueError`` on those combinations rather than producing
        quietly-wrong artifacts.

    Usage::

        with SweepRunner(workers=4) as runner:
            futures = [runner.submit(cfg, [trace]) for cfg in configs]
            results = [f.result() for f in futures]
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        progress: Optional[Callable[[str], None]] = None,
        check: str = "off",
        retry: Optional[RetryPolicy] = None,
        keep_going: bool = False,
        chaos: Optional[ChaosConfig] = None,
        telemetry: Optional[TelemetryConfig] = None,
        telemetry_dir: Optional[str] = None,
        retain_failed_telemetry: bool = False,
        checkpoint_dir: Optional[str] = None,
        sampled: Optional["SampledConfig"] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(0, workers)
        self.cache_dir = cache_dir if (use_cache and cache_dir) else None
        self.telemetry = telemetry
        self.telemetry_dir = telemetry_dir or self.cache_dir or DEFAULT_TELEMETRY_DIR
        self.retain_failed_telemetry = retain_failed_telemetry
        self.progress = progress
        self.check = str(check).lower()
        self.checkpoint_dir = checkpoint_dir
        self.sampled = sampled
        if checkpoint_dir is not None or sampled is not None:
            mode = "fork-from-warm" if checkpoint_dir is not None else "sampled"
            if self.check != "off":
                raise ValueError(
                    f"{mode} sweeps do not compose with --check: the "
                    "mechanism swap / functional fast-forward violates the "
                    "writeback-ledger invariants the check engine audits"
                )
            if telemetry is not None:
                raise ValueError(
                    f"{mode} sweeps do not compose with telemetry riders: "
                    "epoch streams would be full of fast-forward and "
                    "mechanism-swap discontinuities"
                )
        self.retry = retry or RetryPolicy()
        self.keep_going = keep_going
        self.chaos = chaos
        self.injector = FaultInjector(chaos) if chaos is not None else None
        self._pool: Optional[_WorkerPool] = None
        self._lock = threading.RLock()
        self._futures: Dict[str, SweepFuture] = {}
        self._next_id = 0
        self._started = time.perf_counter()
        self.jobs_submitted = 0  # distinct jobs seen
        self.memo_hits = 0  # repeated submissions coalesced in-process
        self.cache_hits = 0  # jobs answered from the disk cache
        self.jobs_executed = 0  # jobs actually simulated
        self.jobs_failed = 0  # jobs that failed terminally
        self.jobs_retried = 0  # attempts beyond the first, across all jobs
        self.cache_corrupt = 0  # cache entries quarantined on load
        self.pool_deaths = 0  # pools replaced after a worker died or hung
        self.warm_images_built = 0  # image builds that landed
        self.checkpoints_quarantined = 0  # corrupt or stale images set aside
        self.failures: List[JobFailure] = []
        #: Image path -> its build job, or None once verified on disk.
        self._image_builds: Dict[str, Optional[SweepFuture]] = {}
        self._image_users: Dict[str, int] = {}  # cell image -> live cells
        self._image_tempdir = None  # image directory when the cache is off
        #: Encoded trace chunks per trace tuple (by identity; the tuple is
        #: held so its ids stay valid), so each is encoded once per runner.
        self._encoded_traces: Dict[Tuple[int, ...], Tuple] = {}

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        # On an exception (including KeyboardInterrupt) drop queued work
        # instead of blocking on it — a Ctrl-C'd sweep should die promptly.
        self.close(cancel=exc_type is not None)

    def close(self, cancel: bool = False) -> None:
        """Shut the worker pool down.

        Args:
            cancel: False waits for in-flight jobs; True cancels queued jobs
                and returns without waiting.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            tempdir, self._image_tempdir = self._image_tempdir, None
        if pool is not None:
            if cancel:
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        if tempdir is not None:
            tempdir.cleanup()

    # ------------------------------------------------------------ interface

    def submit(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        max_events: Optional[int] = None,
    ) -> SweepFuture:
        """Schedule one simulation; duplicate submissions share one future.

        A job that previously failed is *not* memoized: resubmitting it
        schedules a fresh future instead of returning the poisoned one.
        """
        traces = tuple(traces)
        if self.sampled is not None and max_events is not None:
            raise ValueError(
                "sampled mode schedules its own detailed windows; "
                "max_events is not supported"
            )
        image = warm_config = warm_mechanism = None
        if self.checkpoint_dir is not None:
            from repro.checkpoint import warm_config_for

            warm_config = warm_config_for(config)
            warm_key = _finish_key(self._key_prefix(warm_config, traces))
            image = os.path.join(self.checkpoint_dir, f"warm-{warm_key}.ckpt")
            warm_mechanism = warm_config.mechanism
        key = _finish_key(
            self._key_prefix(config, traces),
            max_events,
            check=self.check,
            fork=warm_mechanism,
            sampled=self.sampled.key() if self.sampled is not None else None,
        )
        future, fresh = self._register(
            key,
            config,
            traces,
            max_events=max_events,
            image=image,
            warm_mechanism=warm_mechanism,
            sampled=self.sampled,
        )
        if fresh:
            build = None
            if image is not None:
                build = self._image_build(warm_key, warm_config, traces, image)
            self._launch_after(build, [future])
        return future

    def _check_shardable(self) -> None:
        if self.check != "off":
            raise ValueError(
                "sharded runs do not compose with --check: the functional "
                "fast-forward between segments violates the writeback-"
                "ledger invariants the check engine audits"
            )
        if self.telemetry is not None:
            raise ValueError(
                "sharded runs do not compose with telemetry riders: each "
                "segment's epoch stream would restart mid-run"
            )
        if self.checkpoint_dir is not None or self.sampled is not None:
            raise ValueError(
                "sharded runs warm each cell into an image of their own and "
                "fast-forward per segment; they do not compose with "
                "fork-from-warm or sampled mode"
            )

    def submit_sharded(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        shards: int,
    ) -> "ShardedSweepFuture":
        """Split one run into ``shards`` stitched segments behind one warm-up.

        The cell warms once: an image-build job builds the system, runs it
        to the warmup boundary, quiesces and rebases it
        (:func:`~repro.checkpoint.warm.warm_cell`), and snapshots it to
        ``cell-<key>.ckpt`` next to the result cache, keyed by the cell's
        own config and traces. When the image lands, one job per segment
        restores it and runs its segment
        (:func:`~repro.checkpoint.shard.run_shard`), so segments still fan
        out across the pool. Each segment is individually cached under its
        own key, so a resumed campaign re-answers completed segments from
        the cache, and a cell whose segments are all cached never warms.
        An image already on disk is digest-verified and reused; a corrupt
        one is quarantined to ``.ckpt.corrupt`` and rebuilt. The image is
        deleted once the cell is collected (stitched or failed).
        ``result()`` stitches the segments into one whole-run
        :class:`SimulationResult`.
        """
        from repro.checkpoint.shard import ShardSpec

        self._check_shardable()
        traces = tuple(traces)
        hasher = self._key_prefix(config, traces)
        image = os.path.join(
            self._cell_image_dir(), f"cell-{hasher.hexdigest()}.ckpt"
        )
        futures: List[SweepFuture] = []
        fresh: List[SweepFuture] = []
        for index in range(shards):
            spec = ShardSpec(index, shards)
            future, created = self._register(
                _finish_key(hasher.copy(), shard=spec.key()),
                config,
                traces,
                shard=spec,
                image=image,
            )
            futures.append(future)
            if created:
                fresh.append(future)
        if not fresh:
            return ShardedSweepFuture(futures)
        with self._lock:
            self._image_users[image] = self._image_users.get(image, 0) + 1
        build = self._image_build(hasher.hexdigest(), config, traces, image)
        self._launch_after(build, fresh)
        return ShardedSweepFuture(
            futures, on_collected=lambda: self._release_image(image)
        )

    def run(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        max_events: Optional[int] = None,
    ) -> SimulationResult:
        """Synchronous convenience: submit and wait."""
        return self.submit(config, traces, max_events=max_events).result()

    def summary(self) -> str:
        """One-line account of the sweep (for end-of-run reporting)."""
        elapsed = time.perf_counter() - self._started
        extra = ""
        if self.jobs_failed:
            extra += f", {self.jobs_failed} failed"
        if self.jobs_retried:
            extra += f", {self.jobs_retried} retried"
        if self.cache_corrupt:
            extra += f", {self.cache_corrupt} corrupt cache entries quarantined"
        if self.warm_images_built:
            extra += f", {self.warm_images_built} warm image(s) built"
        if self.checkpoints_quarantined:
            extra += (
                f", {self.checkpoints_quarantined} corrupt or stale image(s) "
                "quarantined"
            )
        if self.pool_deaths:
            extra += f", {self.pool_deaths} pool death(s)"
        return (
            f"sweep: {self.jobs_submitted} jobs "
            f"({self.jobs_executed} simulated, {self.cache_hits} cache hits, "
            f"{self.memo_hits} coalesced{extra}) in {elapsed:.1f}s "
            f"with {self.workers} worker(s)"
        )

    def write_failure_manifest(self, path: Optional[str] = None) -> str:
        """Persist the failure record for this sweep; returns the path.

        Written atomically so a crash mid-write never leaves a torn
        manifest. An empty-failure sweep writes a manifest too (an explicit
        "nothing failed" beats a stale file from last week's broken run).
        """
        path = path or DEFAULT_FAILURE_MANIFEST
        with self._lock:
            payload = {
                "format": FAILURE_MANIFEST_FORMAT,
                "jobs_submitted": self.jobs_submitted,
                "jobs_failed": self.jobs_failed,
                "failures": [failure.to_dict() for failure in self.failures],
            }
        atomic_write_json(path, payload, indent=2)
        return path

    # --------------------------------------------------------------- images

    def _quarantine_checkpoint(self, path: str) -> None:
        """Set a corrupt or stale image aside (evidence kept) and count it."""
        with self._lock:
            self.checkpoints_quarantined += 1
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass

    def _cell_image_dir(self) -> str:
        """Where sharded-cell images live: beside the result cache, or in a
        private temporary directory (removed on close) when it is off."""
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
            return self.cache_dir
        with self._lock:
            if self._image_tempdir is None:
                import tempfile

                self._image_tempdir = tempfile.TemporaryDirectory(
                    prefix="repro-cells-"
                )
            return self._image_tempdir.name

    def _image_build(
        self,
        key: str,
        config: SystemConfig,
        traces: Tuple[Trace, ...],
        image: str,
    ) -> Optional[SweepFuture]:
        """The job that writes ``image`` from ``config``, memoized by path.

        The first call for a path verifies an image already on disk
        (quarantining a corrupt or stale one) and, unless it verified,
        registers and launches the build; later calls share the answer.
        None means the image is on disk and needs no build.
        """
        from repro.checkpoint import CheckpointError, verify_snapshot

        with self._lock:
            if image in self._image_builds:
                return self._image_builds[image]
            build = None
            if os.path.exists(image):
                try:
                    verify_snapshot(image)
                except CheckpointError:
                    self._quarantine_checkpoint(image)
            if not os.path.exists(image):
                os.makedirs(os.path.dirname(image) or ".", exist_ok=True)
                job = SweepJob(self._next_id, key, config, traces, image=image)
                self._next_id += 1
                build = SweepFuture(job, runner=self)
            self._image_builds[image] = build
        if build is not None:
            self._launch(build)
        return build

    def _launch_after(
        self, build: Optional[SweepFuture], futures: Sequence[SweepFuture]
    ) -> None:
        """Launch jobs that restore ``build``'s image: at once if it needs
        no build or has landed (or inline, where :meth:`_await` waits on
        the build), else as its dependents, started when it lands."""
        for future in futures:
            if build is not None:
                future.prerequisite = build
                if self.workers >= 2:
                    with self._lock:
                        if not build.landed():
                            build.dependents.append(future)
                            continue
            self._launch(future)

    def _start_dependents(self, build: SweepFuture) -> None:
        """Start the jobs waiting on ``build`` if it has landed.

        Runs on the pool's result thread when an attempt finishes (a failed
        one is retried by the thread that collects the build) and when a
        collected build completes. The dependents are read under the lock
        once the build has landed, so a job :meth:`_launch_after` attached
        before then is among them, and one it attached later saw the build
        landed and launched itself.
        """
        if not build.landed():
            return
        with self._lock:
            dependents = list(build.dependents)
        for future in dependents:
            self._start_dependent(future)

    def _start_dependent(self, future: SweepFuture) -> None:
        """Submit a job whose image has landed, unless someone else is.

        May run on the pool's result thread, so it never blocks, never
        runs a job inline and never respawns a pool; a job it skips is
        submitted by the thread that collects it (see :meth:`_await`).
        """
        pool = self._pool
        if pool is None:
            return
        if not future._resolve_lock.acquire(blocking=False):
            return
        try:
            if future._inner is None and not future.done():
                self._put(future, pool)
        except (concurrent.futures.BrokenExecutor, RuntimeError):
            pass  # pool broke or shut down: the collector resubmits
        finally:
            future._resolve_lock.release()

    def _await_prerequisite(self, future: SweepFuture) -> None:
        """Block until the image this job restores has landed; a failed
        build fails the job with the build's failure."""
        try:
            future.prerequisite.result()
        except SweepJobError as exc:
            with self._lock:
                if self._futures.get(future.job.key) is future:
                    del self._futures[future.job.key]
            future._failure = exc.failure
            raise

    def _release_image(self, image: str) -> None:
        """A sharded cell was collected: delete its image once unused."""
        with self._lock:
            users = self._image_users.get(image, 0) - 1
            if users > 0:
                self._image_users[image] = users
                return
            self._image_users.pop(image, None)
            self._image_builds.pop(image, None)
        try:
            os.unlink(image)
        except OSError:
            pass

    # ------------------------------------------------------------- dispatch

    def _key_prefix(self, config: SystemConfig, traces: Tuple[Trace, ...]):
        """The key hasher over ``config`` and ``traces`` (see
        :func:`job_key`); each trace tuple is encoded once per runner."""
        ids = tuple(id(trace) for trace in traces)
        with self._lock:
            entry = self._encoded_traces.get(ids)
            if entry is None:
                entry = (traces, tuple(_trace_chunks(traces)))
                self._encoded_traces[ids] = entry
        return _hash_prefix(config, entry[1])

    def _register(
        self,
        key: str,
        config: SystemConfig,
        traces: Tuple[Trace, ...],
        **fields,
    ) -> Tuple[SweepFuture, bool]:
        """The future for ``key``: memoized, answered from the disk cache,
        or new and not yet launched (then the flag is True)."""
        with self._lock:
            existing = self._futures.get(key)
            if existing is not None:
                self.memo_hits += 1
                return existing, False
            telemetry_path = (
                os.path.join(self.telemetry_dir, f"{key}.telemetry.jsonl")
                if self.telemetry is not None
                else None
            )
            job = SweepJob(
                self._next_id,
                key,
                config,
                traces,
                check=self.check,
                telemetry=self.telemetry,
                telemetry_path=telemetry_path,
                **fields,
            )
            self._next_id += 1
            self.jobs_submitted += 1
            cached = self._load_cached(key)
            if cached is not None:
                self.cache_hits += 1
                self._emit(job, 0.0, "hit")
                future = SweepFuture(job, value=cached)
            else:
                future = SweepFuture(job, runner=self)
            self._futures[key] = future
            return future, cached is None

    def _launch(self, future: SweepFuture) -> None:
        """Start a registered job: onto the pool, or run it inline."""
        if self.workers >= 2:
            self._submit_attempt(future)
            return
        # Inline mode executes at submission (callers may rely on
        # jobs_executed being current); failures surface from result().
        try:
            self._await(future)
        except SweepJobError:
            pass

    def _submit_attempt(self, future: SweepFuture) -> None:
        """Start the job's current attempt (see :meth:`_submit`)."""
        job = future.job
        if job.builds_image and self.injector is not None:
            self.injector.on_warm_build(job.image)
        self._submit(future)

    def _submit(self, future: SweepFuture) -> None:
        """Put the job's current attempt on the pool, replacing a broken
        pool first, or run it inline."""
        if self.workers < 2:
            # Inline execution shares the future-based error path with the
            # pool so _await classifies both identically. Crash/hang chaos
            # is never applied inline — it would take down this process.
            inline: concurrent.futures.Future = concurrent.futures.Future()
            try:
                inline.set_result(_execute(future.job))
            except Exception as exc:  # classified fatal by _await
                inline.set_exception(exc)
            future._inner, future._pool = inline, None
            return
        while True:
            with self._lock:
                if self._pool is None:
                    self._pool = _WorkerPool(self.workers)
                pool = self._pool
            try:
                self._put(future, pool)
                return
            except concurrent.futures.BrokenExecutor:
                # The pool broke under another job and nobody has collected
                # that job yet; replace it and submit to the fresh one.
                self._retire(pool)

    def _put(self, future: SweepFuture, pool: _WorkerPool) -> None:
        """Submit the job's current attempt to ``pool``."""
        future._inner = pool.submit(future.job, future.attempts, self.chaos)
        future._pool = pool
        if future.job.builds_image:
            # The dependents start the moment the image lands.
            future._inner.add_done_callback(
                lambda _inner: self._start_dependents(future)
            )

    def _await(self, future: SweepFuture) -> SimulationResult:
        """Drive one job to completion or terminal failure (retry loop)."""
        with future._resolve_lock:
            if future._value is not None:
                return future._value
            if future._failure is not None:
                raise SweepJobError(future._failure)
            job = future.job
            if future.prerequisite is not None:
                # Also collects a build that landed in the pool and already
                # started this job, so every build is accounted.
                self._await_prerequisite(future)
            while True:
                if future._inner is None:
                    self._submit_attempt(future)
                try:
                    result = future._inner.result(
                        timeout=self._wait_slice(future)
                    )
                except concurrent.futures.TimeoutError:
                    # Some attempt on this pool may have overrun: kill its
                    # worker, whoever's it is, and keep waiting.
                    future._pool.kill_overdue(self.retry.timeout)
                    continue
                except concurrent.futures.CancelledError as exc:
                    # The runner was closed under the attempt.
                    kind, error = None, exc
                except concurrent.futures.BrokenExecutor as exc:
                    kind, error = self._charge(future, exc)
                except Exception as exc:
                    # A deterministic simulation error: a retry would fail
                    # identically, so surface it after this one attempt.
                    self._fail(future, "fatal", exc)
                else:
                    return self._complete(future, result)
                future._inner = None
                if kind is None:
                    # Not this job's fault: the same attempt, uncharged.
                    self._submit(future)
                    continue
                if future.attempts >= self.retry.max_attempts:
                    self._fail(future, kind, error)
                future.attempts += 1
                with self._lock:
                    self.jobs_retried += 1
                self._emit(
                    job,
                    time.perf_counter() - future.started,
                    f"retry {future.attempts}/{self.retry.max_attempts} ({kind})",
                )
                time.sleep(self.retry.delay(job.key, future.attempts))

    def _wait_slice(self, future: SweepFuture) -> Optional[float]:
        """How long to wait on an attempt before looking for overruns: until
        the earliest running attempt on its pool overruns the timeout."""
        timeout = self.retry.timeout
        if timeout is None or future._pool is None:
            return None
        deadline = future._pool.next_deadline(timeout)
        if deadline is None:
            return timeout
        return max(0.05, deadline - time.monotonic())

    def _charge(
        self, future: SweepFuture, exc: Exception
    ) -> Tuple[Optional[str], Exception]:
        """Why the job's attempt died with its pool: ``"crash"`` when its
        own worker exited by itself, ``"hang"`` when the runner killed that
        worker for overrunning, None for anything else; with the error a
        terminal failure reports."""
        pool = future._pool
        self._retire(pool)
        announced = pool.announced(future.job.key, future.attempts)
        if announced is None:
            return None, exc  # the attempt never started on this pool
        pid = announced[0]
        if pid in pool.hung:
            kind, error = "hang", TimeoutError(
                f"worker {pid} ran attempt {future.attempts} past the "
                f"{self.retry.timeout:g}s timeout and was killed"
            )
        else:
            code = pool.exit_code(pid)
            if pid in pool.killed or code in (None, 0, -signal.SIGTERM):
                return None, exc  # stopped by the pool or the runner
            kind, error = "crash", concurrent.futures.process.BrokenProcessPool(
                f"worker {pid} {_exit_text(code)} during attempt "
                f"{future.attempts}"
            )
        error.__cause__ = exc
        return kind, error

    def _complete(
        self, future: SweepFuture, result: SimulationResult
    ) -> SimulationResult:
        job = future.job
        if job.builds_image:
            with self._lock:
                self.warm_images_built += 1
            self._emit(job, time.perf_counter() - future.started, "warm")
            future._value = result
            if self.injector is not None:
                self.injector.on_cell_image(job.image)
            self._release(future)
            self._start_dependents(future)
            return result
        with self._lock:
            self.jobs_executed += 1
        self._store_cached(job.key, job.label, result)
        if self.injector is not None and self.cache_dir is not None:
            if self.injector.should_corrupt(job.key):
                self.injector.corrupt_file(self._cache_path(job.key))
        self._emit(job, time.perf_counter() - future.started, "miss")
        future._value = result
        self._release(future)
        return result

    @staticmethod
    def _release(future: SweepFuture) -> None:
        """Drop a finished job's last attempt, so a replaced pool it ran on
        (processes, pipe) can be freed."""
        future._inner = future._pool = None

    def _fail(self, future: SweepFuture, kind: str, exc: Exception) -> None:
        job = future.job
        failure = JobFailure(
            job_id=job.job_id,
            key=job.key,
            label=job.label,
            kind=kind,
            attempts=future.attempts,
            error=f"{type(exc).__name__}: {exc}",
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )
        with self._lock:
            self.jobs_failed += 1
            self.failures.append(failure)
            # Evict the poisoned key: accounting must reflect the failure
            # and a resubmission must get a fresh future, not this one.
            if self._futures.get(job.key) is future:
                del self._futures[job.key]
            if self._image_builds.get(job.image) is future:
                del self._image_builds[job.image]
        future._failure = failure
        self._release(future)
        if job.telemetry_path is not None and not self.retain_failed_telemetry:
            # Without retention, a dead job's half-written epoch stream is
            # just litter; with it, the .partial is the forensic record of
            # exactly where the run died.
            try:
                os.unlink(_telemetry_partial_path(job.telemetry_path))
            except OSError:
                pass
        self._emit(
            job,
            time.perf_counter() - future.started,
            f"failed ({kind}, {future.attempts} attempt(s))",
        )
        raise SweepJobError(failure) from exc

    def _retire(self, pool: _WorkerPool) -> None:
        """Count a pool's death once and replace it only if it is current."""
        with self._lock:
            if pool.retired:
                return
            pool.retired = True
            self.pool_deaths += 1
            if self._pool is pool:
                self._pool = None
        pool.retire()

    def _emit(self, job: SweepJob, elapsed: float, status: str) -> None:
        if self.progress is not None:
            self.progress(
                f"[sweep {job.job_id:04d}] {job.label:<40s} "
                f"{elapsed:7.2f}s  {status}"
            )

    # ---------------------------------------------------------- disk cache

    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _load_cached(self, key: str) -> Optional[SimulationResult]:
        if self.cache_dir is None:
            return None
        path = self._cache_path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError:
            return None  # a missing entry is a normal cache miss
        except ValueError:
            return self._quarantine(key, path)
        result = _entry_result(payload, key)
        if result is None:
            return self._quarantine(key, path)
        try:
            return SimulationResult.from_dict(result)
        except (KeyError, TypeError):
            return self._quarantine(key, path)

    def _quarantine(self, key: str, path: str) -> None:
        """Move a corrupt/mismatched entry aside and make the damage visible.

        Renaming (rather than deleting) preserves the evidence for a
        post-mortem; counting it means a disk that corrupts every entry
        shows up in ``summary()`` instead of silently resimulating forever.
        """
        with self._lock:
            self.cache_corrupt += 1
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass
        return None

    def _store_cached(self, key: str, label: str, result: SimulationResult) -> None:
        if self.cache_dir is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(key)
        try:
            with open(path) as handle:
                existing = _entry_result(json.load(handle), key)
        except (OSError, ValueError):
            existing = None
        if existing is not None:
            # A retried (or concurrently executed) job must reproduce the
            # stored result exactly — the simulator is deterministic, so a
            # divergence means an attempt double-counted a writeback or stat.
            from repro.check.invariants import check_retry_consistency

            check_retry_consistency(label, existing, result.to_dict())
        payload = {
            "format": CACHE_FORMAT,
            "model": MODEL_VERSION,
            "key": key,
            "label": label,
            "result": result.to_dict(),
        }
        try:
            atomic_write_json(path, payload)
        except OSError:
            # Caching is an optimization; a read-only disk must not kill a
            # sweep whose simulations are succeeding.
            pass
