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
    Pool execution survives the three classic large-sweep failure modes:

    * **worker crashes** (``BrokenProcessPool``) — the pool is respawned and
      the job retried with exponential backoff plus deterministic jitter;
      other in-flight jobs that died with the pool re-dispatch themselves
      onto the fresh pool when collected;
    * **wedged workers** — an optional per-attempt wall-clock timeout
      (:attr:`RetryPolicy.timeout`) classifies the attempt as a hang, hard
      kills the wedged pool and retries the job;
    * **repeated pool deaths** — after :attr:`RetryPolicy.max_pool_deaths`
      teardowns the runner degrades gracefully to inline execution, which
      cannot crash the pool because there no longer is one.

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

    The :mod:`repro.analysis.chaos` layer injects all three fault kinds
    deterministically (the ``chaos=`` argument) so tests can prove
    recovered sweeps are byte-identical to fault-free ones.

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
    jobs behind a single warm-up: a warm job snapshots the warmed cell to a
    content-addressed image, and each segment job restores it (see
    :mod:`repro.checkpoint.shard`).
"""

from __future__ import annotations

import concurrent.futures
import json
import os
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
from repro.utils.locks import FileLock

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

#: Heartbeat-staleness horizon for warm-image build locks. Generous — the
#: fast reclaim path is pid death (see :mod:`repro.utils.locks`); the TTL
#: only backstops cross-host builders, and a quick-scale warm build takes
#: seconds, not minutes.
WARM_LOCK_STALE_SECONDS = 600.0


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
        max_attempts: total attempts per job (1 = never retry). Applies to
            *retryable* failures — worker crashes, cancellations from a pool
            teardown, and timeouts; deterministic simulation exceptions
            always surface after one attempt regardless.
        timeout: per-attempt wall-clock seconds before an attempt is
            declared hung (None = wait forever). A hung attempt cannot be
            cancelled — its worker is wedged — so the whole pool is hard
            killed and respawned.
        backoff_base: first retry delay, seconds.
        backoff_factor: multiplier per further retry (exponential).
        backoff_max: delay ceiling, seconds.
        jitter: fraction of the delay added as deterministic per-(job,
            attempt) jitter, de-synchronizing retry stampedes.
        max_pool_deaths: pool teardowns tolerated before the runner stops
            trusting process isolation and degrades to inline execution.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 8.0
    jitter: float = 0.5
    max_pool_deaths: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_pool_deaths < 1:
            raise ValueError(
                f"max_pool_deaths must be >= 1, got {self.max_pool_deaths}"
            )

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
    (worker/pool death, retries exhausted) or ``"hang"`` (timeouts, retries
    exhausted).
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

    ``fork_checkpoint`` points a fork-from-warm job at its group's warm
    image on disk — the worker restores its own private copy of the image
    from the (read-only) file, so any number of cells fork from one snapshot
    concurrently. ``sampled`` switches the job to SMARTS-style sampled
    execution. Both change results, so both are part of :func:`job_key`.

    ``cell_image`` is a sharded cell's warmed image on disk: a job with a
    ``shard`` restores it and runs that segment; a job without one is the
    cell's single warm-up, which writes the image and returns its header.
    """

    job_id: int
    key: str
    config: SystemConfig
    traces: Tuple[Trace, ...]
    max_events: Optional[int] = None
    check: str = "off"
    telemetry: Optional[TelemetryConfig] = None
    telemetry_path: Optional[str] = None
    fork_checkpoint: Optional[str] = None
    warm_mechanism: Optional[str] = None
    sampled: Optional["SampledConfig"] = None
    shard: Optional["ShardSpec"] = None
    cell_image: Optional[str] = None

    @property
    def builds_image(self) -> bool:
        """Whether this is a sharded cell's warm-up job."""
        return self.cell_image is not None and self.shard is None

    @property
    def label(self) -> str:
        names = ",".join(trace.name for trace in self.traces)
        tags = ""
        if self.builds_image:
            tags += "+warm"
        if self.fork_checkpoint is not None:
            tags += "+fork"
        if self.sampled is not None:
            tags += "+sampled"
        if self.shard is not None:
            tags += f"+shard{self.shard.key()}"
        return f"{self.config.mechanism}[{names}]{tags}"


def _telemetry_partial_path(path: str) -> str:
    """Where a job streams epochs while running (see :func:`_execute`)."""
    return f"{path}.partial"


def _execute_checkpoint(job: SweepJob) -> SimulationResult:
    """Run one fork-from-warm and/or sampled job.

    The checkpoint package is imported lazily so plain sweeps never pay for
    it. The runner refuses to construct checkpoint-mode sweeps with check or
    telemetry riders, so this path never streams epochs or audits ledgers.
    """
    from repro.checkpoint import fork_system, load_snapshot, quiesce
    from repro.checkpoint.sampled import run_sampled, run_windows

    if job.fork_checkpoint is None:
        return run_sampled(job.config, list(job.traces), job.sampled).result
    system = load_snapshot(job.fork_checkpoint)
    fork_system(system, job.config)
    if job.sampled is not None:
        # Dirty-state adoption may have queued DBI-eviction writeback probes
        # behind the tag port; drain them (quiesce re-pauses the cores, as
        # run_windows expects) before the first sampled window opens.
        quiesce(system)
        return run_windows(system, job.sampled).result
    return system.resume(max_events=job.max_events)


def _execute(job: SweepJob) -> SimulationResult:
    """Run one job (module-level so the process pool can pickle it).

    A sharded cell's warm-up job writes its image and returns the image
    header instead of a result.

    Telemetry-enabled jobs stream epochs to ``<telemetry_path>.partial``
    while running and rename to the final path on success, so a crashed or
    hung attempt leaves a ``.partial`` forensic trail of exactly the epochs
    it completed, while finished artifacts are never torn.
    """
    if job.cell_image is not None:
        from repro.checkpoint import load_snapshot, save_snapshot
        from repro.checkpoint.shard import run_shard, warm_cell

        if job.builds_image:
            system = warm_cell(job.config, list(job.traces))
            return save_snapshot(system, job.cell_image)
        return run_shard(load_snapshot(job.cell_image), job.shard)
    if job.fork_checkpoint is not None or job.sampled is not None:
        return _execute_checkpoint(job)
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


def _worker_heartbeat_path(heartbeat_dir: str) -> str:
    """This worker process's beacon file (one per pool process)."""
    return os.path.join(heartbeat_dir, f"worker-{os.getpid()}.json")


def _execute_in_worker(
    job: SweepJob,
    attempt: int,
    chaos: Optional[ChaosConfig],
    heartbeat_dir: Optional[str] = None,
) -> SimulationResult:
    """Pool-side entry point: apply per-attempt chaos, then simulate.

    The chaos config rides along with the job so workers need no environment
    plumbing; decisions are pure functions of (seed, kind, key, attempt).

    With a ``heartbeat_dir``, the worker beats at attempt start and end, so
    the campaign watchdog can see workers that die or wedge *outside* an
    attempt — a window the runner's per-job timeout cannot observe because
    its timer only runs while a future is being awaited.
    """
    if heartbeat_dir is not None:
        from repro.utils.heartbeat import write_heartbeat

        os.makedirs(heartbeat_dir, exist_ok=True)
        beacon = _worker_heartbeat_path(heartbeat_dir)
        write_heartbeat(
            beacon, state="running", job=job.label, key=job.key,
            attempt=attempt,
        )
    if chaos is not None:
        FaultInjector(chaos).apply_in_worker(job.key, attempt)
    result = _execute(job)
    if heartbeat_dir is not None:
        write_heartbeat(beacon, state="idle", job=job.label, key=job.key,
                        attempt=attempt)
    return result


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
        self._value = value
        self._runner = runner
        self._failure: Optional[JobFailure] = None
        self._resolve_lock = threading.Lock()
        #: The cell warm-up whose image this segment restores: no attempt
        #: starts before it lands.
        self.prerequisite: Optional["SweepFuture"] = None
        #: The segments waiting on this warm-up.
        self.dependents: List["SweepFuture"] = []

    def done(self) -> bool:
        return (
            self._value is not None
            or self._failure is not None
            or (self._inner is not None and self._inner.done())
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

    def shard_results(self) -> List[SimulationResult]:
        """The per-segment results (for confidence-interval estimation)."""
        return [future.result() for future in self.futures]


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
            each job; cache corruption, warm-build and cell-image kills
            fire in this process through :attr:`injector`.
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
            mechanism, snapshots at the warmup boundary into
            ``<checkpoint_dir>/warm-<key>.ckpt``, and every cell forks from
            that shared image (see :mod:`repro.checkpoint.fork`). Forked
            results are a documented approximation of cold runs; their
            cache entries carry a distinct key component. Existing warm
            images are digest-verified before reuse; corrupt ones are
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
        heartbeat_dir: Optional[str] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(0, workers)
        self.heartbeat_dir = heartbeat_dir
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
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
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
        self.pool_deaths = 0  # pools torn down after a crash or hang
        self.degraded_inline = False  # too many pool deaths: running inline
        self.warm_images_built = 0  # fork groups whose image was produced
        self.checkpoints_quarantined = 0  # corrupt or stale images set aside
        self.failures: List[JobFailure] = []
        self.warm_locks_reclaimed = 0  # stale build locks displaced
        self._warm_lock = threading.Lock()
        self._warm_verified: set = set()  # warm-image paths already vetted
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

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._pool

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
        fork_checkpoint = None
        warm_mechanism = None
        if self.checkpoint_dir is not None:
            warm_mechanism, fork_checkpoint = self._ensure_warm_image(
                config, traces
            )
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
            fork_checkpoint=fork_checkpoint,
            warm_mechanism=warm_mechanism,
            sampled=self.sampled,
        )
        if fresh:
            self._launch(future)
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

        The cell warms once: a warm job builds the system, runs it to the
        warmup boundary, quiesces and rebases it
        (:func:`~repro.checkpoint.shard.warm_cell`), and snapshots it to
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
                cell_image=image,
            )
            futures.append(future)
            if created:
                fresh.append(future)
        if not fresh:
            return ShardedSweepFuture(futures)
        with self._lock:
            self._image_users[image] = self._image_users.get(image, 0) + 1
        warm = self._cell_warmup(hasher.hexdigest(), config, traces, image)
        if warm is not None:
            warm.dependents = fresh
            for future in fresh:
                future.prerequisite = warm
            self._launch(warm)
        if warm is not None and self.workers >= 2 and not self.degraded_inline:
            # Pool: the segments start the moment the image lands.
            warm._inner.add_done_callback(
                lambda inner: self._on_image_built(warm, inner)
            )
        else:
            for future in fresh:
                self._launch(future)
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
        if self.degraded_inline:
            extra += f", degraded to inline after {self.pool_deaths} pool deaths"
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

    # ---------------------------------------------------------- warm images

    def _ensure_warm_image(
        self, config: SystemConfig, traces: Tuple[Trace, ...]
    ) -> Tuple[str, str]:
        """The (mechanism, path) of ``config``'s fork-group warm image.

        The image is content-addressed by the *warm* config — mechanism
        normalized away, LLC resolution pinned (see
        :func:`~repro.checkpoint.warm.warm_config_for`) — so every cell of a
        (traces, shared-config) group resolves to the same file and the
        0.4 × run warmup cost is paid once per group. Pre-existing files are
        verified before reuse; a corrupt image, or one written by another
        model version, is quarantined to ``.ckpt.corrupt`` and rebuilt.

        Builds are serialized by a crash-reclaimable ``warm-<key>.ckpt.lock``
        (pid + heartbeat, see :class:`~repro.utils.locks.FileLock`): campaign
        workers racing on a group build it exactly once, and a builder
        SIGKILLed mid-build leaves a lock the next builder *reclaims* by pid
        death instead of deadlocking behind it forever. Reclaims are counted
        in ``warm_locks_reclaimed``. The simulator is deterministic, so even
        a (TTL-window) double build produces identical bytes.
        """
        from repro.checkpoint import (
            CheckpointError,
            make_warm_system,
            save_snapshot,
            verify_snapshot,
            warm_config_for,
        )

        warm_config = warm_config_for(config)
        key = _finish_key(self._key_prefix(warm_config, traces))
        path = os.path.join(self.checkpoint_dir, f"warm-{key}.ckpt")
        with self._warm_lock:
            if path in self._warm_verified:
                return warm_config.mechanism, path
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        build_lock = FileLock(
            f"{path}.lock", stale_seconds=WARM_LOCK_STALE_SECONDS
        )
        with build_lock:
            # Re-check under the cross-process lock: another builder (or
            # another thread of this runner) may have finished the image
            # while this one waited.
            if os.path.exists(path):
                try:
                    verify_snapshot(path)
                except CheckpointError:
                    self._quarantine_checkpoint(path)
            if not os.path.exists(path):
                # A builder SIGKILLed mid-write leaves `<image>.tmp.<pid>`
                # staging litter; under the build lock it is provably
                # abandoned, so sweep it before rebuilding.
                import glob as glob_module

                for stale in glob_module.glob(f"{path}.tmp.*"):
                    try:
                        os.unlink(stale)
                    except OSError:
                        pass
                system = make_warm_system(warm_config, list(traces))
                build_lock.beat()  # warming can outlive a TTL; prove life
                if self.injector is not None:
                    self.injector.on_warm_build(path)
                save_snapshot(system, path)
                with self._lock:
                    self.warm_images_built += 1
        with self._lock:
            self.warm_locks_reclaimed += build_lock.reclaimed
        with self._warm_lock:
            self._warm_verified.add(path)
        return warm_config.mechanism, path

    def _quarantine_checkpoint(self, path: str) -> None:
        """Set a corrupt or stale image aside (evidence kept) and count it."""
        with self._lock:
            self.checkpoints_quarantined += 1
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass

    # ---------------------------------------------------------- cell images

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

    def _cell_warmup(
        self,
        key: str,
        config: SystemConfig,
        traces: Tuple[Trace, ...],
        image: str,
    ) -> Optional[SweepFuture]:
        """The warm job that writes ``image``, or None if a verified image
        is already on disk (a corrupt or stale one is quarantined first)."""
        from repro.checkpoint import CheckpointError, verify_snapshot

        if os.path.exists(image):
            try:
                verify_snapshot(image)
                return None
            except CheckpointError:
                self._quarantine_checkpoint(image)
        with self._lock:
            job = SweepJob(
                self._next_id, key, config, traces, cell_image=image
            )
            self._next_id += 1
        return SweepFuture(job, runner=self)

    def _on_image_built(
        self, warm: SweepFuture, inner: concurrent.futures.Future
    ) -> None:
        """Pool callback: a cell warm-up finished, start its segments."""
        if inner.cancelled() or inner.exception() is not None:
            return  # the collecting thread retries the warm-up
        for future in warm.dependents:
            self._start_dependent(future)

    def _start_dependent(self, future: SweepFuture) -> None:
        """Submit a segment whose image has landed, unless someone else is.

        May run on the pool's result thread, so it never blocks, never
        runs a job inline and never respawns a pool; a segment it skips is
        submitted by the thread that collects it (see :meth:`_await`).
        """
        pool = self._pool
        if pool is None or self.degraded_inline:
            return
        if not future._resolve_lock.acquire(blocking=False):
            return
        try:
            if future._inner is None and not future.done():
                future._inner = pool.submit(
                    _execute_in_worker, future.job, future.attempts,
                    self.chaos, self.heartbeat_dir,
                )
        except (concurrent.futures.BrokenExecutor, RuntimeError):
            pass  # pool broke or shut down: the collector resubmits
        finally:
            future._resolve_lock.release()

    def _await_prerequisite(self, future: SweepFuture) -> None:
        """Block until the cell image this segment restores has landed; a
        failed warm-up fails the segment with the warm-up's failure."""
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
        if self.workers >= 2 and not self.degraded_inline:
            with self._lock:
                future._inner = self._submit_attempt(
                    future.job, future.attempts
                )
            return
        # Inline mode executes at submission (callers may rely on
        # jobs_executed being current); failures surface from result().
        try:
            self._await(future)
        except SweepJobError:
            pass

    def _submit_attempt(
        self, job: SweepJob, attempt: int
    ) -> concurrent.futures.Future:
        """One execution attempt: pool submission, or inline when degraded."""
        while self.workers >= 2 and not self.degraded_inline:
            try:
                return self._ensure_pool().submit(
                    _execute_in_worker, job, attempt, self.chaos,
                    self.heartbeat_dir,
                )
            except concurrent.futures.BrokenExecutor:
                # The pool broke under another job and nobody has collected
                # that job yet; tear it down and submit to a fresh one.
                self._pool_died(wedged=False)
        # Inline execution shares the future-based error path with the pool
        # so _await classifies both identically. Crash/hang chaos is never
        # applied inline — it would take down the submitting process.
        inline: concurrent.futures.Future = concurrent.futures.Future()
        try:
            inline.set_result(_execute(job))
        except Exception as exc:  # classified fatal by _await
            inline.set_exception(exc)
        return inline

    def _await(self, future: SweepFuture) -> SimulationResult:
        """Drive one job to completion or terminal failure (retry loop)."""
        with future._resolve_lock:
            if future._value is not None:
                return future._value
            if future._failure is not None:
                raise SweepJobError(future._failure)
            job = future.job
            while True:
                if future._inner is None:
                    if future.prerequisite is not None:
                        self._await_prerequisite(future)
                    future._inner = self._submit_attempt(job, future.attempts)
                pool_died = False
                try:
                    result = future._inner.result(timeout=self.retry.timeout)
                except concurrent.futures.TimeoutError as exc:
                    # The worker is wedged: the attempt cannot be cancelled,
                    # only the pool can be killed out from under it.
                    kind, error, pool_died = "hang", exc, True
                except concurrent.futures.CancelledError as exc:
                    # Collateral of another job's pool teardown.
                    kind, error = "crash", exc
                except concurrent.futures.BrokenExecutor as exc:
                    kind, error, pool_died = "crash", exc, True
                except Exception as exc:
                    # A deterministic simulation error: a retry would fail
                    # identically, so surface it after this one attempt.
                    self._fail(future, "fatal", exc)
                else:
                    return self._complete(future, result)
                future._inner = None
                if pool_died:
                    self._pool_died(wedged=(kind == "hang"))
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
                self.injector.on_cell_image(job.cell_image)
            for dependent in future.dependents:
                self._start_dependent(dependent)
            return result
        with self._lock:
            self.jobs_executed += 1
        self._store_cached(job.key, job.label, result)
        if self.injector is not None and self.cache_dir is not None:
            if self.injector.should_corrupt(job.key):
                self.injector.corrupt_file(self._cache_path(job.key))
        self._emit(job, time.perf_counter() - future.started, "miss")
        future._value = result
        return result

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
        future._failure = failure
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

    def _pool_died(self, wedged: bool) -> None:
        """Tear down a broken/wedged pool; degrade to inline past the limit."""
        with self._lock:
            pool, self._pool = self._pool, None
            if pool is None:
                return  # another job's recovery already handled this death
            self.pool_deaths += 1
            if self.pool_deaths >= self.retry.max_pool_deaths:
                self.degraded_inline = True
        if wedged:
            # shutdown() would join the wedged worker forever; kill first.
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.kill()
                except OSError:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

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
