"""Parallel, cached, fault-tolerant sweep engine.

Every table/figure of the paper decomposes into dozens of *independent*
simulations — (config, traces) pairs that share nothing at runtime. The
:class:`SweepRunner` exploits that: jobs are submitted up front, fanned out
over worker processes, and each completed
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
    ``workers >= 2`` runs up to that many jobs at once. Each job lives in
    one *slot* (a thread of a :class:`concurrent.futures.ThreadPoolExecutor`
    that queues the jobs), and each of its attempts is a process of its
    own, forked from this one: it inherits the job, so nothing is pickled
    on the way in, and sends back one ``(ok, result or exception)`` message
    on a pipe. ``workers in (0, 1)`` runs jobs inline at submission, which
    keeps single-process determinism tests and small scripts free of
    process overhead. Results, and the bytes of every warm image, are
    identical either way.

Fault tolerance
    Because every attempt has a process of its own, the way that process
    ends is the attempt's outcome, and no other job's:

    * **deaths** — an attempt whose process exits without reporting (a
      crash, a fatal signal, the OOM killer) is charged as a ``crash`` and
      retried with exponential backoff plus deterministic jitter;
    * **hangs** — an optional per-attempt wall-clock timeout
      (:attr:`RetryPolicy.timeout`), counted from the start of the
      attempt's process: the slot kills that process, and only that one,
      and charges the attempt as a ``hang``.

    Each job is bounded by :attr:`RetryPolicy.max_attempts` alone; a job
    that runs out fails with its process's exit code or signal named in
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
    on it: it starts once the build lands, and fails with the build's
    failure. Builds are jobs like any other, so they get the same retries,
    chaos and failure records.
"""

from __future__ import annotations

import concurrent.futures
import gc
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
from repro.utils.validation import check_non_negative

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
    """How the runner treats an attempt that did not come back clean.

    Attributes:
        max_attempts: total attempts per job (1 = never retry). An attempt
            is charged when its process exits without reporting
            (``crash``) or overruns ``timeout`` (``hang``). Deterministic
            simulation exceptions always surface after one attempt
            regardless.
        timeout: per-attempt wall-clock seconds, from the start of the
            attempt's process, before it is declared hung and killed (None
            = wait forever).
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
    (the attempt's process died, retries exhausted; ``error`` names its
    exit code or signal) or ``"hang"`` (timeouts, retries exhausted).
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

    The underlying exception (the simulation error, the last crashed
    attempt's ``RuntimeError``, or the final ``TimeoutError``) is chained
    as ``__cause__``.
    """

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(
            f"sweep job {failure.label!r} failed ({failure.kind}) after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )
        self.failure = failure


@dataclass(frozen=True)
class SweepJob:
    """Spec of one simulation (an attempt's process inherits it).

    ``telemetry``/``telemetry_path`` are observational riders: they are NOT
    part of :func:`job_key` (telemetry cannot change results), so a cache
    hit legitimately skips producing a telemetry artifact.

    ``image`` is a warm image on disk. A job with a ``shard`` restores it
    and runs that segment of a sharded cell; a job with a
    ``warm_mechanism`` restores it and forks the cell from its group's
    image. Each attempt restores its own private copy of the (read-only)
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
    """Run one job (module-level: an attempt's process looks it up at call
    time, so a wrapper installed before the fork runs there).

    An image build writes its image and returns the image header instead
    of a result. Image and sampled jobs import the checkpoint package
    lazily, so plain sweeps never pay for it (the runner imports it before
    forking such a job's attempts); the runner refuses them check and
    telemetry riders, so they never stream epochs or audit ledgers.

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


#: Every attempt's process is forked: it inherits its job and the
#: module-global ``_execute`` as they are in this process.
_FORK = multiprocessing.get_context("fork")


def _attempt_main(
    job: SweepJob,
    attempt: int,
    chaos: Optional[ChaosConfig],
    outcome: multiprocessing.connection.Connection,
) -> None:
    """Body of one attempt's process: apply chaos, simulate, report, exit.

    The inherited heap is frozen first: the garbage collector then never
    walks it, so it is not copied page by page into this process. SIGTERM
    and SIGINT go back to their defaults, so a handler this process
    inherited (a campaign's drain) cannot keep it alive. The chaos
    config rides along with the job; decisions are pure functions of (seed,
    kind, key, attempt). The process sends ``(ok, result or exception,
    traceback)`` once and leaves through ``os._exit``, so it never touches
    stdio state inherited from the parent's other threads.
    """
    gc.freeze()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    if chaos is not None:
        FaultInjector(chaos).apply_in_worker(job.key, attempt)
    try:
        message = (True, _execute(job), None)
    except Exception as exc:
        message = (False, exc, traceback_module.format_exc())
    try:
        outcome.send(message)
    except Exception as exc:  # the result or the exception does not pickle
        error = RuntimeError(f"the attempt's outcome does not pickle: {exc!r}")
        outcome.send((False, error, traceback_module.format_exc()))
    os._exit(0)


class _RemoteTraceback(Exception):
    """The traceback an exception had in its attempt's process."""


def _exit_text(code: int) -> str:
    """A process's exit code in words (negative codes are signals)."""
    if code >= 0:
        return f"exited with code {code}"
    try:
        return f"was killed by {signal.Signals(-code).name}"
    except ValueError:
        return f"was killed by signal {-code}"


class SweepFuture:
    """Handle to one submitted job; ``result()`` blocks until it is done.

    The job's slot (or, inline, its submitter) runs its attempts, retries,
    caching and accounting, and settles the future exactly once.
    """

    def __init__(
        self, job: SweepJob, value: Optional[SimulationResult] = None
    ) -> None:
        self.job = job
        self.attempts = 1
        self.started = time.perf_counter()
        self._outcome: concurrent.futures.Future = concurrent.futures.Future()
        if value is not None:
            self._outcome.set_result(value)
        #: The jobs waiting on this image build: launched when it lands,
        #: settled as it was when it fails or is cancelled.
        self.dependents: List["SweepFuture"] = []

    def done(self) -> bool:
        return self._outcome.done()

    def result(self, timeout: Optional[float] = None) -> SimulationResult:
        """The job's result.

        Raises:
            SweepJobError: the job failed terminally (deterministic
                simulation error, or retries exhausted); the original
                exception is chained as ``__cause__``.
            concurrent.futures.CancelledError: the runner was closed with
                ``cancel=True`` before the job finished.
        """
        return self._outcome.result(timeout)


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
        workers: how many jobs run at once, each attempt in a process of
            its own; ``None`` = ``os.cpu_count() - 1``; values below 2 run
            jobs inline in this process (deterministically identical
            results, no process overhead).
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
            nothing. Crashes and hangs apply in each attempt's process,
            image builds included; cache corruption and the
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
        if workers is not None:
            check_non_negative("workers", workers)
        self.workers = default_workers() if workers is None else workers
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
        #: The slots: queue the jobs, run at most ``workers`` at once.
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._lock = threading.RLock()
        #: Serializes forks and reaps; guards ``_live``.
        self._fork_lock = threading.Lock()
        self._live: Set[multiprocessing.process.BaseProcess] = set()
        self._cancelled = threading.Event()  # set by close(cancel=True)
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
        """Shut the slots down.

        Args:
            cancel: False waits until every submitted job has settled; True
                kills every live attempt, cancels every job not yet done
                (``result()`` raises ``CancelledError``) and returns without
                waiting. A cancelled runner starts no attempt, and no
                retry, again.
        """
        if cancel:
            self._cancelled.set()
            with self._fork_lock:
                for process in self._live:
                    process.kill()
        else:
            with self._lock:
                jobs = [*self._futures.values(), *self._image_builds.values()]
            concurrent.futures.wait(
                [future._outcome for future in jobs if future is not None]
            )
        with self._lock:
            pool, self._pool = self._pool, None
            tempdir, self._image_tempdir = self._image_tempdir, None
        if pool is not None:
            pool.shutdown(wait=not cancel, cancel_futures=cancel)
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
        out across the slots. Each segment is individually cached under its
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
                build = SweepFuture(job)
            self._image_builds[image] = build
        if build is not None:
            self._launch(build)
        return build

    def _launch_after(
        self, build: Optional[SweepFuture], futures: Sequence[SweepFuture]
    ) -> None:
        """Launch jobs that restore ``build``'s image: at once if it needs
        no build, once it settles otherwise (see :meth:`_after`)."""
        for future in futures:
            if build is None:
                self._launch(future)
                continue
            with self._lock:
                if not build.done():
                    build.dependents.append(future)
                    continue
            self._after(build, future)

    def _start_dependents(self, build: SweepFuture) -> None:
        """Settle the jobs waiting on ``build``, which has just settled.

        Runs in the build's slot (or on cancellation). The dependents are
        taken under the lock after the build settled, so a job
        :meth:`_launch_after` attached before then is among them, and one
        it saw later found the build settled and was handled there.
        """
        with self._lock:
            dependents, build.dependents = build.dependents, []
        for future in dependents:
            self._after(build, future)

    def _after(self, build: SweepFuture, future: SweepFuture) -> None:
        """Launch a job whose image build has landed; end it as its build
        ended if the build failed or was cancelled."""
        outcome = build._outcome
        if outcome.cancelled():
            self._cancel(future)
        elif outcome.exception() is None:
            self._launch(future)
        else:
            with self._lock:
                if self._futures.get(future.job.key) is future:
                    del self._futures[future.job.key]
            future._outcome.set_exception(outcome.exception())

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
                future = SweepFuture(job)
            self._futures[key] = future
            return future, cached is None

    def _launch(self, future: SweepFuture) -> None:
        """Start a registered job: in a slot, or inline."""
        job = future.job
        if self.workers < 2:
            # Inline mode executes at submission (callers may rely on
            # jobs_executed being current); failures surface from result().
            self._run(future)
            return
        if job.image is not None or job.sampled is not None:
            # What _execute imports lazily is imported here, before any
            # fork: a child must never find a module half-imported by
            # another thread of this process.
            import repro.checkpoint.shard  # noqa: F401
        with self._lock:
            if self._cancelled.is_set():
                slot = None
            else:
                if self._pool is None:
                    self._pool = concurrent.futures.ThreadPoolExecutor(
                        self.workers, thread_name_prefix="sweep-slot"
                    )
                slot = self._pool.submit(self._run, future)
        if slot is None:
            self._cancel(future)
        else:
            # A queued job cancelled by close() never runs: settle it here.
            slot.add_done_callback(
                lambda slot: slot.cancelled() and self._cancel(future)
            )

    def _cancel(self, future: SweepFuture) -> None:
        """Settle a job the runner was closed under, and its dependents."""
        future._outcome.cancel()
        self._start_dependents(future)

    def _run(self, future: SweepFuture) -> None:
        """A job's whole life: its attempts and the backoff between them,
        then its completion or failure, then its dependents."""
        job = future.job
        try:
            while True:
                if job.builds_image and self.injector is not None:
                    self.injector.on_warm_build(job.image)
                kind, value = self._attempt(future)
                if kind is None:
                    self._complete(future, value)
                    break
                # A deterministic simulation error would only fail the same
                # way again: it surfaces after this one attempt.
                exhausted = future.attempts >= self.retry.max_attempts
                if kind == "fatal" or exhausted:
                    self._fail(future, kind, value)
                    break
                delay = self.retry.delay(job.key, future.attempts + 1)
                if self._cancelled.wait(delay):
                    raise concurrent.futures.CancelledError()
                future.attempts += 1
                with self._lock:
                    self.jobs_retried += 1
                self._emit(
                    job,
                    time.perf_counter() - future.started,
                    f"retry {future.attempts}/{self.retry.max_attempts} ({kind})",
                )
        except concurrent.futures.CancelledError:
            future._outcome.cancel()
        except Exception as exc:  # e.g. a retry-consistency violation
            if not future.done():
                future._outcome.set_exception(exc)
        self._start_dependents(future)

    def _attempt(self, future: SweepFuture) -> Tuple[Optional[str], object]:
        """Run the job's current attempt: ``(None, result)``, or ``(kind,
        error)`` with kind ``"fatal"``, ``"crash"`` or ``"hang"``.

        Inline, the attempt runs in this process, and crash and hang chaos
        are never applied (they would take this process down). Otherwise
        it is a forked process of its own (:func:`_attempt_main`), so how
        that process ends is this attempt's outcome and no other's: no
        report means it died (``crash``), an overrun means the slot killed
        it (``hang``). Raises ``CancelledError`` once the runner is closed
        with ``cancel``.
        """
        job, attempt = future.job, future.attempts
        if self.workers < 2:
            try:
                return None, _execute(job)
            except Exception as exc:
                return "fatal", exc
        reader, writer = _FORK.Pipe(duplex=False)
        process = _FORK.Process(
            target=_attempt_main, args=(job, attempt, self.chaos, writer)
        )
        with self._fork_lock:
            if self._cancelled.is_set():
                reader.close()
                writer.close()
                raise concurrent.futures.CancelledError()
            # One fork at a time, each closing its write end at once, so no
            # child inherits another attempt's write end (its reader would
            # then never see that attempt's process die).
            process.start()
            writer.close()
            self._live.add(process)
        pid, message = process.pid, None
        with reader:
            hung = not reader.poll(self.retry.timeout)
            if hung:
                with self._fork_lock:
                    process.kill()
            else:
                try:
                    message = reader.recv()
                except EOFError:
                    pass  # the process died before reporting
        code = self._reap(process)
        if message is None and self._cancelled.is_set():
            raise concurrent.futures.CancelledError()
        if hung:
            return "hang", TimeoutError(
                f"attempt {attempt} (pid {pid}) ran past the "
                f"{self.retry.timeout:g}s timeout and was killed"
            )
        if message is None:
            return "crash", RuntimeError(
                f"attempt {attempt} (pid {pid}) {_exit_text(code)}"
            )
        ok, value, trace = message
        if ok:
            return None, value
        value.__cause__ = _RemoteTraceback(trace)
        return "fatal", value

    def _reap(self, process: multiprocessing.process.BaseProcess) -> int:
        """Wait for an attempt's process to exit; returns its exit code."""
        multiprocessing.connection.wait([process.sentinel])
        with self._fork_lock:
            # Process.start() reaps finished children too: not concurrently.
            process.join()
            self._live.discard(process)
        code = process.exitcode
        process.close()
        return code

    def _complete(
        self, future: SweepFuture, result: SimulationResult
    ) -> None:
        job = future.job
        if job.builds_image:
            with self._lock:
                self.warm_images_built += 1
            self._emit(job, time.perf_counter() - future.started, "warm")
            future._outcome.set_result(result)
            if self.injector is not None:
                self.injector.on_cell_image(job.image)
            return
        with self._lock:
            self.jobs_executed += 1
        self._store_cached(job.key, job.label, result)
        if self.injector is not None and self.cache_dir is not None:
            if self.injector.should_corrupt(job.key):
                self.injector.corrupt_file(self._cache_path(job.key))
        self._emit(job, time.perf_counter() - future.started, "miss")
        future._outcome.set_result(result)

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
        error = SweepJobError(failure)
        error.__cause__ = exc
        future._outcome.set_exception(error)

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
