"""Deterministic fault injection for sweeps and campaigns.

Large sweeps die in three characteristic ways: a worker process crashes
(OOM killer, segfaulting native code), a worker wedges forever (NFS stall,
scheduler pathologies), or an on-disk cache entry is corrupted (torn write,
bad disk). Long campaigns add a fourth: the orchestrator itself is killed
mid-journal-append, mid-checkpoint-build or between two durable steps. One
:class:`FaultInjector` reproduces all of them **on purpose and
deterministically**, from one :class:`ChaosConfig`, so tests can prove the
recovery machinery works: a sweep under fault rate *p*, or a campaign
killed and resumed, must produce byte-identical results to a fault-free run.

Determinism
    Worker and cache faults are sampled: each decision is a pure function
    of ``(seed, fault kind, job key, attempt)`` hashed through SHA-256 —
    independent of scheduling, worker identity and wall-clock. Orchestrator
    faults are scheduled: they fire at an exact journal sequence number, as
    the Nth image build starts or after the Nth image is written. The same
    spec against the same job set injects the same faults, every run, on
    every machine.

Enablement
    * programmatically: pass a :class:`ChaosConfig` to ``SweepRunner`` or
      ``Campaign.run``;
    * end to end: set the :data:`CHAOS_ENV` environment variable (or the
      ``--chaos`` test hook on ``python -m repro experiment``) to a spec
      like ``seed=7,crash=0.3,hang=0.3,corrupt=0.3,hang_seconds=20`` or
      ``kill=6,mode=torn``; both kinds of key mix in one spec.

Crash and hang injection happen *inside pool worker processes* (the config
travels with the job, so workers need no environment plumbing); they are
never applied to inline execution, where a crash would take down the
submitting process itself. Cache corruption is applied by the parent right
after an entry is written, modelling a torn write discovered on a later
resume. Orchestrator faults signal the *own* process, so no cleanup
handler runs, exactly like the OOM killer.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, fields
from typing import Optional

#: Environment variable holding a chaos spec (empty/"off"/"0" disables).
#: Only the CLI reads it; library callers pass a :class:`ChaosConfig`.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit code used for injected worker crashes (visible in pool diagnostics).
CRASH_EXIT_CODE = 13


@dataclass(frozen=True)
class ChaosConfig:
    """Picklable fault schedule (travels to pool workers with jobs).

    Attributes:
        seed: decision-hash seed; same seed = same injected faults.
        crash: probability a worker attempt dies via ``os._exit``.
        hang: probability a worker attempt sleeps ``hang_seconds`` first.
        corrupt: probability a freshly written cache entry is garbled.
        hang_seconds: artificial hang length (must exceed the runner's
            per-job timeout to actually trigger hang recovery).
        crash_attempts: only attempts ``<= crash_attempts`` are eligible to
            crash (None = every attempt); lets tests force "first attempt
            crashes, retry succeeds" deterministically.
        hang_attempts: same, for hangs.
        kill: journal sequence number at which to act (None = never).
        mode: what happens at ``kill``:
            * ``"kill"`` — SIGKILL immediately *after* the record is
              durable (crash between a decision and the action it covers);
            * ``"torn"`` — write only the first half of the record, fsync
              the fragment, then SIGKILL: a crash *mid-append*, leaving the
              torn tail recovery must quarantine;
            * ``"term"`` — SIGTERM the orchestrator after the append; the
              signal-safe drain path runs instead of a hard death.
        warm_kill: 1-based ordinal of the image-build attempt to die in,
            counting fork-group and sharded-cell images alike (SIGKILL in
            the runner's process as the attempt starts, with partial
            temp-file litter left next to the image).
        image_kill: 1-based ordinal of the image, of either kind, to die
            after (SIGKILL once the image is durable, before the jobs that
            restore it are collected).
    """

    seed: int = 0xC4A05
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    hang_seconds: float = 30.0
    crash_attempts: Optional[int] = None
    hang_attempts: Optional[int] = None
    kill: Optional[int] = None
    mode: str = "kill"
    warm_kill: Optional[int] = None
    image_kill: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {value}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")
        for name, low in (("crash_attempts", 1), ("hang_attempts", 1),
                          ("kill", 0), ("warm_kill", 1), ("image_kill", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.mode not in ("kill", "torn", "term"):
            raise ValueError(f"chaos mode must be kill/torn/term, got {self.mode!r}")
        if self.mode != "kill" and self.kill is None:
            raise ValueError(f"mode={self.mode} needs kill=<journal seq>")


#: Spec keys parsed as integers; the rest are floats except ``mode``.
_INT_KEYS = ("seed", "crash_attempts", "hang_attempts", "kill", "warm_kill",
             "image_kill")


def parse_chaos_spec(spec: Optional[str]) -> Optional[ChaosConfig]:
    """Parse ``key=value,key=value`` into a :class:`ChaosConfig`.

    Returns None for empty/disabled specs (``""``, ``"off"``, ``"0"``).
    A key given twice is refused rather than silently overwritten.

    Example:
        >>> parse_chaos_spec("crash=0.5,seed=7").crash
        0.5
        >>> parse_chaos_spec("kill=7,mode=torn").mode
        'torn'
    """
    if spec is None:
        return None
    spec = spec.strip()
    if not spec or spec.lower() in ("off", "none", "0", "false"):
        return None
    known = sorted(f.name for f in fields(ChaosConfig))
    kwargs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or name not in known:
            raise ValueError(f"bad chaos spec item {item!r}; known keys: {known}")
        if name in kwargs:
            raise ValueError(f"chaos spec key {name!r} given twice in {spec!r}")
        if name == "mode":
            kwargs[name] = value.strip()
        elif name in _INT_KEYS:
            kwargs[name] = int(value, 0)
        else:
            kwargs[name] = float(value)
    return ChaosConfig(**kwargs)


class FaultInjector:
    """Applies a :class:`ChaosConfig`'s faults at every site.

    Sites: worker crash and hang (:meth:`apply_in_worker`), cache
    corruption (:meth:`should_corrupt`/:meth:`corrupt_file`), journal
    appends (:meth:`before_journal_append`/:meth:`after_journal_append`),
    image builds (:meth:`on_warm_build`) and written images
    (:meth:`on_cell_image`), fork-group and sharded-cell images alike. One
    injector is shared by a campaign's journal and its runner, so the build
    and image ordinals count across the whole run.

    Example:
        >>> injector = FaultInjector(ChaosConfig(crash=1.0))
        >>> injector.should_crash("somejobkey", attempt=1)
        True
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        self.warm_builds_seen = 0
        self.cell_images_seen = 0

    # ------------------------------------------------------------ decisions

    def _roll(self, kind: str, key: str, attempt: int) -> float:
        """Uniform [0, 1) from (seed, kind, key, attempt) — schedule-free."""
        digest = hashlib.sha256(
            f"{self.config.seed}:{kind}:{key}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def should_crash(self, key: str, attempt: int) -> bool:
        limit = self.config.crash_attempts
        if limit is not None and attempt > limit:
            return False
        return self._roll("crash", key, attempt) < self.config.crash

    def should_hang(self, key: str, attempt: int) -> bool:
        limit = self.config.hang_attempts
        if limit is not None and attempt > limit:
            return False
        return self._roll("hang", key, attempt) < self.config.hang

    def should_corrupt(self, key: str) -> bool:
        return self._roll("corrupt", key, 0) < self.config.corrupt

    # ---------------------------------------------------------- application

    def apply_in_worker(self, key: str, attempt: int) -> None:
        """Run one attempt's worth of chaos inside a pool worker.

        Crash wins over hang when both roll true. ``os._exit`` (not
        ``sys.exit``) so the process dies without unwinding — exactly what a
        segfault or OOM kill looks like to the parent's process pool.
        """
        if self.should_crash(key, attempt):
            os._exit(CRASH_EXIT_CODE)
        if self.should_hang(key, attempt):
            time.sleep(self.config.hang_seconds)

    def corrupt_file(self, path: str) -> bool:
        """Garble a cache entry in place (torn-write model).

        Keeps the first half of the file and appends junk, producing the
        unparseable-JSON shape a killed writer leaves behind. Returns False
        if the file does not exist.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(data[: len(data) // 2])
                handle.write(b"\x00CHAOS-TORN-WRITE")
        except OSError:
            return False
        return True

    # ------------------------------------------------------------ journal

    def before_journal_append(self, handle, seq: int, data: bytes) -> None:
        """Possibly die *mid-append*, leaving a durable half record."""
        if self.config.mode != "torn" or seq != self.config.kill:
            return
        fragment = data[: max(1, len(data) // 2)]
        handle.write(fragment)
        handle.flush()
        os.fsync(handle.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    def after_journal_append(self, seq: int) -> None:
        """Possibly die (or request drain) right after a durable append."""
        if seq != self.config.kill:
            return
        if self.config.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.config.mode == "term":
            os.kill(os.getpid(), signal.SIGTERM)

    # ------------------------------------------------------- warm builds

    def on_warm_build(self, image_path: str) -> None:
        """Possibly die as an image-build attempt starts.

        Leaves the litter a real torn builder would: a partial temp file
        next to the image. Nothing else guards the build, and the litter is
        inert (see :mod:`repro.utils.atomic`): the resumed campaign builds
        the image again through its own staging file and converges.
        """
        self.warm_builds_seen += 1
        if self.warm_builds_seen != self.config.warm_kill:
            return
        with open(f"{image_path}.tmp.{os.getpid()}", "wb") as handle:
            handle.write(b"DBICKPT\x00partial-chaos-litter")
            handle.flush()
            os.fsync(handle.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    def on_cell_image(self, image_path: str) -> None:
        """Possibly die right after an image is written.

        The image is durable and none of the jobs restoring it has been
        collected, so the resumed campaign must verify and reuse it (or
        re-simulate whatever is missing) and converge to the same bytes.
        """
        self.cell_images_seen += 1
        if self.cell_images_seen == self.config.image_kill:
            os.kill(os.getpid(), signal.SIGKILL)
