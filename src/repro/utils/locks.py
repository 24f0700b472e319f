"""Crash-safe advisory file locks: pid + heartbeat, stale-owner reclaim.

A plain ``O_CREAT | O_EXCL`` lock file is crash-*unsafe*: kill the owner
with SIGKILL and the file survives forever, deadlocking every later process
that honours it. The locks here record who owns them (pid + hostname) and
prove liveness through the lock file's mtime (the owner touches it with
:meth:`FileLock.beat`), so a waiter can distinguish "busy" from "dead":

* **dead pid** — the owner recorded a pid on this host and that pid no
  longer exists: reclaim immediately (the common case after a SIGKILL or
  OOM kill);
* **stale heartbeat** — the lock's mtime is older than ``stale_seconds``:
  reclaim even when the pid cannot be probed (another host, pid reuse);
* **unreadable lock body** — the owner died *inside* the ~100-byte body
  write: reclaim (no live owner leaves a torn lock behind for long).

Reclaim is race-free without any extra coordination: the waiter atomically
renames the stale lock aside before deleting it, and ``os.replace`` has
exactly one winner — the losers observe the path gone and go back to normal
acquisition. A reclaimed lock's body is preserved as evidence under
``<path>.stale.<reclaimer-pid>`` until the unlink.

Used by the campaign orchestrator's directory lock (``campaign.lock``),
which its owner beats once per scheduling round; see
``docs/architecture.md`` §13.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Optional

#: Bump when the lock body schema changes.
LOCK_FORMAT = 1

#: Default heartbeat-staleness horizon, seconds. Deliberately generous: the
#: fast path for same-host crashes is pid death, which is detected on the
#: very next acquisition attempt; the TTL only backstops foreign hosts and
#: pid reuse, where a false reclaim is the greater evil.
DEFAULT_STALE_SECONDS = 600.0


class LockError(RuntimeError):
    """A lock could not be acquired or released."""


class LockHeldError(LockError):
    """Acquisition timed out while a live owner held the lock."""

    def __init__(self, path: str, owner: Optional["LockOwner"]) -> None:
        described = (
            f"pid {owner.pid} on {owner.host}" if owner is not None
            else "an unreadable owner"
        )
        super().__init__(f"{path}: lock held by {described}")
        self.owner = owner


@dataclass(frozen=True)
class LockOwner:
    """Who holds (or held) a lock, as recorded in its body."""

    pid: int
    host: str
    created: float


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on *this* host.

    ``EPERM`` counts as alive (the process exists, we just may not signal
    it); only ``ESRCH`` proves death.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class FileLock:
    """An exclusive, crash-reclaimable lock on ``path``.

    Usage::

        with FileLock(os.path.join(directory, "campaign.lock")) as lock:
            for batch in batches:
                lock.beat()  # refresh the heartbeat once per batch
                ...

    The context manager acquires with the configured ``timeout`` and always
    releases; ``beat()`` refreshes the heartbeat mtime so a slow-but-alive
    owner is never mistaken for a dead one by TTL-only observers.
    """

    def __init__(
        self,
        path: str,
        stale_seconds: float = DEFAULT_STALE_SECONDS,
        timeout: Optional[float] = None,
        poll_seconds: float = 0.05,
    ) -> None:
        if stale_seconds <= 0:
            raise ValueError(f"stale_seconds must be positive, got {stale_seconds}")
        self.path = path
        self.stale_seconds = stale_seconds
        self.timeout = timeout
        self.poll_seconds = poll_seconds
        self.reclaimed = 0  # stale owners displaced by this instance
        self._held = False

    # ------------------------------------------------------------- acquire

    def acquire(self, timeout: Optional[float] = None) -> "FileLock":
        """Take the lock, reclaiming a stale owner if one is found.

        Raises:
            LockHeldError: ``timeout`` (or the constructor's) elapsed while
                a live owner held the lock. ``None`` waits forever.
        """
        if self._held:
            return self
        timeout = self.timeout if timeout is None else timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._reclaim_if_stale():
                    continue
                if deadline is not None and time.monotonic() >= deadline:
                    raise LockHeldError(self.path, self.read_owner())
                time.sleep(self.poll_seconds)
                continue
            body = json.dumps(
                {
                    "format": LOCK_FORMAT,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "created": time.time(),
                },
                sort_keys=True,
            )
            try:
                os.write(fd, body.encode("utf-8"))
            finally:
                os.close(fd)
            self._held = True
            return self

    def read_owner(self) -> Optional[LockOwner]:
        """The recorded owner of the lock file, or None if absent/torn."""
        try:
            with open(self.path) as handle:
                body = json.load(handle)
            return LockOwner(
                pid=int(body["pid"]),
                host=str(body["host"]),
                created=float(body["created"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _reclaim_if_stale(self) -> bool:
        """Displace the current lock if its owner is provably gone.

        Returns True when the path was cleared (by us or by the owner's own
        release racing with the check) and acquisition should be retried
        immediately.
        """
        age = self.beat_age()
        if age is None:
            return True  # released (or reclaimed) under us; just retry
        owner = self.read_owner()
        if owner is not None:
            same_host = owner.host == socket.gethostname()
            if same_host and pid_alive(owner.pid):
                return False  # live owner on this host: genuinely busy
            if not same_host or pid_alive(owner.pid):
                # Foreign host, or pid probing unavailable: trust only the
                # heartbeat TTL.
                if age <= self.stale_seconds:
                    return False
        else:
            # Torn body: give a just-starting owner one heartbeat interval
            # to finish writing before declaring the lock dead. The body is
            # ~100 bytes, so a live writer finishes in microseconds; a torn
            # body older than the poll interval means a crashed writer.
            if age <= max(self.poll_seconds, 1.0):
                return False
        # Atomically move the stale lock aside: exactly one waiter wins the
        # rename; everyone else sees the path vanish and retries normally.
        aside = f"{self.path}.stale.{os.getpid()}"
        try:
            os.replace(self.path, aside)
        except OSError:
            return True  # another waiter won the reclaim; retry
        try:
            os.unlink(aside)
        except OSError:
            pass
        self.reclaimed += 1
        return True

    def beat_age(self) -> Optional[float]:
        """Seconds since the owner last beat (the lock file's mtime); None
        when there is no lock file."""
        try:
            return max(0.0, time.time() - os.stat(self.path).st_mtime)
        except OSError:
            return None

    # ------------------------------------------------------------ lifetime

    def beat(self) -> None:
        """Refresh the heartbeat (the lock file's mtime). Owner only."""
        if not self._held:
            raise LockError(f"{self.path}: beat() without holding the lock")
        try:
            os.utime(self.path, None)
        except OSError:
            pass  # lock stolen by an (over-aggressive) reclaimer; release will cope

    def release(self) -> None:
        """Drop the lock; idempotent."""
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass  # already reclaimed from us — nothing left to release

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *_exc) -> None:
        self.release()
