"""The one atomic-write helper: temp file, fsync, rename.

Every durable artifact in this repo — sweep-cache entries, failure
manifests, ``.ckpt`` snapshot containers, telemetry streams published from
their ``.partial`` staging names, campaign manifests and reports — goes
through this module. The pattern is always the same:

1. write the full payload to a pid-suffixed temp file *next to* the target
   (same filesystem, so the rename cannot degrade to a copy);
2. ``fsync`` the temp file, so the rename can never be reordered ahead of
   the data reaching disk (the classic torn-write window: metadata says the
   file exists, blocks say garbage);
3. ``os.replace`` onto the final name — atomic on POSIX, so readers observe
   either the old complete file or the new complete file, never a prefix;
4. best-effort ``fsync`` of the containing directory, so the rename itself
   survives a power cut.

A reader that finds a ``*.tmp.<pid>`` file is looking at a crashed writer's
litter; it is never the real artifact and is safe to ignore or delete.

``durable=False`` skips both fsyncs for callers that only need atomicity
against concurrent readers, not against power loss: files that are rewritten
often and are worthless after a reboot anyway.
"""

from __future__ import annotations

import json
import os
from typing import Optional


def _tmp_name(path: str) -> str:
    """The staging name for ``path`` (pid-suffixed: no cross-process races)."""
    return f"{path}.tmp.{os.getpid()}"


def fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory (persists renames within it).

    Silently a no-op where directories cannot be opened for reading
    (some filesystems and platforms); the rename is still atomic, only its
    power-cut durability is weakened — the same guarantee the repo had
    before this helper existed.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes, durable: bool = True) -> None:
    """Atomically replace ``path`` with ``data`` (see module docstring)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = _tmp_name(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # Leave no staging litter behind a failed or interrupted write; the
        # target is untouched either way.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(directory)


def atomic_write_text(path: str, text: str, durable: bool = True) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    atomic_write_bytes(path, text.encode("utf-8"), durable=durable)


def atomic_write_json(
    path: str,
    payload,
    indent: Optional[int] = None,
    sort_keys: bool = False,
    durable: bool = True,
) -> None:
    """Atomically replace ``path`` with ``payload`` rendered as JSON.

    ``sort_keys=True`` makes the bytes a pure function of the payload —
    required for every artifact the chaos harnesses compare byte-for-byte.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    atomic_write_text(path, text + "\n" if indent is not None else text,
                      durable=durable)


def publish_file(staging_path: str, final_path: str, durable: bool = True) -> None:
    """Atomically promote a fully written staging file to its final name.

    For artifacts that are *streamed* while being produced (telemetry
    ``.partial`` epoch streams) rather than written in one shot: the caller
    streams to ``staging_path``, and on success this fsyncs the staged bytes
    and renames them into place. A crash mid-stream leaves only the staging
    file — the final name either does not exist or is complete.
    """
    if durable:
        fd = os.open(staging_path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    os.replace(staging_path, final_path)
    if durable:
        fsync_directory(os.path.dirname(final_path))
