"""Snapshot protocol: serialize a live :class:`~repro.sim.system.System`.

A snapshot captures the *entire* simulation graph — event queue (with every
pending event), cores, L1/L2/LLC caches and replacement state, MSHRs, tag
port, mechanism (including DBI / predictor state), DRAM banks, controller and
write buffer — by pickling the ``System`` object. Every callback in the event
graph is a bound method or a :func:`functools.partial` of one (closures were
eliminated for exactly this reason), so the graph round-trips losslessly: a
restored system continues byte-identically to the uninterrupted run.

Simulator objects are written through :class:`_SnapshotPickler`, whose
``reducer_override`` hands pickle a module-level state setter
(:func:`_set_state`) instead of letting its default BUILD step fill each
instance ``__dict__``. BUILD materializes that dict, which takes every
restored object off CPython's inline-attribute fast path: a restored System
used to run ~1.25x slower than a freshly built one. The setter restores one
``object.__setattr__`` per attribute, so restored objects keep inline
storage and run at fresh speed.

Format 3 took the tag stores out of the setter: a ``Cache`` converted its
``CacheBlock`` objects to four flat per-field lists for the image and
rebuilt them on restore. Format 5 has nothing left to convert, because a
:class:`~repro.cache.cache.Cache` now holds its tag store as those flat
per-way lists (``_addr``, ``_dirty``, ``_owner``). They pickle and load at C
speed through the ordinary setter, like any other attribute: a quick 2-core
system sends about 190 objects through it, against 4,861 when every block
was an object of its own (format 2).

Format 4 changed no result, only what the queue holds: a withdrawn wake is
removed from its bucket (``EventQueue.unschedule``) instead of left there
cancelled, so ``Event`` lost its ``cancelled`` flag and the memory
controller its ``_wake_event``/``_spare_wake`` attributes. An image of any
earlier format would restore objects the simulator no longer has, so it is
refused and rebuilt like any other.

Images are never migrated. The header records the container format and the
:data:`~repro.sim.system.MODEL_VERSION` that wrote it, and a reader refuses
any other format or version with a :class:`CheckpointError` naming both, so
an image written before a model change (renamed attributes, re-pinned
results) is rebuilt instead of restored.

Two attachments are handled specially because they hold unpicklable state:

* the per-event hook (``queue.profiler``), whose only user is the
  benchmark's tracer (``perfbench/tracer.py``), times wall-clock, which is
  meaningless across a restore; it is detached for the snapshot and *not*
  restored.
* the telemetry sampler holds a file handle and probe lambdas; its plain
  counters (epoch cursor, previous-snapshot dict, emitted records) are
  captured separately and a fresh sampler is rebuilt around them on restore,
  so epoch numbering and deltas continue exactly where they left off. The
  restored sampler never reopens the original JSONL path (which would
  truncate it); pass ``jsonl_path`` to :func:`restore_system` to stream
  post-restore epochs somewhere new.

On-disk container (``.ckpt``)::

    DBICKPT\\0 | u32 header length | header JSON | zlib(pickle payload)

The payload is compressed at zlib level 1 (:data:`COMPRESSION_LEVEL`).
On the 18 warmed images of perfbench's ``campaign-slice``, level 6 made the
payloads 8% smaller (0.91 MB against 0.98 MB) and took 3.7x as long to
compress them (0.18 s against 0.05 s); an image is written once and read
only a few times.

The header records the payload's SHA-256; :func:`load_snapshot` refuses any
container whose digest, magic, format or model version does not check out
by raising :class:`CheckpointError` (a ``ValueError``, so sweep-cache-style
quarantine handling applies). Unpickling is restricted to this package's
own modules plus a small stdlib allowlist — a snapshot cannot smuggle in
arbitrary globals.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import struct
import zlib
from collections import deque
from typing import Dict, Optional

from repro.sim.system import MODEL_VERSION
from repro.utils.atomic import atomic_write_bytes

#: Bump when the container or payload layout changes; readers accept only
#: this format. Format 2 restored simulator objects through
#: :func:`_set_state`; format 3 stored each cache's blocks as flat per-field
#: lists; format 4 holds no cancellable queue entries: the controller's wake
#: is its bound ``_wake``, tracked by ``_wake_at``, and ``Event`` is
#: audit-only; format 5 has no ``CacheBlock``: a cache's tag store is its
#: own per-way lists (``_addr``, ``_dirty``, ``_owner``), pickled as they are;
#: format 6 holds each component's stats as one slot record
#: (:class:`repro.utils.stats.StatRecord`), not ``Counter`` objects.
SNAPSHOT_FORMAT = 6

#: zlib level of the payload (see the module docstring).
COMPRESSION_LEVEL = 1

MAGIC = b"DBICKPT\x00"

#: Non-``repro`` modules a snapshot payload may reference. Bound methods
#: pickle via ``builtins.getattr``; partials via ``functools``; the system
#: graph uses deques, Fractions and enums internally.
_ALLOWED_MODULES = frozenset(
    {
        "builtins",
        "collections",
        "_collections",
        "functools",
        "_functools",
        "fractions",
        "copyreg",
        "enum",
    }
)


class CheckpointError(ValueError):
    """A snapshot could not be taken, parsed or verified."""


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves simulator and allowlisted stdlib names."""

    def find_class(self, module: str, name: str):
        if module == "repro" or module.startswith("repro."):
            return super().find_class(module, name)
        if module in _ALLOWED_MODULES:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"snapshot references forbidden global {module}.{name}"
        )


def _set_state(obj, state) -> None:
    """Protocol-5 state setter: one ``object.__setattr__`` per attribute.

    ``state`` is what ``object.__reduce_ex__`` produced: the instance dict,
    or a ``(dict or None, slots dict)`` pair for ``__slots__`` classes.
    ``object.__setattr__`` also gets past frozen dataclasses' guards.
    """
    if isinstance(state, tuple):
        state, slots = state
        for name, value in slots.items():
            object.__setattr__(obj, name, value)
    if state:
        for name, value in state.items():
            object.__setattr__(obj, name, value)


class _SnapshotPickler(pickle.Pickler):
    """Pickler that restores ``repro`` instances through :func:`_set_state`.

    Only classes that use the default object reduction qualify; enum
    members, and anything with its own ``__reduce__``/``__reduce_ex__`` or
    ``__setstate__``, pickle exactly as before.
    """

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._eligible: Dict[type, bool] = {}

    def reducer_override(self, obj):
        cls = type(obj)
        eligible = self._eligible.get(cls)
        if eligible is None:
            module = getattr(cls, "__module__", "") or ""
            eligible = self._eligible[cls] = (
                (module == "repro" or module.startswith("repro."))
                and cls.__reduce_ex__ is object.__reduce_ex__
                and cls.__reduce__ is object.__reduce__
                and getattr(cls, "__getstate__", None)
                is getattr(object, "__getstate__", None)
                and not hasattr(cls, "__setstate__")
            )
        if not eligible:
            return NotImplemented
        # Pickle ignores the setter when there is no state to restore.
        return (*obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL), _set_state)


def _dumps(envelope: Dict) -> bytes:
    buffer = io.BytesIO()
    _SnapshotPickler(buffer).dump(envelope)
    return buffer.getvalue()


# --------------------------------------------------------------- telemetry


def _capture_telemetry(sampler) -> Dict:
    """The sampler's plain state (everything but handles and probe lambdas)."""
    return {
        "config": sampler.config,
        "next_cycle": sampler.next_cycle,
        "last_cycle": sampler._last_cycle,
        "prev": dict(sampler._prev),
        "prev_instructions": sampler._prev_instructions,
        "epochs_emitted": sampler.epochs_emitted,
        "finalized": sampler._finalized,
        "records": list(sampler.records),
    }


def _rebuild_telemetry(system, state: Dict, jsonl_path: Optional[str]):
    """A fresh sampler continuing exactly where the captured one stopped."""
    import dataclasses

    from repro.telemetry.sampler import TelemetrySampler

    config = dataclasses.replace(state["config"], jsonl_path=jsonl_path)
    sampler = TelemetrySampler(
        config,
        groups=system._all_stat_groups(),
        counters=system._telemetry_counters(),
        gauges=system._telemetry_gauges(),
    )
    sampler.next_cycle = state["next_cycle"]
    sampler._last_cycle = state["last_cycle"]
    sampler._prev = dict(state["prev"])
    sampler._prev_instructions = state["prev_instructions"]
    sampler.epochs_emitted = state["epochs_emitted"]
    sampler._finalized = state["finalized"]
    sampler.records = deque(state["records"], maxlen=config.ring_size)
    return sampler


# ---------------------------------------------------------------- snapshot


def snapshot_system(system) -> bytes:
    """Serialize a live system into a self-verifying ``.ckpt`` container.

    The system is left exactly as it was (observational hooks are detached
    only for the duration of the pickle), so a run can be snapshotted
    mid-flight and continue.
    """
    profiler = system.queue.profiler
    sampler = system.telemetry
    telemetry_state = None
    system.queue.profiler = None
    if sampler is not None:
        telemetry_state = _capture_telemetry(sampler)
        system.telemetry = None
        system.queue.telemetry = None
    try:
        payload = _dumps(
            {
                "format": SNAPSHOT_FORMAT,
                "system": system,
                "telemetry": telemetry_state,
            }
        )
    except Exception as exc:  # unpicklable attachment, recursion, ...
        raise CheckpointError(f"snapshot failed: {exc}") from exc
    finally:
        system.queue.profiler = profiler
        if sampler is not None:
            system.telemetry = sampler
            system.queue.telemetry = sampler

    compressed = zlib.compress(payload, level=COMPRESSION_LEVEL)
    header = {
        "format": SNAPSHOT_FORMAT,
        "model_version": MODEL_VERSION,
        "payload_sha256": hashlib.sha256(compressed).hexdigest(),
        "payload_bytes": len(compressed),
        "pickle_bytes": len(payload),
        "cycle": system.queue.now,
        "events_processed": system.queue.events_processed,
        "mechanism": system.config.mechanism,
        "traces": [trace.name for trace in system.traces],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join(
        (MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, compressed)
    )


def _split_container(data: bytes, source: str) -> tuple:
    """Validate framing and digest; returns ``(header, compressed payload)``."""
    if len(data) < len(MAGIC) + 4 or not data.startswith(MAGIC):
        raise CheckpointError(f"{source}: not a DBI checkpoint (bad magic)")
    offset = len(MAGIC)
    (header_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if offset + header_len > len(data):
        raise CheckpointError(f"{source}: truncated checkpoint header")
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{source}: corrupt checkpoint header") from exc
    fmt = header.get("format", 0)
    if fmt != SNAPSHOT_FORMAT:
        newer = isinstance(fmt, int) and fmt > SNAPSHOT_FORMAT
        age = "newer" if newer else "older"
        raise CheckpointError(
            f"{source}: snapshot format {fmt} is {age} than the supported "
            f"format {SNAPSHOT_FORMAT}"
        )
    version = header.get("model_version")
    if version != MODEL_VERSION:
        raise CheckpointError(
            f"{source}: image was written by model version {version}, this "
            f"simulator is model version {MODEL_VERSION}"
        )
    payload = data[offset + header_len :]
    if len(payload) != header.get("payload_bytes"):
        raise CheckpointError(
            f"{source}: payload is {len(payload)} bytes, header says "
            f"{header.get('payload_bytes')}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(f"{source}: payload digest mismatch")
    return header, payload


def restore_system(data: bytes, jsonl_path: Optional[str] = None, source: str = "<bytes>"):
    """Rebuild a :class:`System` from :func:`snapshot_system` bytes.

    Args:
        data: the full container, framing included.
        jsonl_path: where the rebuilt telemetry sampler (if the snapshotted
            system carried one) should stream post-restore epochs. ``None``
            keeps it in-memory only — never the original path, which a
            reopen would truncate.
        source: label used in error messages (the file path, typically).
    """
    _header, compressed = _split_container(data, source)
    try:
        payload = zlib.decompress(compressed)
    except zlib.error as exc:
        raise CheckpointError(f"{source}: payload does not decompress") from exc
    try:
        envelope = _RestrictedUnpickler(io.BytesIO(payload)).load()
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"{source}: snapshot payload is corrupt: {exc}") from exc
    if not isinstance(envelope, dict) or "system" not in envelope:
        raise CheckpointError(f"{source}: snapshot payload has no system")
    system = envelope["system"]
    system.queue.profiler = None
    system.queue.telemetry = None
    system.telemetry = None
    state = envelope.get("telemetry")
    if state is not None:
        sampler = _rebuild_telemetry(system, state, jsonl_path)
        system.telemetry = sampler
        system.queue.telemetry = sampler
    return system


# -------------------------------------------------------------------- disk


def save_snapshot(system, path: str) -> Dict:
    """Atomically write a snapshot of ``system`` to ``path``; returns header.

    Goes through :func:`repro.utils.atomic.atomic_write_bytes` (fsync before
    rename), so a crash — even a power cut — leaves either no image or a
    complete, digest-verifiable one, never a torn container.
    """
    data = snapshot_system(system)
    header, _ = _split_container(data, str(path))
    atomic_write_bytes(path, data)
    return header


def load_snapshot(path: str, jsonl_path: Optional[str] = None):
    """Load and restore a system from a ``.ckpt`` file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    return restore_system(data, jsonl_path=jsonl_path, source=str(path))


def verify_snapshot(path: str) -> Dict:
    """Check framing and payload digest without unpickling; returns header."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    header, _ = _split_container(data, str(path))
    return header
