"""Compact on-disk trace format.

Traces regenerate deterministically from profiles, but saving them is useful
for sharing exact workloads, diffing runs, or importing externally collected
(Pin-style) traces. The format is a small binary container:

* header: magic ``DBITRACE``, version, name, record count;
* records: per-record varints — gap, flags (bit 0 = write), address delta
  (zig-zag encoded against the previous address). Delta + varint coding
  shrinks streaming traces to ~3 bytes/record.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Union

from repro.sim.trace import Trace

MAGIC = b"DBITRACE"
VERSION = 1

#: Longest accepted varint: 10 × 7 payload bits = 70 bits, enough for any
#: zig-zagged 64-bit address delta. A continuation bit past this is corrupt
#: data (or an adversarial unbounded-length stream), not a bigger number.
_MAX_VARINT_BYTES = 10


def _read_exact(data: BinaryIO, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or raise the documented ``ValueError``.

    Bare ``data.read(n)`` returns *up to* n bytes: a truncated header would
    otherwise surface as ``struct.error`` (undocumented) or, worse, decode a
    short name silently.
    """
    blob = data.read(size)
    if len(blob) != size:
        raise ValueError(
            f"truncated {what}: wanted {size} bytes, got {len(blob)}"
        )
    return blob


def _put_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _varint_tail(data: Iterator[int], first: int) -> int:
    """Finish a varint whose first byte, ``first``, has its continuation
    bit set, reading the rest from ``data``."""
    result = first & 0x7F
    shift = 7
    while True:
        byte = next(data, None)
        if byte is None:
            raise ValueError("truncated varint")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift >= 7 * _MAX_VARINT_BYTES:
            raise ValueError(
                f"varint longer than {_MAX_VARINT_BYTES} bytes (corrupt stream)"
            )


def _zigzag(value: int) -> int:
    # Python ints are unbounded, so the C idiom ``(v << 1) ^ (v >> 63)``
    # would corrupt non-negative values >= 2**63 (their arithmetic shift is
    # non-zero). Branch on sign instead; decode-compatible with _unzigzag.
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def save_trace(trace: Trace, path: Union[str, Path]) -> int:
    """Write ``trace`` to ``path``; returns the byte size written."""
    out = bytearray(MAGIC)
    out += struct.pack("<H", VERSION)
    name_bytes = trace.name.encode("utf-8")
    out += struct.pack("<H", len(name_bytes))
    out += name_bytes
    out += struct.pack("<Q", len(trace.records))
    append = out.append
    previous_addr = 0
    for gap, is_write, addr in trace.records:
        # Single-byte varints (most gaps, streaming deltas) skip the helper.
        if 0 <= gap < 0x80:
            append(gap)
        else:
            _put_varint(out, gap)
        append(1 if is_write else 0)
        delta = _zigzag(addr - previous_addr)
        if delta < 0x80:
            append(delta)
        else:
            _put_varint(out, delta)
        previous_addr = addr
    Path(path).write_bytes(out)
    return len(out)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises:
        ValueError: on a bad magic number, version, or truncated stream.
    """
    blob = Path(path).read_bytes()
    header = io.BytesIO(blob)
    if header.read(len(MAGIC)) != MAGIC:
        raise ValueError(f"{path}: not a DBITRACE file")
    (version,) = struct.unpack("<H", _read_exact(header, 2, "version field"))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    (name_len,) = struct.unpack("<H", _read_exact(header, 2, "name length"))
    name = _read_exact(header, name_len, "trace name").decode("utf-8")
    (count,) = struct.unpack("<Q", _read_exact(header, 8, "record count"))
    # The record stream is decoded from one iterator over its bytes; the
    # common single-byte varints never leave this loop.
    data = iter(memoryview(blob)[header.tell():])
    records = []
    append = records.append
    previous_addr = 0
    for _ in range(count):
        gap = next(data, None)
        if gap is None:
            raise ValueError("truncated varint")
        if gap & 0x80:
            gap = _varint_tail(data, gap)
        flag = next(data, None)
        if flag is None:
            raise ValueError(f"{path}: truncated record stream")
        delta = next(data, None)
        if delta is None:
            raise ValueError("truncated varint")
        if delta & 0x80:
            delta = _varint_tail(data, delta)
        addr = previous_addr + _unzigzag(delta)
        if addr < 0:
            raise ValueError(f"{path}: negative address after delta decode")
        append((gap, bool(flag & 1), addr))
        previous_addr = addr
    return Trace(name=name, records=records)
