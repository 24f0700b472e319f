"""Append-only write-ahead journal for campaign orchestration.

The journal is the campaign's single source of truth: every planned cell,
dispatch, completion and lifecycle transition is appended as one JSONL
record *before* the orchestrator acts on it, and each append is flushed and
``fsync``'d before :meth:`CampaignJournal.append` returns. A campaign
killed at any instant — ``kill -9`` included — therefore leaves a journal
whose durable prefix describes exactly what had been decided, plus at most
one torn trailing record from an append that never completed.

Record framing (one JSON object per line, sorted keys)::

    {"kind": "...", "seq": N, "sum": "<16 hex>", ...payload...}

``seq`` numbers records contiguously from 0, so a journal that *lost* a
record (as opposed to tearing its tail) is detected as corruption rather
than silently replayed short. ``sum`` is the first 16 hex characters of the
SHA-256 of the record serialized without it — enough to catch torn writes,
bit rot and hand editing, while keeping lines grep-able.

Recovery (:func:`recover_journal`) scans the file, accepts the longest
valid prefix, quarantines any torn tail to ``<journal>.torn`` (evidence is
kept, never destroyed) and truncates the journal back to the good prefix so
subsequent appends continue the contiguous sequence. A bad record *before*
the tail is real corruption and raises: replaying half a campaign's history
as if it were all of it would quietly re-run or skip work.

The first record must be a ``header`` carrying :data:`JOURNAL_FORMAT` —
same versioning discipline as the telemetry stream — so a foreign or
future-format file fails fast instead of mis-parsing.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.utils.atomic import fsync_directory

#: Bump when the record schema changes; readers reject newer formats.
JOURNAL_FORMAT = 1

#: Hex characters of SHA-256 kept per record (64 bits: torn writes and
#: bit flips are caught; this is an integrity check, not an auth tag).
CHECKSUM_HEX_CHARS = 16


class JournalError(ValueError):
    """The journal cannot be parsed, verified, or safely recovered."""


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:CHECKSUM_HEX_CHARS]


def encode_record(body: Dict) -> str:
    """Serialize ``body`` (without trailing newline), adding its checksum."""
    bare = {key: value for key, value in body.items() if key != "sum"}
    record = dict(bare)
    record["sum"] = _checksum(json.dumps(bare, sort_keys=True))
    return json.dumps(record, sort_keys=True)


def decode_line(line: str, line_number: int, source: str = "journal") -> Dict:
    """Parse and checksum-verify one journal line.

    Raises:
        JournalError: unparseable JSON, wrong shape, or checksum mismatch.
    """
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise JournalError(
            f"{source}: line {line_number}: unparseable record: {exc}"
        ) from exc
    if not isinstance(record, dict):
        raise JournalError(
            f"{source}: line {line_number}: record is not an object"
        )
    stated = record.get("sum")
    bare = {key: value for key, value in record.items() if key != "sum"}
    expected = _checksum(json.dumps(bare, sort_keys=True))
    if stated != expected:
        raise JournalError(
            f"{source}: line {line_number}: checksum mismatch "
            f"(stated {stated!r}, computed {expected!r})"
        )
    return record


@dataclass(frozen=True)
class JournalScan:
    """Result of reading a journal from disk.

    Attributes:
        records: every verified record, in order (header included).
        good_bytes: length of the valid prefix — where a recovery truncates.
        torn: raw bytes of the invalid tail (``b""`` for a clean journal).
    """

    records: List[Dict]
    good_bytes: int
    torn: bytes

    @property
    def header(self) -> Dict:
        return self.records[0]

    @property
    def next_seq(self) -> int:
        return len(self.records)


def scan_journal(path: str) -> JournalScan:
    """Read and verify ``path``, classifying any invalid tail as torn.

    Only the *final* line may be bad (a crashed append); a bad record with
    valid records after it cannot have been produced by tearing and raises
    :class:`JournalError`. Sequence numbers must be contiguous from 0, and
    the first record must be a supported-format header.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise JournalError(f"{path}: cannot read journal: {exc}") from exc

    records: List[Dict] = []
    good_bytes = 0
    offset = 0
    line_number = 0
    pending: Optional[JournalError] = None
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            # Unterminated final line: the classic torn append.
            break
        line_number += 1
        line = data[offset:newline]
        if pending is not None:
            raise pending  # the bad line was not the tail: corruption
        try:
            record = decode_line(
                line.decode("utf-8", errors="replace"), line_number, path
            )
        except JournalError as exc:
            pending = exc
            offset = newline + 1
            continue
        expected_seq = len(records)
        if record.get("seq") != expected_seq:
            raise JournalError(
                f"{path}: line {line_number}: sequence break "
                f"(expected seq {expected_seq}, got {record.get('seq')!r})"
            )
        if expected_seq == 0:
            _validate_header(record, path)
        records.append(record)
        offset = newline + 1
        good_bytes = offset
    if not records:
        if data:
            raise JournalError(
                f"{path}: no valid header record (journal torn at creation; "
                "re-plan the campaign)"
            )
        raise JournalError(f"{path}: empty journal")
    return JournalScan(
        records=records, good_bytes=good_bytes, torn=data[good_bytes:]
    )


def _validate_header(record: Dict, path: str) -> None:
    if record.get("kind") != "header":
        raise JournalError(f"{path}: first record is not a journal header")
    if record.get("format", 0) > JOURNAL_FORMAT:
        raise JournalError(
            f"{path}: journal format {record.get('format')} is newer than "
            f"supported ({JOURNAL_FORMAT})"
        )


def recover_journal(path: str) -> Tuple[JournalScan, Optional[str]]:
    """Scan ``path`` and, if its tail is torn, quarantine and truncate.

    The torn bytes move to ``<path>.torn`` (replacing any previous
    quarantine — each recovery documents the most recent crash) and the
    journal is truncated back to its valid prefix, fsync'd, so the next
    append continues the contiguous sequence on a clean file.

    Returns:
        ``(scan, torn_path)`` — ``torn_path`` is None for a clean journal.
    """
    scan = scan_journal(path)
    if not scan.torn:
        return scan, None
    torn_path = f"{path}.torn"
    with open(torn_path, "wb") as handle:
        handle.write(scan.torn)
        handle.flush()
        os.fsync(handle.fileno())
    with open(path, "r+b") as handle:
        handle.truncate(scan.good_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_directory(os.path.dirname(os.path.abspath(path)))
    return scan, torn_path


class CampaignJournal:
    """Append side of the journal: durable, checksummed, crash-ordered.

    ``chaos`` (when set) is a
    :class:`~repro.analysis.chaos.FaultInjector` consulted around
    each durable append; it is how the kill-and-resume proof schedules
    SIGKILLs at exact journal offsets, including *mid-append* (a half
    record is written and fsync'd before the process dies, leaving the
    torn-tail shape recovery must handle).
    """

    def __init__(self, path: str, next_seq: int = 0) -> None:
        self.path = path
        self.next_seq = next_seq
        self.chaos = None
        self._handle = None

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, kind: str, **payload) -> Dict:
        """Durably append one record; returns it (with seq and checksum).

        The record is on disk — written, flushed, fsync'd — before this
        returns. The orchestrator's write-ahead discipline depends on it:
        intent first, action second.
        """
        body: Dict = {"kind": kind, "seq": self.next_seq}
        for key, value in payload.items():
            if key in body:
                raise ValueError(f"reserved journal field {key!r}")
            body[key] = value
        data = (encode_record(body) + "\n").encode("utf-8")
        handle = self._ensure_handle()
        if self.chaos is not None:
            self.chaos.before_journal_append(handle, body["seq"], data)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
        if body["seq"] == 0:
            # First append created the file; make the directory entry
            # durable too, or a crash could lose the whole journal.
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self.next_seq += 1
        record = decode_line(data.decode("utf-8").rstrip("\n"), -1, self.path)
        if self.chaos is not None:
            self.chaos.after_journal_append(body["seq"])
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
