"""Helpers shared by the checkpoint tests."""

import json
import struct

from repro.checkpoint.snapshot import MAGIC


def _edit_header(data: bytes, edit) -> bytes:
    """``data``, a ``.ckpt`` container, with ``edit`` applied to its header
    dict. The payload and its digest are untouched."""
    offset = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", data, len(MAGIC))
    header = json.loads(data[offset : offset + length])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + data[offset + length :]


def restamp(data: bytes, model_version) -> bytes:
    """``data`` with a header claiming it was written by ``model_version``
    (``None`` drops the stamp), so only the version check can refuse it."""

    def edit(header):
        header.pop("model_version", None)
        if model_version is not None:
            header["model_version"] = model_version

    return _edit_header(data, edit)


def reformat(data: bytes, fmt: int) -> bytes:
    """``data`` with a header claiming container format ``fmt``, so only the
    format check can refuse it."""
    return _edit_header(data, lambda header: header.update(format=fmt))
