"""Helpers shared by the checkpoint tests."""

import json
import struct

from repro.checkpoint.snapshot import MAGIC


def restamp(data: bytes, model_version) -> bytes:
    """``data``, a ``.ckpt`` container, with a header claiming it was
    written by ``model_version`` (``None`` drops the stamp). The payload
    and its digest are untouched, so only the version check can refuse it."""
    offset = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", data, len(MAGIC))
    header = json.loads(data[offset : offset + length])
    header.pop("model_version", None)
    if model_version is not None:
        header["model_version"] = model_version
    blob = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob + data[offset + length :]
