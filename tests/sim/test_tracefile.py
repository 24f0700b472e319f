"""Tests for the binary trace container."""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import Trace
from repro.sim.tracefile import (
    MAGIC,
    VERSION,
    _unzigzag,
    _zigzag,
    load_trace,
    save_trace,
)

# ---------------------------------------------------------------------------
# Oracle: the stream-at-a-time codec the bytearray/iterator codec replaced.
# Saved bytes, decoded records and every error message must match it.
# ---------------------------------------------------------------------------


def oracle_write_varint(out, value):
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def oracle_read_varint(data):
    shift = 0
    result = 0
    while True:
        raw = data.read(1)
        if not raw:
            raise ValueError("truncated varint")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift >= 70:
            raise ValueError("varint longer than 10 bytes (corrupt stream)")


def oracle_read_exact(data, size, what):
    blob = data.read(size)
    if len(blob) != size:
        raise ValueError(
            f"truncated {what}: wanted {size} bytes, got {len(blob)}"
        )
    return blob


def oracle_encode(trace):
    buffer = io.BytesIO()
    buffer.write(MAGIC)
    buffer.write(struct.pack("<H", VERSION))
    name_bytes = trace.name.encode("utf-8")
    buffer.write(struct.pack("<H", len(name_bytes)))
    buffer.write(name_bytes)
    buffer.write(struct.pack("<Q", len(trace.records)))
    previous_addr = 0
    for gap, is_write, addr in trace.records:
        oracle_write_varint(buffer, gap)
        buffer.write(bytes((1 if is_write else 0,)))
        oracle_write_varint(buffer, _zigzag(addr - previous_addr))
        previous_addr = addr
    return buffer.getvalue()


def oracle_decode(blob, path):
    data = io.BytesIO(blob)
    if data.read(len(MAGIC)) != MAGIC:
        raise ValueError(f"{path}: not a DBITRACE file")
    (version,) = struct.unpack("<H", oracle_read_exact(data, 2, "version field"))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    (name_len,) = struct.unpack("<H", oracle_read_exact(data, 2, "name length"))
    name = oracle_read_exact(data, name_len, "trace name").decode("utf-8")
    (count,) = struct.unpack("<Q", oracle_read_exact(data, 8, "record count"))
    records = []
    previous_addr = 0
    for _ in range(count):
        gap = oracle_read_varint(data)
        flag = data.read(1)
        if not flag:
            raise ValueError(f"{path}: truncated record stream")
        addr = previous_addr + _unzigzag(oracle_read_varint(data))
        if addr < 0:
            raise ValueError(f"{path}: negative address after delta decode")
        records.append((gap, bool(flag[0] & 1), addr))
        previous_addr = addr
    return Trace(name=name, records=records)


def outcome(decode, *args):
    """A decode's records, or the type and message of what it raised."""
    try:
        trace = decode(*args)
    except ValueError as error:
        return type(error), str(error)
    return trace.name, trace.records


#: Records whose encodings take every varint path: single- and multi-byte
#: gaps, negative and positive deltas, and addresses at and past 2**40.
MIXED_RECORDS = [
    (0, False, 5),
    (127, True, 3),
    (128, False, 2**40),
    (300, True, 2**40 - 1),
    (2**21, False, 2**52 + 7),
    (1, True, 0),
    (16383, False, 2**63 + 1),
    (16384, True, 17),
]


class TestOracleCodec:
    def test_saved_bytes_match_the_oracle(self, tmp_path):
        from repro.workloads.spec import spec_trace

        path = tmp_path / "t.trace"
        for trace in (
            Trace("mixed", MIXED_RECORDS),
            Trace("ünïcode", MIXED_RECORDS[::-1]),
            Trace("empty", []),
            spec_trace("mcf", 3000, seed=1),
            spec_trace("bwaves", 3000, seed=1, base_addr=1 << 26),
        ):
            size = save_trace(trace, path)
            blob = path.read_bytes()
            assert blob == oracle_encode(trace)
            assert size == len(blob)
            assert load_trace(path).records == trace.records

    @settings(max_examples=50, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**64),
                st.booleans(),
                st.integers(min_value=0, max_value=2**64),
            ),
            max_size=40,
        )
    )
    def test_arbitrary_records_encode_like_the_oracle(self, records):
        import tempfile
        from pathlib import Path

        trace = Trace("prop", records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.trace"
            save_trace(trace, path)
            assert path.read_bytes() == oracle_encode(trace)
            assert load_trace(path).records == records

    def test_negative_gap_raises_the_oracle_error(self, tmp_path):
        trace = Trace("t", [(1, False, 3)])
        trace.records[0] = (-4, False, 3)
        with pytest.raises(ValueError) as ours:
            save_trace(trace, tmp_path / "t.trace")
        with pytest.raises(ValueError) as oracle:
            oracle_encode(trace)
        assert str(ours.value) == str(oracle.value)
        assert not (tmp_path / "t.trace").exists()

    def test_every_truncation_fails_like_the_oracle(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(Trace("abc", MIXED_RECORDS), path)
        blob = path.read_bytes()
        for keep in range(len(blob) + 1):
            path.write_bytes(blob[:keep])
            assert outcome(load_trace, path) == outcome(
                oracle_decode, blob[:keep], path
            ), keep

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: b"NOTATRACE",
            lambda blob: blob[:8] + struct.pack("<H", 99) + blob[10:],
            # Over-long varints, as a gap and as an address delta.
            lambda blob: blob[:-8] + struct.pack("<Q", 1) + b"\x80" * 64,
            lambda blob: (
                blob[:-8] + struct.pack("<Q", 1) + b"\x05\x00" + b"\xff" * 12
            ),
            # Exactly ten bytes ending the varint is still accepted.
            lambda blob: (
                blob[:-8] + struct.pack("<Q", 1) + b"\x00\x00"
                + b"\x80" * 9 + b"\x01"
            ),
            # A first delta of -1 decodes below address zero.
            lambda blob: blob[:-8] + struct.pack("<Q", 1) + b"\x00\x00\x01",
            # A later delta that undershoots the previous address.
            lambda blob: (
                blob[:-8] + struct.pack("<Q", 2) + b"\x00\x00\x04\x00\x01\x07"
            ),
        ],
    )
    def test_corrupt_streams_fail_like_the_oracle(self, tmp_path, corrupt):
        path = tmp_path / "t.trace"
        save_trace(Trace("t", []), path)
        blob = corrupt(path.read_bytes())
        path.write_bytes(blob)
        expected = outcome(oracle_decode, blob, path)
        assert outcome(load_trace, path) == expected


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        trace = Trace("demo", [(3, False, 100), (0, True, 101), (7, False, 50)])
        path = tmp_path / "demo.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == "demo"
        assert loaded.records == trace.records

    def test_spec_trace_round_trip(self, tmp_path):
        from repro.workloads.spec import spec_trace

        trace = spec_trace("lbm", 2000)
        path = tmp_path / "lbm.trace"
        save_trace(trace, path)
        assert load_trace(path).records == trace.records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        save_trace(Trace("empty", []), path)
        loaded = load_trace(path)
        assert loaded.records == []

    def test_streaming_traces_compress_well(self, tmp_path):
        trace = Trace("stream", [(2, False, addr) for addr in range(5000)])
        size = save_trace(trace, tmp_path / "s.trace")
        assert size < 5000 * 4  # well under 4 bytes/record

    @settings(max_examples=50, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.booleans(),
                st.integers(min_value=0, max_value=2**40),
            ),
            max_size=100,
        )
    )
    def test_round_trip_property(self, records):
        import tempfile
        from pathlib import Path

        trace = Trace("prop", records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.trace"
            save_trace(trace, path)
            assert load_trace(path).records == records


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(ValueError, match="not a DBITRACE"):
            load_trace(path)

    def test_truncated_file_rejected(self, tmp_path):
        trace = Trace("t", [(1, False, 10)] * 50)
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(ValueError):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        trace = Trace("t", [])
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # version field
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported version"):
            load_trace(path)

    @pytest.mark.parametrize(
        "keep",
        [
            9,  # mid version field
            11,  # mid name length
            13,  # mid trace name
            16,  # mid record count
        ],
    )
    def test_truncated_header_raises_value_error(self, tmp_path, keep):
        # Regression: short header reads used to surface as struct.error
        # (undocumented) instead of the documented ValueError.
        path = tmp_path / "t.trace"
        save_trace(Trace("abc", [(1, False, 10)]), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_unbounded_varint_rejected(self, tmp_path):
        # Regression: _read_varint accepted arbitrarily long continuation
        # chains; a corrupt (or adversarial) stream must fail, not spin
        # building a huge int.
        path = tmp_path / "t.trace"
        save_trace(Trace("t", []), path)
        blob = path.read_bytes()
        # Claim one record, then feed 64 continuation bytes as its gap.
        import struct as struct_module

        blob = blob[:-8] + struct_module.pack("<Q", 1) + b"\x80" * 64
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="varint"):
            load_trace(path)


class TestZigzag:
    def test_huge_positive_delta_round_trips(self, tmp_path):
        # Regression: the C idiom (v << 1) ^ (v >> 63) corrupted
        # non-negative deltas >= 2**63 under Python's unbounded ints.
        records = [(0, False, 0), (0, False, 2**63 + 12345)]
        path = tmp_path / "big.trace"
        save_trace(Trace("big", records), path)
        assert load_trace(path).records == records

    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(min_value=-(2**80), max_value=2**80))
    def test_zigzag_round_trip_property(self, value):
        encoded = _zigzag(value)
        assert encoded >= 0  # varints only carry non-negative values
        assert _unzigzag(encoded) == value

    @settings(max_examples=25, deadline=None)
    @given(
        addrs=st.lists(
            # Full 64-bit address space: deltas span ±(2**64 - 1), the
            # worst case the 10-byte varint cap is sized for.
            st.integers(min_value=0, max_value=2**64 - 1),
            min_size=1,
            max_size=20,
        )
    )
    def test_extreme_address_round_trip(self, addrs):
        import tempfile
        from pathlib import Path

        records = [(0, False, addr) for addr in addrs]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.trace"
            save_trace(Trace("x", records), path)
            assert load_trace(path).records == records
