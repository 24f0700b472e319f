"""Snapshot/restore determinism and container hardening.

The load-bearing guarantee of the checkpoint subsystem: a system snapshotted
mid-run and restored continues *byte-identically* to the uninterrupted run —
same ``SimulationResult``, same telemetry record stream, under full runtime
invariant checking. Everything else (fork-from-warm, sampled mode) is built
on top of that guarantee.
"""

import dataclasses
import functools
import hashlib
import io
import json
import pickle
import struct
import zlib

import pytest

from repro.analysis.scaling import QUICK_SCALE
from repro.checkpoint import (
    CheckpointError,
    load_snapshot,
    restore_system,
    save_snapshot,
    snapshot_system,
    verify_snapshot,
)
from repro.checkpoint.shard import ShardSpec
from repro.checkpoint.snapshot import MAGIC, _dumps, _RestrictedUnpickler
from repro.dram.controller import Phase
from repro.dram.request import MemoryRequest
from repro.sim.system import System
from repro.utils.events import Event

REFS = 3_000
SPLIT_EVENTS = 20_000

#: One mechanism per wrapper family (the six distinct mechanism classes).
FAMILIES = ("baseline", "tadip", "dawb", "vwq", "skipcache", "dbi+awb+clb")


def make_system(
    mechanism, check="off", telemetry=None, benchmark="mcf", dram_cache=None
):
    trace = QUICK_SCALE.benchmark_trace(benchmark, refs=REFS)
    config = QUICK_SCALE.system_config(mechanism)
    if dram_cache is not None:
        config = dataclasses.replace(
            config,
            dram_cache=QUICK_SCALE.dram_cache_config(dirty_backend=dram_cache),
        )
    return System(config, [trace], check=check, telemetry=telemetry)


def split_run(system, split_events=SPLIT_EVENTS):
    """Run ``system`` partway, snapshot it, and return the container bytes."""
    for core in system.cores:
        core.start()
    system.queue.run(max_events=split_events)
    return snapshot_system(system)


class TestRestoreEquivalence:
    @pytest.mark.parametrize("mechanism", FAMILIES)
    def test_restored_run_byte_identical(self, mechanism):
        system = make_system(mechanism)
        data = split_run(system)
        restored = restore_system(data)
        expected = system.resume()
        actual = restored.resume()
        assert actual.to_dict() == expected.to_dict()

    def test_restored_run_identical_under_full_check(self):
        system = make_system("dbi+awb+clb", check="full")
        data = split_run(system)
        restored = restore_system(data)
        # The check engine rides along in the snapshot: the restored run
        # re-verifies every invariant over the remainder of the run.
        assert restored.check_engine is not None
        assert restored.resume().to_dict() == system.resume().to_dict()

    def test_restored_telemetry_stream_continues_identically(self, tmp_path):
        from repro.telemetry.sampler import TelemetryConfig

        config = TelemetryConfig(epoch_cycles=2_000)
        system = make_system("dbi", telemetry=config)
        data = split_run(system)
        restored = restore_system(
            data, jsonl_path=str(tmp_path / "restored.jsonl")
        )
        expected = system.resume()
        actual = restored.resume()
        assert actual.to_dict() == expected.to_dict()
        assert [r.to_dict() for r in restored.telemetry.records] == [
            r.to_dict() for r in system.telemetry.records
        ]

    @pytest.mark.parametrize("backend", ["tag", "dbi"])
    @pytest.mark.parametrize("mechanism", FAMILIES)
    def test_every_family_round_trips_over_dram_cache(self, mechanism, backend):
        system = make_system(mechanism, benchmark="lbm", dram_cache=backend)
        data = split_run(system)
        restored = restore_system(data)
        assert restored.resume().to_dict() == system.resume().to_dict()

    @pytest.mark.parametrize("backend", ["tag", "dbi"])
    def test_dram_cache_level_round_trips_byte_identical(self, backend):
        # The stacked level rides along in the image: tag array, dirty
        # backend state, pending fills and overflow retries all resume.
        system = make_system("baseline", benchmark="lbm", dram_cache=backend)
        data = split_run(system)
        restored = restore_system(data)
        assert restored.dram_cache is not None
        assert restored.dram_cache.dirty_blocks() == (
            system.dram_cache.dirty_blocks()
        )
        assert restored.resume().to_dict() == system.resume().to_dict()

    def test_dram_cache_level_round_trips_under_full_check(self):
        # Both dirty domains (LLC DBI + level DBI) and both writeback
        # ledgers survive the round trip and keep verifying.
        system = make_system("dbi+awb", check="full", dram_cache="dbi")
        data = split_run(system)
        restored = restore_system(data)
        assert restored.check_engine is not None
        assert restored.resume().to_dict() == system.resume().to_dict()

    def test_snapshot_leaves_system_runnable(self):
        # Snapshotting is observational: the donor system must continue
        # exactly as if no snapshot had been taken.
        undisturbed = make_system("tadip")
        for core in undisturbed.cores:
            core.start()
        undisturbed.queue.run(max_events=SPLIT_EVENTS)
        snapshotted = make_system("tadip")
        split_run(snapshotted)  # takes a snapshot at the same boundary
        assert (
            snapshotted.resume().to_dict() == undisturbed.resume().to_dict()
        )


class TestContainer:
    def test_save_verify_load_round_trip(self, tmp_path):
        system = make_system("baseline")
        data = split_run(system)
        path = tmp_path / "img.ckpt"
        path.write_bytes(data)
        header = verify_snapshot(str(path))
        assert header["mechanism"] == "baseline"
        assert header["cycle"] == system.queue.now
        restored = load_snapshot(str(path))
        assert restored.resume().to_dict() == system.resume().to_dict()

    def test_save_snapshot_writes_header(self, tmp_path):
        system = make_system("dbi")
        split_run(system)  # advance past cycle 0 first
        path = tmp_path / "img.ckpt"
        header = save_snapshot(system, str(path))
        assert header == verify_snapshot(str(path))
        assert header["events_processed"] == system.queue.events_processed

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_snapshot(str(path))

    def test_truncated_container_rejected(self, tmp_path):
        system = make_system("baseline")
        data = split_run(system)
        path = tmp_path / "trunc.ckpt"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            verify_snapshot(str(path))

    def test_corrupt_payload_rejected(self, tmp_path):
        system = make_system("baseline")
        data = bytearray(split_run(system))
        data[-20] ^= 0xFF  # flip one payload byte
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest"):
            load_snapshot(str(path))

    def test_corrupt_header_rejected(self, tmp_path):
        system = make_system("baseline")
        data = bytearray(split_run(system))
        data[len(MAGIC) + 4] ^= 0xFF  # first header byte: JSON no longer parses
        with pytest.raises(CheckpointError):
            restore_system(bytes(data))

    def test_newer_format_rejected(self):
        header = json.dumps({"format": 99}).encode()
        data = MAGIC + struct.pack("<I", len(header)) + header
        with pytest.raises(CheckpointError, match="newer"):
            restore_system(data)

    def test_errors_are_value_errors(self):
        # Sweep-cache-style quarantine handling catches ValueError.
        assert issubclass(CheckpointError, ValueError)


def format1_container(system) -> bytes:
    """A container as format 1 wrote it: plain pickle, default BUILD."""
    payload = zlib.compress(
        pickle.dumps(
            {"format": 1, "system": system, "telemetry": None},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    header = json.dumps(
        {
            "format": 1,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
        },
        sort_keys=True,
    ).encode()
    return MAGIC + struct.pack("<I", len(header)) + header + payload


def as_pre_callable_image(system):
    """Rewrite a live system into the layout of images written before queue
    entries became bare callables: every bucket entry an ``Event``, the tag
    port's pending grant held as ``_grant_event``, and no hierarchy latencies
    read ahead of time."""
    queue = system.queue
    for time, bucket in queue._buckets.items():
        bucket[:] = [
            entry if isinstance(entry, Event) else Event(time, entry)
            for entry in bucket
        ]
    port = system.port
    grant = None
    if port._grant_pending:
        # The pending grant pass, skipping the head bucket's fired prefix.
        (grant,) = [
            entry
            for time, bucket in queue._buckets.items()
            for entry in bucket[queue._pos if time == queue._pos_time else 0 :]
            if entry.callback == port._grant
        ]
    del port._grant_pending
    port._grant_event = grant
    for name in ("_l1_miss_detect", "_l2_hit", "_l2_miss_detect"):
        delattr(system.hierarchy, name)


class TestPreCallableImages:
    """Images whose queue buckets hold only ``Event`` entries — every image
    written before bare-callable entries — restore without a format bump."""

    @pytest.mark.parametrize("dram_cache", [None, "dbi"])
    @pytest.mark.parametrize("mechanism", ["tadip", "dbi+awb+clb"])
    def test_restores_and_finishes_like_an_uninterrupted_run(
        self, mechanism, dram_cache
    ):
        benchmark = "lbm" if dram_cache else "mcf"
        expected = make_system(
            mechanism, benchmark=benchmark, dram_cache=dram_cache
        ).run()
        system = make_system(mechanism, benchmark=benchmark, dram_cache=dram_cache)
        for core in system.cores:
            core.start()
        system.queue.run(max_events=SPLIT_EVENTS)
        # Stop where a tag-port grant pass is queued, so the image carries
        # a legacy ``_grant_event``.
        while not system.port._grant_pending:
            assert system.queue.step()
        as_pre_callable_image(system)
        assert system.port._grant_event is not None
        restored = restore_system(snapshot_system(system))
        buckets = restored.queue._buckets.values()
        assert buckets and all(
            isinstance(entry, Event) for bucket in buckets for entry in bucket
        )
        assert "_grant_pending" not in vars(restored.port)
        actual = restored.resume()
        assert actual.to_dict() == expected.to_dict()
        assert actual.events_processed == expected.events_processed

    def test_pre_merge_callback_names_still_resolve(self):
        core = make_system("baseline").cores[0]
        assert core._advance_event == core._advance
        assert core._load_done_cb == core._load_done


def controllers(system):
    """Every memory controller: off-chip, plus the stacked array's."""
    level = system.dram_cache
    return [system.memory] + ([level.stacked] if level is not None else [])


def as_pre_memo_image(system):
    """Rewrite a live system into the layout of images written before the
    blocked-until memo, the once-built fill continuations and the
    mechanism's once-read latencies and predictor flag: none of those
    attributes exist on the instances."""
    for controller in controllers(system):
        del controller._blocked_list, controller._blocked_until
    hierarchy = system.hierarchy
    del hierarchy._llc_data_of, hierarchy._store_fill_of
    mechanism = system.mechanism
    vars(mechanism).pop("_fill_done_by_core", None)
    vars(mechanism).pop("trains_predictor", None)
    del mechanism._llc_hit_latency, mechanism._llc_miss_detect_latency


class TestPreMemoImages:
    """Images written before the per-miss allocations were cut restore, in
    either container format, and finish like an uninterrupted run."""

    @pytest.mark.parametrize("container", ["format1", "format2"])
    @pytest.mark.parametrize("dram_cache", [None, "dbi"])
    @pytest.mark.parametrize("mechanism", ["dawb", "dbi+awb+clb"])
    def test_restores_and_finishes_like_an_uninterrupted_run(
        self, mechanism, dram_cache, container
    ):
        benchmark = "lbm" if dram_cache else "mcf"
        expected = make_system(
            mechanism, benchmark=benchmark, dram_cache=dram_cache
        ).run()
        system = make_system(mechanism, benchmark=benchmark, dram_cache=dram_cache)
        for core in system.cores:
            core.start()
        system.queue.run(max_events=SPLIT_EVENTS)

        # Stop with reads in flight, writes buffered and a live memo, so
        # the restored run must rebuild what the image lacks mid-stream.
        def mid_stream():
            found = controllers(system)
            return (
                any(c.read_queue for c in found)
                and any(c.write_buffer._entries for c in found)
                and any(c._blocked_list is not None for c in found)
            )

        while not mid_stream():
            assert system.queue.step()
        as_pre_memo_image(system)
        image = (
            format1_container(system)
            if container == "format1"
            else snapshot_system(system)
        )
        restored = restore_system(image)
        for controller in controllers(restored):
            assert "_blocked_list" not in vars(controller)
        assert "_llc_data_of" not in vars(restored.hierarchy)
        actual = restored.resume()
        assert actual.to_dict() == expected.to_dict()
        assert actual.events_processed == expected.events_processed


class TestStateSetter:
    """Simulator objects restore through the state setter, not BUILD."""

    @staticmethod
    def round_trip(obj):
        payload = _dumps({"obj": obj})
        restored = _RestrictedUnpickler(io.BytesIO(payload)).load()["obj"]
        return payload, restored

    def test_frozen_dataclass(self):
        spec = ShardSpec(index=1, count=3)
        payload, restored = self.round_trip(spec)
        assert b"_set_state" in payload
        assert restored == spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            restored.index = 2

    def test_slots_classes(self):
        system = make_system("baseline")
        bank = system.memory.banks[0]
        bank.busy_until = 41
        event = Event(17, system.queue.run, audit=True)
        event.cancel()
        payload, (bank2, event2) = self.round_trip((bank, event))
        assert b"_set_state" in payload
        for name in type(bank).__slots__:
            assert getattr(bank2, name) == getattr(bank, name), name
        assert (event2.time, event2.cancelled, event2.audit) == (17, True, True)
        assert event2.callback.__func__ is event.callback.__func__

    def test_enum_member_keeps_identity(self):
        payload, restored = self.round_trip(Phase.WRITE_DRAIN)
        assert restored is Phase.WRITE_DRAIN
        assert b"_set_state" not in payload

    def test_eq_false_dataclass(self):
        request = MemoryRequest(
            block_addr=0x40, is_write=True, core_id=1, arrival_time=9
        )
        _payload, restored = self.round_trip(request)
        assert restored is not request
        assert vars(restored) == vars(request)

    def test_partial_of_bound_method(self):
        bank = make_system("baseline").memory.banks[0]
        bank.open_row, bank.busy_until = 4, 30
        probe = functools.partial(bank.is_ready, 4)
        _payload, restored = self.round_trip(probe)
        assert restored.func.__self__ is not bank
        assert restored.func.__self__.busy_until == 30
        assert [restored(now) for now in (29, 30)] == [False, True]

    def test_format1_container_still_loads(self):
        system = make_system("dbi+awb+clb", dram_cache="dbi")
        split_run(system)
        restored = restore_system(format1_container(system))
        assert restored.resume().to_dict() == system.resume().to_dict()


class TestRestrictedUnpickle:
    def _container(self, payload_pickle: bytes) -> bytes:
        compressed = zlib.compress(payload_pickle)
        import hashlib

        header = json.dumps(
            {
                "format": 1,
                "payload_sha256": hashlib.sha256(compressed).hexdigest(),
                "payload_bytes": len(compressed),
            }
        ).encode()
        return MAGIC + struct.pack("<I", len(header)) + header + compressed

    def test_forbidden_global_rejected(self):
        # A container whose framing and digest are pristine must still be
        # refused if its pickle references globals outside the simulator
        # and the stdlib allowlist.
        import os

        malicious = self._container(pickle.dumps(os.getcwd))
        with pytest.raises(CheckpointError, match="forbidden|corrupt"):
            restore_system(malicious)

    def test_payload_without_system_rejected(self):
        empty = self._container(pickle.dumps({"format": 1}))
        with pytest.raises(CheckpointError, match="no system"):
            restore_system(empty)
