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
    SNAPSHOT_FORMAT,
    CheckpointError,
    load_snapshot,
    restore_system,
    save_snapshot,
    snapshot_system,
    verify_snapshot,
)
from repro.checkpoint.shard import ShardSpec
from repro.checkpoint.snapshot import (
    MAGIC,
    _dumps,
    _RestrictedUnpickler,
    _set_state,
)
from repro.dram.controller import Phase
from repro.dram.request import MemoryRequest
from repro.sim.system import MODEL_VERSION, System
from repro.utils.events import Event
from tests.checkpoint.conftest import restamp

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

    @pytest.mark.parametrize("fmt", [1, 2, 3, 4, 5, 6])
    def test_older_format_rejected(self, fmt):
        header = json.dumps({"format": fmt}).encode()
        data = MAGIC + struct.pack("<I", len(header)) + header
        with pytest.raises(CheckpointError, match="older"):
            restore_system(data)

    @pytest.mark.parametrize("stamp", [MODEL_VERSION + 1, None])
    def test_other_model_version_rejected(self, tmp_path, stamp):
        path = tmp_path / "stale.ckpt"
        path.write_bytes(restamp(split_run(make_system("baseline")), stamp))
        with pytest.raises(
            CheckpointError,
            match=f"model version {stamp}, this simulator is model version "
            f"{MODEL_VERSION}",
        ):
            load_snapshot(str(path))
        with pytest.raises(CheckpointError, match="model version"):
            verify_snapshot(str(path))

    def test_errors_are_value_errors(self):
        # Sweep-cache-style quarantine handling catches ValueError.
        assert issubclass(CheckpointError, ValueError)


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
        event = Event(17, system.queue.run)
        payload, (bank2, event2) = self.round_trip((bank, event))
        assert b"_set_state" in payload
        for name in type(bank).__slots__:
            assert getattr(bank2, name) == getattr(bank, name), name
        assert event2.time == 17
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


class TestCacheState:
    """A cache's tag store is three flat per-way lists, pickled as they are
    (format 5)."""

    @staticmethod
    def caches(system):
        hierarchy = system.hierarchy
        caches = [*hierarchy.l1s, *hierarchy.l2s, system.llc]
        if system.dram_cache is not None:
            caches.append(system.dram_cache.tags)
        return caches

    @staticmethod
    def fields(cache):
        return cache._addr, cache._dirty, cache._owner

    def test_restored_warmed_cache_is_identical(self):
        # Full checks put observers on the LLC and on the level's tags.
        system = make_system(
            "dbi+awb+clb", check="full", benchmark="lbm", dram_cache="tag"
        )
        restored = restore_system(split_run(system))
        pairs = list(zip(self.caches(system), self.caches(restored)))
        assert len(pairs) == 4
        assert any(
            block.dirty for cache, _ in pairs for block in cache.iter_valid_blocks()
        )
        assert all(cache.occupancy for cache, _ in pairs)
        for cache, copy in pairs:
            assert self.fields(copy) == self.fields(cache)
            assert copy._where == cache._where
            assert copy._set_fill == cache._set_fill
            assert copy.policy._stacks == cache.policy._stacks
            assert type(copy.observer) is type(cache.observer)
            assert list(vars(copy)) == list(vars(cache))
        assert restored.llc.observer is restored.check_engine
        assert restored.dram_cache.tags.observer is not None


def test_restored_warmed_dbi_is_identical():
    """A DBI's entries are two flat per-way lists, pickled as they are
    (format 7): the LLC mechanism's and the DRAM-cache level's."""
    system = make_system(
        "dbi+awb+clb", check="full", benchmark="lbm", dram_cache="dbi"
    )
    restored = restore_system(split_run(system))
    pairs = [
        (system.mechanism.dbi, restored.mechanism.dbi),
        (system.dram_cache.dbi, restored.dram_cache.dbi),
    ]
    for dbi, copy in pairs:
        assert dbi.entries()
        assert (copy._region, copy._bits) == (dbi._region, dbi._bits)
        assert copy._where == dbi._where
        assert copy.entries() == dbi.entries()
        assert copy.policy._stacks == dbi.policy._stacks
        assert list(vars(copy)) == list(vars(dbi))
    assert restored.mechanism.dbi.observer is restored.check_engine


def test_restored_stats_keep_values_and_remembered_set():
    system = make_system("dbi+awb+clb")
    restored = restore_system(split_run(system))
    groups = system._all_stat_groups()
    copies = restored._all_stat_groups()
    # The split falls after the warmup reset, which remembered the stats
    # exported so far.
    assert any(group._kept for group in groups)
    assert len(copies) == len(groups)
    for group, copy in zip(groups, copies):
        assert type(copy) is type(group)
        assert copy._kept == group._kept
        values = [getattr(group, field) for field in group.FIELDS]
        assert [getattr(copy, field) for field in copy.FIELDS] == values
        assert copy.as_dict() == group.as_dict()


#: ``_set_state`` calls restoring a freshly built quick 2-core
#: ``dbi+awb+clb`` System (the first 2-core mix). Measured 61 on CPython
#: 3.11 (each of the five caches and the DBI is one call; their entries are
#: plain lists); format 6, which restored each of the DBI's 128 entries as
#: an object of its own, made 189, and format 2, which pickled every tag
#: entry as its own ``CacheBlock`` object, made 4,861 (4,672 of them
#: blocks). The margin of 9 (15%) leaves room for a few new simulator
#: objects, not for entries as objects: the smallest cache of that system,
#: an L1, has 32 blocks.
SET_STATE_CEILING = 70


def test_restore_sends_no_block_through_the_state_setter(monkeypatch):
    mix = QUICK_SCALE.mixes(2)[0]
    system = System(
        QUICK_SCALE.system_config("dbi+awb+clb", num_cores=2), list(mix.traces)
    )
    data = snapshot_system(system)
    calls = []

    def counting(obj, state):
        calls.append(type(obj))
        _set_state(obj, state)

    # The image names the setter by module path, so restore finds this one.
    monkeypatch.setattr("repro.checkpoint.snapshot._set_state", counting)
    restore_system(data)
    assert len(calls) <= SET_STATE_CEILING, (
        f"{len(calls)} objects restored through _set_state "
        f"(ceiling {SET_STATE_CEILING})"
    )


class TestRestrictedUnpickle:
    def _container(self, payload_pickle: bytes) -> bytes:
        compressed = zlib.compress(payload_pickle)
        header = json.dumps(
            {
                "format": SNAPSHOT_FORMAT,
                "model_version": MODEL_VERSION,
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
