"""Unit tests for the epoch sampler: framing, ring, JSONL, resets.

The zero-perturbation acceptance tests (telemetry-enabled run produces
byte-identical final stats) live in ``test_zero_perturbation.py``.
"""

import pytest

from repro.telemetry.sampler import (
    EpochRecord,
    TelemetryConfig,
    TelemetrySampler,
    read_jsonl,
)
from repro.utils.stats import StatRecord


class GroupStats(StatRecord):
    __slots__ = ("events", "hits_hits", "hits_total")
    RATES = ("hits",)


def make_sampler(**kwargs):
    group = GroupStats("g")
    config = TelemetryConfig(**{"epoch_cycles": 100, **kwargs})
    instructions = {"value": 0}
    sampler = TelemetrySampler(
        config,
        groups=[group],
        counters=[("instructions", lambda: instructions["value"])],
        gauges=[("depth", lambda: 7.0)],
    )
    return sampler, group, instructions


class TestConfig:
    def test_rejects_non_positive_epoch(self):
        with pytest.raises(ValueError):
            TelemetryConfig(epoch_cycles=0)

    def test_rejects_non_positive_ring(self):
        with pytest.raises(ValueError):
            TelemetryConfig(ring_size=0)


class TestFraming:
    def test_first_boundary_is_one_epoch_in(self):
        sampler, _, _ = make_sampler()
        assert sampler.next_cycle == 100

    def test_sample_advances_to_next_multiple(self):
        sampler, _, _ = make_sampler()
        sampler.sample(100)
        assert sampler.next_cycle == 200
        # A sample past the boundary (event landed mid-epoch) still aims
        # at the next multiple, not boundary + epoch_cycles.
        sampler.sample(250)
        assert sampler.next_cycle == 300

    def test_skipped_epochs_collapse_into_one_record(self):
        sampler, _, _ = make_sampler()
        sampler.sample(100)
        sampler.sample(550)  # epochs 1..4 had no events
        assert len(sampler.records) == 2
        assert sampler.records[-1].cycles == 450

    def test_epoch_index_is_opening_boundary(self):
        sampler, _, _ = make_sampler()
        sampler.sample(100)
        sampler.sample(550)
        assert [r.epoch for r in sampler.records] == [0, 1]

    def test_deltas_are_per_epoch_not_cumulative(self):
        sampler, group, _ = make_sampler()
        group.events += 5
        sampler.sample(100)
        group.events += 3
        sampler.sample(200)
        assert [r.deltas.get("g.events") for r in sampler.records] == [5, 3]

    def test_zero_deltas_are_omitted(self):
        sampler, group, _ = make_sampler()
        group.events += 1
        sampler.sample(100)
        sampler.sample(200)
        assert "g.events" not in sampler.records[-1].deltas

    def test_ipc_from_instruction_probe(self):
        sampler, _, instructions = make_sampler()
        instructions["value"] = 50
        sampler.sample(100)
        record = sampler.records[-1]
        assert record.instructions == 50
        assert record.ipc == pytest.approx(0.5)
        assert "instructions" not in record.deltas

    def test_gauges_recorded_as_is(self):
        sampler, _, _ = make_sampler()
        sampler.sample(100)
        assert sampler.records[-1].gauges == {"depth": 7.0}


class TestStatsReset:
    def test_negative_delta_flags_record(self):
        sampler, group, _ = make_sampler()
        group.events += 10
        sampler.sample(100)
        group.reset()
        group.events += 2
        sampler.sample(200)
        record = sampler.records[-1]
        assert record.stats_reset
        # Post-reset value reported as the delta.
        assert record.deltas["g.events"] == 2

    def test_following_epoch_is_clean_again(self):
        sampler, group, _ = make_sampler()
        group.events += 10
        sampler.sample(100)
        group.reset()
        sampler.sample(200)
        group.events += 4
        sampler.sample(300)
        assert not sampler.records[-1].stats_reset
        assert sampler.records[-1].deltas["g.events"] == 4


class TestCumulative:
    """The sampler reads exactly the stats the record exports."""

    def test_never_incremented_stats_are_absent(self):
        sampler, group, _ = make_sampler()
        assert sampler._cumulative() == {"instructions": 0}
        group.events += 2
        assert sampler._cumulative() == {"instructions": 0, "g.events": 2}

    def test_stats_zeroed_by_a_reset_stay(self):
        sampler, group, _ = make_sampler()
        group.hits_total += 1
        group.reset()
        assert sampler._cumulative() == {
            "g.hits.hits": 0,
            "g.hits.total": 0,
            "instructions": 0,
        }


class TestRing:
    def test_ring_caps_memory_but_not_emission_count(self):
        sampler, _, _ = make_sampler(ring_size=3)
        for cycle in range(100, 1100, 100):
            sampler.sample(cycle)
        assert len(sampler.records) == 3
        assert sampler.epochs_emitted == 10
        assert [r.cycle for r in sampler.records] == [800, 900, 1000]


class TestFinalize:
    def test_trailing_partial_epoch(self):
        sampler, _, _ = make_sampler()
        sampler.sample(100)
        sampler.finalize(130)
        record = sampler.records[-1]
        assert record.final
        assert record.cycles == 30

    def test_idempotent(self):
        sampler, _, _ = make_sampler()
        sampler.finalize(50)
        sampler.finalize(80)
        assert len(sampler.records) == 1

    def test_nothing_to_flush(self):
        sampler, _, _ = make_sampler()
        sampler.sample(100)
        sampler.finalize(100)  # clock exactly on the boundary
        assert len(sampler.records) == 1


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sampler, group, instructions = make_sampler(
            jsonl_path=path, meta=(("benchmark", "lbm"),)
        )
        group.events += 5
        group.hits_total += 1
        group.hits_hits += 1
        instructions["value"] = 42
        sampler.sample(100)
        sampler.finalize(150)
        header, records = read_jsonl(path)
        assert header["epoch_cycles"] == 100
        assert header["benchmark"] == "lbm"
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in sampler.records
        ]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"epoch": 0}\n')
        with pytest.raises(ValueError, match="header"):
            read_jsonl(str(path))

    def test_newer_format_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "header", "format": 99}\n')
        with pytest.raises(ValueError, match="newer"):
            read_jsonl(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_jsonl(str(path))

    def test_blank_only_rejected_as_empty(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n   \n")
        with pytest.raises(ValueError, match="empty"):
            read_jsonl(str(path))

    def test_header_validated_before_records_parse(self, tmp_path):
        # Streaming regression: the header check must fire on the first
        # non-blank line, before any record line is parsed — a foreign file
        # fails with the header error, not a record JSON error.
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"epoch": 0}\nthis is not json at all\n')
        with pytest.raises(ValueError, match="header"):
            read_jsonl(str(path))

    def test_streaming_skips_interleaved_blank_lines(self, tmp_path):
        path = str(tmp_path / "gaps.jsonl")
        sampler, group, instructions = make_sampler(jsonl_path=path)
        group.events += 3
        instructions["value"] = 10
        sampler.sample(100)
        instructions["value"] = 25
        sampler.finalize(200)
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            for line in lines:
                handle.write("\n" + line + "   \n")
        header, records = read_jsonl(path)
        assert header["epoch_cycles"] == 100
        assert len(records) == 2


class TestRecordValue:
    def test_resolution_order(self):
        record = EpochRecord(
            epoch=2, cycle=300, cycles=100, instructions=40, ipc=0.4,
            deltas={"mech.read_hits": 9.0}, gauges={"depth": 3.0},
        )
        assert record.value("ipc") == 0.4
        assert record.value("epoch") == 2
        assert record.value("mech.read_hits") == 9.0
        assert record.value("depth") == 3.0
        assert record.value("no.such.key") == 0.0


class TestTornTail:
    """Crash tolerance: a mid-record-truncated stream must load, warn, and
    keep every complete epoch — the reader's contract after a SIGKILL."""

    def write_stream(self, path, epochs=3):
        sampler, group, instructions = make_sampler(jsonl_path=str(path))
        for i in range(1, epochs + 1):
            group.events += 5
            instructions["value"] = 10 * i
            sampler.sample(100 * i)
        sampler.close()

    def test_mid_record_truncation_warns_and_truncates(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        self.write_stream(path, epochs=3)
        full = path.read_text()
        lines = full.splitlines(keepends=True)
        # Cut the final record in half, newline gone: a torn write.
        path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with pytest.warns(UserWarning, match="torn trailing record"):
            header, records = read_jsonl(str(path))
        assert header["epoch_cycles"] == 100
        assert len(records) == 2  # 3 written, torn 3rd dropped
        assert [r.cycle for r in records] == [100, 200]

    def test_intact_stream_does_not_warn(self, tmp_path, recwarn):
        path = tmp_path / "ok.jsonl"
        self.write_stream(path, epochs=2)
        header, records = read_jsonl(str(path))
        assert len(records) == 2
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]

    def test_torn_line_mid_stream_still_raises(self, tmp_path):
        # Complete records after the bad line prove corruption, not a crash.
        path = tmp_path / "corrupt.jsonl"
        self.write_stream(path, epochs=3)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="malformed telemetry record"):
            read_jsonl(str(path))

    def test_torn_header_still_raises(self, tmp_path):
        path = tmp_path / "torn-header.jsonl"
        self.write_stream(path, epochs=1)
        first = path.read_text().splitlines(keepends=True)[0]
        path.write_text(first[: len(first) // 2])
        with pytest.raises(ValueError):
            read_jsonl(str(path))

    def test_truncated_but_parseable_record_dropped_at_tail(self, tmp_path):
        # A tail cut exactly inside the JSON such that it still parses as a
        # dict but lacks required record fields is the same torn write.
        path = tmp_path / "short.jsonl"
        self.write_stream(path, epochs=2)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + '{"epoch": 9}')
        with pytest.warns(UserWarning, match="torn trailing record"):
            _header, records = read_jsonl(str(path))
        assert len(records) == 1
