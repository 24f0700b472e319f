"""Unit tests for warmup detection and steady-state math."""

import pytest

from repro.telemetry.analysis import (
    detect_warmup,
    series,
    summarize,
    warmup_report,
)
from repro.telemetry.sampler import EpochRecord


def make_record(epoch, ipc, cycles=100, stats_reset=False, deltas=None):
    return EpochRecord(
        epoch=epoch,
        cycle=(epoch + 1) * cycles,
        cycles=cycles,
        instructions=int(ipc * cycles),
        ipc=ipc,
        stats_reset=stats_reset,
        deltas=dict(deltas or {}),
    )


def ipc_stream(ipcs, **kwargs):
    return [make_record(i, ipc, **kwargs) for i, ipc in enumerate(ipcs)]


class TestDetectWarmup:
    def test_flat_series_stabilises_immediately(self):
        records = ipc_stream([0.5] * 10)
        assert detect_warmup(records, window=4, tolerance=0.1) == 0

    def test_ramp_then_flat(self):
        records = ipc_stream([0.1, 0.2, 0.3, 0.4] + [0.5] * 8)
        assert detect_warmup(records, window=4, tolerance=0.1) == 4

    def test_never_settles(self):
        records = ipc_stream([0.1, 0.9] * 8)
        assert detect_warmup(records, window=4, tolerance=0.1) is None

    def test_cold_start_plateau_rejected(self):
        # The first epochs are mutually consistent but far above where the
        # run settles (everything hits while caches fill). A trailing-window
        # test alone would report epoch 0; condition (b) must reject it.
        records = ipc_stream([0.9] * 4 + [0.3] * 20)
        boundary = detect_warmup(records, window=4, tolerance=0.1)
        assert boundary == 4

    def test_window_shorter_than_two_rejected(self):
        with pytest.raises(ValueError):
            detect_warmup(ipc_stream([0.5] * 4), window=1)

    def test_too_few_records(self):
        assert detect_warmup(ipc_stream([0.5]), window=4) is None


class TestSeries:
    def test_series_resolves_fields_and_deltas(self):
        records = ipc_stream([0.5, 0.7], deltas={"mech.read_hits": 3})
        assert series(records, "ipc") == [0.5, 0.7]
        assert series(records, "mech.read_hits") == [3, 3]


class TestSummarize:
    def test_aggregates_deltas_and_ipc(self):
        records = ipc_stream([0.5, 0.3], deltas={"mech.tag_lookups": 10})
        summary = summarize(records)
        assert summary["epochs"] == 2
        assert summary["cycles"] == 200
        assert summary["instructions"] == 80
        assert summary["ipc"] == pytest.approx(0.4)
        assert summary["tag_lookups_pki"] == pytest.approx(1000 * 20 / 80)

    def test_skips_stats_reset_epochs(self):
        records = [
            make_record(0, 0.5, deltas={"mech.tag_lookups": 10}),
            make_record(1, 9.9, stats_reset=True, deltas={"mech.tag_lookups": 999}),
            make_record(2, 0.5, deltas={"mech.tag_lookups": 10}),
        ]
        summary = summarize(records)
        assert summary["epochs"] == 2
        assert summary["tag_lookups_pki"] == pytest.approx(1000 * 20 / 100)

    def test_empty_is_all_zero(self):
        summary = summarize([])
        assert summary["ipc"] == 0.0
        assert summary["llc_mpki"] == 0.0

    def test_llc_mpki_excludes_bypassed_hits(self):
        records = ipc_stream(
            [0.5],
            deltas={
                "mech.read_misses": 6,
                "mech.bypassed_lookups": 4,
                "mech.bypassed_hits": 3,
            },
        )
        # 6 true misses + (4 bypasses - 3 that were resident) = 7.
        assert summarize(records)["llc_mpki"] == pytest.approx(1000 * 7 / 50)


class TestWarmupReport:
    def test_fraction_and_split(self):
        records = ipc_stream([0.1, 0.1, 0.5, 0.5, 0.5, 0.5])
        report = warmup_report(records, window=4, tolerance=0.1)
        assert report["boundary_epoch"] == 2
        assert report["boundary_cycle"] == 200
        total = sum(r.instructions for r in records)
        warm = records[0].instructions + records[1].instructions
        assert report["measured_warmup_fraction"] == pytest.approx(warm / total)
        assert report["warmup"]["epochs"] == 2
        assert report["steady_state"]["epochs"] == 4
        assert report["steady_state"]["ipc"] == pytest.approx(0.5)

    def test_no_boundary(self):
        report = warmup_report(ipc_stream([0.1, 0.9] * 8), tolerance=0.1)
        assert report["boundary_epoch"] is None
        assert report["steady_state"] is None
        assert report["measured_warmup_fraction"] == 1.0

    def test_boundary_zero_distinct_from_no_boundary(self):
        # Regression: ``if boundary`` conflated a measured boundary at epoch
        # 0 with "never settled". A run steady from the first epoch must
        # report an explicit zero-epoch warmup, not None.
        report = warmup_report(ipc_stream([0.5] * 8), tolerance=0.1)
        assert report["boundary_epoch"] == 0
        assert report["warmup"] is not None
        assert report["warmup"]["epochs"] == 0
        assert report["warmup"]["instructions"] == 0
        assert report["measured_warmup_fraction"] == 0.0
        assert report["steady_state"]["epochs"] == 8
        unsettled = warmup_report(ipc_stream([0.1, 0.9] * 8), tolerance=0.1)
        assert unsettled["boundary_epoch"] is None
        assert unsettled["warmup"] is None
