"""Campaign planning: deterministic cell grids and fingerprints."""

import pytest

from repro.analysis.scaling import SCALES
from repro.campaign.plan import (
    CampaignCell,
    cell_config,
    cell_traces,
    plan_cells,
    plan_fingerprint,
)

QUICK = SCALES["quick"]


class TestPlanCells:
    def test_single_core_grid(self):
        cells = plan_cells(QUICK, ["lbm", "mcf"], ["baseline", "dbi"], [1])
        ids = [cell.cell_id for cell in cells]
        assert ids == [
            "1c/lbm/baseline",
            "1c/lbm/dbi",
            "1c/mcf/baseline",
            "1c/mcf/dbi",
        ]
        assert all(cell.mix_index is None for cell in cells)

    def test_multicore_cells_record_mix_identity(self):
        cells = plan_cells(QUICK, ["lbm"], ["dbi"], [2])
        multicore = [cell for cell in cells if cell.num_cores == 2]
        assert multicore, "expected 2-core cells in the plan"
        for cell in multicore:
            assert cell.mix_index is not None
            assert cell.mix_name
            assert cell.cell_id.startswith("2c/")

    def test_plan_is_deterministic(self):
        first = plan_cells(QUICK, ["lbm"], ["baseline", "dbi"], [1, 2])
        second = plan_cells(QUICK, ["lbm"], ["baseline", "dbi"], [1, 2])
        assert [c.to_dict() for c in first] == [c.to_dict() for c in second]

    def test_cell_roundtrip(self):
        cells = plan_cells(QUICK, ["lbm"], ["dbi"], [1, 2])
        for cell in cells:
            assert CampaignCell.from_dict(cell.to_dict()) == cell


class TestCellTraces:
    def test_single_core_traces(self):
        cell = plan_cells(QUICK, ["lbm"], ["baseline"], [1])[0]
        traces = cell_traces(QUICK, cell, refs=500)
        assert len(traces) == 1

    def test_multicore_traces_match_mix(self):
        cell = next(
            c
            for c in plan_cells(QUICK, ["lbm"], ["dbi"], [2])
            if c.num_cores == 2
        )
        traces = cell_traces(QUICK, cell, refs=500)
        assert len(traces) == 2

    def test_mix_name_drift_detected(self):
        cell = next(
            c
            for c in plan_cells(QUICK, ["lbm"], ["dbi"], [2])
            if c.num_cores == 2
        )
        drifted = CampaignCell.from_dict(
            {**cell.to_dict(), "mix_name": "not_the_real_mix"}
        )
        with pytest.raises(ValueError, match="mix"):
            cell_traces(QUICK, drifted, refs=500)

    def test_cell_config_mechanism(self):
        cell = plan_cells(QUICK, ["lbm"], ["dbi+awb"], [1])[0]
        config = cell_config(QUICK, cell)
        assert config is not None


class TestFingerprint:
    def test_stable_across_calls(self):
        cells = plan_cells(QUICK, ["lbm"], ["baseline"], [1])
        identity = {"scale": "quick", "refs": 500}
        assert plan_fingerprint(identity, cells) == plan_fingerprint(
            identity, cells
        )

    def test_sensitive_to_identity(self):
        cells = plan_cells(QUICK, ["lbm"], ["baseline"], [1])
        a = plan_fingerprint({"scale": "quick"}, cells)
        b = plan_fingerprint({"scale": "default"}, cells)
        assert a != b

    def test_sensitive_to_cells(self):
        base = plan_cells(QUICK, ["lbm"], ["baseline"], [1])
        more = plan_cells(QUICK, ["lbm"], ["baseline", "dbi"], [1])
        identity = {"scale": "quick"}
        assert plan_fingerprint(identity, base) != plan_fingerprint(
            identity, more
        )


class TestFullWidthPlans:
    def test_full_width_covers_paper_mix_table(self):
        from repro.workloads.mix import paper_mix_count

        cells = plan_cells(
            QUICK, ["lbm"], ["baseline"], [2], full_width=True
        )
        mixes = [c for c in cells if c.category == "mix"]
        assert len(mixes) == paper_mix_count(2)

    def test_full_width_adds_alone_normalizers(self):
        from repro.workloads.mix import paper_mix_count

        cells = plan_cells(
            QUICK, ["lbm"], ["baseline"], [2], full_width=True
        )
        alone = [c for c in cells if c.category == "alone"]
        assert alone, "full-width plans schedule alone normalizers"
        assert all(c.mechanism == "baseline" for c in alone)
        specs = QUICK.mix_specs(2, paper_mix_count(2))
        mix_benchmarks = {
            name
            for c in cells
            if c.category == "mix"
            for name in specs[c.mix_index].benchmark_names
        }
        assert {c.benchmark for c in alone} >= mix_benchmarks

    def test_ingested_and_sensitivity_cells(self):
        cells = plan_cells(
            QUICK, ["lbm"], ["baseline", "dbi"], [1],
            ingested=[("ext", "a" * 64)],
            sensitivity=[1, 2],
            sensitivity_benchmarks=["lbm"],
        )
        traces = [c for c in cells if c.category == "trace"]
        assert [c.cell_id for c in traces] == [
            "trace/ext/baseline", "trace/ext/dbi",
        ]
        assert all(c.trace_sha == "a" * 64 for c in traces)
        sens = [c for c in cells if c.category == "sens"]
        assert {(c.backend, c.bandwidth) for c in sens} == {
            ("tag", 1), ("tag", 2), ("dbi", 1), ("dbi", 2),
        }

    def test_sensitivity_without_benchmarks_rejected(self):
        with pytest.raises(ValueError, match="sensitivity"):
            plan_cells(QUICK, ["lbm"], ["baseline"], [1], sensitivity=[2])

    def test_kind_survives_roundtrip_without_journal_collision(self):
        cells = plan_cells(
            QUICK, ["lbm"], ["baseline"], [1],
            ingested=[("ext", "b" * 64)],
            sensitivity=[2], sensitivity_benchmarks=["lbm"],
        )
        for cell in cells:
            data = cell.to_dict()
            assert "kind" not in data  # reserved by the journal record type
            assert CampaignCell.from_dict(data) == cell

    def test_trace_cell_sha_drift_refused(self, tmp_path):
        from repro.sim.ingest import ingest_trace

        import os

        fixture = os.path.join(
            os.path.dirname(__file__), "..", "sim", "fixtures",
            "gem5_sample.trace",
        )
        registry = str(tmp_path / "traces")
        entry = ingest_trace(fixture, registry, name="ext")
        cells = plan_cells(
            QUICK, [], ["baseline"], [1],
            ingested=[("ext", entry["sha256"])],
        )
        assert cell_traces(
            QUICK, cells[0], ingest_dir=registry
        )[0].name == "ext"
        drifted = plan_cells(
            QUICK, [], ["baseline"], [1], ingested=[("ext", "0" * 64)]
        )
        with pytest.raises(ValueError, match="sha"):
            cell_traces(QUICK, drifted[0], ingest_dir=registry)

    def test_trace_cell_needs_ingest_dir(self):
        cells = plan_cells(
            QUICK, [], ["baseline"], [1], ingested=[("ext", "c" * 64)]
        )
        with pytest.raises(ValueError, match="ingest"):
            cell_traces(QUICK, cells[0])


class TestCellTracesRefs:
    def test_alone_cell_rejects_zero_refs(self):
        cells = plan_cells(
            QUICK, ["lbm"], ["baseline"], [2], full_width=True
        )
        alone = next(c for c in cells if c.category == "alone")
        with pytest.raises(ValueError, match="num_refs must be positive"):
            cell_traces(QUICK, alone, refs=0, full_width=True)
        (trace,) = cell_traces(QUICK, alone, full_width=True)
        assert len(trace.records) == QUICK.refs_per_core_multi
