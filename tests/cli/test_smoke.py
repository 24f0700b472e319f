"""End-to-end smoke coverage of every ``python -m repro`` subcommand.

Each test drives ``main(argv)`` exactly as a shell would, on inputs small
enough for tier-1, and asserts exit code 0 plus a non-empty artifact
(stdout report, JSONL file, sweep cache entry). Flag-level behavior has
dedicated suites (``tests/integration/test_cli.py``, ``tests/telemetry/``);
this file guards the one property those can miss: *every* command still
wires end to end.
"""

import json
import os

import pytest

from repro.__main__ import main


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "benchmarks" in out and "mechanisms" in out and "scales" in out


class TestRun:
    def test_run(self, capsys):
        assert main(["run", "lbm", "baseline", "--refs", "2000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "events processed" in out

    def test_run_with_telemetry_artifact(self, capsys, tmp_path):
        jsonl = str(tmp_path / "run.jsonl")
        code = main([
            "run", "lbm", "dbi+awb", "--refs", "2500",
            "--telemetry", jsonl, "--epoch-cycles", "2000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "epochs sampled" in out
        assert "measured warmup" in out
        assert os.path.getsize(jsonl) > 0
        with open(jsonl) as handle:
            header = json.loads(handle.readline())
        assert header["kind"] == "header"


class TestExperiment:
    def test_experiment_renders_and_caches(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "experiment", "fig6", "--benchmarks", "bzip2",
            "--workers", "0", "--quiet",
        ])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out
        cache = os.path.join("results", "sweep_cache")
        assert any(name.endswith(".json") for name in os.listdir(cache))

    def test_experiment_with_telemetry_artifacts(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "experiment", "fig6", "--benchmarks", "bzip2",
            "--workers", "0", "--quiet", "--telemetry",
            "--epoch-cycles", "2000",
        ])
        assert code == 0
        cache = os.path.join("results", "sweep_cache")
        artifacts = [
            name for name in os.listdir(cache)
            if name.endswith(".telemetry.jsonl")
        ]
        assert artifacts  # one per simulated job, next to the cached result
        with open(os.path.join(cache, artifacts[0])) as handle:
            assert json.loads(handle.readline())["kind"] == "header"


class TestProfile:
    def test_profile_json(self, capsys):
        assert main(["profile", "lbm", "baseline", "--refs", "2000",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events_processed"] > 0
        layers = payload["layers"]
        assert list(layers)[-1] == "unattributed"
        assert sum(row["self_s"] for row in layers.values()) == pytest.approx(
            payload["wall_seconds"], rel=1e-9
        )

    def test_profile_dram_cache_gets_its_own_row(self, capsys):
        assert main(["profile", "lbm", "dbi+awb", "--refs", "1500",
                     "--dram-cache", "dbi", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dram_cache"] == "dbi"
        assert payload["layers"]["dramcache"]["calls"] > 0

    def test_profile_check_sweeps_get_their_own_row(self, capsys):
        assert main(["profile", "lbm", "dbi+awb", "--refs", "1500",
                     "--dram-cache", "tag", "--check", "full",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["check"] == "full"
        assert payload["layers"]["check"]["calls"] > 0
        assert "dramcache" in payload["layers"]

    def test_profile_telemetry_sampling_gets_its_own_row(self, capsys):
        assert main(["profile", "lbm", "dbi+awb", "--refs", "1500",
                     "--telemetry", "--epoch-cycles", "2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"] == 2000
        assert payload["layers"]["telemetry"]["calls"] > 0


class TestReliability:
    def test_reliability(self, capsys):
        code = main([
            "reliability", "--refs", "2500", "--mechanisms", "dbi",
            "--alphas", "1/4", "--faults", "20", "--interval", "200",
        ])
        assert code == 0
        assert "data loss" in capsys.readouterr().out


class TestCheckDiff:
    def test_check_diff(self, capsys):
        code = main([
            "check-diff", "--refs", "1500",
            "--benchmarks", "lbm", "--mechanisms", "baseline,dbi",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out


class TestDramCache:
    def test_run_with_level(self, capsys):
        code = main([
            "run", "lbm", "baseline", "--refs", "2000",
            "--dram-cache", "dbi",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dramcache backend  dbi" in out
        assert "dramcache off-chip writes" in out

    def test_run_with_level_under_full_check(self, capsys):
        code = main([
            "run", "mcf", "dbi+awb", "--refs", "2000",
            "--dram-cache", "tag", "--check", "full",
        ])
        assert code == 0
        assert "IPC" in capsys.readouterr().out

    def test_check_diff_with_level(self, capsys):
        code = main([
            "check-diff", "--refs", "1000", "--benchmarks", "lbm",
            "--dram-cache", "tag",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_check_diff_with_level_and_background_writebacks(self, capsys):
        """Formerly rejected; oracle v2's drain replay validates it."""
        code = main([
            "check-diff", "--refs", "800", "--dram-cache", "dbi",
            "--mechanisms", "dbi+awb",
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_dramcache_experiment_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "dramcache", "--benchmarks", "lbm", "--workers", "0", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dirty-tracking trade-off" in out
        assert "dbi wb row-hit" in out


class TestConformance:
    def test_quick_campaign_writes_coverage_map(self, capsys, tmp_path):
        out_dir = str(tmp_path / "conf")
        code = main([
            "conformance", "--trials", "5", "--seed", "0x5EED",
            "--out", out_dir,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "conformance campaign: 5 trials" in out
        assert "findings: none" in out
        with open(os.path.join(out_dir, "coverage.json")) as handle:
            coverage = json.load(handle)
        assert any(key.startswith("invariant:") for key in coverage)
        assert any(key.startswith("writeback-cause:") for key in coverage)

    def test_same_seed_same_coverage_bytes(self, capsys, tmp_path):
        payloads = []
        for leg in ("a", "b"):
            out_dir = str(tmp_path / leg)
            assert main([
                "conformance", "--trials", "4", "--out", out_dir,
            ]) == 0
            with open(os.path.join(out_dir, "coverage.json"), "rb") as handle:
                payloads.append(handle.read())
        capsys.readouterr()
        assert payloads[0] == payloads[1]


class TestTimeline:
    def test_timeline_runs_a_simulation(self, capsys):
        code = main([
            "timeline", "lbm", "dbi+awb", "--refs", "2500",
            "--epoch-cycles", "2000", "--stat", "mech.dbi_occupancy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "epochs over" in out
        assert "mech.dbi_occupancy" in out
        assert "epoch" in out  # table header

    def test_timeline_renders_saved_stream(self, capsys, tmp_path):
        jsonl = str(tmp_path / "t.jsonl")
        assert main(["run", "mcf", "baseline", "--refs", "2000",
                     "--telemetry", jsonl]) == 0
        capsys.readouterr()
        assert main(["timeline", "--input", jsonl]) == 0
        out = capsys.readouterr().out
        assert f"telemetry from {jsonl}" in out
        assert "ipc" in out

    def test_timeline_without_inputs_is_an_error(self, capsys):
        assert main(["timeline"]) == 2
        assert "needs either" in capsys.readouterr().err


class TestIngest:
    FIXTURE = os.path.join(
        os.path.dirname(__file__), "..", "sim", "fixtures",
        "gem5_sample.trace",
    )

    def test_ingest_then_list(self, capsys, tmp_path):
        registry = str(tmp_path / "traces")
        code = main(["ingest", self.FIXTURE, "--registry", registry,
                     "--name", "ext"])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered ext" in out and "sha256" in out
        assert main(["ingest", "--registry", registry, "--list"]) == 0
        out = capsys.readouterr().out
        assert "ext" in out and "gem5" in out

    def test_ingest_rejects_malformed_source(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("1000 r 0\n500 r 0\n")
        code = main(["ingest", str(bad), "--registry",
                     str(tmp_path / "traces")])
        assert code == 2
        assert "ingest failed" in capsys.readouterr().err


class TestCampaignTiers:
    def test_plan_tier_quick(self, capsys, tmp_path):
        code = main(["campaign", "plan", "--tier", "quick",
                     "--dir", str(tmp_path / "c")])
        assert code == 0
        out = capsys.readouterr().out
        assert "quick tier" in out
        # Full-width quick tier spans every cell kind.
        for kind in ("bench", "mix", "alone", "sens"):
            assert f" {kind} " in out

    def test_plan_with_ingested_trace(self, capsys, tmp_path):
        registry = str(tmp_path / "traces")
        assert main(["ingest", TestIngest.FIXTURE, "--registry", registry,
                     "--name", "ext"]) == 0
        capsys.readouterr()
        code = main([
            "campaign", "plan", "--dir", str(tmp_path / "c"),
            "--benchmarks", "lbm", "--mechanisms", "baseline",
            "--ingest", "ext", "--ingest-dir", registry,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert " trace " in out and "ext" in out
