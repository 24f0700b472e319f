"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main


def run_cli(*argv):
    """``python -m repro *argv`` in a subprocess."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def assert_usage_error(result, message):
    """A bad argument: its message alone on stderr, exit status 2."""
    assert result.returncode == 2, result.stderr
    assert result.stderr.strip() == message
    assert "Traceback" not in result.stderr


class TestBadArguments:
    """``run``, ``profile``, ``reliability`` and ``experiment`` report a bad
    argument as ``campaign`` does."""

    def test_profile_zero_refs_exits_2(self):
        result = run_cli("profile", "lbm", "baseline", "--refs", "0")
        assert_usage_error(result, "num_refs must be positive, got 0")

    def test_reliability_zero_refs_exits_2(self):
        result = run_cli("reliability", "--refs", "0")
        assert_usage_error(result, "num_refs must be positive, got 0")

    def test_reliability_bad_alpha_exits_2(self):
        result = run_cli("reliability", "--refs", "1000", "--alphas", "3/2")
        assert_usage_error(result, "coverage must be in [0, 1], got 3/2")

    def test_experiment_negative_workers_exits_2(self):
        result = run_cli("experiment", "fig6", "--workers", "-3")
        assert_usage_error(result, "workers must be non-negative, got -3")
        assert result.stdout == ""

    def test_unknown_scale_exits_2(self):
        result = run_cli("run", "lbm", "baseline", "--scale", "nope")
        assert result.returncode == 2, result.stderr
        assert "argument --scale: invalid choice: 'nope'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_reliability_negative_faults_exits_2(self):
        result = run_cli("reliability", "--faults", "-1")
        assert_usage_error(result, "faults must be non-negative, got -1")

    def test_reliability_zero_interval_exits_2(self):
        result = run_cli("reliability", "--interval", "0")
        assert_usage_error(result, "interval must be positive, got 0")

    def test_reliability_double_bit_fraction_out_of_range_exits_2(self):
        result = run_cli("reliability", "--double-bit-fraction", "1.5")
        assert_usage_error(
            result, "double_bit_fraction must be in [0, 1], got 1.5"
        )


class TestList:
    def test_lists_catalogues(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "dbi+awb+clb" in out
        assert "quick" in out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "bzip2", "dbi", "--refs", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "memory WPKI" in out

    def test_unknown_benchmark_exits_2(self, capsys):
        assert main(["run", "gcc", "dbi", "--refs", "100"]) == 2
        assert "unknown benchmark 'gcc'" in capsys.readouterr().err

    def test_zero_refs_exits_non_zero(self):
        # --refs 0 once ran the scale's full default trace.
        result = run_cli("run", "lbm", "baseline", "--refs", "0")
        assert_usage_error(result, "num_refs must be positive, got 0")
        assert "IPC" not in result.stdout

    def test_campaign_zero_refs_exits_2(self, capsys, tmp_path):
        code = main([
            "campaign", "plan", "--dir", str(tmp_path / "c"),
            "--benchmarks", "lbm", "--mechanisms", "baseline",
            "--refs", "0",
        ])
        assert code == 2
        assert "refs must be positive, got 0" in capsys.readouterr().err


class TestExperiment:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_keep_going_writes_failure_manifest(self, capsys, tmp_path,
                                                monkeypatch):
        """Chaos that kills every attempt: the artifact still renders (all
        cells n/a) and the failure manifest lands in results/."""
        import json
        import os

        monkeypatch.chdir(tmp_path)
        # max-attempts 1: every job's first attempt crashes, so every job
        # fails outright and lands in the manifest.
        code = main([
            "experiment", "fig6", "--scale", "quick",
            "--benchmarks", "bzip2", "--workers", "2", "--quiet",
            "--keep-going", "--max-attempts", "1", "--no-cache",
            "--chaos", "seed=1,crash=1.0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "n/a" in captured.out
        assert "jobs failed" in captured.err
        manifest_path = os.path.join("results", "sweep_failures.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["jobs_failed"] > 0
        assert all(f["kind"] == "crash" for f in manifest["failures"])


class TestReliability:
    def test_reliability_reports_the_ecc_contrast(self, capsys):
        """Acceptance smoke: DBI rows report zero data loss; the untracked
        baseline with the same budget appears alongside."""
        code = main([
            "reliability", "--scale", "quick", "--refs", "6000",
            "--mechanisms", "baseline,dbi", "--alphas", "1/4",
            "--faults", "60", "--interval", "150",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "DBI-tracked" in out
        assert "untracked (coverage=1/4)" in out
        assert "data loss" in out
        assert "lost 0 blocks" in out  # tracked domains lose nothing

    def test_reliability_accepts_fraction_alphas(self, capsys):
        code = main([
            "reliability", "--scale", "quick", "--refs", "3000",
            "--mechanisms", "dbi", "--alphas", "1/2", "--faults", "20",
        ])
        assert code == 0
        assert "alpha=1/2" in capsys.readouterr().out
