"""Smoke tests: every example script runs to completion."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=600):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "IPC" in out
        assert "write row hit rate" in out

    def test_ecc_overhead(self):
        out = run_example("ecc_overhead.py")
        assert "Table 4" in out
        assert "protection invariant holds" in out

    def test_cache_flush(self):
        out = run_example("cache_flush.py")
        assert "lookup reduction" in out

    def test_single_core_study_small(self):
        out = run_example(
            "single_core_study.py", "--benchmarks", "bzip2", "--scale", "quick"
        )
        assert "Figure 6a" in out
        assert "bzip2" in out

    def test_section7_extensions(self):
        out = run_example("section7_extensions.py")
        assert "Self-balancing DRAM-cache dispatch" in out
        assert "lookup reduction" in out
        phases = {
            match["phase"]: (int(match["forced"]), int(match["share"]))
            for match in re.finditer(
                r"(?P<phase>[\w-]+)\s*:\s*\d+ reads,\s*(?P<forced>\d+) "
                r"forced dirty,\s*(?P<share>\d+)% offloaded",
                out,
            )
        }
        write_forced, write_share = phases["write-heavy"]
        _, read_share = phases["read-mostly"]
        assert write_forced > 0
        assert write_share < read_share

    @pytest.mark.slow
    def test_multicore_interference_small(self):
        out = run_example(
            "multicore_interference.py", "--cores", "2", "--mixes", "1"
        )
        assert "weighted speedup" in out
