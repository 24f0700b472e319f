"""Golden telemetry fixture: a full epoch stream pinned line-for-line.

Complements the golden SimulationResult fixtures (which pin *final* stats):
this pins the per-epoch trajectory, so a change that nets out to the same
totals but redistributes work across the run — a warmup shift, an eviction
storm moving earlier, a gauge going wrong mid-run — still shows up.

The simulator and trace generator are seeded and deterministic, so the
comparison is exact text equality. The stream is part of the golden
manifest (``tests/integration/golden/MODEL_VERSION.json``), so intended
changes are re-pinned after a ``MODEL_VERSION`` bump, with::

    pytest tests/integration/test_golden.py \
        tests/telemetry/test_golden_telemetry.py --update-golden
"""

import json
import pathlib

import pytest

from repro.analysis.scaling import SCALES
from repro.sim.system import run_system
from repro.telemetry.sampler import TelemetryConfig, read_jsonl

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "lbm-dbi-awb.telemetry.jsonl"
)


def run_golden_cell(jsonl_path):
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("lbm", refs=3000)
    run_system(
        scale.system_config("dbi+awb"),
        [trace],
        telemetry=TelemetryConfig(
            epoch_cycles=1_500,
            jsonl_path=str(jsonl_path),
            meta=(("benchmark", "lbm"), ("mechanism", "dbi+awb")),
        ),
    )


def test_golden_epoch_stream(tmp_path, request):
    actual_path = tmp_path / "actual.jsonl"
    run_golden_cell(actual_path)
    actual = actual_path.read_text()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(actual)
    expected = GOLDEN_PATH.read_text()
    if actual != expected:
        actual_lines = actual.splitlines()
        expected_lines = expected.splitlines()
        first_diff = next(
            (
                i
                for i, (a, b) in enumerate(zip(actual_lines, expected_lines))
                if a != b
            ),
            min(len(actual_lines), len(expected_lines)),
        )
        pytest.fail(
            f"epoch stream drifted from the golden fixture: "
            f"{len(expected_lines)} expected vs {len(actual_lines)} actual "
            f"lines, first difference at line {first_diff}.\n"
            f"If the change is intended, re-pin with --update-golden."
        )


def test_golden_fixture_is_readable():
    """The committed fixture parses through the public reader."""
    header, records = read_jsonl(str(GOLDEN_PATH))
    assert header["benchmark"] == "lbm"
    assert header["mechanism"] == "dbi+awb"
    assert header["epoch_cycles"] == 1_500
    assert len(records) > 20
    assert records[-1].final
    # Every line is in canonical sorted-keys form (what the sampler emits),
    # so diffs against a regenerated fixture are line-stable.
    for line in GOLDEN_PATH.read_text().splitlines():
        payload = json.loads(line)
        assert line == json.dumps(payload, sort_keys=True)
