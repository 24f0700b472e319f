"""Acceptance: telemetry observes, never perturbs.

A telemetry-enabled run must export a ``SimulationResult.to_dict()`` that is
byte-identical to the same run without telemetry — the simulator is
deterministic, so plain equality on the full dict (every stat counter, IPC
and event count) is the strongest possible form of the guarantee.
"""

import json

import pytest

from repro.analysis.scaling import SCALES
from repro.sim.system import run_system
from repro.telemetry.sampler import TelemetryConfig

#: Two cells spanning the interesting space: the in-tag baseline and the
#: full DBI datapath (AWB probes, CLB bypass, predictor, DBI evictions).
CELLS = [
    ("lbm", "dbi+awb"),
    ("mcf", "baseline"),
]


@pytest.mark.parametrize("bench,mechanism", CELLS)
def test_enabled_run_is_byte_identical(bench, mechanism, tmp_path):
    scale = SCALES["quick"]
    trace = scale.benchmark_trace(bench, refs=3000)
    config = scale.system_config(mechanism)
    plain = run_system(config, [trace]).to_dict()
    jsonl = str(tmp_path / f"{bench}.jsonl")
    sampled = run_system(
        config,
        [trace],
        telemetry=TelemetryConfig(epoch_cycles=1_500, jsonl_path=jsonl),
    ).to_dict()
    assert json.dumps(sampled, sort_keys=True) == json.dumps(
        plain, sort_keys=True
    )


def test_epoch_length_does_not_change_results():
    # Sampling twice as often reads the counters twice as often; the
    # results must not notice.
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("stream", refs=2500)
    config = scale.system_config("dbi+awb+clb")
    coarse = run_system(
        config, [trace], telemetry=TelemetryConfig(epoch_cycles=4_000)
    ).to_dict()
    fine = run_system(
        config, [trace], telemetry=TelemetryConfig(epoch_cycles=500)
    ).to_dict()
    assert coarse == fine


def test_sampler_saw_the_run(tmp_path):
    # Guard against the guarantee holding vacuously (hook never firing).
    scale = SCALES["quick"]
    trace = scale.benchmark_trace("lbm", refs=3000)
    result = None
    from repro.sim.system import System

    system = System(
        scale.system_config("dbi+awb"),
        [trace],
        telemetry=TelemetryConfig(epoch_cycles=1_500),
    )
    result = system.run()
    sampler = system.telemetry
    assert sampler.epochs_emitted > 5
    records = list(sampler.records)
    assert records[-1].final
    # The trailing partial epoch closes exactly at the final clock value
    # (result.cycles is the per-core *measured* span, which is shorter).
    assert records[-1].cycle == system.queue.now
    assert sum(r.instructions for r in records) >= result.instructions[0]
    # The full probe surface showed up: counter deltas from every layer
    # plus the mechanism/DRAM gauges.
    keys = set()
    for record in records:
        keys.update(record.deltas)
        keys.update(record.gauges)
    for expected in (
        "mech.read_requests",
        "dram.bank0.row_hits",
        "mech.dbi_occupancy",
        "dram.write_buffer_depth",
        "l1mshr0.occupancy",
    ):
        assert expected in keys, f"probe {expected} never reported"
