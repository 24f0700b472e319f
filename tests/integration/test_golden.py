"""Golden end-to-end fixtures: full SimulationResults pinned to JSON.

Each case replays a canned trace (checked into ``golden/traces/``) through a
fixed small machine and compares the *entire* ``SimulationResult.to_dict()``
— every stat counter, IPC and event count — against a committed expectation.
Any unintended behavioral change anywhere in the stack shows up as a diff
here; an intended one is re-pinned with::

    pytest tests/integration/test_golden.py --update-golden

``golden/MODEL_VERSION.json`` pins the fixtures (these and the golden
telemetry stream) to :data:`~repro.sim.system.MODEL_VERSION`, so a re-pin
is accepted only together with a version bump.

The simulator is deterministic by construction, so these are exact-equality
comparisons, not tolerances.
"""

import dataclasses
import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from repro.cache.config import CacheConfig
from repro.dram.config import DramConfig
from repro.dramcache.config import DramCacheConfig, stacked_dram_config
from repro.sim.system import MODEL_VERSION, SystemConfig, run_system
from repro.sim.trace import Trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
TESTS_DIR = GOLDEN_DIR.parents[1]
MANIFEST_PATH = GOLDEN_DIR / "MODEL_VERSION.json"

GOLDEN_L1 = CacheConfig(
    name="l1", num_blocks=16, associativity=2, tag_latency=2, data_latency=2,
    mshr_entries=32,
)
GOLDEN_L2 = CacheConfig(
    name="l2", num_blocks=64, associativity=4, tag_latency=6, data_latency=8,
)
GOLDEN_LLC = CacheConfig(
    name="llc", num_blocks=256, associativity=4, tag_latency=8, data_latency=16,
    serial_lookup=True, port_occupancy=2,
)
GOLDEN_DRAM = DramConfig(
    num_banks=4, row_buffer_blocks=16, write_buffer_entries=16
)

#: (case id, mechanism, trace names). One trace per core.
CASES = [
    ("baseline-mixed", "baseline", ["mixed"]),
    ("tadip-stream", "tadip", ["stream"]),
    ("dawb-mixed", "dawb", ["mixed"]),
    ("skipcache-stream", "skipcache", ["stream"]),
    ("dbi-awb-mixed", "dbi+awb", ["mixed"]),
    ("dbi-awb-clb-dual", "dbi+awb+clb", ["mixed", "stream"]),
]


#: (case id, mechanism, level dirty backend, trace names) — the stacked
#: DRAM-cache level between the LLC and off-chip DRAM, both backends.
DRAMCACHE_CASES = [
    ("dramcache-tag-mixed", "baseline", "tag", ["mixed"]),
    ("dramcache-dbi-dual", "dbi+awb", "dbi", ["mixed", "stream"]),
]


def golden_config(mechanism, num_cores):
    return SystemConfig(
        num_cores=num_cores,
        mechanism=mechanism,
        l1=GOLDEN_L1,
        l2=GOLDEN_L2,
        llc=GOLDEN_LLC,
        dram=GOLDEN_DRAM,
        dbi_granularity=16,
        predictor_epoch_cycles=5_000,
    )


def golden_dramcache_config(mechanism, backend, num_cores):
    return dataclasses.replace(
        golden_config(mechanism, num_cores),
        dram_cache=DramCacheConfig(
            num_blocks=64,
            associativity=4,
            dirty_backend=backend,
            dbi_alpha=Fraction(1, 2),
            dbi_granularity=16,
            dbi_associativity=2,
            stacked=stacked_dram_config(
                row_buffer_blocks=16, write_buffer_entries=16
            ),
        ),
    )


def load_trace(name):
    payload = json.loads((GOLDEN_DIR / "traces" / f"{name}.json").read_text())
    return Trace(name, [tuple(record) for record in payload["records"]])


def run_case(mechanism, trace_names):
    traces = [load_trace(name) for name in trace_names]
    return run_system(golden_config(mechanism, len(traces)), traces)


def assert_matches_golden(case_id, actual, request):
    expected_path = GOLDEN_DIR / "expected" / f"{case_id}.json"
    if request.config.getoption("--update-golden"):
        expected_path.parent.mkdir(parents=True, exist_ok=True)
        expected_path.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n"
        )
    expected = json.loads(expected_path.read_text())
    if actual != expected:
        drifted = sorted(
            key
            for key in set(expected["stats"]) | set(actual["stats"])
            if expected["stats"].get(key) != actual["stats"].get(key)
        )
        top_level = sorted(
            key
            for key in set(expected) | set(actual)
            if key != "stats" and expected.get(key) != actual.get(key)
        )
        pytest.fail(
            f"{case_id}: result drifted from the golden fixture.\n"
            f"  top-level fields changed: {top_level}\n"
            f"  stats changed ({len(drifted)}): {drifted[:12]}\n"
            f"If the change is intended, re-pin with --update-golden."
        )


@pytest.mark.parametrize(
    "case_id,mechanism,trace_names", CASES, ids=[case[0] for case in CASES]
)
def test_golden_result(case_id, mechanism, trace_names, request):
    actual = run_case(mechanism, trace_names).to_dict()
    assert_matches_golden(case_id, actual, request)


@pytest.mark.parametrize(
    "case_id,mechanism,backend,trace_names",
    DRAMCACHE_CASES,
    ids=[case[0] for case in DRAMCACHE_CASES],
)
def test_golden_dramcache_result(
    case_id, mechanism, backend, trace_names, request
):
    traces = [load_trace(name) for name in trace_names]
    actual = run_system(
        golden_dramcache_config(mechanism, backend, len(traces)), traces
    ).to_dict()
    # The level's stat groups must be part of the pinned surface.
    assert any(key.startswith("dramcache.") for key in actual["stats"])
    assert any(key.startswith("stacked.") for key in actual["stats"])
    assert_matches_golden(case_id, actual, request)


def all_case_ids():
    return [case[0] for case in CASES] + [case[0] for case in DRAMCACHE_CASES]


def test_golden_fixture_files_are_normalized():
    """Fixtures stay in the canonical (sorted, indented) JSON form."""
    for case_id in all_case_ids():
        path = GOLDEN_DIR / "expected" / f"{case_id}.json"
        text = path.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n", (
            f"{path.name} is not normalized; regenerate with --update-golden"
        )


def test_checked_run_matches_golden():
    """`--check full` reproduces a pinned result bit-for-bit (acceptance)."""
    case_id, mechanism, trace_names = CASES[4]  # dbi-awb-mixed
    traces = [load_trace(name) for name in trace_names]
    checked = run_system(
        golden_config(mechanism, len(traces)), traces, check="full"
    ).to_dict()
    expected = json.loads(
        (GOLDEN_DIR / "expected" / f"{case_id}.json").read_text()
    )
    assert checked == expected


def test_checked_dramcache_run_matches_golden():
    """The level's dirty-domain checks are observational too."""
    case_id, mechanism, backend, trace_names = DRAMCACHE_CASES[1]
    traces = [load_trace(name) for name in trace_names]
    checked = run_system(
        golden_dramcache_config(mechanism, backend, len(traces)),
        traces,
        check="full",
    ).to_dict()
    expected = json.loads(
        (GOLDEN_DIR / "expected" / f"{case_id}.json").read_text()
    )
    assert checked == expected


def fixture_digest():
    """SHA-256 over every golden fixture's path and bytes: the result
    fixtures here plus the golden telemetry stream."""
    paths = sorted((GOLDEN_DIR / "expected").glob("*.json")) + [
        TESTS_DIR / "telemetry" / "golden" / "lbm-dbi-awb.telemetry.jsonl"
    ]
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(f"{path.relative_to(TESTS_DIR).as_posix()}\0".encode())
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def test_golden_manifest(request):
    """The fixtures are the ones recorded for this model version.

    Under ``--update-golden`` (run last, after the fixtures are rewritten)
    the manifest is re-recorded only when ``MODEL_VERSION`` moved: changed
    fixtures under an unchanged version fail instead.
    """
    recorded = json.loads(MANIFEST_PATH.read_text())
    current = {"model_version": MODEL_VERSION, "sha256": fixture_digest()}
    if request.config.getoption("--update-golden") and recorded != current:
        if recorded.get("model_version") == MODEL_VERSION:
            pytest.fail("fixtures changed: bump MODEL_VERSION")
        MANIFEST_PATH.write_text(json.dumps(current, indent=2) + "\n")
        recorded = current
    assert recorded == current, (
        "golden fixtures or MODEL_VERSION changed without the other; re-pin "
        "with --update-golden after bumping MODEL_VERSION"
    )
