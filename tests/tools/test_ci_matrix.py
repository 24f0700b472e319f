"""CI plumbing stays consistent: workflows reference real stages, the
coverage ratchet only ever moves the floor up, the perf gate's report
stays off the committed perf trajectory, and the gate decides on the
ratio of the two sides' perfbench result lines."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

yaml = pytest.importorskip("yaml")

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
CI_SH = os.path.join(REPO, "tools", "ci.sh")
WORKFLOWS = [
    os.path.join(REPO, ".github", "workflows", "ci.yml"),
    os.path.join(REPO, ".github", "workflows", "nightly.yml"),
]
RATCHET = os.path.join(REPO, "tools", "coverage_ratchet.py")


def script_stages():
    """ALL_STAGES as declared in tools/ci.sh (possibly spanning lines)."""
    text = open(CI_SH).read()
    match = re.search(r"ALL_STAGES=\(([^)]*)\)", text)
    assert match, "ALL_STAGES declaration not found in tools/ci.sh"
    return match.group(1).split()


def workflow_stage_references():
    """Every stage token a workflow passes to tools/ci.sh."""
    referenced = set()
    for path in WORKFLOWS:
        doc = yaml.safe_load(open(path))
        for job in doc.get("jobs", {}).values():
            for include in (
                job.get("strategy", {}).get("matrix", {}).get("include", [])
            ):
                referenced.update(str(include.get("stages", "")).split())
            for step in job.get("steps", []):
                run = step.get("run") or ""
                for line in run.splitlines():
                    line = line.strip()
                    if "ci.sh" not in line:
                        continue
                    tail = line.split("ci.sh", 1)[1]
                    # Template expressions (${{ matrix.stages }}) are
                    # covered by the matrix includes above.
                    tail = re.sub(r"\$\{\{.*?\}\}", "", tail)
                    for token in tail.split():
                        if token.startswith("-"):
                            continue
                        referenced.add(token)
    return referenced


class TestWorkflowStageConsistency:
    def test_referenced_stages_exist(self):
        stages = set(script_stages())
        referenced = workflow_stage_references()
        assert referenced, "no stage references found in workflows"
        unknown = referenced - stages
        assert not unknown, f"workflows reference unknown stages: {unknown}"

    def test_every_stage_is_referenced_somewhere(self):
        stages = set(script_stages())
        referenced = workflow_stage_references()
        orphaned = stages - referenced
        assert not orphaned, (
            f"stages never run by any workflow: {orphaned}"
        )

    def test_list_flag_matches_declaration(self):
        out = subprocess.run(
            ["bash", CI_SH, "--list"], capture_output=True, text=True,
            check=True, cwd=REPO,
        )
        assert out.stdout.split() == script_stages()

    def test_no_duplicate_stages(self):
        stages = script_stages()
        assert len(stages) == len(set(stages))


def run_ratchet(tmp_path, percent, floor):
    coverage = tmp_path / "coverage.json"
    coverage.write_text(
        json.dumps({"totals": {"percent_covered": percent}})
    )
    floor_file = tmp_path / "floor.txt"
    floor_file.write_text(f"{floor}\n")
    proc = subprocess.run(
        [sys.executable, RATCHET, "--coverage-json", str(coverage),
         "--floor-file", str(floor_file)],
        capture_output=True, text=True,
    )
    return proc, int(floor_file.read_text().strip())


class TestCoverageRatchet:
    def test_raises_floor_beyond_margin(self, tmp_path):
        proc, floor = run_ratchet(tmp_path, percent=87.6, floor=80)
        assert proc.returncode == 0
        assert floor == 86  # int(87.6 - 1.0 margin)

    def test_holds_within_margin(self, tmp_path):
        proc, floor = run_ratchet(tmp_path, percent=80.9, floor=80)
        assert proc.returncode == 0
        assert floor == 80

    def test_never_lowers(self, tmp_path):
        proc, floor = run_ratchet(tmp_path, percent=70.0, floor=80)
        assert proc.returncode == 0
        assert floor == 80

    def test_missing_report_is_a_noop(self, tmp_path):
        floor_file = tmp_path / "floor.txt"
        floor_file.write_text("80\n")
        proc = subprocess.run(
            [sys.executable, RATCHET,
             "--coverage-json", str(tmp_path / "absent.json"),
             "--floor-file", str(floor_file)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert floor_file.read_text().strip() == "80"

    def test_unreadable_report_fails(self, tmp_path):
        coverage = tmp_path / "coverage.json"
        coverage.write_text("{not json")
        floor_file = tmp_path / "floor.txt"
        floor_file.write_text("80\n")
        proc = subprocess.run(
            [sys.executable, RATCHET, "--coverage-json", str(coverage),
             "--floor-file", str(floor_file)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


def load_perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", os.path.join(REPO, "tools", "perf_gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfGateReport:
    """The perf gate's report never lands on a committed trajectory file."""

    def test_report_is_a_gitignored_tools_file(self):
        report = load_perf_gate().REPORT_PATH
        relative = os.path.relpath(report, REPO)
        assert not os.path.basename(relative).startswith("BENCH_")
        ignored = open(os.path.join(REPO, ".gitignore")).read().splitlines()
        assert relative in ignored

    def test_workflows_upload_the_report_not_the_trajectory(self):
        relative = os.path.relpath(load_perf_gate().REPORT_PATH, REPO)
        uploads = []
        for path in WORKFLOWS:
            doc = yaml.safe_load(open(path))
            for job in doc.get("jobs", {}).values():
                for step in job.get("steps", []):
                    if "upload-artifact" in str(step.get("uses", "")):
                        uploads.append(str(step.get("with", {}).get("path", "")))
        assert not [path for path in uploads if "BENCH_" in path]
        assert sum(relative in path for path in uploads) == len(WORKFLOWS)


def perfbench_line(refs_per_s, failed=0):
    """The last line of a ``perfbench/run.py`` run, as the gate reads it."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": 6,
        "failed": failed,
        "metrics": {
            "sim_refs_per_s": {"value": refs_per_s, "unit": "refs/s"},
            "peak_rss_mib": {"value": 40.0, "unit": "MiB"},
        },
    })


class TestPerfGateDecision:
    """The gate's verdict from hand-written result lines, no subprocess."""

    PINNED = 1.25
    REFERENCE = 20_000.0

    def verdict(self, head_refs_per_s, head_failed=0, reference_failed=0):
        gate = load_perf_gate()
        head = gate.parse_result(
            "sim_refs_per_s 1 refs/s\n" + perfbench_line(head_refs_per_s, head_failed)
        )
        reference = gate.parse_result(perfbench_line(self.REFERENCE, reference_failed))
        report = gate.make_report({"memory-bound": gate.compare(head, reference)})
        baseline = {
            "schema": gate.SCHEMA,
            "workloads": {"memory-bound": {"ratio": self.PINNED}},
        }
        return gate.check(report, baseline, threshold=0.20)

    def test_passes_at_the_pinned_ratio(self):
        assert self.verdict(self.PINNED * self.REFERENCE) == []

    def test_passes_just_above_the_floor(self):
        assert self.verdict(0.81 * self.PINNED * self.REFERENCE) == []

    def test_fails_below_the_floor(self):
        failures = self.verdict(0.79 * self.PINNED * self.REFERENCE)
        assert len(failures) == 1
        assert "memory-bound" in failures[0] and "20%" in failures[0]

    def test_fails_when_either_side_failed_a_cell(self):
        refs_per_s = self.PINNED * self.REFERENCE
        assert self.verdict(refs_per_s, head_failed=1) == [
            "memory-bound: head failed 1 of 6 cells"
        ]
        assert self.verdict(refs_per_s, reference_failed=1) == [
            "memory-bound: reference failed 1 of 6 cells"
        ]

    def test_fails_on_a_baseline_of_another_schema(self):
        gate = load_perf_gate()
        row = gate.compare(
            gate.parse_result(perfbench_line(self.REFERENCE)),
            gate.parse_result(perfbench_line(self.REFERENCE)),
        )
        report = gate.make_report({"memory-bound": row})
        failures = gate.check(
            report, {"workloads": {"memory-bound": {"ratio": 1.0}}}, 0.20
        )
        assert len(failures) == 1 and "schema" in failures[0]

    def test_report_and_committed_baseline_carry_the_schema(self):
        gate = load_perf_gate()
        assert gate.make_report({})["schema"] == gate.SCHEMA
        baseline = json.loads(open(gate.BASELINE_PATH).read())
        assert baseline["schema"] == gate.SCHEMA
        assert set(baseline["workloads"]) == set(gate.WORKLOADS)
