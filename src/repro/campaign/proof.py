"""Kill-and-resume chaos proof: recovery must be byte-identical.

The harness runs a small campaign grid three ways and compares bytes:

1. an *uninterrupted* reference run;
2. for each scheduled kill point, a fresh directory whose orchestrator is
   SIGKILLed (or SIGTERM-drained) exactly there, then resumed with
   ``repro campaign run`` until it completes;
3. the final ``results.json`` / ``report.txt`` (and, for telemetry
   campaigns, every ``*.telemetry.jsonl``) of each recovered campaign must
   equal the reference **byte for byte**.

Kill points are scheduled through :class:`~repro.analysis.chaos.
FaultInjector` (a ``REPRO_CHAOS`` spec, the one chaos grammar) at exact
journal sequence offsets or build ordinals, so each proof run dies at the
same instant every time — including *mid-journal-append* (a torn half
record is fsync'd first), *mid-image-build* (partial temp litter is left
next to the image, inert on resume) and *after a sharded cell's image is
written* (its segments not yet collected). Campaigns run with
``--workers 0`` (inline) so the journal offsets of the interesting
transitions are deterministic.

Used by ``tools/soak_gate.py`` (the CI ``campaign`` stage) and by the
slow-marked tests in ``tests/campaign/test_chaos_proof.py``.
"""

from __future__ import annotations

import filecmp
import glob
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.chaos import CHAOS_ENV

#: Exit statuses that count as "the scheduled fault fired": death by
#: SIGKILL (negative signal number from subprocess) or a drain exit.
_SIGKILL_RC = -9


@dataclass(frozen=True)
class KillPoint:
    """One scheduled fault in a proof run."""

    name: str
    spec: str  # REPRO_CHAOS value, e.g. "kill=5,mode=torn"
    expect: str = "sigkill"  # "sigkill" | "drain"


@dataclass
class ProofReport:
    """Outcome of one proof: which kill points recovered byte-identically."""

    variant: str
    reference_dir: str
    points: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(point["identical"] for point in self.points)

    def to_text(self) -> str:
        lines = [f"chaos proof [{self.variant}]:"]
        for point in self.points:
            verdict = "byte-identical" if point["identical"] else "DIVERGED"
            lines.append(
                f"  {point['name']:<28s} died as scheduled "
                f"({point['death']}), resumed in {point['resumes']} "
                f"run(s): {verdict}"
            )
            for detail in point.get("differences", []):
                lines.append(f"    - {detail}")
        return "\n".join(lines)


def campaign_command(
    directory: str,
    benchmarks: str,
    mechanisms: str,
    refs: int,
    telemetry: bool = False,
    checkpoint: bool = False,
    tier: Optional[str] = None,
    cores: Optional[str] = None,
    sensitivity: Optional[str] = None,
    sensitivity_benchmarks: Optional[str] = None,
    shards: Optional[int] = None,
) -> List[str]:
    """The ``repro campaign run`` invocation the proof drives."""
    command = [
        sys.executable, "-m", "repro", "campaign", "run",
        "--dir", directory,
        "--benchmarks", benchmarks,
        "--mechanisms", mechanisms,
        "--refs", str(refs),
        "--workers", "0",
        "--quiet",
    ]
    if tier is not None:
        command.extend(["--tier", tier])
    else:
        command.extend(["--scale", "quick"])
    if cores is not None:
        command.extend(["--cores", cores])
    if sensitivity is not None:
        command.extend(["--sensitivity", sensitivity])
    if sensitivity_benchmarks is not None:
        command.extend(["--sensitivity-benchmarks", sensitivity_benchmarks])
    if shards is not None:
        command.extend(["--shards", str(shards)])
    if telemetry:
        command.append("--telemetry")
    if checkpoint:
        command.append("--checkpoint")
    return command


def run_campaign_process(
    command: Sequence[str],
    chaos_spec: Optional[str] = None,
    timeout: float = 600.0,
) -> subprocess.CompletedProcess:
    """Run one campaign subprocess, optionally under scheduled chaos."""
    env = os.environ.copy()
    src = os.path.join(os.path.dirname(__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    if chaos_spec is not None:
        env[CHAOS_ENV] = chaos_spec
    else:
        env.pop(CHAOS_ENV, None)
    return subprocess.run(
        list(command),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _compare_artifacts(
    reference_dir: str, recovered_dir: str, telemetry: bool
) -> List[str]:
    """Byte-compare final artifacts; returns human-readable differences."""
    differences: List[str] = []
    for name in ("results.json", "report.txt"):
        ref = os.path.join(reference_dir, name)
        got = os.path.join(recovered_dir, name)
        if not os.path.exists(got):
            differences.append(f"{name}: missing after recovery")
        elif not filecmp.cmp(ref, got, shallow=False):
            differences.append(f"{name}: bytes differ from reference")
    # Surfaces (Figure 6/7/8 + sensitivity) are derived from results.json
    # but rendered separately; recovery must regenerate the same bytes.
    ref_surfaces = {
        os.path.basename(p)
        for p in glob.glob(os.path.join(reference_dir, "surfaces", "*"))
    }
    got_surfaces = {
        os.path.basename(p)
        for p in glob.glob(os.path.join(recovered_dir, "surfaces", "*"))
    }
    for missing in sorted(ref_surfaces - got_surfaces):
        differences.append(f"surfaces/{missing}: missing after recovery")
    for extra in sorted(got_surfaces - ref_surfaces):
        differences.append(f"surfaces/{extra}: unexpected artifact")
    for name in sorted(ref_surfaces & got_surfaces):
        if not filecmp.cmp(
            os.path.join(reference_dir, "surfaces", name),
            os.path.join(recovered_dir, "surfaces", name),
            shallow=False,
        ):
            differences.append(f"surfaces/{name}: bytes differ")
    if telemetry:
        ref_names = {
            os.path.basename(p)
            for p in glob.glob(
                os.path.join(reference_dir, "telemetry", "*.telemetry.jsonl")
            )
        }
        got_names = {
            os.path.basename(p)
            for p in glob.glob(
                os.path.join(recovered_dir, "telemetry", "*.telemetry.jsonl")
            )
        }
        for missing in sorted(ref_names - got_names):
            differences.append(f"telemetry/{missing}: missing after recovery")
        for extra in sorted(got_names - ref_names):
            differences.append(f"telemetry/{extra}: unexpected artifact")
        for name in sorted(ref_names & got_names):
            if not filecmp.cmp(
                os.path.join(reference_dir, "telemetry", name),
                os.path.join(recovered_dir, "telemetry", name),
                shallow=False,
            ):
                differences.append(f"telemetry/{name}: bytes differ")
    return differences


def kill_and_resume_proof(
    base_dir: str,
    variant: str,
    kill_points: Sequence[KillPoint],
    benchmarks: str = "lbm",
    mechanisms: str = "baseline,dbi",
    refs: int = 800,
    telemetry: bool = False,
    checkpoint: bool = False,
    tier: Optional[str] = None,
    cores: Optional[str] = None,
    sensitivity: Optional[str] = None,
    sensitivity_benchmarks: Optional[str] = None,
    shards: Optional[int] = None,
    max_resumes: int = 4,
) -> ProofReport:
    """Run the proof: reference run, then kill/resume at every point.

    Raises:
        AssertionError: a run did not die as scheduled, a resume did not
            converge within ``max_resumes``, or (reported, not raised) the
            recovered artifacts diverged — check :attr:`ProofReport.ok`.
    """
    reference_dir = os.path.join(base_dir, f"reference-{variant}")
    reference = run_campaign_process(
        campaign_command(
            reference_dir, benchmarks, mechanisms, refs,
            telemetry=telemetry, checkpoint=checkpoint,
            tier=tier, cores=cores, sensitivity=sensitivity,
            sensitivity_benchmarks=sensitivity_benchmarks, shards=shards,
        )
    )
    assert reference.returncode == 0, (
        f"reference campaign failed (rc {reference.returncode}):\n"
        f"{reference.stdout}\n{reference.stderr}"
    )
    report = ProofReport(variant=variant, reference_dir=reference_dir)
    for point in kill_points:
        directory = os.path.join(base_dir, f"{variant}-{point.name}")
        command = campaign_command(
            directory, benchmarks, mechanisms, refs,
            telemetry=telemetry, checkpoint=checkpoint,
            tier=tier, cores=cores, sensitivity=sensitivity,
            sensitivity_benchmarks=sensitivity_benchmarks, shards=shards,
        )
        first = run_campaign_process(command, chaos_spec=point.spec)
        if point.expect == "sigkill":
            assert first.returncode == _SIGKILL_RC, (
                f"{point.name}: expected death by SIGKILL, got rc "
                f"{first.returncode}:\n{first.stdout}\n{first.stderr}"
            )
            death = "SIGKILL"
        else:
            assert first.returncode == 128 + 15, (
                f"{point.name}: expected drain exit 143, got rc "
                f"{first.returncode}:\n{first.stdout}\n{first.stderr}"
            )
            death = "SIGTERM drain"
        resumes = 0
        while resumes < max_resumes:
            resumes += 1
            resumed = run_campaign_process(command)  # no chaos: clean resume
            if resumed.returncode == 0:
                break
            assert resumed.returncode != 2, (
                f"{point.name}: resume refused (rc 2):\n{resumed.stderr}"
            )
        else:
            raise AssertionError(
                f"{point.name}: campaign did not converge within "
                f"{max_resumes} resume(s)"
            )
        differences = _compare_artifacts(reference_dir, directory, telemetry)
        report.points.append(
            {
                "name": point.name,
                "death": death,
                "resumes": resumes,
                "identical": not differences,
                "differences": differences,
            }
        )
    return report
