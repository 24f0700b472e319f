"""Kill-and-resume chaos proof (slow: real orchestrator subprocesses).

Each test SIGKILLs (or SIGTERM-drains) a campaign subprocess at an exact
scheduled point, resumes it with plain ``repro campaign run``, and
asserts the recovered artifacts are byte-identical to an uninterrupted
reference run. SIGKILL cannot be exercised in-process (it would take
pytest down too), hence the subprocess harness. The same proof gates CI
through ``tools/soak_gate.py``.

Journal seq layout for the 2-cell inline campaign (``--workers 0``):
0 header, 1-2 cell, 3 planned, 4-5 dispatch, 6-7 done, 8 complete.
"""

import pytest

from repro.campaign.proof import KillPoint, kill_and_resume_proof

pytestmark = pytest.mark.slow


class TestTelemetryCampaignProof:
    def test_kill_points_recover_byte_identically(self, tmp_path):
        report = kill_and_resume_proof(
            str(tmp_path),
            variant="telemetry",
            kill_points=[
                # SIGKILL mid-journal-append: half the first "done" record
                # is durable when the process dies.
                KillPoint("torn-mid-append", "kill=6,mode=torn"),
                # SIGKILL right after the first dispatch became durable.
                KillPoint("kill-after-dispatch", "kill=4,mode=kill"),
                # SIGTERM: graceful drain of the in-flight cell.
                KillPoint("term-drain", "kill=4,mode=term", expect="drain"),
            ],
            telemetry=True,
        )
        assert report.ok, report.to_text()


class TestCheckpointCampaignProof:
    def test_kill_mid_warm_build_recovers(self, tmp_path):
        report = kill_and_resume_proof(
            str(tmp_path),
            variant="checkpoint",
            kill_points=[
                # SIGKILL while the warm-image build lock is held and
                # partial staging litter is on disk: the resume must
                # reclaim the dead owner's lock and rebuild.
                KillPoint("kill-mid-warm-build", "warm_kill=1"),
            ],
            checkpoint=True,
        )
        assert report.ok, report.to_text()


class TestShardedCampaignProof:
    def test_kill_after_cell_image_recovers(self, tmp_path):
        report = kill_and_resume_proof(
            str(tmp_path),
            variant="sharded",
            kill_points=[
                # SIGKILL once the first cell's image is durable and none
                # of its segments has been collected: the resume reuses
                # the image.
                KillPoint("kill-after-cell-image", "image_kill=1"),
            ],
            shards=2,
        )
        assert report.ok, report.to_text()
