"""Campaign orchestrator: completion, recovery, and signal drain.

These tests run real (tiny) campaigns inline — quick scale, one
benchmark, two mechanisms, ``workers=0`` — so journal offsets are
deterministic. SIGKILL-grade chaos (which would take pytest down with
it) lives in the subprocess-based ``test_chaos_proof.py``.
"""

import filecmp
import glob
import json
import os
import signal

import pytest

from repro.analysis.chaos import ChaosConfig, parse_chaos_spec
from repro.campaign.journal import (
    CampaignJournal,
    encode_record,
    scan_journal,
)
from repro.campaign.orchestrator import (
    Campaign,
    CampaignConfig,
    CampaignError,
    campaign_status,
    manifest_path,
    render_status,
    report_path,
    results_path,
)
from repro.sim.system import MODEL_VERSION

REFS = 300


def make_config(**overrides):
    base = dict(
        scale="quick",
        benchmarks=("lbm",),
        mechanisms=("baseline", "dbi"),
        core_counts=(1,),
        refs=REFS,
        workers=0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def run_campaign(directory, config=None, chaos=None):
    if os.path.exists(os.path.join(directory, "journal.jsonl")):
        campaign = Campaign.open(directory)
    else:
        campaign = Campaign.create(directory, config or make_config())
    with campaign:
        return campaign.run(progress=None, chaos=chaos)


def assert_no_litter(directory):
    """No atomic-write staging or partial files survive a finished run."""
    litter = [
        path
        for pattern in ("**/*.partial", "**/*.tmp.*")
        for path in glob.glob(
            os.path.join(directory, pattern), recursive=True
        )
    ]
    assert litter == [], f"staging litter left behind: {litter}"


class TestCompletion:
    def test_run_to_complete(self, tmp_path):
        directory = str(tmp_path / "camp")
        outcome = run_campaign(directory)
        assert outcome.status == "complete"
        assert outcome.exit_code == 0
        assert outcome.cells_done == outcome.cells_total == 2
        assert os.path.exists(results_path(directory))
        assert os.path.exists(report_path(directory))
        manifest = json.load(open(manifest_path(directory)))
        assert manifest["status"] == "complete"
        scan = scan_journal(os.path.join(directory, "journal.jsonl"))
        assert scan.records[-1]["kind"] == "complete"
        assert_no_litter(directory)

    def test_rerun_is_idempotent(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory)
        results_before = open(results_path(directory), "rb").read()
        report_before = open(report_path(directory), "rb").read()
        outcome = run_campaign(directory)  # opens the completed campaign
        assert outcome.status == "complete"
        assert open(results_path(directory), "rb").read() == results_before
        assert open(report_path(directory), "rb").read() == report_before

    def test_results_payload_shape(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory)
        payload = json.load(open(results_path(directory)))
        assert set(payload["cells"]) == {
            "1c/lbm/baseline", "1c/lbm/dbi",
        }
        for entry in payload["cells"].values():
            assert entry["key"]
            assert "ipc" in entry["result"]

    def test_live_lock_refuses_second_orchestrator(self, tmp_path):
        directory = str(tmp_path / "camp")
        campaign = Campaign.create(directory, make_config())
        try:
            with pytest.raises(CampaignError, match="another orchestrator"):
                Campaign.open(directory)
        finally:
            campaign.close()

    def test_create_refuses_existing_journal(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.create(directory, make_config()).close()
        with pytest.raises(CampaignError, match="already exists"):
            Campaign.create(directory, make_config())


class TestShardedCampaign:
    def test_each_cell_warms_once_and_each_workload_is_built_once(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis import runner as runner_module
        from repro.campaign import orchestrator
        from repro.checkpoint import warm

        calls = {"traces": 0, "encodings": 0, "warm-ups": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            orchestrator, "cell_traces",
            counting("traces", orchestrator.cell_traces),
        )
        monkeypatch.setattr(
            runner_module, "_trace_chunks",
            counting("encodings", runner_module._trace_chunks),
        )
        monkeypatch.setattr(
            warm, "run_until_warm", counting("warm-ups", warm.run_until_warm)
        )
        directory = str(tmp_path / "camp")
        outcome = run_campaign(directory, make_config(shards=2, refs=800))
        assert outcome.status == "complete"
        # Two mechanisms of one benchmark: one workload, dispatch and
        # finalize together; one warm-up per cell; no image left behind.
        assert calls == {"traces": 1, "encodings": 1, "warm-ups": 2}
        assert not glob.glob(os.path.join(directory, "cache", "*.ckpt"))

    def test_stale_cell_images_are_rebuilt(self, tmp_path):
        from repro.analysis.runner import job_key
        from repro.analysis.scaling import SCALES
        from repro.campaign.plan import cell_config, cell_traces
        from repro.checkpoint import snapshot_system, warm_cell
        from tests.checkpoint.conftest import restamp

        config = make_config(shards=2, refs=800)
        reference = str(tmp_path / "reference")
        run_campaign(reference, config)
        directory = str(tmp_path / "stale")
        campaign = Campaign.create(directory, config)
        # Plant each cell's image as another model version's image of the
        # other mechanism's cell: restoring one would swap the results.
        scale = SCALES["quick"]
        (first, second) = campaign.cells
        cache = os.path.join(directory, "cache")
        os.makedirs(cache)
        for cell, other in ((first, second), (second, first)):
            traces = cell_traces(scale, cell, refs=config.refs)
            image = os.path.join(
                cache, f"cell-{job_key(cell_config(scale, cell), traces)}.ckpt"
            )
            stale = snapshot_system(warm_cell(cell_config(scale, other), traces))
            with open(image, "wb") as handle:
                handle.write(restamp(stale, MODEL_VERSION + 1))
        with campaign:
            outcome = campaign.run(progress=None)
        assert outcome.status == "complete"
        assert "2 corrupt or stale image(s) quarantined" in outcome.sweep_summary
        assert len(glob.glob(os.path.join(cache, "*.ckpt.corrupt"))) == 2
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )


class TestRecovery:
    def test_resume_after_torn_tail_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_campaign(reference)
        directory = str(tmp_path / "torn")
        Campaign.create(directory, make_config()).close()
        journal = os.path.join(directory, "journal.jsonl")
        with open(journal, "ab") as handle:
            handle.write(b'{"kind": "dispatch", "cell": "1c/lbm/ba')
        campaign = Campaign.open(directory)
        assert campaign.recovered_torn == journal + ".torn"
        with campaign:
            outcome = campaign.run(progress=None)
        assert outcome.status == "complete"
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )
        assert filecmp.cmp(
            report_path(reference), report_path(directory), shallow=False
        )
        assert_no_litter(directory)

    def test_mid_plan_journal_refused(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.create(directory, make_config()).close()
        journal = os.path.join(directory, "journal.jsonl")
        lines = open(journal, "rb").read().splitlines(keepends=True)
        # Drop the trailing "planned" commit record: died mid-plan.
        with open(journal, "wb") as handle:
            handle.writelines(lines[:-1])
        with pytest.raises(CampaignError, match="mid-plan"):
            Campaign.open(directory)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.create(directory, make_config()).close()
        journal = os.path.join(directory, "journal.jsonl")
        scan = scan_journal(journal)
        header = dict(scan.records[0])
        header.pop("sum")
        header["config"] = dict(header["config"], refs=REFS + 1)
        rewritten = [encode_record(header) + "\n"]
        for record in scan.records[1:]:
            body = dict(record)
            body.pop("sum")
            rewritten.append(encode_record(body) + "\n")
        with open(journal, "w") as handle:
            handle.writelines(rewritten)
        with pytest.raises(CampaignError, match="fingerprint"):
            Campaign.open(directory)

    @pytest.mark.parametrize("stamp", ["other", None])
    def test_journal_from_another_model_version_refused(self, tmp_path, stamp):
        directory = str(tmp_path / "camp")
        config = make_config()
        Campaign.create(directory, config).close()
        journal = os.path.join(directory, "journal.jsonl")
        scan = scan_journal(journal)
        header = dict(scan.header)
        assert header["model_version"] == MODEL_VERSION
        # The version rides beside the plan identity, not inside it.
        assert "model_version" not in json.dumps(config.plan_identity())
        header.pop("sum")
        header.pop("model_version")
        if stamp is not None:
            header["model_version"] = stamp
        rewritten = [encode_record(header) + "\n"]
        for record in scan.records[1:]:
            body = dict(record)
            body.pop("sum")
            rewritten.append(encode_record(body) + "\n")
        with open(journal, "w") as handle:
            handle.writelines(rewritten)
        with pytest.raises(
            CampaignError,
            match=f"model version {stamp}, this simulator is model version "
            f"{MODEL_VERSION}",
        ):
            Campaign.open(directory)


class TestSignalDrain:
    """Satellite: SIGTERM/SIGINT during an active sweep drain cleanly."""

    def _assert_drained(self, directory, outcome, signum):
        assert outcome.status == "drained"
        assert outcome.exit_code == 128 + signum
        assert outcome.signal == signum
        manifest = json.load(open(manifest_path(directory)))
        assert manifest["status"] == "drained"
        scan = scan_journal(os.path.join(directory, "journal.jsonl"))
        assert scan.records[-1]["kind"] == "drain"
        # In-flight work was collected, not abandoned: the drain must not
        # strand partial artifacts anywhere under the campaign.
        assert_no_litter(directory)

    def test_sigterm_drains_and_resume_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_campaign(reference)
        directory = str(tmp_path / "drained")
        # Deterministic delivery: SIGTERM right after the first dispatch
        # record (seq 4) becomes durable, while that cell is in flight.
        chaos = ChaosConfig(kill=4, mode="term")
        outcome = run_campaign(directory, chaos=chaos)
        self._assert_drained(directory, outcome, signal.SIGTERM)
        assert outcome.cells_done == 1  # the in-flight cell was drained
        assert outcome.pending == ["1c/lbm/dbi"]
        resumed = run_campaign(directory)
        assert resumed.status == "complete"
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )
        assert filecmp.cmp(
            report_path(reference), report_path(directory), shallow=False
        )

    def test_one_spec_fires_journal_and_runner_faults(self, tmp_path):
        """A journal kill point and cache corruption in one spec both fire
        in one run: the journal and the runner share one injector."""
        reference = str(tmp_path / "reference")
        run_campaign(reference)
        directory = str(tmp_path / "camp")
        chaos = parse_chaos_spec("kill=4,mode=term,corrupt=1.0")
        outcome = run_campaign(directory, chaos=chaos)
        self._assert_drained(directory, outcome, signal.SIGTERM)
        entries = glob.glob(os.path.join(directory, "cache", "*.json"))
        assert len(entries) == outcome.cells_done == 1
        with open(entries[0], "rb") as handle:
            assert b"CHAOS-TORN-WRITE" in handle.read()
        resumed = run_campaign(directory)
        assert resumed.status == "complete"
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )

    def test_sigint_drains_and_resume_completes(self, tmp_path):
        directory = str(tmp_path / "camp")
        campaign = Campaign.create(directory, make_config())
        fired = []

        def interrupt_on_first_done(line):
            if " done " in line and not fired:
                fired.append(line)
                os.kill(os.getpid(), signal.SIGINT)

        with campaign:
            outcome = campaign.run(progress=interrupt_on_first_done)
        assert fired, "progress callback never saw a completed cell"
        self._assert_drained(directory, outcome, signal.SIGINT)
        resumed = run_campaign(directory)
        assert resumed.status == "complete"
        assert resumed.cells_done == 2


class TestStatus:
    def test_status_reads_without_lock(self, tmp_path):
        directory = str(tmp_path / "camp")
        campaign = Campaign.create(directory, make_config())
        try:
            status = campaign_status(directory)
            assert status["cells_total"] == 2
            assert status["cells_done"] == 0
            assert render_status(status)
        finally:
            campaign.close()

    def test_status_after_completion(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory)
        status = campaign_status(directory)
        assert status["cells_done"] == 2
        assert status["completed"] is True
