"""Crash-consistent campaign orchestration (journal, lock, recovery).

Public surface:

* :class:`Campaign` / :class:`CampaignConfig` — plan, run, resume.
* :func:`campaign_status` / :func:`render_status` — read-only health.
* :class:`CampaignJournal`, :func:`scan_journal`, :func:`recover_journal`
  — the write-ahead log.
* :mod:`repro.campaign.proof` — the seeded kill-and-resume chaos harness
  (CI's byte-identical-recovery gate).
"""

from repro.campaign.journal import (
    JOURNAL_FORMAT,
    CampaignJournal,
    JournalError,
    recover_journal,
    scan_journal,
)
from repro.campaign.orchestrator import (
    Campaign,
    CampaignConfig,
    CampaignError,
    CampaignOutcome,
    campaign_status,
    render_status,
)
from repro.campaign.plan import (
    DEFAULT_MECHANISMS,
    CampaignCell,
    cell_config,
    cell_traces,
    plan_cells,
    plan_fingerprint,
)

__all__ = [
    "JOURNAL_FORMAT",
    "CampaignJournal",
    "JournalError",
    "recover_journal",
    "scan_journal",
    "Campaign",
    "CampaignConfig",
    "CampaignError",
    "CampaignOutcome",
    "campaign_status",
    "render_status",
    "DEFAULT_MECHANISMS",
    "CampaignCell",
    "cell_config",
    "cell_traces",
    "plan_cells",
    "plan_fingerprint",
]
