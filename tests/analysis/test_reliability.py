"""Tests for the Section 3.3 heterogeneous-ECC reliability experiment."""

import dataclasses
from fractions import Fraction

from repro.analysis.experiments import plan_reliability
from repro.analysis.scaling import QUICK_SCALE

#: Small but not degenerate: enough references to dirty the LLC, enough
#: faults to hit dirty blocks in the untracked domains.
TINY = dataclasses.replace(QUICK_SCALE, name="tiny-rel", refs_single_core=8_000)


def run_tiny(**kwargs):
    defaults = dict(
        scale=TINY,
        benchmark="lbm",
        mechanisms=("baseline", "dbi", "dbi+awb+clb"),
        alphas=(Fraction(1, 4),),
        faults=150,
        interval=100,
    )
    defaults.update(kwargs)
    return plan_reliability(**defaults)()


class TestReliabilityExperiment:
    def test_dbi_tracked_rows_have_zero_data_loss(self):
        """Acceptance: every DBI-tracked (mechanism, alpha) row reports zero
        data loss for single-bit upsets — the paper's protection guarantee."""
        result = run_tiny(
            mechanisms=("dbi", "dbi+awb", "dbi+awb+clb"),
            alphas=(Fraction(1, 4), Fraction(1, 2)),
        )
        assert result.rows  # one per mechanism x alpha
        loss_col = result.headers.index("data loss")
        domain_col = result.headers.index("protection domain")
        for row in result.rows:
            assert row[domain_col] == "DBI-tracked"
            assert row[loss_col] == 0
        for counts in result.raw.values():
            assert counts["protection_violations"] == 0
            assert counts["detected"] == counts["injected"]

    def test_untracked_configuration_loses_data(self):
        """Acceptance: at least one ECC-untracked configuration reports
        nonzero data loss. coverage=0 makes every dirty hit a loss, so the
        contrast cannot be washed out by a lucky covered subset."""
        result = run_tiny(
            mechanisms=("baseline",), alphas=(Fraction(0),), faults=300,
            interval=50,
        )
        loss_col = result.headers.index("data loss")
        domain_col = result.headers.index("protection domain")
        (row,) = result.rows
        assert row[domain_col].startswith("untracked")
        assert row[loss_col] > 0

    def test_tracked_vs_untracked_contrast_in_one_table(self):
        result = run_tiny(faults=300, interval=50)
        loss_col = result.headers.index("data loss")
        domain_col = result.headers.index("protection domain")
        tracked = [r for r in result.rows if r[domain_col] == "DBI-tracked"]
        untracked = [r for r in result.rows if r[domain_col] != "DBI-tracked"]
        assert tracked and untracked
        assert all(r[loss_col] == 0 for r in tracked)
        assert sum(r[loss_col] for r in untracked) > 0
        assert "lost 0 blocks" in result.notes

    def test_fault_accounting_is_consistent(self):
        result = run_tiny(faults=100)
        for counts in result.raw.values():
            assert counts["injected"] <= 100
            assert counts["single_bit"] + counts["double_bit"] == counts["injected"]
            # Single-bit campaign: every fault is detected, and each is
            # corrected, refetched, or lost.
            assert (
                counts["corrected"] + counts["refetched"] + counts["data_loss"]
                == counts["injected"]
            )

    def test_double_bit_fraction_reaches_tracked_domains(self):
        """Double-bit upsets defeat SECDED on dirty blocks — the documented
        limit of the paper's single-event-upset argument."""
        result = run_tiny(
            mechanisms=("dbi",), faults=300, interval=50,
            double_bit_fraction=1.0,
        )
        ((_, counts),) = list(result.raw.items())
        assert counts["double_bit"] == counts["injected"]
        # Data loss now tracks dirty targets instead of being zero.
        assert counts["data_loss"] == counts["dirty_targets"]
