"""Unit tests for the heterogeneous ECC domains and soft-error injection."""

from fractions import Fraction

from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex
from repro.core.ecc import (
    EccDomain,
    SoftErrorConfig,
    SoftErrorInjector,
    UntrackedEccDomain,
)


def make_domain():
    dbi = DirtyBlockIndex(
        DbiConfig(cache_blocks=1024, alpha=Fraction(1, 4), granularity=16,
                  associativity=4)
    )
    return dbi, EccDomain(dbi)


class TestProtectionMapping:
    def test_dirty_blocks_are_ecc_protected(self):
        dbi, domain = make_domain()
        dbi.mark_dirty(42)
        assert domain.is_ecc_protected(42)

    def test_clean_blocks_are_not(self):
        _dbi, domain = make_domain()
        assert not domain.is_ecc_protected(42)

    def test_cleaning_removes_protection(self):
        dbi, domain = make_domain()
        dbi.mark_dirty(42)
        dbi.mark_clean(42)
        assert not domain.is_ecc_protected(42)

    def test_invariant_holds_under_traffic(self):
        dbi, domain = make_domain()
        for addr in range(0, 512, 3):
            dbi.mark_dirty(addr)
            assert domain.protection_invariant_holds()


class TestFaultInjection:
    def test_single_bit_fault_on_dirty_corrected(self):
        dbi, domain = make_domain()
        dbi.mark_dirty(7)
        outcome = domain.inject_single_bit_fault(7)
        assert outcome.detected
        assert outcome.corrected
        assert not outcome.data_loss

    def test_single_bit_fault_on_clean_refetches(self):
        _dbi, domain = make_domain()
        outcome = domain.inject_single_bit_fault(7)
        assert outcome.detected
        assert not outcome.corrected
        assert outcome.needs_refetch
        assert not outcome.data_loss

    def test_double_bit_fault_on_dirty_is_data_loss(self):
        dbi, domain = make_domain()
        dbi.mark_dirty(7)
        outcome = domain.inject_double_bit_fault(7)
        assert outcome.detected
        assert outcome.data_loss

    def test_double_bit_fault_on_clean_is_safe(self):
        _dbi, domain = make_domain()
        outcome = domain.inject_double_bit_fault(7)
        assert not outcome.data_loss

    def test_protection_checks_do_not_perturb_dbi_stats(self):
        """Injection is observational: fault modelling must not inflate the
        DBI's query counters (results stay byte-identical)."""
        dbi, domain = make_domain()
        dbi.mark_dirty(7)
        queries_before = dbi.stats.queries
        domain.is_ecc_protected(7)
        domain.inject_single_bit_fault(7)
        domain.inject_double_bit_fault(7)
        domain.protection_invariant_holds()
        assert dbi.stats.queries == queries_before


class TestUntrackedDomain:
    """The Section 3.3 contrast: the same ECC budget without a DBI."""

    def make(self, dirty_blocks=(), coverage=Fraction(1, 4), seed=0xECC):
        dirty = set(dirty_blocks)
        return UntrackedEccDomain(
            dirty.__contains__, coverage=coverage, seed=seed
        )

    def _covered_and_uncovered(self, domain):
        covered = next(
            a for a in range(4096) if domain.is_ecc_protected(a)
        )
        uncovered = next(
            a for a in range(4096) if not domain.is_ecc_protected(a)
        )
        return covered, uncovered

    def test_coverage_is_blind_to_dirtiness(self):
        dirty = self.make(dirty_blocks=range(64))
        clean = self.make(dirty_blocks=())
        sample = list(range(256))
        assert [dirty.is_ecc_protected(a) for a in sample] == [
            clean.is_ecc_protected(a) for a in sample
        ]

    def test_coverage_fraction_is_respected(self):
        domain = self.make(coverage=Fraction(1, 4))
        covered = sum(domain.is_ecc_protected(a) for a in range(4096))
        assert 0.18 < covered / 4096 < 0.32  # ~25%, seeded hash subset

    def test_full_coverage_recovers_uniform_secded(self):
        domain = self.make(coverage=Fraction(1))
        assert domain.protection_invariant_holds()
        assert all(domain.is_ecc_protected(a) for a in range(256))

    def test_single_bit_on_covered_block_corrected(self):
        domain = self.make(dirty_blocks=range(4096))
        covered, _ = self._covered_and_uncovered(domain)
        outcome = domain.inject_single_bit_fault(covered)
        assert outcome.detected and outcome.corrected
        assert not outcome.needs_refetch and not outcome.data_loss

    def test_single_bit_on_uncovered_clean_block_refetches(self):
        domain = self.make(dirty_blocks=())
        _, uncovered = self._covered_and_uncovered(domain)
        outcome = domain.inject_single_bit_fault(uncovered)
        assert outcome.detected and not outcome.corrected
        assert outcome.needs_refetch and not outcome.data_loss

    def test_single_bit_on_uncovered_dirty_block_is_data_loss(self):
        """The failure mode the DBI eliminates: a dirty block outside the
        blind SECDED subset has only parity, and memory's copy is stale."""
        domain = self.make(dirty_blocks=range(4096))
        _, uncovered = self._covered_and_uncovered(domain)
        outcome = domain.inject_single_bit_fault(uncovered)
        assert outcome.detected and not outcome.corrected
        assert not outcome.needs_refetch
        assert outcome.data_loss

    def test_double_bit_on_uncovered_dirty_block_is_silent_loss(self):
        domain = self.make(dirty_blocks=range(4096))
        _, uncovered = self._covered_and_uncovered(domain)
        outcome = domain.inject_double_bit_fault(uncovered)
        assert not outcome.detected and outcome.data_loss

    def test_protection_invariant_fails_below_full_coverage(self):
        assert not self.make(coverage=Fraction(1, 4)).protection_invariant_holds()
        assert not self.make(coverage=Fraction(0)).protection_invariant_holds()


class TestLiveInjection:
    """SoftErrorInjector against real simulations."""

    def _run(self, mechanism, soft_errors, refs=6000):
        from repro.analysis.scaling import QUICK_SCALE
        from repro.sim.system import System

        trace = QUICK_SCALE.benchmark_trace("lbm", seed=3, refs=refs)
        config = QUICK_SCALE.system_config(mechanism)
        system = System(config, [trace], soft_errors=soft_errors)
        result = system.run()
        return system, result

    def test_injection_does_not_change_results(self):
        from repro.analysis.scaling import QUICK_SCALE
        from repro.sim.system import run_system

        trace = QUICK_SCALE.benchmark_trace("lbm", seed=3, refs=6000)
        config = QUICK_SCALE.system_config("dbi")
        reference = run_system(config, [trace]).to_dict()
        system, result = self._run(
            "dbi", SoftErrorConfig(faults=40, interval=300, start=100)
        )
        assert result.to_dict() == reference
        assert system.soft_errors.counts["injected"] == 40

    def test_dbi_mechanism_gets_tracked_domain(self):
        system, _ = self._run(
            "dbi", SoftErrorConfig(faults=30, interval=300, start=100)
        )
        injector = system.soft_errors
        assert injector.tracked
        assert isinstance(injector.domain, EccDomain)
        assert injector.counts["data_loss"] == 0
        assert injector.counts["protection_violations"] == 0

    def test_baseline_mechanism_gets_untracked_domain(self):
        system, _ = self._run(
            "baseline", SoftErrorConfig(faults=30, interval=300, start=100)
        )
        injector = system.soft_errors
        assert not injector.tracked
        assert isinstance(injector.domain, UntrackedEccDomain)
        # Budget mirrors the system's DBI alpha when coverage is unset.
        assert injector.domain.coverage == system.config.dbi_alpha

    def test_protection_invariant_survives_live_cache_churn(self):
        """Satellite: after thousands of references dirty and clean blocks
        through DBI evictions and writebacks, every block the DBI tracks as
        dirty must still be ECC-covered."""
        system, _ = self._run(
            "dbi+awb+clb",
            SoftErrorConfig(faults=100, interval=100, start=50),
            refs=8000,
        )
        injector = system.soft_errors
        assert injector.tracked
        assert injector.domain.protection_invariant_holds()
        assert injector.counts["protection_violations"] == 0
        assert injector.counts["injected"] == 100

    def test_zero_coverage_untracked_domain_loses_dirty_blocks(self):
        """coverage=0 (parity everywhere) guarantees any dirty target is a
        data-loss event — the anchor for the reliability experiment."""
        system, _ = self._run(
            "baseline",
            SoftErrorConfig(
                faults=200, interval=50, start=50, coverage=Fraction(0)
            ),
            refs=8000,
        )
        counts = system.soft_errors.counts
        assert counts["dirty_targets"] > 0
        assert counts["data_loss"] == counts["dirty_targets"]
        assert counts["corrected"] == 0
