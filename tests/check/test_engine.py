"""CheckEngine wiring: zero-footprint when off, transparent when on.

The two contracts the ``--check`` flag rests on:

* ``off`` attaches nothing — the observer hooks stay ``None`` class
  attributes and no engine exists;
* ``cheap``/``full`` observe a run without perturbing it — a checked run's
  :meth:`SimulationResult.to_dict` is equal to the unchecked run's.
"""

import pytest

from repro.check.engine import CheckEngine, CheckLevel
from repro.check.errors import InvariantViolation
from repro.sim.system import System, run_system

from tests.check.conftest import random_trace, small_config


class TestCheckLevel:
    def test_parse_accepts_strings_and_levels(self):
        assert CheckLevel.parse("full") is CheckLevel.FULL
        assert CheckLevel.parse("CHEAP") is CheckLevel.CHEAP
        assert CheckLevel.parse(CheckLevel.OFF) is CheckLevel.OFF

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown check level"):
            CheckLevel.parse("paranoid")

    def test_engine_refuses_level_off(self):
        system = System(small_config(), [random_trace()])
        with pytest.raises(ValueError, match="never built"):
            CheckEngine(system, CheckLevel.OFF)


class TestOffIsFree:
    def test_off_attaches_nothing(self):
        system = System(small_config("dbi+awb"), [random_trace()])
        assert system.check_engine is None
        assert system.llc.observer is None
        assert system.mechanism.checker is None
        assert system.mechanism.dbi.observer is None
        # The hooks are *class* attributes: no per-instance dict entries.
        assert "observer" not in vars(system.llc)
        assert "checker" not in vars(system.mechanism)

    def test_full_attaches_engine_and_observers(self):
        system = System(small_config("dbi+awb"), [random_trace()], check="full")
        engine = system.check_engine
        assert isinstance(engine, CheckEngine)
        assert system.llc.observer is engine
        assert system.mechanism.checker is engine
        assert system.mechanism.dbi.observer is engine
        assert engine.ledger is not None

    def test_cheap_attaches_no_observers(self):
        system = System(small_config("dbi+awb"), [random_trace()], check="cheap")
        assert system.check_engine is not None
        assert system.check_engine.ledger is None
        assert system.llc.observer is None
        assert system.mechanism.checker is None


class TestTransparency:
    @pytest.mark.parametrize("mechanism", ["baseline", "dbi+awb", "skipcache"])
    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_checked_run_results_identical(self, mechanism, level):
        config = small_config(mechanism)
        trace = random_trace(refs=400)
        plain = run_system(config, [trace])
        checked = run_system(config, [trace], check=level)
        assert checked.to_dict() == plain.to_dict()


class TestCheckedRunsPass:
    """A healthy simulation survives full checking (hooks fire consistently)."""

    @pytest.mark.parametrize("mechanism", [
        "baseline", "tadip", "dawb", "vwq", "skipcache",
        "dbi", "dbi+awb", "dbi+clb", "dbi+awb+clb",
    ])
    def test_full_check_clean_run(self, mechanism):
        system = System(
            small_config(mechanism), [random_trace(refs=500)], check="full"
        )
        system.run()
        assert system.check_engine.sweeps >= 1

    def test_multicore_full_check(self):
        traces = [random_trace(f"t{i}", seed=i + 1) for i in range(2)]
        system = System(
            small_config("dbi+awb", num_cores=2), traces, check="full"
        )
        system.run()
        assert system.check_engine.sweeps >= 1

    def test_ledger_actually_observed_traffic(self):
        system = System(
            small_config("dbi+awb"), [random_trace(refs=500)], check="full"
        )
        system.run()
        ledger = system.check_engine.ledger
        assert ledger.dirtied > 0
        assert ledger.writebacks > 0
        assert ledger.outstanding_writebacks == 0


class TestViolationSurfacing:
    def test_corrupted_state_fails_the_sweep(self):
        system = System(small_config("dbi"), [random_trace()], check="cheap")
        system.run()
        system.llc._where[424242] = 0  # stale lookup-map entry
        with pytest.raises(InvariantViolation, match=r"\[cache-structure\]"):
            system.check_engine.run_checks("post-run corruption")

    def test_in_tag_dirty_bit_under_dbi_fails_the_sweep(self):
        system = System(small_config("dbi"), [random_trace()], check="cheap")
        system.run()
        llc = system.llc
        first_valid = next(at for at, addr in enumerate(llc._addr) if addr != -1)
        llc._dirty[first_valid] = True  # DBI mechanisms must keep tags clean
        with pytest.raises(InvariantViolation, match=r"\[dbi-tag-agreement\]"):
            system.check_engine.run_checks("post-run corruption")
