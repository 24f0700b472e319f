"""Engine-path kill-tests: every registry invariant fires on seeded damage.

``tests/check/test_invariants.py`` proves the *component* checks
discriminate on isolated structures. These tests close the remaining gap:
for each entry in :data:`repro.check.invariants.INVARIANTS`, run a real
:class:`~repro.sim.system.System` to a healthy quiescent state, corrupt
exactly the state that invariant guards, and assert the engine's next sweep
raises naming it — proving the *system-level wrapper* actually reaches the
broken structure (a wrapper that silently returned vacuous would pass the
component tests and still catch nothing in production).

A meta-test pins the kill-test table to the registry, so adding an
invariant without a kill-test fails loudly.
"""

import pytest

from repro.check.differential import DiffGeometry
from repro.check.errors import InvariantViolation
from repro.check.invariants import INVARIANTS
from repro.sim.system import System

from tests.check.conftest import random_trace, small_config


def _absent_block(system) -> int:
    """An address guaranteed outside every structure in the system."""
    return 1 << 30


def _corrupt_dbi_tag_agreement(system):
    # A DBI-dirty block the LLC does not hold.
    system.mechanism.dbi.mark_dirty(_absent_block(system))


def _corrupt_dbi_structure(system):
    system.mechanism.dbi._where[9999] = 0


def _corrupt_cache_structure(system):
    addr = next(iter(system.llc._where))
    del system.llc._where[addr]


def _corrupt_recency_sanity(system):
    stacks = system.llc.policy._stacks
    stacks[0][0] = stacks[0][-1]


def _corrupt_dramcache_structure(system):
    level = system.dram_cache
    addr = next(iter(level.tags._where))
    del level.tags._where[addr]


def _corrupt_dramcache_dirty_domain(system):
    # dbi backend: an in-tag dirty bit usurps the DBI's authority.
    tags = system.dram_cache.tags
    first_valid = next(at for at, addr in enumerate(tags._addr) if addr != -1)
    tags._dirty[first_valid] = True


def _corrupt_mshr_bounds(system):
    system.hierarchy.l1_mshrs[0]._pending[7] = []


def _corrupt_writebuffer_bounds(system):
    from repro.dram.request import MemoryRequest

    buffer = system.memory.write_buffer
    request = MemoryRequest(block_addr=1, is_write=False)
    buffer._entries.append(request)
    buffer._by_addr[1] = request


def _corrupt_port_sanity(system):
    system.port._waiting[0].append(lambda: None)


def _corrupt_core_bounds(system):
    core = system.cores[0]
    for index in range(core.max_outstanding_loads + 1):
        core._outstanding[index] = 0


#: invariant name -> (config overrides, corruption, expected error regex).
#: ``None`` expects the registry name itself; ``dramcache-structure``'s
#: wrapper reuses the component check, so its violation carries the
#: component name with the level's label — proving the *wrapper* reached
#: the level is what the label asserts. The meta-test below keeps this
#: table in lockstep with the registry.
KILL_TESTS = {
    "dbi-tag-agreement": (
        {"mechanism": "dbi"}, _corrupt_dbi_tag_agreement, None,
    ),
    "dbi-structure": ({"mechanism": "dbi"}, _corrupt_dbi_structure, None),
    "cache-structure": ({}, _corrupt_cache_structure, None),
    "recency-sanity": (
        {"llc_replacement": "lru"}, _corrupt_recency_sanity, None,
    ),
    "dramcache-structure": (
        {"dram_cache": DiffGeometry().dram_cache_config("dbi")},
        _corrupt_dramcache_structure,
        r"\[cache-structure\] dramcache",
    ),
    "dramcache-dirty-domain": (
        {"dram_cache": DiffGeometry().dram_cache_config("dbi")},
        _corrupt_dramcache_dirty_domain,
        None,
    ),
    "mshr-bounds": ({}, _corrupt_mshr_bounds, None),
    "writebuffer-bounds": ({}, _corrupt_writebuffer_bounds, None),
    "port-sanity": ({}, _corrupt_port_sanity, None),
    "core-bounds": ({}, _corrupt_core_bounds, None),
}


def _run_checked_system(overrides):
    config = small_config(**overrides)
    system = System(config, [random_trace(refs=250)], check="cheap")
    system.run()
    return system


class TestRegistryKillTests:
    @pytest.mark.parametrize("name", sorted(KILL_TESTS))
    def test_corruption_fires_through_the_engine_sweep(self, name):
        overrides, corrupt, expected = KILL_TESTS[name]
        system = _run_checked_system(overrides)
        # Healthy precondition: the completed run passed its sweeps and one
        # more on-demand sweep is clean.
        system.check_engine.run_checks("healthy")
        corrupt(system)
        with pytest.raises(InvariantViolation, match=expected or rf"\[{name}\]"):
            system.check_engine.run_checks("post-corruption")

    def test_every_registry_invariant_has_a_kill_test(self):
        assert set(KILL_TESTS) == {inv.name for inv in INVARIANTS}


class TestExercisedCounts:
    """The engine's coverage counters separate exercised from vacuous."""

    def test_vacuous_invariants_are_not_counted(self):
        system = _run_checked_system({})  # baseline, no DBI, no level
        exercised = system.check_engine.invariant_exercised
        assert exercised.get("cache-structure", 0) > 0
        assert "dbi-structure" not in exercised
        assert "dramcache-structure" not in exercised
        assert "dramcache-dirty-domain" not in exercised

    def test_dbi_and_level_invariants_count_when_present(self):
        system = _run_checked_system(
            {
                "mechanism": "dbi",
                "dram_cache": DiffGeometry().dram_cache_config("dbi"),
            }
        )
        exercised = system.check_engine.invariant_exercised
        for name in (
            "dbi-structure",
            "dramcache-structure",
            "dramcache-dirty-domain",
        ):
            assert exercised.get(name, 0) > 0, name
