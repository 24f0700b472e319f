"""Every invariant in the catalogue fires on a deliberately broken structure.

Each test corrupts exactly one internal consistency property and asserts the
matching check raises :class:`InvariantViolation` naming that invariant —
proving the checks actually discriminate, not merely that they pass on
healthy state (each class also has a sanity test for the healthy case).
"""

import re
from fractions import Fraction

import pytest

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.mshr import MshrFile
from repro.cache.port import TagPort
from repro.check.errors import InvariantViolation
from repro.check.invariants import (
    check_cache_structure,
    check_core_bounds,
    check_dbi_structure,
    check_dbi_tag_agreement,
    check_mshr,
    check_port_sanity,
    check_recency_stacks,
    check_retry_consistency,
    check_write_buffer,
    invariant_names,
)
from repro.check.ledger import WritebackLedger
from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex
from repro.dram.request import MemoryRequest
from repro.dram.writebuffer import WriteBuffer
from repro.utils.events import EventQueue


def make_cache(num_blocks=64, associativity=4, replacement="lru"):
    return Cache(CacheConfig(
        name="llc", num_blocks=num_blocks, associativity=associativity,
        tag_latency=1, data_latency=1, replacement=replacement,
    ))


def make_dbi():
    return DirtyBlockIndex(DbiConfig(
        cache_blocks=256, alpha=Fraction(1, 2), granularity=8, associativity=2,
    ))


def expect(name):
    return pytest.raises(InvariantViolation, match=rf"\[{name}\]")


def expect_detail(detail, name="cache-structure"):
    """Expect ``name`` to fire with ``detail`` in its message."""
    return pytest.raises(
        InvariantViolation, match=rf"\[{name}\].*{re.escape(detail)}"
    )


class TestCacheStructure:
    """Each corruption fails on its own, with the detail that names it.

    The check proves the invariant from the lookup map plus a valid-block
    count and only scans block by block once that fails, so every test
    also pins the scan's message.
    """

    def test_consistent_cache_passes(self):
        cache = make_cache()
        for addr in range(40):
            cache.insert(addr * 3)
        check_cache_structure(cache)

    def test_block_cached_twice_detected(self):
        cache = make_cache()
        cache.insert(0)
        cache.insert(16)  # same set as 0 (16 sets)
        cache._addr[cache._where.pop(16)] = 0  # set 0 starts at entry 0
        with expect_detail("block 0x0 cached twice"):
            check_cache_structure(cache)

    def test_block_in_wrong_set_detected(self):
        cache = make_cache()
        cache.insert(5)
        at = cache.set_index(5) * cache.config.associativity + cache._where[5]
        # Teleport the block: its address now hashes to a different set.
        cache._addr[at] = 6
        cache._where[6] = cache._where.pop(5)
        with expect_detail("block 0x6 sits in set 5 but hashes to set 6"):
            check_cache_structure(cache)

    def test_stale_map_entry_detected(self):
        cache = make_cache()
        cache.insert(9)
        cache._where[1000] = 0
        with expect_detail("lookup map lists absent block 0x3e8"):
            check_cache_structure(cache)

    def test_lookup_map_pointing_at_wrong_way_detected(self):
        cache = make_cache()
        for addr in range(8):
            cache.insert(addr)
        addr = next(iter(cache._where))
        cache._where[addr] = (cache._where[addr] + 1) % cache.config.associativity
        with expect_detail(f"lookup map places block {addr:#x} in way"):
            check_cache_structure(cache)

    def test_out_of_range_way_detected(self):
        cache = make_cache()
        for addr in (3, 19, 35, 51):  # fill set 3; 51 lands in the last way
            cache.insert(addr)
        assert cache._where[51] == 3
        cache._where[51] = -1  # indexing would alias the last way
        with expect_detail("lookup map places block 0x33 in way -1"):
            check_cache_structure(cache)
        cache._where[51] = 4  # one past the last way
        with expect_detail("lookup map places block 0x33 in way 4"):
            check_cache_structure(cache)

    def test_entry_naming_an_invalid_block_detected(self):
        cache = make_cache()
        cache.insert(9)
        cache.insert(25)  # same set, next way
        at = 9 * cache.config.associativity + cache._where[9]
        cache._addr[at] = -1  # the way empties, the map entry stays
        del cache._where[25]  # evens the valid count out
        with expect_detail("lookup map lists absent block 0x9"):
            check_cache_structure(cache)

    def test_unmapped_valid_block_detected(self):
        cache = make_cache()
        cache.insert(9)
        del cache._where[9]
        with expect_detail("1 valid blocks but 0 lookup entries"):
            check_cache_structure(cache)


class TestRecencySanity:
    def test_permutation_passes(self):
        check_recency_stacks([[2, 0, 1], [0, 1, 2]], 3, "llc")

    def test_duplicate_way_detected(self):
        with expect("recency-sanity"):
            check_recency_stacks([[0, 1, 1]], 3, "llc")

    def test_short_stack_detected(self):
        with expect("recency-sanity"):
            check_recency_stacks([[0, 1]], 3, "llc")


class TestDbiStructure:
    def test_consistent_dbi_passes(self):
        dbi = make_dbi()
        for addr in range(0, 200, 7):
            dbi.mark_dirty(addr)
        check_dbi_structure(dbi)

    def test_valid_entry_with_empty_bitvector_detected(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        for at, region_id in enumerate(dbi._region):
            if region_id != -1:
                dbi._bits[at] = 0
        with expect("dbi-structure"):
            check_dbi_structure(dbi)

    def test_invalid_entry_with_residual_bits_detected(self):
        dbi = make_dbi()
        dbi._bits[0] = 0b1
        with expect("dbi-structure"):
            check_dbi_structure(dbi)

    def test_bitvector_wider_than_granularity_detected(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        for at, region_id in enumerate(dbi._region):
            if region_id != -1:
                dbi._bits[at] |= 1 << dbi.config.granularity
        with expect("dbi-structure"):
            check_dbi_structure(dbi)

    def test_region_map_desync_detected(self):
        dbi = make_dbi()
        dbi.mark_dirty(17)
        dbi._where[9999] = 0
        with expect("dbi-structure"):
            check_dbi_structure(dbi)


class _StubMechanism:
    """Just the surface check_dbi_tag_agreement consumes."""

    def __init__(self, llc, dbi=None, uses_tag_dirty_bits=True,
                 write_through=False):
        self.name = "stub"
        self.llc = llc
        self.dbi = dbi
        self.uses_tag_dirty_bits = uses_tag_dirty_bits
        self.write_through = write_through


class TestDbiTagAgreement:
    def test_conventional_mechanism_with_dirty_tags_passes(self):
        llc = make_cache()
        llc.insert(3, dirty=True)
        check_dbi_tag_agreement(_StubMechanism(llc), llc)

    def test_in_tag_dirty_bit_under_dbi_detected(self):
        llc = make_cache()
        llc.insert(3, dirty=True)
        mech = _StubMechanism(llc, dbi=make_dbi(), uses_tag_dirty_bits=False)
        with expect("dbi-tag-agreement"):
            check_dbi_tag_agreement(mech, llc)

    def test_in_tag_dirty_bit_under_write_through_detected(self):
        llc = make_cache()
        llc.insert(3, dirty=True)
        mech = _StubMechanism(llc, write_through=True)
        with expect("dbi-tag-agreement"):
            check_dbi_tag_agreement(mech, llc)

    def test_dbi_dirty_block_missing_from_llc_detected(self):
        llc = make_cache()
        dbi = make_dbi()
        dbi.mark_dirty(42)  # never inserted into the LLC
        mech = _StubMechanism(llc, dbi=dbi, uses_tag_dirty_bits=False)
        with expect("dbi-tag-agreement"):
            check_dbi_tag_agreement(mech, llc)

    def test_agreeing_dbi_passes(self):
        llc = make_cache()
        dbi = make_dbi()
        llc.insert(42)
        dbi.mark_dirty(42)
        check_dbi_tag_agreement(
            _StubMechanism(llc, dbi=dbi, uses_tag_dirty_bits=False), llc
        )


class TestMshrBounds:
    def test_healthy_mshr_passes(self):
        mshr = MshrFile(4)
        mshr.allocate(1, lambda _addr: None)
        check_mshr(mshr, "l1mshr0")

    def test_overfull_mshr_detected(self):
        mshr = MshrFile(2)
        for addr in range(3):
            mshr._pending[addr] = [lambda _addr: None]
        with expect("mshr-bounds"):
            check_mshr(mshr, "l1mshr0")

    def test_waiterless_miss_detected(self):
        mshr = MshrFile(4)
        mshr._pending[7] = []
        with expect("mshr-bounds"):
            check_mshr(mshr, "l1mshr0")


class TestWriteBufferBounds:
    def test_healthy_buffer_passes(self):
        buffer = WriteBuffer(4)
        buffer.add(MemoryRequest(block_addr=1, is_write=True))
        check_write_buffer(buffer)

    def test_overfull_buffer_detected(self):
        buffer = WriteBuffer(2)
        for addr in range(3):
            request = MemoryRequest(block_addr=addr, is_write=True)
            buffer._entries.append(request)
            buffer._by_addr[addr] = request
        with expect("writebuffer-bounds"):
            check_write_buffer(buffer)

    def test_fifo_index_desync_detected(self):
        buffer = WriteBuffer(4)
        buffer.add(MemoryRequest(block_addr=1, is_write=True))
        buffer._by_addr[99] = buffer._entries[0]
        with expect("writebuffer-bounds"):
            check_write_buffer(buffer)

    def test_buffered_read_detected(self):
        buffer = WriteBuffer(4)
        request = MemoryRequest(block_addr=1, is_write=False)
        buffer._entries.append(request)
        buffer._by_addr[1] = request
        with expect("writebuffer-bounds"):
            check_write_buffer(buffer)


class TestPortSanity:
    def test_idle_port_passes(self):
        check_port_sanity(TagPort(EventQueue(), occupancy=2))

    def test_queued_work_without_grant_pass_detected(self):
        port = TagPort(EventQueue(), occupancy=2)
        port._waiting[0].append(lambda: None)  # enqueue without _pump()
        with expect("port-sanity"):
            check_port_sanity(port)


class _StubCore:
    def __init__(self, outstanding, limit):
        self.core_id = 0
        self.outstanding_loads = outstanding
        self.max_outstanding_loads = limit


class TestCoreBounds:
    def test_within_bound_passes(self):
        check_core_bounds(_StubCore(4, 32))

    def test_over_bound_detected(self):
        with expect("core-bounds"):
            check_core_bounds(_StubCore(33, 32))


class TestWritebackLedger:
    def test_balanced_lifecycle_passes(self):
        ledger = WritebackLedger()
        ledger.on_block_dirtied(5)
        ledger.assert_agrees([5], "mid-run")
        ledger.on_block_cleaned(5)
        ledger.on_memory_writeback(5)
        ledger.assert_agrees([], "end")
        ledger.assert_quiescent()

    def test_double_dirty_detected(self):
        ledger = WritebackLedger()
        ledger.on_block_dirtied(5)
        with expect("writeback-conservation"):
            ledger.on_block_dirtied(5)

    def test_clean_without_dirty_detected(self):
        ledger = WritebackLedger()
        with expect("writeback-conservation"):
            ledger.on_block_cleaned(5)

    def test_discard_without_dirty_detected(self):
        ledger = WritebackLedger()
        with expect("writeback-conservation"):
            ledger.on_dirty_discarded(5)

    def test_writeback_without_clean_detected(self):
        ledger = WritebackLedger()
        with expect("writeback-conservation"):
            ledger.on_memory_writeback(5)

    def test_lost_writeback_detected_at_quiescence(self):
        ledger = WritebackLedger()
        ledger.on_block_dirtied(5)
        ledger.on_block_cleaned(5)
        with expect("writeback-conservation"):
            ledger.assert_quiescent()

    def test_dirty_set_divergence_detected(self):
        ledger = WritebackLedger()
        ledger.on_block_dirtied(5)
        with expect("writeback-conservation"):
            ledger.assert_agrees([5, 6], "sweep")

    def test_discarded_block_owes_no_writeback(self):
        ledger = WritebackLedger()
        ledger.on_block_dirtied(5)
        ledger.on_dirty_discarded(5)
        ledger.assert_quiescent()
        assert ledger.discarded == 1

    def test_write_through_exempt_from_pending_accounting(self):
        ledger = WritebackLedger(write_through=True)
        ledger.on_memory_writeback(5)  # no preceding clean: fine
        ledger.assert_quiescent()
        assert ledger.writebacks == 1


class TestRetryConsistency:
    """A retried sweep job must reproduce the stored result exactly."""

    RESULT = {
        "mechanism": "dbi",
        "ipc": [1.25],
        "stats": {"dram.dram_writes_performed": 40.0, "mech.tag_lookups": 9.0},
    }

    def test_identical_reruns_pass(self):
        check_retry_consistency("dbi[lbm]", self.RESULT, dict(self.RESULT))

    def test_double_counted_writeback_stat_fires(self):
        doctored = {
            **self.RESULT,
            "stats": {**self.RESULT["stats"], "dram.dram_writes_performed": 80.0},
        }
        with pytest.raises(InvariantViolation) as excinfo:
            check_retry_consistency("dbi[lbm]", self.RESULT, doctored)
        assert "[retry-consistency]" in str(excinfo.value)
        assert "dram.dram_writes_performed" in str(excinfo.value)

    def test_non_stat_divergence_fires_too(self):
        doctored = {**self.RESULT, "ipc": [1.5]}
        with pytest.raises(InvariantViolation) as excinfo:
            check_retry_consistency("dbi[lbm]", self.RESULT, doctored)
        assert "ipc" in str(excinfo.value)


class TestCatalogue:
    def test_every_documented_invariant_is_registered(self):
        assert set(invariant_names()) == {
            "dbi-tag-agreement",
            "dbi-structure",
            "cache-structure",
            "recency-sanity",
            "dramcache-structure",
            "dramcache-dirty-domain",
            "mshr-bounds",
            "writebuffer-bounds",
            "port-sanity",
            "core-bounds",
            "writeback-conservation",
            "retry-consistency",
        }

    def test_violation_message_names_the_invariant(self):
        error = InvariantViolation("cache-structure", "boom")
        assert "[cache-structure]" in str(error)
        assert isinstance(error, AssertionError)
