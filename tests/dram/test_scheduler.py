"""Unit tests for FR-FCFS selection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.address import AddressMapper
from repro.dram.bank import Bank
from repro.dram.config import DramConfig
from repro.dram.request import MemoryRequest
from repro.dram.scheduler import select_fr_fcfs

CONFIG = DramConfig(num_banks=4, row_buffer_blocks=16)
MAPPER = AddressMapper(CONFIG)


@pytest.fixture
def mapper():
    return MAPPER


@pytest.fixture
def banks():
    return [Bank(i, CONFIG) for i in range(CONFIG.num_banks)]


def make_read(banks, addr):
    """A read decoded the way the controller decodes it on acceptance."""
    request = MemoryRequest(block_addr=addr, is_write=False)
    request.bank = banks[MAPPER.bank_of(addr)]
    request.row = MAPPER.row_of(addr)
    return request


def addr_for(mapper, global_row, column=0):
    return mapper.block_of(global_row, column)


def chosen(requests, now=0):
    """The request the scan picks, or None (asserting it gave a wake)."""
    index, wake_at = select_fr_fcfs(requests, now)
    if index < 0:
        return None
    assert wake_at is None
    return requests[index]


class TestFrFcfs:
    def test_empty_candidates(self, banks, mapper):
        assert select_fr_fcfs([], 0) == (-1, None)

    def test_oldest_first_when_no_hits(self, banks, mapper):
        requests = [make_read(banks, addr_for(mapper, row)) for row in (4, 5, 6)]
        assert chosen(requests) is requests[0]

    def test_row_hit_preferred_over_older_miss(self, banks, mapper):
        hit_addr = addr_for(mapper, 4, column=3)
        bank = banks[mapper.bank_of(hit_addr)]
        bank.open_row = mapper.row_of(hit_addr)
        older_miss = make_read(banks, addr_for(mapper, 9))
        newer_hit = make_read(banks, hit_addr)
        assert chosen([older_miss, newer_hit]) is newer_hit

    def test_busy_bank_requests_skipped(self, banks, mapper):
        blocked = make_read(banks, addr_for(mapper, 0))  # bank 0
        free = make_read(banks, addr_for(mapper, 1))  # bank 1
        banks[0].busy_until = 100
        assert chosen([blocked, free]) is free

    def test_all_banks_busy_returns_none(self, banks, mapper):
        for bank in banks:
            bank.busy_until = 100
        requests = [make_read(banks, addr_for(mapper, row)) for row in range(4)]
        assert chosen(requests) is None

    def test_first_ready_hit_beats_later_hit(self, banks, mapper):
        first_hit = addr_for(mapper, 0, column=1)
        second_hit = addr_for(mapper, 1, column=1)
        banks[mapper.bank_of(first_hit)].open_row = mapper.row_of(first_hit)
        banks[mapper.bank_of(second_hit)].open_row = mapper.row_of(second_hit)
        requests = [make_read(banks, second_hit), make_read(banks, first_hit)]
        # Both are hits; FIFO order among hits: first in list wins.
        assert chosen(requests) is requests[0]


class TestWakeCycle:
    def test_earliest_blocked_candidate_sets_the_wake(self, banks, mapper):
        banks[0].busy_until = 50
        banks[1].busy_until = 10
        banks[2].busy_until = 70
        requests = [make_read(banks, addr_for(mapper, row)) for row in (0, 1, 2)]
        assert select_fr_fcfs(requests, 0) == (-1, 10)

    def test_idle_bank_without_candidates_does_not_wake(self, banks, mapper):
        # Bank 3 is free but nothing waits on it; only candidates count.
        banks[0].busy_until = 50
        requests = [make_read(banks, addr_for(mapper, 0))]
        assert select_fr_fcfs(requests, 0) == (-1, 50)

    def test_write_recovery_delays_a_row_change_only(self, banks, mapper):
        bank = banks[0]
        bank.open_row = 0
        bank.busy_until = 20
        bank.write_recovery_until = 60
        row_change = make_read(banks, addr_for(mapper, 4))  # bank 0, row 1
        assert select_fr_fcfs([row_change], 10) == (-1, 60)
        same_row = make_read(banks, addr_for(mapper, 0, column=2))  # bank 0, row 0
        assert select_fr_fcfs([row_change, same_row], 10) == (
            -1,
            20,
        )


# ------------------------------------------------ equivalence with two scans


def two_scan_reference(candidates, banks, mapper, now):
    """The select-then-wake pair the one-scan select replaced.

    Returns ``(request, wake_at)``: the FR-FCFS choice (``wake_at`` None),
    or None and the cycle the controller re-armed its wake at.
    """
    oldest_ready = None
    for request in candidates:
        bank = banks[mapper.bank_of(request.block_addr)]
        row = mapper.row_of(request.block_addr)
        if row == bank.open_row:
            if bank.busy_until <= now:
                return request, None
        elif (
            bank.busy_until <= now
            and bank.write_recovery_until <= now
            and oldest_ready is None
        ):
            oldest_ready = request
    if oldest_ready is not None:
        return oldest_ready, None
    wake_at = None
    for request in candidates:
        bank = banks[mapper.bank_of(request.block_addr)]
        ready = bank.busy_until
        if (
            mapper.row_of(request.block_addr) != bank.open_row
            and bank.write_recovery_until > ready
        ):
            ready = bank.write_recovery_until
        if ready > now and (wake_at is None or ready < wake_at):
            wake_at = ready
    return None, wake_at


BANK_STATES = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),  # open row
        st.integers(0, 60),  # busy_until
        st.integers(0, 90),  # write_recovery_until
    ),
    min_size=CONFIG.num_banks,
    max_size=CONFIG.num_banks,
)
#: (global row, column): 4 banks x 4 rows, so hits and conflicts both occur.
CANDIDATES = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=12
)


@given(BANK_STATES, CANDIDATES, st.integers(0, 70))
def test_one_scan_matches_two_scan_select_and_wake(bank_states, coords, now):
    mapper = AddressMapper(CONFIG)
    banks = []
    for bank_id, (open_row, busy, recovery) in enumerate(bank_states):
        bank = Bank(bank_id, CONFIG)
        bank.open_row = open_row
        bank.busy_until = busy
        bank.write_recovery_until = recovery
        banks.append(bank)
    candidates = [
        make_read(banks, mapper.block_of(row, column)) for row, column in coords
    ]
    expected_request, expected_wake = two_scan_reference(
        candidates, banks, mapper, now
    )
    index, wake_at = select_fr_fcfs(candidates, now)
    if expected_request is None:
        assert index == -1
    else:
        assert candidates[index] is expected_request
    assert wake_at == expected_wake
