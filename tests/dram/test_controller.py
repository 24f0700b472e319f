"""Integration-style tests for the memory controller."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dram.controller as controller_module
from repro.dram.bank import Bank
from repro.dram.config import DramConfig
from repro.dram.controller import MemoryController, Phase
from repro.dram.request import MemoryRequest
from repro.dram.scheduler import select_fr_fcfs
from repro.utils.events import EventQueue

SMALL = DramConfig(num_banks=4, row_buffer_blocks=16, write_buffer_entries=4)


@pytest.fixture
def queue():
    return EventQueue()


@pytest.fixture
def controller(queue):
    return MemoryController(queue, SMALL)


def run_reads(queue, controller, addrs):
    """Issue reads for all addrs at t=0, run to completion, return requests."""
    completed = []
    requests = []
    for addr in addrs:
        request = MemoryRequest(
            block_addr=addr, is_write=False, on_complete=completed.append
        )
        requests.append(request)
        controller.enqueue_read(request)
    queue.run()
    assert len(completed) == len(addrs)
    return requests


class TestReads:
    def test_single_read_completes(self, queue, controller):
        (request,) = run_reads(queue, controller, [0])
        assert request.complete_time is not None
        expected = SMALL.row_closed_latency + SMALL.bus_queue_latency
        assert request.complete_time == expected

    def test_row_hits_are_faster(self, queue, controller):
        first, second = run_reads(queue, controller, [0, 1])  # same row
        gap = second.complete_time - first.complete_time
        assert gap == SMALL.t_burst  # pipelined row hits stream on the bus
        assert controller.stats.read_row_hit_rate_hits == 1

    def test_row_conflict_recorded(self, queue, controller):
        # Same bank (bank 0): global rows 0 and 4 with 4 banks.
        run_reads(queue, controller, [0, 4 * 16])
        stats = controller.stats
        assert stats.read_row_hit_rate_hits == 0
        assert stats.read_row_hit_rate_total == 2

    def test_bank_parallelism(self, queue, controller):
        # Rows 0 and 1 live in different banks; preps overlap, bursts serialize.
        first, second = run_reads(queue, controller, [0, 16])
        gap = second.complete_time - first.complete_time
        assert gap == SMALL.t_burst

    def test_read_counter(self, queue, controller):
        run_reads(queue, controller, [0, 16, 32])
        assert controller.stats.reads == 3
        assert controller.stats.dram_reads_performed == 3


class TestWrites:
    def test_write_sits_in_buffer_until_drain(self, queue, controller):
        accepted = controller.enqueue_write(MemoryRequest(block_addr=0, is_write=True))
        assert accepted
        assert controller.pending_writes == 1
        queue.run()  # idle drain: no reads pending, so the write is performed
        assert controller.pending_writes == 0
        assert controller.stats.dram_writes_performed == 1

    def test_read_request_rejected_before_it_is_counted(self, queue, controller):
        read = MemoryRequest(block_addr=0, is_write=False)
        with pytest.raises(ValueError, match="only accepts writes"):
            controller.enqueue_write(read)
        assert controller.pending_writes == 0
        assert "dram.writes" not in controller.stats.as_dict()
        assert len(queue) == 0  # no wake armed for it

    def test_buffer_full_triggers_drain_phase(self, queue, controller):
        assert controller.phase is Phase.READ
        for addr in range(SMALL.write_buffer_entries):
            assert controller.enqueue_write(
                MemoryRequest(block_addr=addr * 16, is_write=True)
            )
        assert controller.phase is Phase.WRITE_DRAIN
        queue.run()
        assert controller.phase is Phase.READ
        assert controller.stats.write_drain_phases == 1

    def test_full_buffer_rejects_new_write(self, queue, controller):
        for addr in range(SMALL.write_buffer_entries):
            controller.enqueue_write(MemoryRequest(block_addr=addr * 16, is_write=True))
        assert not controller.can_accept_write()
        rejected = controller.enqueue_write(
            MemoryRequest(block_addr=999 * 16, is_write=True)
        )
        assert not rejected
        assert controller.stats.writes_rejected == 1

    def test_coalescing_write_accepted_even_when_full(self, queue, controller):
        for addr in range(SMALL.write_buffer_entries):
            controller.enqueue_write(MemoryRequest(block_addr=addr * 16, is_write=True))
        assert controller.enqueue_write(MemoryRequest(block_addr=0, is_write=True))
        assert controller.stats.writes_coalesced == 1

    def test_same_row_writes_drain_as_row_hits(self, queue, controller):
        for column in range(4):
            controller.enqueue_write(MemoryRequest(block_addr=column, is_write=True))
        queue.run()
        stats = controller.stats
        assert stats.write_row_hit_rate_total == 4
        assert stats.write_row_hit_rate_hits == 3  # first opens the row, the rest hit


class TestForwarding:
    def test_read_forwarded_from_write_buffer(self, queue, controller):
        controller.enqueue_write(MemoryRequest(block_addr=5, is_write=True))
        completed = []
        controller.enqueue_read(
            MemoryRequest(block_addr=5, is_write=False, on_complete=completed.append)
        )
        queue.run()
        assert controller.stats.reads_forwarded_from_write_buffer == 1
        assert len(completed) == 1
        # Forwarded reads never touch a bank.
        assert controller.stats.dram_reads_performed == 0


class TestInterference:
    def test_reads_wait_behind_write_drain(self):
        """A read arriving mid-drain waits for the buffer to empty."""
        queue = EventQueue()
        controller = MemoryController(queue, SMALL)
        # Fill the write buffer with row-conflicting writes (slow drain).
        for i in range(SMALL.write_buffer_entries):
            controller.enqueue_write(
                MemoryRequest(block_addr=i * 4 * 16, is_write=True)  # all bank 0
            )
        assert controller.phase is Phase.WRITE_DRAIN
        completed = []
        controller.enqueue_read(
            MemoryRequest(block_addr=16, is_write=False, on_complete=completed.append)
        )
        queue.run()
        (request,) = completed
        # The read completed only after the drain finished.
        assert request.complete_time > SMALL.row_miss_latency * 2

    def test_is_idle(self, queue, controller):
        assert controller.is_idle()
        controller.enqueue_write(MemoryRequest(block_addr=0, is_write=True))
        assert not controller.is_idle()
        queue.run()
        assert controller.is_idle()


class TestPhaseMembers:
    def test_fill_and_drain_cycle_holds_the_public_members(self, queue, controller):
        """The hot path compares against module aliases, but ``phase`` must
        still hold the ``Phase`` members themselves."""
        seen = [controller.phase]
        for addr in range(SMALL.write_buffer_entries):
            controller.enqueue_write(MemoryRequest(addr * 16, True))
        seen.append(controller.phase)
        queue.run()
        seen.append(controller.phase)
        expected = (Phase.READ, Phase.WRITE_DRAIN, Phase.READ)
        assert len(seen) == 3
        assert all(member is want for member, want in zip(seen, expected))


# ----------------------------------------------------- blocked-until memo

#: Few banks, short rows and a small buffer, so random traffic keeps
#: finding busy banks, row conflicts, write recovery and drain phases.
MEMO = DramConfig(
    num_banks=2, row_buffer_blocks=4, write_buffer_entries=4,
    drain_low_watermark=1,
)


def assert_memo_exact(controller):
    """A live memo must be what a scan of its list would return now."""
    blocked = controller._blocked_list
    now = controller.queue.now
    if blocked is not None and now < controller._blocked_until:
        assert select_fr_fcfs(blocked, now) == (-1, controller._blocked_until)


def pending_wakes(queue, controller):
    """Cycles of the unfired ``controller._wake`` entries on ``queue``."""
    found = []
    for time, bucket in sorted(queue._buckets.items()):
        start = queue._pos if time == queue._pos_time else 0
        found += [time for entry in bucket[start:] if entry == controller._wake]
    return found


def drive(ops):
    """Run ``ops`` — (delay, is_write, addr) arrivals — on a bare controller.

    Returns each arrival's issue and completion cycles, the wake cycles, the
    write rejections and the events processed.
    """
    queue = EventQueue()
    controller = MemoryController(queue, MEMO)
    requests, rejected = [], []

    def arrive(request):
        assert_memo_exact(controller)
        if request.is_write:
            if not controller.enqueue_write(request):
                rejected.append((queue.now, request.block_addr))
                return
        else:
            controller.enqueue_read(request)
        requests.append(request)
        assert_memo_exact(controller)

    time = 0
    for delay, is_write, addr in ops:
        time += delay
        queue.schedule(time, partial(arrive, MemoryRequest(addr, is_write)))
    queue.run()
    timing = [(r.issue_time, r.complete_time) for r in requests]
    return timing, controller.wakes, rejected, queue.events_processed


class _Recording:
    """Class-level wrappers that log bank accesses (the issue order) and
    wakes, and check the memo around every dispatch."""

    def __init__(self, clear_memo: bool) -> None:
        self.clear_memo = clear_memo
        self.accesses = []

    def install(self, monkeypatch) -> None:
        wake = MemoryController._wake
        dispatch = MemoryController._dispatch
        clear_memo = self.clear_memo

        perform_access = Bank.perform_access

        def logged_access(bank, row, start):
            self.accesses.append((bank.bank_id, row, start))
            return perform_access(bank, row, start)

        def logged_wake(controller):
            controller.__dict__.setdefault("wakes", []).append(controller.queue.now)
            # The wake applies the memo itself, so the reference run clears
            # it before the wake, not only before the dispatch.
            if clear_memo:
                controller._blocked_list = None
            assert_memo_exact(controller)
            wake(controller)

        def checked_dispatch(controller):
            if clear_memo:
                controller._blocked_list = None
            assert_memo_exact(controller)
            dispatch(controller)
            assert_memo_exact(controller)

        monkeypatch.setattr(Bank, "perform_access", logged_access)
        monkeypatch.setattr(MemoryController, "_wake", logged_wake)
        monkeypatch.setattr(MemoryController, "_dispatch", checked_dispatch)


def run_both(ops):
    runs = []
    for clear_memo in (False, True):
        recording = _Recording(clear_memo)
        with pytest.MonkeyPatch.context() as monkeypatch:
            recording.install(monkeypatch)
            runs.append((recording.accesses,) + drive(ops))
    return runs


arrivals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.booleans(),
        st.integers(min_value=0, max_value=31),
    ),
    min_size=1,
    max_size=40,
)


class TestBlockedUntilMemo:
    @settings(max_examples=150, deadline=None)
    @given(ops=arrivals)
    def test_memo_is_exact_and_changes_nothing(self, ops):
        """Skipped scans would have found nothing ready until the memo's
        wake cycle, and issue order and wake times match a run that
        clears the memo before every dispatch."""
        memo, reference = run_both(ops)
        assert memo == reference

    def test_unchanged_list_skips_its_scan(self, monkeypatch):
        scans = []

        def counting_select(candidates, now):
            scans.append(now)
            return select_fr_fcfs(candidates, now)

        monkeypatch.setattr(controller_module, "select_fr_fcfs", counting_select)
        queue = EventQueue()
        controller = MemoryController(queue, SMALL)
        # Bank 0, rows 0, 4 and 8 (4 banks of 16-block rows): the first read
        # opens row 0, the later ones wait on the busy bank.
        for time, addr in ((0, 0), (1, 4 * 16), (2, 8 * 16)):
            queue.schedule(
                time, partial(controller.enqueue_read, MemoryRequest(addr, False))
            )
        queue.run(until=2)
        # t=0 issues the first read; t=1 scans and finds the bank busy; the
        # wake at t=2 finds the same list blocked and does not scan.
        assert scans == [0, 1]
        assert controller._blocked_list is controller.read_queue
        assert controller._blocked_until == controller.banks[0].busy_until
        queue.run()
        assert controller.is_idle()
        assert controller._blocked_list is None

    @settings(max_examples=100, deadline=None)
    @given(ops=arrivals)
    def test_one_wake_is_pending_at_wake_at(self, ops):
        """After every enqueue the queue holds exactly one ``_wake`` entry,
        in the bucket at ``_wake_at``; a drained run leaves none."""
        queue = EventQueue()
        controller = MemoryController(queue, MEMO)

        def arrive(request):
            if request.is_write:
                controller.enqueue_write(request)
            else:
                controller.enqueue_read(request)
            assert pending_wakes(queue, controller) == [controller._wake_at]

        time = 0
        for delay, is_write, addr in ops:
            time += delay
            queue.schedule(time, partial(arrive, MemoryRequest(addr, is_write)))
        queue.run()
        assert pending_wakes(queue, controller) == []
        assert controller._wake_at is None

    def test_a_wake_whose_memo_holds_does_not_dispatch(self, monkeypatch):
        dispatches = []
        dispatch = MemoryController._dispatch

        def counting_dispatch(controller):
            dispatches.append(controller.queue.now)
            dispatch(controller)

        monkeypatch.setattr(MemoryController, "_dispatch", counting_dispatch)
        queue = EventQueue()
        controller = MemoryController(queue, SMALL)
        # Bank 0, rows 0, 4 and 8: t=0 issues the first read, t=1 finds the
        # bank busy and records the memo, t=2 finds it still holding.
        for time, addr in ((0, 0), (1, 4 * 16), (2, 8 * 16)):
            queue.schedule(
                time, partial(controller.enqueue_read, MemoryRequest(addr, False))
            )
        queue.run(until=2)
        assert dispatches == [0, 1]
        assert controller._wake_at == controller._blocked_until > 2
        assert pending_wakes(queue, controller) == [controller._wake_at]
        queue.run()
        assert controller.is_idle()

    def test_a_wake_whose_phase_would_change_dispatches(self):
        """No enqueue leaves the phase stale, so this forces one: with the
        read queue memoized and a full write buffer left in the read phase,
        the wake must not re-arm on the memo but dispatch, which switches
        to draining writes."""
        queue = EventQueue()
        controller = MemoryController(queue, SMALL)
        controller.enqueue_read(MemoryRequest(0, False))
        queue.run(until=0)
        controller.enqueue_read(MemoryRequest(4 * 16, False))  # bank 0: busy
        queue.run(until=0)
        assert controller._blocked_list is controller.read_queue
        for row in range(SMALL.write_buffer_entries):
            assert controller.enqueue_write(MemoryRequest(16 + row * 4 * 16, True))
        assert controller.phase is Phase.WRITE_DRAIN
        controller.phase = Phase.READ
        queue.run(until=0)
        assert controller.phase is Phase.WRITE_DRAIN
        queue.run()
        assert controller.is_idle()

    def test_ready_arrival_voids_the_memo(self):
        queue = EventQueue()
        controller = MemoryController(queue, SMALL)
        controller.enqueue_read(MemoryRequest(0, False))
        queue.run(until=0)
        controller.enqueue_read(MemoryRequest(4 * 16, False))  # bank 0: busy
        queue.run(until=0)
        assert controller._blocked_list is controller.read_queue
        controller.enqueue_read(MemoryRequest(16, False))  # bank 1: free
        assert controller._blocked_until <= queue.now  # the memo no longer applies
