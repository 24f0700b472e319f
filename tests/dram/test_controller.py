"""Integration-style tests for the memory controller."""

import pytest

from repro.dram.config import DramConfig
from repro.dram.controller import MemoryController, Phase
from repro.dram.request import MemoryRequest
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
        assert controller.stats.rate("read_row_hit_rate").hits == 1

    def test_row_conflict_recorded(self, queue, controller):
        # Same bank (bank 0): global rows 0 and 4 with 4 banks.
        run_reads(queue, controller, [0, 4 * 16])
        rate = controller.stats.rate("read_row_hit_rate")
        assert rate.hits == 0
        assert rate.total == 2

    def test_bank_parallelism(self, queue, controller):
        # Rows 0 and 1 live in different banks; preps overlap, bursts serialize.
        first, second = run_reads(queue, controller, [0, 16])
        gap = second.complete_time - first.complete_time
        assert gap == SMALL.t_burst

    def test_read_counter(self, queue, controller):
        run_reads(queue, controller, [0, 16, 32])
        assert controller.stats.counter("reads").value == 3
        assert controller.stats.counter("dram_reads_performed").value == 3


class TestWrites:
    def test_write_sits_in_buffer_until_drain(self, queue, controller):
        accepted = controller.enqueue_write(MemoryRequest(block_addr=0, is_write=True))
        assert accepted
        assert controller.pending_writes == 1
        queue.run()  # idle drain: no reads pending, so the write is performed
        assert controller.pending_writes == 0
        assert controller.stats.counter("dram_writes_performed").value == 1

    def test_read_request_rejected_before_it_is_counted(self, queue, controller):
        read = MemoryRequest(block_addr=0, is_write=False)
        with pytest.raises(ValueError, match="only accepts writes"):
            controller.enqueue_write(read)
        assert controller.pending_writes == 0
        assert "dram.writes" not in controller.stats.as_dict()
        assert len(queue) == 0  # no wake armed for it

    def test_buffer_full_triggers_drain_phase(self, queue, controller):
        for addr in range(SMALL.write_buffer_entries):
            assert controller.enqueue_write(
                MemoryRequest(block_addr=addr * 16, is_write=True)
            )
        assert controller.phase is Phase.WRITE_DRAIN
        queue.run()
        assert controller.phase is Phase.READ
        assert controller.stats.counter("write_drain_phases").value == 1

    def test_full_buffer_rejects_new_write(self, queue, controller):
        for addr in range(SMALL.write_buffer_entries):
            controller.enqueue_write(MemoryRequest(block_addr=addr * 16, is_write=True))
        assert not controller.can_accept_write()
        rejected = controller.enqueue_write(
            MemoryRequest(block_addr=999 * 16, is_write=True)
        )
        assert not rejected
        assert controller.stats.counter("writes_rejected").value == 1

    def test_coalescing_write_accepted_even_when_full(self, queue, controller):
        for addr in range(SMALL.write_buffer_entries):
            controller.enqueue_write(MemoryRequest(block_addr=addr * 16, is_write=True))
        assert controller.enqueue_write(MemoryRequest(block_addr=0, is_write=True))
        assert controller.stats.counter("writes_coalesced").value == 1

    def test_same_row_writes_drain_as_row_hits(self, queue, controller):
        for column in range(4):
            controller.enqueue_write(MemoryRequest(block_addr=column, is_write=True))
        queue.run()
        rate = controller.stats.rate("write_row_hit_rate")
        assert rate.total == 4
        assert rate.hits == 3  # first opens the row, the rest hit


class TestForwarding:
    def test_read_forwarded_from_write_buffer(self, queue, controller):
        controller.enqueue_write(MemoryRequest(block_addr=5, is_write=True))
        completed = []
        controller.enqueue_read(
            MemoryRequest(block_addr=5, is_write=False, on_complete=completed.append)
        )
        queue.run()
        assert controller.stats.counter("reads_forwarded_from_write_buffer").value == 1
        assert len(completed) == 1
        # Forwarded reads never touch a bank.
        assert controller.stats.counter("dram_reads_performed").value == 0


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
