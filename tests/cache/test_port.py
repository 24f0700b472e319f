"""Unit tests for the LLC tag-port contention model."""

import pytest

from repro.cache.port import BACKGROUND, DEMAND, PortPriority, TagPort
from repro.utils.events import EventQueue


@pytest.fixture
def queue():
    return EventQueue()


def make_port(queue, occupancy=4):
    return TagPort(queue, occupancy=occupancy)


class TestGrantOrdering:
    def test_single_request_granted_immediately(self, queue):
        port = make_port(queue)
        granted = []
        port.request(lambda: granted.append(queue.now))
        queue.run()
        assert granted == [0]

    def test_serialized_by_occupancy(self, queue):
        port = make_port(queue, occupancy=4)
        granted = []
        for _ in range(3):
            port.request(lambda: granted.append(queue.now))
        queue.run()
        assert granted == [0, 4, 8]

    def test_demand_beats_background(self, queue):
        port = make_port(queue, occupancy=4)
        granted = []
        # Occupy the port first so ordering among queued requests matters.
        port.request(lambda: granted.append(("first", queue.now)))
        port.request(
            lambda: granted.append(("bg", queue.now)), PortPriority.BACKGROUND
        )
        port.request(lambda: granted.append(("demand", queue.now)))
        queue.run()
        assert granted[0][0] == "first"
        assert granted[1][0] == "demand"
        assert granted[2][0] == "bg"

    def test_no_preemption_of_inflight_lookup(self, queue):
        port = make_port(queue, occupancy=10)
        granted = []
        port.request(
            lambda: granted.append(("bg", queue.now)), PortPriority.BACKGROUND
        )
        # A demand request arriving at t=1 must wait for the in-flight lookup.
        queue.schedule(1, lambda: port.request(lambda: granted.append(("demand", queue.now))))
        queue.run()
        assert granted == [("bg", 0), ("demand", 10)]

    def test_fifo_within_priority(self, queue):
        port = make_port(queue, occupancy=2)
        granted = []
        for tag in ("a", "b", "c"):
            port.request(
                lambda tag=tag: granted.append(tag), PortPriority.BACKGROUND
            )
        queue.run()
        assert granted == ["a", "b", "c"]


class TestAccounting:
    def test_stats_counters(self, queue):
        port = make_port(queue)
        port.request(lambda: None)
        port.request(lambda: None, PortPriority.BACKGROUND)
        queue.run()
        flat = port.stats.as_dict()
        assert flat["llc_port.requests_demand"] == 1
        assert flat["llc_port.requests_background"] == 1
        assert flat["llc_port.grants"] == 2

    def test_module_aliases_are_the_members(self, queue):
        """Callers pass the module-level aliases; the per-priority stats
        keep their public names."""
        assert DEMAND is PortPriority.DEMAND
        assert BACKGROUND is PortPriority.BACKGROUND
        port = make_port(queue)
        port.request(lambda: None, DEMAND)
        port.request(lambda: None, BACKGROUND)
        queue.run()
        flat = port.stats.as_dict()
        assert flat["llc_port.requests_demand"] == 1
        assert flat["llc_port.requests_background"] == 1

    def test_queued_property(self, queue):
        port = make_port(queue)
        port.request(lambda: None)
        port.request(lambda: None)
        assert port.queued == 2
        queue.run()
        assert port.queued == 0

    def test_invalid_occupancy_rejected(self, queue):
        with pytest.raises(ValueError):
            TagPort(queue, occupancy=0)

    def test_requests_during_grant_are_serviced(self, queue):
        port = make_port(queue, occupancy=3)
        granted = []

        def chain():
            granted.append(queue.now)
            if len(granted) < 3:
                port.request(chain)

        port.request(chain)
        queue.run()
        assert granted == [0, 3, 6]
