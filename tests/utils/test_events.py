"""Unit tests for the event queue kernel."""

import pytest

from repro.utils.events import Event, EventQueue


class TestScheduling:
    def test_fires_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(10, lambda: order.append("b"))
        queue.schedule(5, lambda: order.append("a"))
        queue.schedule(20, lambda: order.append("c"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fires_fifo(self):
        queue = EventQueue()
        order = []
        for label in ("first", "second", "third"):
            queue.schedule(7, lambda lab=label: order.append(lab))
        queue.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(42, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [42]
        assert queue.now == 42

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule(5, lambda: None)

    def test_schedule_after(self):
        queue = EventQueue()
        times = []
        queue.schedule(10, lambda: queue.schedule_after(5, lambda: times.append(queue.now)))
        queue.run()
        assert times == [15]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule_after(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(5, Event(5, lambda: fired.append(1)))
        event.cancel()
        queue.run()
        assert fired == []

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        keep = queue.schedule(5, Event(5, lambda: None))
        drop = queue.schedule(6, Event(6, lambda: None))
        drop.cancel()
        assert len(queue) == 1
        assert keep.time == 5


class TestRunBounds:
    def test_run_until_stops_before_later_events(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5, lambda: fired.append(5))
        queue.schedule(50, lambda: fired.append(50))
        queue.run(until=10)
        assert fired == [5]
        assert queue.now == 10
        queue.run()
        assert fired == [5, 50]

    def test_max_events_budget(self):
        queue = EventQueue()
        fired = []
        for t in range(10):
            queue.schedule(t, lambda t=t: fired.append(t))
        queue.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_generated_during_run_are_processed(self):
        queue = EventQueue()
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 3:
                queue.schedule_after(1, lambda: cascade(depth + 1))

        queue.schedule(0, lambda: cascade(0))
        queue.run()
        assert fired == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        queue = EventQueue()
        for t in range(4):
            queue.schedule(t, lambda: None)
        queue.run()
        assert queue.events_processed == 4
