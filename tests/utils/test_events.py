"""Unit tests for the event queue kernel."""

import pytest

from repro.utils.events import EventQueue


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
    """A pending callback is cancelled by removing it: ``unschedule``."""

    def test_cancelled_event_does_not_fire(self):
        queue = EventQueue()
        fired = []
        callback = lambda: fired.append(1)  # noqa: E731
        queue.schedule(5, callback)
        queue.unschedule(5, callback)
        queue.run()
        assert fired == []
        assert queue.now == 0  # the emptied bucket does not move the clock

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        keep, drop = (lambda: None), (lambda: None)
        queue.schedule(5, keep)
        queue.schedule(6, drop)
        queue.unschedule(6, drop)
        assert len(queue) == 1

    def test_unschedule_removes_one_entry_and_keeps_fifo(self):
        queue = EventQueue()
        order = []
        wake = lambda: order.append("wake")  # noqa: E731
        queue.schedule(3, wake)
        queue.schedule(3, lambda: order.append("a"))
        queue.schedule(3, wake)
        queue.unschedule(3, wake)
        queue.run()
        assert order == ["a", "wake"]

    def test_unschedule_refuses_now_and_the_past(self):
        queue = EventQueue()
        callback = lambda: None  # noqa: E731
        queue.schedule(0, callback)
        with pytest.raises(ValueError):
            queue.unschedule(0, callback)  # the current cycle may be firing
        queue.schedule(4, callback)
        queue.run(until=4)
        with pytest.raises(ValueError):
            queue.unschedule(4, callback)

    def test_unschedule_refuses_an_absent_entry(self):
        queue = EventQueue()
        queue.schedule(5, lambda: None)
        with pytest.raises(ValueError):
            queue.unschedule(5, lambda: None)
        with pytest.raises(ValueError):
            queue.unschedule(6, lambda: None)
        assert len(queue) == 1


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
