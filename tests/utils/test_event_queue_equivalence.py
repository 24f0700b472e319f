"""Equivalence of the calendar EventQueue with a reference heap-of-events.

The calendar queue (per-timestamp buckets + a heap of distinct timestamps)
replaced a straightforward ``heapq`` of ``(time, seq)``-ordered events. These
tests pin the contract the rest of the simulator relies on: identical firing
order — including same-cycle FIFO, re-entrant scheduling and cancellation —
on randomized schedules, and identical ``until``/``max_events`` semantics.

Bucket entries come in three kinds, mixed in one schedule: bare callables
(the common case), cancellable :class:`Event` entries built by their owner,
and audit events. ``legacy=True`` wraps every plain entry in an ``Event``,
which is what every bucket held before bare callables — the form older
snapshot images restore into.
"""

import heapq
import random

import pytest

from repro.utils.events import Event, EventQueue


class ReferenceQueue:
    """The old implementation's semantics: one heap ordered by (time, seq).

    The check order inside ``run`` — budget, then cancelled-pop, then
    ``until`` — mirrors the replaced heap implementation exactly, including
    audit events: they fire without consuming the ``max_events`` budget, but
    a spent budget stops them too.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0

    def schedule(self, time, callback, audit=False):
        if time < self.now:
            raise ValueError("past")
        if audit:
            callback = Event(time, callback, audit=True)
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1
        return callback

    @staticmethod
    def _cancelled(entry):
        return isinstance(entry, Event) and entry.cancelled

    def _fire(self, entry):
        """Fire one popped entry; returns whether it was accounted."""
        if isinstance(entry, Event):
            entry.callback()
            return not entry.audit
        entry()
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                return
            time, _seq, entry = self._heap[0]
            if self._cancelled(entry):
                heapq.heappop(self._heap)
                continue
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            self.now = time
            fired += self._fire(entry)

    def step(self):
        while self._heap:
            time, _seq, entry = heapq.heappop(self._heap)
            if self._cancelled(entry):
                continue
            self.now = time
            self._fire(entry)
            return True
        return False


def random_workload(queue, rng, log, legacy=False):
    """Schedule a randomized mix of bare, cancellable, audit and re-entrant
    entries, and cancel a deterministic subset of the cancellable ones —
    some of them only after they have fired."""
    handles = []

    def plain(time, callback):
        if legacy:
            callback = Event(time, callback)
        return queue.schedule(time, callback)

    def make_cb(tag):
        def cb():
            log.append((queue.now, tag))

        return cb

    def make_reentrant(tag, offset):
        def cb():
            log.append((queue.now, tag))
            # Same-cycle and future re-entrant scheduling.
            plain(queue.now + offset, make_cb((tag, "child")))

        return cb

    def make_late_canceller(tag, victim):
        def cb():
            log.append((queue.now, tag))
            # Cancels a wake that may already have fired: a no-op then.
            victim.cancel()

        return cb

    for i in range(200):
        time = rng.randrange(0, 50)
        kind = rng.random()
        if kind < 0.2:
            handles.append(queue.schedule(time, Event(time, make_cb(i))))
        elif kind < 0.35:
            plain(time, make_reentrant(i, rng.choice((0, 0, 1, 7))))
        elif kind < 0.5:
            queue.schedule(time, make_cb(("audit", i)), audit=True)
        elif kind < 0.55 and handles:
            plain(time, make_late_canceller(i, rng.choice(handles)))
        else:
            plain(time, make_cb(i))
    for index, handle in enumerate(handles):
        if index % 3 == 0:
            handle.cancel()


def run_both(seed, legacy, drive):
    """Run one randomized workload on both queues through ``drive``."""
    actual_log, expected_log = [], []
    actual, expected = EventQueue(), ReferenceQueue()
    random_workload(actual, random.Random(seed), actual_log, legacy)
    random_workload(expected, random.Random(seed), expected_log, legacy)
    drive(actual)
    drive(expected)
    assert actual_log == expected_log
    return actual, expected


@pytest.mark.parametrize("seed", range(10))
def test_randomized_schedules_fire_in_identical_order(seed):
    actual, expected = run_both(seed, False, lambda queue: queue.run())
    assert actual.now == expected.now


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("until", (0, 13, 49, 200))
def test_until_matches_reference(seed, until):
    actual, expected = run_both(seed, False, lambda queue: queue.run(until=until))
    assert actual.now == expected.now


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("max_events", (0, 1, 17, 10_000))
def test_max_events_matches_reference(seed, max_events):
    run_both(seed, False, lambda queue: queue.run(max_events=max_events))


@pytest.mark.parametrize("seed", range(5))
def test_legacy_event_buckets_match_reference(seed):
    """Buckets made only of ``Event`` entries, as the pre-callable kernel
    wrote them, fire exactly as the reference does."""
    actual, expected = run_both(seed, True, lambda queue: queue.run())
    assert actual.now == expected.now
    assert actual.events_processed > 0


def test_bucket_of_only_plain_events_is_accounted_like_callables():
    queue, log = EventQueue(), []
    for tag in "abc":
        queue.schedule(4, Event(4, lambda tag=tag: log.append(tag)))
    assert len(queue) == 3
    assert queue.step()
    queue.run()
    assert log == ["a", "b", "c"]
    assert queue.events_processed == 3
    assert len(queue) == 0


def test_cancelling_a_wake_after_it_fired_changes_nothing():
    queue, log = EventQueue(), []
    wake = queue.schedule(2, Event(2, lambda: log.append("wake")))
    queue.schedule(2, lambda: log.append("next"))
    queue.schedule(5, lambda: (log.append("late"), wake.cancel()))
    queue.schedule(5, lambda: log.append("after"))
    queue.run()
    assert log == ["wake", "next", "late", "after"]
    assert queue.events_processed == 4
    assert len(queue) == 0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("legacy", (False, True))
@pytest.mark.parametrize("stop", ("until", "max_events"))
def test_early_stop_then_step_and_earlier_scheduling(seed, legacy, stop):
    """Stop early, schedule below the stopped-at head bucket, then finish
    one step() at a time: the mixed-entry order still matches."""

    def drive(queue):
        rng = random.Random(seed + 100)
        for _ in range(3):
            if stop == "until":
                queue.run(until=queue.now + rng.randrange(0, 20))
            else:
                queue.run(max_events=rng.randrange(0, 40))
            for j in range(4):
                time = queue.now + rng.randrange(0, 10)
                queue.schedule(time, lambda j=j, q=queue: log_of[q].append(("late", j)))
        while queue.step():
            pass

    actual_log, expected_log = [], []
    actual, expected = EventQueue(), ReferenceQueue()
    log_of = {actual: actual_log, expected: expected_log}
    random_workload(actual, random.Random(seed), actual_log, legacy)
    random_workload(expected, random.Random(seed), expected_log, legacy)
    drive(actual)
    drive(expected)
    assert actual_log == expected_log
    assert actual.now == expected.now
    assert len(actual) == 0


def test_same_cycle_events_fire_fifo_across_bucket_recreation():
    """A callback scheduling at the *current* cycle after its bucket drained
    must still fire this cycle, after everything already scheduled there."""
    queue = EventQueue()
    log = []
    queue.schedule(5, lambda: log.append("a"))
    queue.schedule(
        5, lambda: (log.append("b"), queue.schedule(5, lambda: log.append("d")))
    )
    queue.schedule(5, lambda: log.append("c"))
    queue.run()
    assert log == ["a", "b", "c", "d"]
    assert queue.now == 5


def test_cancelled_tail_does_not_stall_the_queue():
    queue = EventQueue()
    log = []
    keep = queue.schedule(3, Event(3, lambda: log.append("keep")))
    for _ in range(5):
        queue.schedule(3, Event(3, lambda: log.append("cancelled"))).cancel()
    queue.schedule(9, lambda: log.append("later"))
    queue.run()
    assert log == ["keep", "later"]
    assert not keep.cancelled


def test_interleaved_run_calls_resume_mid_bucket():
    queue = EventQueue()
    log = []
    for i in range(4):
        queue.schedule(2, lambda i=i: log.append(i))
    queue.run(max_events=2)
    assert log == [0, 1]
    queue.run()
    assert log == [0, 1, 2, 3]
    assert queue.events_processed == 4


def test_audit_events_fire_but_are_not_accounted():
    queue = EventQueue()
    log = []
    queue.schedule(1, lambda: log.append("real"))
    queue.schedule(1, lambda: log.append("audit"), audit=True)
    queue.schedule(2, lambda: log.append("real2"))
    queue.run(max_events=2)
    assert log == ["real", "audit", "real2"]
    assert queue.events_processed == 2


def test_schedule_earlier_than_head_after_until_stop_fires():
    """Regression: run(until=...) that skipped a cancelled head-bucket prefix
    must not apply that cursor to a *different* bucket scheduled afterwards
    at an earlier timestamp — the new event would be silently dropped."""
    queue = EventQueue()
    log = []
    first = queue.schedule(100, Event(100, lambda: log.append("a")))
    queue.schedule(100, lambda: log.append("b"))
    first.cancel()
    queue.run(until=50)
    assert len(queue) == 1
    queue.schedule(60, lambda: log.append("c"))
    assert len(queue) == 2
    queue.run()
    assert log == ["c", "b"]
    assert queue.events_processed == 2


def test_step_after_until_stop_with_earlier_scheduling():
    """Same stale-cursor scenario, resumed through step() instead of run()."""
    queue = EventQueue()
    log = []
    first = queue.schedule(100, Event(100, lambda: log.append("a")))
    queue.schedule(100, lambda: log.append("b"))
    first.cancel()
    queue.run(until=50)
    queue.schedule(60, lambda: log.append("c"))
    while queue.step():
        pass
    assert log == ["c", "b"]


@pytest.mark.parametrize("seed", range(5))
def test_interleaved_until_and_scheduling_matches_reference(seed):
    """Alternate run(until=...) stops with fresh scheduling — including times
    *earlier* than the stopped-at head bucket — and compare firing order."""
    actual_log, expected_log = [], []
    actual = EventQueue()
    expected = ReferenceQueue()

    def round_trip(queue, rng, log):
        handles = []
        for i in range(40):
            time = rng.randrange(0, 120)
            handles.append(
                queue.schedule(time, Event(time, lambda i=i: log.append(i)))
            )
        for index, handle in enumerate(handles):
            if index % 4 == 0:
                handle.cancel()
        for stop in (10, 35, 60):
            queue.run(until=stop)
            # Earlier-than-head scheduling: anywhere from `now` upward.
            for j in range(6):
                queue.schedule(
                    queue.now + rng.randrange(0, 30),
                    lambda j=j, stop=stop: log.append(("late", stop, j)),
                )
        queue.run()

    round_trip(actual, random.Random(seed), actual_log)
    round_trip(expected, random.Random(seed), expected_log)
    assert actual_log == expected_log
    assert actual.now == expected.now


def test_audit_event_not_fired_once_budget_is_spent():
    """Regression: a run truncated by max_events must stop *before* a pending
    audit event, exactly like the replaced heap implementation — a checked
    run must not execute an extra invariant sweep at the truncation point."""
    queue = EventQueue()
    log = []
    queue.schedule(1, lambda: log.append("e1"))
    queue.schedule(1, lambda: log.append("audit"), audit=True)
    queue.run(max_events=1)
    assert log == ["e1"]
    queue.run()
    assert log == ["e1", "audit"]


def test_len_counts_only_live_pending_events():
    queue = EventQueue()
    queue.schedule(1, lambda: None)
    queue.schedule(1, Event(1, lambda: None)).cancel()
    queue.schedule(4, lambda: None)
    assert len(queue) == 2
    queue.run(max_events=1)
    assert len(queue) == 1
