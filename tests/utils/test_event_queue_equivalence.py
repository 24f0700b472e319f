"""Equivalence of the calendar EventQueue with a reference heap-of-events.

The calendar queue (per-timestamp buckets + a heap of distinct timestamps)
replaced a straightforward ``heapq`` of ``(time, seq)``-ordered events. These
tests pin the contract the rest of the simulator relies on: identical firing
order — including same-cycle FIFO, re-entrant scheduling and removal of
pending entries (``unschedule``) — on randomized schedules, and identical
``until``/``max_events`` semantics, also when a callback raises.

Bucket entries come in two kinds, mixed in one schedule: bare callables
(the common case) and audit events. The workloads also withdraw pending
callables, both before the run and from inside callbacks, and can re-arm
one callable the way the memory controller re-arms its wake: at most one
pending entry, pulled earlier by removing it and scheduling it again.
"""

import heapq
import random

import pytest

from repro.utils.events import Event, EventQueue


class ReferenceQueue:
    """The old implementation's semantics: one heap ordered by (time, seq).

    The check order inside ``run`` — budget, then ``until`` — mirrors the
    replaced heap implementation exactly, including audit events: they fire
    without consuming the ``max_events`` budget, but a spent budget stops
    them too. ``unschedule`` deletes the earliest-scheduled equal entry from
    the heap.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0

    def __len__(self):
        return len(self._heap)

    def schedule(self, time, callback, audit=False):
        if time < self.now:
            raise ValueError("past")
        if audit:
            callback = Event(time, callback)
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1
        return callback

    def unschedule(self, time, callback):
        if time <= self.now:
            raise ValueError("not in the future")
        matches = [item for item in self._heap if item[0] == time and item[2] == callback]
        if not matches:
            raise ValueError("absent")
        self._heap.remove(min(matches, key=lambda item: item[1]))
        heapq.heapify(self._heap)

    def _fire(self, entry):
        if isinstance(entry, Event):
            entry.callback()
            return 0
        self.events_processed += 1
        entry()
        return 1

    def run(self, until=None, max_events=None):
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                return
            time, _seq, entry = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            self.now = time
            fired += self._fire(entry)

    def step(self):
        if not self._heap:
            return False
        time, _seq, entry = heapq.heappop(self._heap)
        self.now = time
        self._fire(entry)
        return True


def random_workload(queue, rng, log, rearm=True):
    """Schedule a randomized mix of bare, withdrawable, audit and re-entrant
    entries, and withdraw a deterministic subset of the withdrawable ones —
    some only from later callbacks, when they may already have fired.

    With ``rearm`` some callbacks also arm one shared wake the way the
    memory controller does; the wake may re-arm itself when it fires.
    """
    handles = []
    wake_at = [None]
    draws = random.Random(rng.random())

    def make_cb(tag):
        def cb():
            log.append((queue.now, tag))

        return cb

    def make_reentrant(tag, offset):
        def cb():
            log.append((queue.now, tag))
            # Same-cycle and future re-entrant scheduling.
            queue.schedule(queue.now + offset, make_cb((tag, "child")))

        return cb

    def make_late_withdrawer(tag, victim):
        def cb():
            # Withdraws an entry that may have fired, or been withdrawn,
            # already: refused then, and nothing changes.
            try:
                queue.unschedule(*victim)
                log.append((queue.now, tag, "removed"))
            except ValueError:
                log.append((queue.now, tag, "refused"))

        return cb

    def wake():
        log.append((queue.now, "wake"))
        wake_at[0] = None
        if draws.random() < 0.4:
            arm(queue.now + draws.randrange(1, 9))

    def arm(time):
        pending = wake_at[0]
        if pending is not None:
            if pending <= time:
                return
            queue.unschedule(pending, wake)
        wake_at[0] = time
        queue.schedule(time, wake)

    def make_kicker(tag, offset):
        def cb():
            log.append((queue.now, tag))
            arm(queue.now + offset)

        return cb

    for i in range(200):
        time = rng.randrange(0, 50)
        kind = rng.random()
        if kind < 0.2:
            callback = make_cb(i)
            queue.schedule(time, callback)
            handles.append((time, callback))
        elif kind < 0.35:
            queue.schedule(time, make_reentrant(i, rng.choice((0, 0, 1, 7))))
        elif kind < 0.5:
            queue.schedule(time, make_cb(("audit", i)), audit=True)
        elif kind < 0.55 and handles:
            queue.schedule(time, make_late_withdrawer(i, rng.choice(handles)))
        elif kind < 0.65 and rearm:
            queue.schedule(time, make_kicker(i, rng.choice((0, 0, 1, 3, 12))))
        else:
            queue.schedule(time, make_cb(i))
    for index, (time, callback) in enumerate(handles):
        if index % 3 == 0 and time > queue.now:
            queue.unschedule(time, callback)


def run_both(seed, drive, rearm=True):
    """Run one randomized workload on both queues through ``drive``."""
    actual_log, expected_log = [], []
    actual, expected = EventQueue(), ReferenceQueue()
    random_workload(actual, random.Random(seed), actual_log, rearm)
    random_workload(expected, random.Random(seed), expected_log, rearm)
    drive(actual)
    drive(expected)
    assert actual_log == expected_log
    assert actual.events_processed == expected.events_processed
    assert len(actual) == len(expected)
    return actual, expected


@pytest.mark.parametrize("seed", range(10))
def test_randomized_schedules_fire_in_identical_order(seed):
    actual, expected = run_both(seed, lambda queue: queue.run())
    assert actual.now == expected.now


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("until", (0, 13, 49, 200))
def test_until_matches_reference(seed, until):
    actual, expected = run_both(seed, lambda queue: queue.run(until=until))
    assert actual.now == expected.now


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("max_events", (0, 1, 17, 10_000))
def test_max_events_matches_reference(seed, max_events):
    run_both(seed, lambda queue: queue.run(max_events=max_events))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("stop", ("until", "max_events"))
def test_unschedule_between_stops_matches_reference(seed, stop):
    """Stop early, withdraw pending entries and schedule new ones into the
    same cycles — buckets the removals may have emptied — then resume."""
    logs = {}

    def drive(queue):
        rng = random.Random(seed + 200)
        log = logs[queue]
        mine = []
        for i in range(30):
            time = rng.randrange(0, 60)
            callback = lambda i=i: log.append((queue.now, "mine", i))  # noqa: E731
            queue.schedule(time, callback)
            mine.append((time, callback))
        for _ in range(4):
            if stop == "until":
                queue.run(until=queue.now + rng.randrange(0, 15))
            else:
                queue.run(max_events=rng.randrange(0, 30))
            for time, callback in rng.sample(mine, 8):
                try:
                    queue.unschedule(time, callback)
                except ValueError:
                    continue
                mine.remove((time, callback))
                log.append(("removed", time))
                if rng.random() < 0.5:
                    again = lambda t=time: log.append((queue.now, "again", t))  # noqa: E731
                    queue.schedule(time, again)
        queue.run()

    actual, expected = EventQueue(), ReferenceQueue()
    for queue in (actual, expected):
        logs[queue] = []
        random_workload(queue, random.Random(seed), logs[queue])
        drive(queue)
    assert logs[actual] == logs[expected]
    assert actual.now == expected.now
    assert actual.events_processed == expected.events_processed


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rearm", (False, True))
@pytest.mark.parametrize("stop", ("until", "max_events"))
def test_early_stop_then_step_and_earlier_scheduling(seed, rearm, stop):
    """Stop early, schedule below the stopped-at head bucket, then finish
    one step() at a time: the mixed-entry order still matches, with and
    without a re-arming wake in the workload."""

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
    random_workload(actual, random.Random(seed), actual_log, rearm)
    random_workload(expected, random.Random(seed), expected_log, rearm)
    drive(actual)
    drive(expected)
    assert actual_log == expected_log
    assert actual.now == expected.now
    assert actual.events_processed == expected.events_processed
    assert len(actual) == 0


@pytest.mark.parametrize("bounded", (False, True))
def test_raising_callback_mid_bucket_matches_reference(bounded):
    """A callback that raises leaves ``events_processed`` and the resume
    point where the reference leaves them: the raising event counts as
    fired, and the next run starts with the entry after it."""
    logs = {}

    def fill(queue):
        log = logs[queue] = []

        def boom():
            log.append((queue.now, "boom"))
            raise RuntimeError("boom")

        for time, tag in ((1, "a"), (2, "b"), (2, "c"), (3, "e")):
            queue.schedule(time, lambda tag=tag: log.append((queue.now, tag)))
        queue.schedule(2, lambda: log.append((queue.now, "audit")), audit=True)
        queue.schedule(2, boom)
        queue.schedule(2, lambda: log.append((queue.now, "d")))

    states = []
    for queue in (EventQueue(), ReferenceQueue()):
        fill(queue)
        with pytest.raises(RuntimeError):
            queue.run(max_events=100) if bounded else queue.run()
        state = [list(logs[queue]), queue.events_processed, queue.now, len(queue)]
        queue.run(max_events=1) if bounded else queue.run()
        state += [list(logs[queue]), queue.events_processed, queue.now, len(queue)]
        states.append(state)
    assert states[0] == states[1]
    assert states[0][1] == 4  # a, b, c and the raising callback


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


def test_cancelling_a_wake_after_it_fired_changes_nothing():
    """Withdrawing an entry whose cycle has come is refused: it may have
    fired, or be about to in the current bucket."""
    queue, log = EventQueue(), []
    wake = lambda: log.append("wake")  # noqa: E731

    def late():
        log.append("late")
        with pytest.raises(ValueError):
            queue.unschedule(2, wake)
        with pytest.raises(ValueError):
            queue.unschedule(5, late)

    queue.schedule(2, wake)
    queue.schedule(2, lambda: log.append("next"))
    queue.schedule(5, late)
    queue.schedule(5, lambda: log.append("after"))
    queue.run()
    assert log == ["wake", "next", "late", "after"]
    assert queue.events_processed == 4
    assert len(queue) == 0


def test_cancelled_tail_does_not_stall_the_queue():
    queue = EventQueue()
    log = []
    queue.schedule(3, lambda: log.append("keep"))
    for _ in range(5):
        callback = lambda: log.append("cancelled")  # noqa: E731
        queue.schedule(3, callback)
        queue.unschedule(3, callback)
    queue.schedule(9, lambda: log.append("later"))
    queue.run()
    assert log == ["keep", "later"]
    assert queue.events_processed == 2


def test_emptied_bucket_neither_moves_the_clock_nor_samples():
    class Sampler:
        next_cycle = 0

        def __init__(self):
            self.sampled = []

        def sample(self, time):
            self.sampled.append(time)

    queue = EventQueue()
    queue.telemetry = sampler = Sampler()
    gone = lambda: None  # noqa: E731
    queue.schedule(4, gone)
    queue.unschedule(4, gone)
    queue.run()
    assert (queue.now, sampler.sampled, queue.events_processed) == (0, [], 0)
    queue.schedule(4, gone)  # the emptied bucket was retired: a new one
    queue.schedule(6, lambda: None)
    queue.run(until=5)
    assert (queue.now, sampler.sampled, len(queue)) == (5, [4], 1)


def test_rescheduling_into_an_emptied_bucket_fires_once_in_order():
    queue, log = EventQueue(), []
    first = lambda: log.append("first")  # noqa: E731
    queue.schedule(7, first)
    queue.unschedule(7, first)
    queue.schedule(7, lambda: log.append("second"))
    queue.schedule(7, first)
    queue.schedule(3, lambda: log.append("early"))
    queue.run()
    assert log == ["early", "second", "first"]
    assert queue.events_processed == 3


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
    """Regression: run(until=...) that stopped at a head bucket must not
    apply its cursor to a *different* bucket scheduled afterwards at an
    earlier timestamp — the new event would be silently dropped."""
    queue = EventQueue()
    log = []
    first = lambda: log.append("a")  # noqa: E731
    queue.schedule(100, first)
    queue.schedule(100, lambda: log.append("b"))
    queue.unschedule(100, first)
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
    first = lambda: log.append("a")  # noqa: E731
    queue.schedule(100, first)
    queue.schedule(100, lambda: log.append("b"))
    queue.unschedule(100, first)
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
            callback = lambda i=i: log.append(i)  # noqa: E731
            queue.schedule(time, callback)
            handles.append((time, callback))
        for index, (time, callback) in enumerate(handles):
            if index % 4 == 0 and time > 0:
                queue.unschedule(time, callback)
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
    gone = lambda: None  # noqa: E731
    queue.schedule(1, lambda: None)
    queue.schedule(1, gone)
    queue.unschedule(1, gone)
    queue.schedule(4, lambda: None)
    assert len(queue) == 2
    queue.run(max_events=1)
    assert len(queue) == 1
