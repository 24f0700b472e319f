"""Discrete-event simulation kernel.

A single :class:`EventQueue` drives the whole system: cores, caches and the
DRAM controller all schedule callbacks on it. Events at the same timestamp
fire in scheduling order (FIFO), which keeps runs deterministic.

The queue is a *calendar* structure: events land in a per-timestamp bucket
(a plain list, so same-cycle FIFO order is the append order) and a small
heap orders only the **distinct** timestamps, with no per-event
comparisons. Buckets are small: schedules per new bucket average 1.9 on
the benchmark's ``memory-bound`` workload and 1.6 on ``cache-resident``, so
the heap holds about half as many entries as a heap of events would, and a
same-cycle schedule is a dict lookup plus a list append.

Bucket entries are the callbacks themselves: :meth:`EventQueue.schedule`
appends the callable and allocates nothing per event. An :class:`Event`
entry is used only where a callable is not enough — a wake its owner may
cancel (the memory controller's) and audit callbacks (check-engine sweeps,
ECC ticks), which fire without being accounted. The loop tells the two
apart with ``entry.__class__ is Event``. Snapshot images of the queue are
never migrated across a change like this one: an image written under
another :data:`~repro.sim.system.MODEL_VERSION` is rebuilt, not restored.
Together with the flattened core → L1/L2 → LLC path
(docs/architecture.md §9) this took the benchmark's ``cache-resident``
workload from 118.1 to 77.7 Python-level calls per memory reference, and
raised its ``sim_refs_per_s`` by 12–14% (ten alternating parent/change
pairs at each of seeds 1 and 101).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Union


class Event:
    """A bucket entry that needs more than a callable: cancellable or audit.

    Cancellable entries are built by their owner and handed to
    :meth:`EventQueue.schedule`, which returns them; audit entries are built
    by ``schedule(..., audit=True)``.
    """

    __slots__ = ("time", "callback", "cancelled", "audit")

    def __init__(
        self, time: int, callback: Callable[[], None], audit: bool = False
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        #: Audit events observe without being accounted: they are excluded
        #: from ``events_processed`` and consume none of ``run()``'s
        #: ``max_events`` budget, so an attached checker cannot change what
        #: an unchecked run reports or does. A spent budget stops them too —
        #: a truncated run fires no further callbacks of any kind.
        self.audit = audit

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:
        flags = "cancelled" if self.cancelled else "pending"
        if self.audit:
            flags += ",audit"
        return f"Event(t={self.time}, {flags})"


#: What a bucket holds: a bare callback, or an Event wrapping one.
Entry = Union[Callable[[], None], Event]


def _live(entry: Entry) -> bool:
    return entry.__class__ is not Event or not entry.cancelled


class EventQueue:
    """Calendar queue of timed callbacks with a monotonically advancing clock.

    Example:
        >>> q = EventQueue()
        >>> fired = []
        >>> _ = q.schedule(5, lambda: fired.append(q.now))
        >>> q.run()
        >>> fired
        [5]
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Entry]] = {}
        self._times: List[int] = []  # heap of distinct bucket timestamps
        # Fired prefix of one bucket, valid only for the bucket at
        # ``_pos_time``: an early-stopped run() can leave a partially fired
        # head bucket, and a later schedule() may then push an *earlier*
        # timestamp to the heap head, so the cursor must not be applied to
        # whatever bucket happens to be the head when execution resumes.
        self._pos = 0
        self._pos_time: Optional[int] = None
        self.now = 0
        self._events_processed = 0
        #: Optional per-event hook. When set, every callback runs as
        #: ``profiler(callback)`` instead of ``callback()``; run() reads it
        #: once per bucket. Its only user is the benchmark's tracer
        #: (``perfbench/tracer.py``), which charges each callback to the
        #: layer that defines it; ``repro profile`` uses cProfile instead.
        self.profiler: Optional[Callable[[Callable[[], None]], None]] = None
        #: Optional epoch sampler (see :mod:`repro.telemetry`). Consulted
        #: once per *distinct timestamp*, not per event: when the clock is
        #: about to advance to a bucket at or past ``telemetry.next_cycle``,
        #: the kernel calls ``telemetry.sample(time)`` *before* firing that
        #: bucket's callbacks. The sampler only reads component state, so a
        #: sampled run is byte-identical to an unsampled one; when None the
        #: loop pays one attribute read per bucket.
        self.telemetry: Optional["TelemetrySampler"] = None

    def __len__(self) -> int:
        total = 0
        for time, bucket in self._buckets.items():
            start = self._pos if time == self._pos_time else 0
            for index in range(start, len(bucket)):
                if _live(bucket[index]):
                    total += 1
        return total

    @property
    def events_processed(self) -> int:
        """Total number of callbacks fired so far."""
        return self._events_processed

    def schedule(self, time: int, callback: Entry, audit: bool = False) -> Entry:
        """Schedule ``callback`` to fire at absolute ``time``; returns the entry.

        ``callback`` is appended as it is — a bare callable, or an
        :class:`Event` its owner keeps in order to cancel it. ``audit=True``
        wraps a callable in an audit :class:`Event`.

        Raises:
            ValueError: if ``time`` is in the past.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time} before now={self.now}")
        if audit:
            callback = Event(time, callback, True)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heapq.heappush(self._times, time)
        else:
            bucket.append(callback)
        return callback

    def schedule_after(
        self, delay: int, callback: Entry, audit: bool = False
    ) -> Entry:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, audit=audit)

    def _next_event(self) -> Optional[Entry]:
        """The next live entry, discarding cancelled ones and dry buckets.

        Leaves the cursor (``_pos``, ``_pos_time``) on the entry returned.
        """
        times = self._times
        buckets = self._buckets
        while times:
            head = times[0]
            bucket = buckets[head]
            pos = self._pos if head == self._pos_time else 0
            size = len(bucket)
            while pos < size:
                entry = bucket[pos]
                if _live(entry):
                    self._pos = pos
                    self._pos_time = head
                    return entry
                pos += 1
            # Bucket drained. A callback may still append to it at the
            # current cycle before the next step, so only now is it safe to
            # retire the timestamp.
            self._pos = 0
            self._pos_time = None
            heapq.heappop(times)
            del buckets[head]
        return None

    def step(self) -> bool:
        """Fire the next non-cancelled event. Returns False if queue is empty."""
        entry = self._next_event()
        if entry is None:
            return False
        self._pos += 1
        time = self.now = self._pos_time
        telemetry = self.telemetry
        if telemetry is not None and time >= telemetry.next_cycle:
            telemetry.sample(time)
        if entry.__class__ is Event:
            if not entry.audit:
                self._events_processed += 1
            entry = entry.callback
        else:
            self._events_processed += 1
        profiler = self.profiler
        if profiler is None:
            entry()
        else:
            profiler(entry)
        return True

    def run(self, until: int = None, max_events: int = None) -> None:
        """Run until the queue drains, ``until`` is reached, or event budget ends.

        Args:
            until: stop once the clock would pass this timestamp (inclusive).
            max_events: safety valve against runaway simulations.
        """
        # The hot loop of the whole simulator: the queue stays resident in
        # one bucket until it drains, so per-event work is an index, a class
        # test and the callback — no heap traffic, no dict lookups.
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        bounded = max_events is not None
        # The budget is counted on ``_events_processed`` itself, which only
        # this loop and step() advance.
        limit = self._events_processed + max_events if bounded else 0
        while times:
            head = times[0]
            bucket = buckets[head]
            pos = self._pos if head == self._pos_time else 0
            size = len(bucket)
            while pos < size:
                entry = bucket[pos]
                if entry.__class__ is not Event or not entry.cancelled:
                    break
                pos += 1
            if pos == size:
                self._pos = 0
                self._pos_time = None
                heappop(times)
                del buckets[head]
                continue
            # The budget is spent before the clock moves: a run truncated by
            # max_events fires nothing further — not even an audit event —
            # matching the original heap implementation, which checked the
            # budget before popping anything.
            if bounded and self._events_processed >= limit:
                self._pos = pos
                self._pos_time = head
                return
            if until is not None and head > until:
                self._pos = pos
                self._pos_time = head
                self.now = until
                return
            self.now = head
            self._pos_time = head
            telemetry = self.telemetry
            if telemetry is not None and head >= telemetry.next_cycle:
                # Sampled before the bucket fires: an epoch covers every
                # event strictly below its closing boundary.
                telemetry.sample(head)
            profiler = self.profiler
            # Fire through the bucket. Callbacks may append same-cycle events
            # to it, so its end is found by indexing past it; they never
            # remove (cancel only flags), so positions are stable.
            while True:
                try:
                    entry = bucket[pos]
                except IndexError:
                    break
                if entry.__class__ is Event:
                    if entry.cancelled:
                        pos += 1
                        continue
                    if entry.audit:
                        if bounded and self._events_processed >= limit:
                            self._pos = pos
                            return
                        pos += 1
                        self._pos = pos
                        if profiler is None:
                            entry.callback()
                        else:
                            profiler(entry.callback)
                        continue
                    entry = entry.callback
                if bounded and self._events_processed >= limit:
                    self._pos = pos
                    return
                pos += 1
                self._pos = pos
                self._events_processed += 1
                if profiler is None:
                    entry()
                else:
                    profiler(entry)
            # Drained; a later callback scheduling at this same cycle simply
            # recreates the bucket (the timestamp re-enters the heap).
            self._pos = 0
            self._pos_time = None
            heappop(times)
            del buckets[head]
