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
entry is used only for audit callbacks (check-engine sweeps, ECC ticks),
which fire without being accounted; the loop tells them apart with
``entry.__class__ is Event``. A pending callback is withdrawn with
:meth:`EventQueue.unschedule`, which removes it from its future bucket,
as gem5 deschedules an event by unlinking it: nothing is left behind for
the loop to skip. Snapshot images of the queue are never migrated across a
change like this one: an image written under another container format or
:data:`~repro.sim.system.MODEL_VERSION` is rebuilt, not restored.

``run()`` walks each bucket with a list iterator, which also reaches the
entries callbacks append and ends without an exception, and counts fired
events in a local that a ``finally`` stores once per call, so a raising
callback leaves the count where a per-event store would. The cursor is
still stored per event: audit callbacks read ``len(queue)`` mid-run.
Together with the controller's wake path (``dram/controller.py``) this
raised ``sim_refs_per_s`` by 12.4% on the benchmark's ``memory-bound``
workload and 9.9% on ``cache-resident`` (medians of ten alternating
parent/change pairs at seed 1, ``BENCH_2026-10-19.json``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from typing import Callable, Dict, List, Optional, Union


class Event:
    """An audit entry: a callback that fires without being accounted.

    Audit events observe without being accounted: they are excluded from
    ``events_processed`` and consume none of ``run()``'s ``max_events``
    budget, so an attached checker cannot change what an unchecked run
    reports or does. A spent budget stops them too — a truncated run fires
    no further callbacks of any kind. Built by ``schedule(..., audit=True)``.
    """

    __slots__ = ("time", "callback")

    def __init__(self, time: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback

    def __repr__(self) -> str:
        return f"Event(t={self.time}, audit)"


#: What a bucket holds: a bare callback, or an audit Event wrapping one.
Entry = Union[Callable[[], None], Event]


class EventQueue:
    """Calendar queue of timed callbacks with a monotonically advancing clock.

    Example:
        >>> q = EventQueue()
        >>> fired = []
        >>> q.schedule(5, lambda: fired.append(q.now))
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
        #: once per call. Its only user is the benchmark's tracer
        #: (``perfbench/tracer.py``), which charges each callback to the
        #: layer that defines it; ``repro profile`` uses cProfile instead.
        self.profiler: Optional[Callable[[Callable[[], None]], None]] = None
        #: Optional epoch sampler (see :mod:`repro.telemetry`). Consulted
        #: once per *distinct timestamp*, not per event: when the clock is
        #: about to advance to a bucket at or past ``telemetry.next_cycle``,
        #: the kernel calls ``telemetry.sample(time)`` *before* firing that
        #: bucket's callbacks. The sampler only reads component state, so a
        #: sampled run is byte-identical to an unsampled one; run() reads
        #: the attribute once per call.
        self.telemetry: Optional["TelemetrySampler"] = None

    def __len__(self) -> int:
        total = 0
        for time, bucket in self._buckets.items():
            total += len(bucket)
            if time == self._pos_time:
                total -= self._pos
        return total

    @property
    def events_processed(self) -> int:
        """Total number of callbacks fired so far."""
        return self._events_processed

    def schedule(
        self, time: int, callback: Callable[[], None], audit: bool = False
    ) -> None:
        """Schedule ``callback`` to fire at absolute ``time``.

        ``audit=True`` wraps it in an audit :class:`Event`.

        Raises:
            ValueError: if ``time`` is in the past.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time} before now={self.now}")
        if audit:
            callback = Event(time, callback)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            heappush(self._times, time)
        else:
            bucket.append(callback)

    def schedule_after(
        self, delay: int, callback: Callable[[], None], audit: bool = False
    ) -> None:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule(self.now + delay, callback, audit=audit)

    def unschedule(self, time: int, callback: Callable[[], None]) -> None:
        """Remove the first pending entry equal to ``callback`` at ``time``.

        Only a future bucket can lose an entry, so the fired prefix of the
        current one (and with it the run cursor) never moves. A bucket left
        empty stays until ``run``/``step`` reach its timestamp, which they
        drop without moving the clock or sampling telemetry.

        Raises:
            ValueError: if ``time`` is not after ``now``, or no such entry
                is pending at ``time``.
        """
        if time <= self.now:
            raise ValueError(
                f"cannot unschedule at t={time}: not after now={self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None or callback not in bucket:
            raise ValueError(f"no pending {callback!r} at t={time}")
        bucket.remove(callback)

    def _next_event(self) -> Optional[Entry]:
        """The next entry, discarding drained buckets.

        Leaves the cursor (``_pos``, ``_pos_time``) on the entry returned.
        """
        times = self._times
        buckets = self._buckets
        while times:
            head = times[0]
            bucket = buckets[head]
            pos = self._pos if head == self._pos_time else 0
            if pos < len(bucket):
                self._pos = pos
                self._pos_time = head
                return bucket[pos]
            # Bucket drained. A callback may still append to it at the
            # current cycle before the next step, so only now is it safe to
            # retire the timestamp.
            self._pos = 0
            self._pos_time = None
            heappop(times)
            del buckets[head]
        return None

    def step(self) -> bool:
        """Fire the next event. Returns False if the queue is empty."""
        entry = self._next_event()
        if entry is None:
            return False
        self._pos += 1
        time = self.now = self._pos_time
        telemetry = self.telemetry
        if telemetry is not None and time >= telemetry.next_cycle:
            telemetry.sample(time)
        if entry.__class__ is Event:
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
        # one bucket until it drains, so per-event work is an iterator step,
        # a budget test, a class test and the callback — no heap traffic, no
        # dict lookups, no per-event attribute reads.
        times = self._times
        buckets = self._buckets
        telemetry = self.telemetry
        profiler = self.profiler
        processed = self._events_processed
        # -1 is never reached by the count, so an unbounded run never stops
        # on the budget.
        limit = -1 if max_events is None else processed + max_events
        try:
            while times:
                head = times[0]
                bucket = buckets[head]
                pos = self._pos if head == self._pos_time else 0
                if pos == len(bucket):
                    # Drained, or emptied by unschedule: retire it without
                    # moving the clock.
                    self._pos = 0
                    self._pos_time = None
                    heappop(times)
                    del buckets[head]
                    continue
                # The budget is spent before the clock moves: a run truncated
                # by max_events fires nothing further — not even an audit
                # event — matching the original heap implementation, which
                # checked the budget before popping anything.
                if processed == limit:
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
                if telemetry is not None and head >= telemetry.next_cycle:
                    # Sampled before the bucket fires: an epoch covers every
                    # event strictly below its closing boundary.
                    telemetry.sample(head)
                # Fire through the bucket. Callbacks may append same-cycle
                # events to it, and a list iterator reaches them too; they
                # never remove from it (unschedule refuses the current
                # cycle), so positions are stable. Only a bucket resumed
                # mid-way starts past its head.
                for entry in islice(bucket, pos, None) if pos else bucket:
                    if processed == limit:
                        self._pos = pos
                        return
                    pos += 1
                    self._pos = pos
                    if entry.__class__ is Event:
                        entry = entry.callback
                    else:
                        processed += 1
                    if profiler is None:
                        entry()
                    else:
                        profiler(entry)
                # Drained; a later callback scheduling at this same cycle
                # simply recreates the bucket (the timestamp re-enters the
                # heap).
                self._pos = 0
                self._pos_time = None
                heappop(times)
                del buckets[head]
        finally:
            self._events_processed = processed
