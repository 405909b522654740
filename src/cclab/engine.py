"""Discrete-event engine on an integer microsecond clock.

All simulation time is kept in whole microseconds so that replaying a
run yields bit-identical event ordering on any platform.  Events are
ordered by `(fire_at, key)`.  A key is `(filed_at << 32) | counter`,
where `counter` counts the keys taken, so events that share a fire time
are dispatched in filing order.  For an event filed at `now` this is
plain filing order; a caller that knows when an event would have been
filed can take a key for that time (`take_keys`) and file the event
under it (`file`).  Entries are `(fire_at, key, fn, arg)` tuples
compared in C; keys are unique, so a comparison never reaches `fn`.

Entries live in a heap and in one FIFO lane beside it.  `file` appends
an entry that sorts at or after the lane's tail to the lane and pushes
any other onto the heap, so the lane stays sorted whatever the caller
files; the link's ACKs, filed in departure order, all take the lane.
`run_until` dispatches the smaller of the two heads.

There are two kinds of event.  `post(fire_at, fn, arg)` files an event
that cannot be cancelled and, when it fires, calls `fn(arg)`: no handle
and no closure are built.  Every event of a run is posted or filed but
the retransmission timer's: `schedule` returns an `EventHandle` that can
be cancelled or moved, and files it through `post` as the entry
`(fire_at, key, None, handle)`.  All of them take their key from the
same counter, so mixing them keeps filing order among equal fire times.

`reschedule` moves a pending event and dispatches it exactly where
`cancel()` followed by `schedule()` would: it takes a fresh key either
way.  A move to a later time only updates the handle; its old heap entry
is filed again under the new key when it surfaces, so restarting the
timer, the commonest move, allocates no new event.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

SimTime = int  # microseconds

US_PER_MS = 1_000
US_PER_S = 1_000_000

_COUNTER_BITS = 32


def ms(value: float) -> SimTime:
    """Convert milliseconds to a SimTime, rounding to the nearest microsecond."""
    return round(value * US_PER_MS)


def seconds(value: float) -> SimTime:
    return round(value * US_PER_S)


class ScheduleInPastError(ValueError):
    """Raised when an event is filed, or the loop run, before the current clock."""


class EventHandle:
    """Returned by schedule(); cancel() prevents a pending event from firing.

    `action` is None once the event has fired or been cancelled.
    """

    __slots__ = ("fire_at", "key", "action")

    def __init__(self, fire_at: SimTime, key: int, action: Callable[[], None]):
        self.fire_at = fire_at
        self.key = key
        self.action: Callable[[], None] | None = action

    def cancel(self) -> None:
        self.action = None


class EventLoop:
    """Priority-queue scheduler with a virtual clock.

    The clock only moves forward.  Scheduling in the past is a hard
    error rather than a silent reorder.  Cancelled events are skipped
    and do not count as processed.  A delivered packet costs one filed
    event, its ACK: the link computes departures in closed form.

    `key` is the key of the event being dispatched.  Between events it
    is `(now + 1) << 32`, above every key filed at or before `now`: all
    that was due by `now` has run.
    """

    __slots__ = ("now", "key", "_heap", "_lane", "_counter", "processed")

    def __init__(self) -> None:
        self.now: SimTime = 0
        self.key = 1 << _COUNTER_BITS
        self._heap: list[tuple] = []
        self._lane: deque[tuple] = deque()
        self._counter = 0
        self.processed = 0

    def take_keys(self, filed_at: SimTime, count: int = 1) -> int:
        """Reserve `count` consecutive keys for entries filed at filed_at; returns the first."""
        counter = self._counter
        self._counter = counter + count
        return (filed_at << _COUNTER_BITS) | counter

    def schedule(self, fire_at: SimTime, action: Callable[[], None]) -> EventHandle:
        # post takes this key
        handle = EventHandle(fire_at, (self.now << _COUNTER_BITS) | self._counter, action)
        self.post(fire_at, None, handle)
        return handle

    def post(self, fire_at: SimTime, fn: Callable[[object], None], arg: object) -> None:
        """File fn(arg) at fire_at; the event cannot be cancelled."""
        if fire_at < self.now:
            raise ScheduleInPastError(
                f"cannot schedule at {fire_at} us; clock is at {self.now} us")
        counter = self._counter
        self._counter = counter + 1
        heapq.heappush(self._heap, (fire_at, (self.now << _COUNTER_BITS) | counter, fn, arg))

    def file(self, fire_at: SimTime, key: int, fn: Callable[[object], None],
             arg: object) -> None:
        """File fn(arg) at fire_at under a key from `take_keys`; it cannot be cancelled."""
        if fire_at < self.now:
            raise ScheduleInPastError(
                f"cannot schedule at {fire_at} us; clock is at {self.now} us")
        entry = (fire_at, key, fn, arg)
        lane = self._lane
        if not lane or entry > lane[-1]:
            lane.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def reschedule(self, handle: EventHandle, fire_at: SimTime) -> EventHandle:
        """Move a pending event to fire_at; returns the handle that now owns it.

        Dispatch order is that of handle.cancel() + schedule(fire_at, ...).
        """
        action = handle.action
        if action is None:
            raise ValueError("cannot reschedule an event that fired or was cancelled")
        if fire_at < handle.fire_at:
            # the old heap entry would surface too late: file a new event
            moved = self.schedule(fire_at, action)
            handle.cancel()
            return moved
        # later (or equal): fire_at >= handle.fire_at >= now, never in the past
        handle.fire_at = fire_at
        counter = self._counter
        self._counter = counter + 1
        handle.key = (self.now << _COUNTER_BITS) | counter
        return handle

    def run_until(self, t_end: SimTime) -> int:
        """Dispatch every pending event with fire_at <= t_end, in order.

        Returns the number of events processed.  On return the clock
        sits at t_end even if the queue drained early; a t_end before
        the clock would move it back, and raises.
        """
        if t_end < self.now:
            raise ScheduleInPastError(f"cannot run until {t_end} us; clock is at {self.now} us")
        heap, lane = self._heap, self._lane
        heappop, popleft = heapq.heappop, lane.popleft
        dispatched = 0
        # Peek at the smaller head, then pop it.  The posted branch ends in
        # `continue`, ~100 ns per event faster on CPython 3.11 than falling
        # through to the `while` test.
        while lane or heap:
            if lane and not (heap and heap[0] < lane[0]):
                fire_at, key, fn, arg = lane[0]
                if fire_at > t_end:
                    break
                popleft()
            else:
                fire_at, key, fn, arg = heap[0]
                if fire_at > t_end:
                    break
                heappop(heap)
            if fn is not None:
                self.now = fire_at
                self.key = key
                fn(arg)
                dispatched += 1
                continue
            action = arg.action
            if action is None:
                continue
            if key != arg.key:
                # moved later by reschedule; file it under its current key
                heapq.heappush(heap, (arg.fire_at, arg.key, None, arg))
                continue
            arg.action = None
            self.now = fire_at
            self.key = key
            action()
            dispatched += 1
        self.now = t_end
        self.key = (t_end + 1) << _COUNTER_BITS
        self.processed += dispatched
        if self._counter >> _COUNTER_BITS:
            raise OverflowError(f"more than 2**{_COUNTER_BITS} keys taken in one loop")
        return dispatched

    def pending(self) -> int:
        """Posted and filed events plus live handles; each live handle has one entry."""
        return len(self._lane) + sum(1 for _, _, fn, arg in self._heap
                                     if fn is not None or arg.action is not None)

    def clear(self) -> None:
        """Drop every pending event, releasing the objects its action holds."""
        for _, _, fn, arg in self._heap:
            if fn is None:
                arg.action = None
        self._heap.clear()
        self._lane.clear()
