"""Discrete-event engine on an integer microsecond clock.

All simulation time is kept in whole microseconds so that replaying a
run yields bit-identical event ordering on any platform.  Events are
keyed `(fire_at, seq)`, where `seq` counts filed events, so events that
share a fire time are dispatched in filing order.  The heap holds
`(fire_at, seq, fn, arg)` tuples and compares them in C; `seq` is
unique, so a comparison never reaches `fn`.

There are two kinds of event.  `post(fire_at, fn, arg)` files an event
that cannot be cancelled and, when it fires, calls `fn(arg)`: no handle
and no closure are built.  Every event of a run is posted but the
retransmission timer's: `schedule` returns an `EventHandle` that can be
cancelled or moved, and files it through `post` as the entry
`(fire_at, seq, None, handle)`.  Both take one `seq` from the same
counter, so mixing them keeps filing order among equal fire times.

`reschedule` moves a pending event and dispatches it exactly where
`cancel()` followed by `schedule()` would: it takes a fresh `seq` either
way.  A move to a later time only updates the handle; its old heap entry
is filed again under the new key when it surfaces, so restarting the
timer, the commonest move, allocates no new event.
"""

from __future__ import annotations

import heapq
from typing import Callable

SimTime = int  # microseconds

US_PER_MS = 1_000
US_PER_S = 1_000_000


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

    __slots__ = ("fire_at", "seq", "action")

    def __init__(self, fire_at: SimTime, seq: int, action: Callable[[], None]):
        self.fire_at = fire_at
        self.seq = seq
        self.action: Callable[[], None] | None = action

    def cancel(self) -> None:
        self.action = None


class EventLoop:
    """Priority-queue scheduler with a virtual clock.

    The clock only moves forward.  Scheduling in the past is a hard
    error rather than a silent reorder.  Cancelled events are skipped
    and do not count as processed.  A delivered packet costs two posted
    events: its service completion, which also runs its sink, and its ACK.
    """

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._heap: list[tuple] = []
        self._seq = 0
        self.processed = 0

    def schedule(self, fire_at: SimTime, action: Callable[[], None]) -> EventHandle:
        handle = EventHandle(fire_at, self._seq, action)   # post takes this seq
        self.post(fire_at, None, handle)
        return handle

    def post(self, fire_at: SimTime, fn: Callable[[object], None], arg: object) -> None:
        """File fn(arg) at fire_at; the event cannot be cancelled."""
        if fire_at < self.now:
            raise ScheduleInPastError(
                f"cannot schedule at {fire_at} us; clock is at {self.now} us"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (fire_at, seq, fn, arg))

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
        handle.seq = self._seq
        self._seq += 1
        return handle

    def run_until(self, t_end: SimTime) -> int:
        """Dispatch every pending event with fire_at <= t_end, in order.

        Returns the number of events processed.  On return the clock
        sits at t_end even if the queue drained early; a t_end before
        the clock would move it back, and raises.
        """
        if t_end < self.now:
            raise ScheduleInPastError(f"cannot run until {t_end} us; clock is at {self.now} us")
        heap = self._heap
        heappop = heapq.heappop
        dispatched = 0
        # Pop, then check: no peek per event.  Keys are unique, so pushing back
        # the entry past t_end keeps the order.  The posted branch ends in
        # `continue`, ~100 ns per event faster on CPython 3.11 than falling through.
        while heap:
            fire_at, seq, fn, arg = heappop(heap)
            if fire_at > t_end:
                heapq.heappush(heap, (fire_at, seq, fn, arg))
                break
            if fn is not None:
                self.now = fire_at
                fn(arg)
                dispatched += 1
                continue
            action = arg.action
            if action is None:
                continue
            if seq != arg.seq:
                # moved later by reschedule; file it under its current key
                heapq.heappush(heap, (arg.fire_at, arg.seq, None, arg))
                continue
            arg.action = None
            self.now = fire_at
            action()
            dispatched += 1
        self.now = t_end
        self.processed += dispatched
        return dispatched

    def pending(self) -> int:
        """Posted events plus live handles; each live handle has one entry."""
        return sum(1 for _, _, fn, arg in self._heap
                   if fn is not None or arg.action is not None)

    def clear(self) -> None:
        """Drop every pending event, releasing the objects its action holds."""
        for _, _, fn, arg in self._heap:
            if fn is None:
                arg.action = None
        self._heap.clear()
