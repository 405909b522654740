"""Machine-speed calibration for wall times.

On a shared machine the speed of a core drifts with what runs beside
it: a fixed loop of Python code was seen to take anywhere from 26 to 62
ms within a few minutes, and the same drift moves every wall time the
benchmark takes, by far more than a code change should be judged by.
So while a timed step runs, a background thread times a short fixed
loop every 50 ms in its own CPU time, which leaves out any wait for a
core or for the interpreter lock.  The step's wall time is then scaled
by REFERENCE_S / (the loop's mean time during the step): it is reported
as it would read on a machine where the loop takes REFERENCE_S.  The
loop exercises what the simulator leans on (method calls, attribute
updates, small objects, a tuple heap, a dict) but none of cclab's code,
so no change to cclab can move it.  The sampling takes about 3% of one
core; every step pays it alike.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time

# the loop's CPU time at the usual speed of the 2-core VM that the reference
# figures in README.md come from (CPython 3.11)
REFERENCE_S = 0.0013
ITERATIONS = 1000
PERIOD_S = 0.05


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def bump(self, delta: int) -> int:
        self.value += delta
        return self.value


def loop_seconds() -> float:
    """CPU time of one pass of the calibration loop on the calling thread."""
    start = time.thread_time()
    heap: list = []
    table: dict = {}
    for i in range(ITERATIONS):
        node = _Node(i * 7919 % 1000, i)
        heapq.heappush(heap, (node.key, i, node))
        table[i & 255] = node.bump(i)
        if len(heap) > 64:
            heapq.heappop(heap)[2].bump(1)
    return time.thread_time() - start


def scaled(elapsed: float, loop_s: float) -> float:
    """`elapsed` at the reference speed, given the loop's time while it ran."""
    return elapsed * REFERENCE_S / loop_s


class Speedometer:
    """Samples the loop on a background thread while timed steps run."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []   # (taken at, loop CPU time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            loop_s = loop_seconds()
            self._samples.append((time.perf_counter(), loop_s))

    def scaled(self, start: float, end: float) -> float:
        """The wall time from `start` to `end`, scaled to the reference speed."""
        during = [loop_s for taken, loop_s in self._samples if start <= taken <= end]
        if not during:   # a step shorter than the sampling period
            during = [loop_s for _, loop_s in self._samples[-1:]] or [loop_seconds()]
        return scaled(end - start, statistics.mean(during))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
