"""Host-speed calibration for timings taken on a shared machine.

On a small shared VM the same op with the same inputs takes anywhere from
80 to 150 ms, depending on what other tenants of the machine are doing,
and the level drifts over minutes: a run's median can move by a quarter
between two runs of identical code.  CPU time tracks wall time there, so
process clocks do not help.

The benchmark therefore times a fixed pure-Python loop (dict lookups on
string keys, small-object allocation, a bounded heap -- the simulator's own
instruction mix) right before every op, and once more after the last one.
Each op's wall time is divided by the mean of the loop times on either
side of it and multiplied by :data:`REFERENCE_S`: the result is the op's
time on a host where the loop takes exactly ``REFERENCE_S``.  The loop is
the benchmark's code, never the program's, so a change to the program
cannot speed it up or slow it down.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Loop time on the reference host (a 2-vCPU VM running CPython 3.11 with
#: quiet neighbours); every reported time is scaled to that host.
REFERENCE_S = 0.0075

_KEYS = 50_000
_ITERATIONS = 4_000
_STRIDE = 7_919


class _Item:
    __slots__ = ("value", "index")

    def __init__(self, value, index):
        self.value = value
        self.index = index


class HostSpeed:
    """Times the calibration loop; one instance per benchmark process."""

    def __init__(self):
        self.keys = [f"key{i}" for i in range(_KEYS)]
        self.table = {key: i for i, key in enumerate(self.keys)}

    def _loop(self) -> int:
        keys, table = self.keys, self.table
        heap: list = []
        total = 0
        for i in range(_ITERATIONS):
            item = _Item(table[keys[(i * _STRIDE) % _KEYS]], i)
            heapq.heappush(heap, (item.value, item.index))
            if len(heap) > 64:
                total += heapq.heappop(heap)[0]
        return total

    def sample(self) -> float:
        """Seconds one pass of the loop takes right now (collector paused)."""
        gc.disable()
        try:
            began = time.perf_counter()
            self._loop()
            return time.perf_counter() - began
        finally:
            gc.enable()

    def scale(self, repeats: int = 3) -> float:
        """Factor turning a wall time taken just now into reference time."""
        return REFERENCE_S / statistics.median(self.sample() for _ in range(repeats))
