"""Host-speed probe: scales measured times to a fixed reference speed.

The machines this benchmark runs on share their cores, and the speed a
single thread gets swings by up to 2x within seconds.  A background
thread times a fixed pure-Python chunk every 20 ms while the workload
runs; the GIL hands it the same core the workload uses.  A time measured
over an interval is scaled by ``REFERENCE_S / mean chunk time`` over that
interval, which removes the host's speed swings while leaving the ratio
between two versions of the program intact.  The probe touches no program
state, so it cannot change the simulation's outputs.
"""

from __future__ import annotations

import bisect
import heapq
import math
import statistics
import threading
from time import perf_counter
from typing import List, Optional

#: Chunk time of an uncontended 2-core Xeon VM (Python 3.11), so scaled
#: times read as seconds on that host.
REFERENCE_S = 350e-6

#: Pause between chunks; the chunk costs ~2% of the workload's time.
INTERVAL_S = 0.02


def _chunk() -> None:
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 255] = acc
        acc += math.hypot(i & 255, (i * 3) & 127)
        if len(heap) > 32:
            heapq.heappop(heap)


class SpeedProbe:
    """Samples the host's speed from a background thread."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._costs: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "SpeedProbe":
        self._thread = threading.Thread(target=self._loop, name="perfbench-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = perf_counter()
            _chunk()
            end = perf_counter()
            self._times.append(end)
            self._costs.append(end - start)

    def factor(self, begin: float, end: float) -> float:
        """``REFERENCE_S`` over the mean chunk time sampled in [begin, end]
        (the whole run's mean when the interval holds no sample)."""
        low = bisect.bisect_left(self._times, begin)
        high = bisect.bisect_right(self._times, end)
        costs = self._costs[low:high] or self._costs
        if not costs:  # too short to sample: time one chunk now
            start = perf_counter()
            _chunk()
            costs = [perf_counter() - start]
        return REFERENCE_S / statistics.fmean(costs)
