"""How fast the host runs Python right now, from a fixed pure-Python loop.

On a shared host the interpreter's speed drifts by tens of percent within
minutes as neighbours come and go.  The benchmark runs this loop between
slices of every timed interval and converts the interval to *reference
seconds*: the time it would have taken on a host that runs the loop at
``REFERENCE_OPS_PER_S``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

# Loop iterations per second of the reference host (a 2-cpu x86 runner with
# Python 3.11, its vCPU uncontended).  Only a unit: it scales every
# reference-second figure alike.
REFERENCE_OPS_PER_S = 6.0e6


def loop(n: int) -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return acc + len(table)


def ops_per_s(n: int = 20_000) -> float:
    """Loop iterations per second over one run of ``n`` iterations."""
    start = time.perf_counter()
    loop(n)
    return n / (time.perf_counter() - start)


class ReferenceClock:
    """Times intervals in wall seconds and in reference seconds.

    Each interval is weighted by the mean of the loop speeds measured just
    before and just after it; the loop's own time is in neither total.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._speed = ops_per_s()

    def time(self, work: Callable[[], object]) -> float:
        """Run ``work`` and return its wall time."""
        start = time.perf_counter()
        work()
        wall = time.perf_counter() - start
        speed = ops_per_s()
        self.wall_s += wall
        self.reference_s += wall * (self._speed + speed) / 2.0 / REFERENCE_OPS_PER_S
        self._speed = speed
        return wall
