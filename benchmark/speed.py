"""Machine speed probe, for timings that do not move with co-tenant load.

On a shared host the same Python work can take 1.5 times longer for
seconds or minutes at a stretch, and CPU time slows as much as wall
time, so medians of raw wall-clock latencies differ by a third from
one run to the next.  The benchmark therefore runs a fixed probe
between operations and scales every timing by the speed the probes
measured around it: a scaled time is the wall time the work would take
where the probe takes ``REFERENCE_NS``.  The probe allocates no objects
the garbage collector tracks, so the program's heap cannot slow it.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

PROBE_ITERATIONS = 5000
REFERENCE_NS = 1_000_000


def probe() -> int:
    """Nanoseconds for a fixed loop of integer and dict work."""
    table = dict.fromkeys(range(64), 0)
    acc = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        for i in range(PROBE_ITERATIONS):
            acc = (acc * 31 + i) & 0xFFFF
            table[acc & 63] += 1
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Probes in time order.  A timing taken after probe ``b`` and before
    probe ``b + 1`` is in bracket ``b``."""

    def __init__(self) -> None:
        self.probes = [probe()]

    def bracket(self) -> int:
        return len(self.probes) - 1

    def take(self) -> None:
        self.probes.append(probe())

    def factor(self, bracket: int) -> float:
        after = self.probes[min(bracket + 1, len(self.probes) - 1)]
        return REFERENCE_NS / ((self.probes[bracket] + after) / 2)
