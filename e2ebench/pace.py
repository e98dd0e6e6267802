"""Host-speed probe: the benchmark's figures in reference-speed seconds.

The benchmark runs on a few cores of a shared host whose speed moves by
up to 1.5x within seconds and stays slow or fast for minutes: a fixed
pure-python loop's wall time *and* CPU time both move that much, with no
steal time counted, so the cores themselves slow down under the
neighbours' load (shared caches and SMT siblings), and no choice of run
length or statistic removes it.  A run in a slow minute and a run in a
fast one differ by more than any bound the benchmark may set.

So every timed op runs next to *probes*: a fixed amount of pure-python
reference work (:func:`unit`, dict lookups on tuple keys and float
arithmetic, the interpreter work that dominates the program) timed in
the same process, just before and just after the op, or in the idle time
of an open loop.  An op's time is then scaled by how slow the probes
around it ran::

    scaled = measured * NOMINAL_UNIT_S / (mean unit time of the probes
                                         next to the op)

i.e. the op's time on a host where one reference unit takes
``NOMINAL_UNIT_S``.  A change to the program moves the op and not the
probes, so it shows in full; a change of host speed moves both and
cancels.  The probes allocate no containers, so they never trigger the
collector on the program's garbage, and their own time is never counted
as the program's.  The raw, unscaled figures are kept in each run's
detail file.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
import signal
from statistics import fmean
from time import perf_counter
from typing import List, Tuple

#: Median seconds of one :func:`unit` on the reference host (a 2-core
#: Intel Xeon VM, CPython 3): the speed every scaled figure is quoted at.
NOMINAL_UNIT_S = 1.0e-4
#: Shortest stretch of timeline on either side of an op whose probes
#: scale it.
REACH_S = 0.01

_TABLE = {(i % 37, i % 11, i % 5): float(i) for i in range(300)}
_KEYS = tuple(_TABLE)


def unit() -> float:
    """One unit of reference work, about 0.1 ms of interpreter time."""
    table = _TABLE
    total = 0.0
    for _ in range(3):
        for key in _KEYS:
            total = total * 0.5 + table[key] * 1.000001
    return total


class Pace:
    """Probes of host speed along one process's timeline."""

    def __init__(self) -> None:
        #: Mid times of the probes, ascending.
        self.mids: List[float] = []
        #: Seconds per unit of each probe.
        self.unit_s: List[float] = []
        #: Seconds spent probing.
        self.spent = 0.0

    def probe(self, units: int) -> Tuple[float, float]:
        """Run ``units`` reference units; ``(start, end)`` of the probe."""
        start = perf_counter()
        for _ in range(units):
            unit()
        end = perf_counter()
        self.mids.append(0.5 * (start + end))
        self.unit_s.append((end - start) / units)
        self.spent += end - start
        return start, end

    def start_timer(self, interval: float, units: int) -> None:
        """Probe ``units`` every ``interval`` seconds from a ``SIGALRM``
        handler, i.e. in between the bytecodes of whatever runs --
        for code, such as the set-up, that offers no place to probe."""
        signal.signal(signal.SIGALRM, lambda number, frame: self.probe(units))
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds measured in ``[start, end]`` into
        reference-speed seconds: from the probes within the op's own
        length (at least ``REACH_S``) of it, and the next one beyond
        them on either side, so an op far from any probe still has one
        on each side.  The mean, not the median: the host's speed flips
        between levels faster than an op runs, and the op pays their
        mix."""
        reach = max(end - start, REACH_S)
        lo = bisect_left(self.mids, start - reach)
        hi = bisect_right(self.mids, end + reach)
        near = self.unit_s[max(0, lo - 1):hi + 1]
        if not near:
            raise RuntimeError("no host-speed probe ran near an op")
        return NOMINAL_UNIT_S / fmean(near)
