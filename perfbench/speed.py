"""Machine-speed sampling for normalising host times.

On a shared virtual machine one core's speed drifts by up to ~1.7x in
states that last from a few to tens of seconds: longer than any median
inside one run can average away, and too fast for a probe before and
after a multi-second section to follow.  So while a section runs, a
``SIGALRM`` timer interrupts it every ``INTERVAL_S`` and times a short
fixed probe made of the same kinds of work as the simulator (heap
pushes and pops, generator resumes, dict updates).  A section's
*scaled* time is its wall time minus the probes' own time, multiplied
by the mean ratio of ``REFERENCE_S`` to the probe times inside it: the
seconds the section would take on a machine where one probe takes
``REFERENCE_S``.  On a 2-vCPU shared virtual machine (Python 3.11)
scaling halved the spread of repeated identical runs.  Probes touch
only their own objects and the clock, so every simulated result is
unchanged.
"""

from __future__ import annotations

import heapq
import signal
import time

INTERVAL_S = 0.1
#: Nominal probe time: scaled seconds are seconds of a machine on which
#: one probe takes exactly this long.
REFERENCE_S = 0.004
_STEPS = 4000


def probe() -> float:
    """Wall seconds of one fixed pure-Python event loop of ``_STEPS`` steps."""

    def process(k):
        x = 0
        while True:
            x = (x * 31 + k) & 0xFFFF
            yield x & 7

    procs = [process(k) for k in range(16)]
    heap = [(0, i) for i in range(16)]
    tally: dict[int, int] = {}
    start = time.perf_counter()
    for _ in range(_STEPS):
        now, i = heapq.heappop(heap)
        delay = next(procs[i])
        tally[delay] = tally.get(delay, 0) + 1
        heapq.heappush(heap, (now + delay + 1, i))
    return time.perf_counter() - start


class Sampler:
    """Times the probe every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self._probes: list[float] = []

    def _tick(self, signum, frame):
        self._probes.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> tuple[float, int]:
        """Opens a section: ``time.monotonic()`` and the probes so far."""
        return time.monotonic(), len(self._probes)

    def section(self, mark: tuple[float, int]) -> tuple[float, float, list[float]]:
        """(scaled seconds, wall seconds, probe times) since ``mark``; both
        times exclude the probes' own."""
        inside = self._probes[mark[1]:]
        wall = time.monotonic() - mark[0] - sum(inside)
        probes = inside or [probe()]
        factor = sum(REFERENCE_S / p for p in probes) / len(probes)
        return wall * factor, wall, probes
