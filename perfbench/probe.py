"""Speed probe: rescale wall time to a fixed reference machine speed.

On a shared virtual machine a vCPU's speed jumps between modes as other
tenants come and go (on the 2-core KVM guest this benchmark was built on,
pure-Python code ran up to 1.6x slower for stretches of 5 to 30 seconds).
Those stretches are as long as a run, so medians alone cannot remove them.

A SIGALRM handler interrupts the measured process every PERIOD_S and times a
fixed pure-Python breadth-first search on a small grid, the same kind of work
as the package's ball code: one untimed warm-up pass, then the faster of two
timed passes.  The mean of REF_S / sample over an interval estimates how fast
the machine ran then, relative to the reference, and

    reference seconds = wall seconds * mean(REF_S / sample over the interval)

is the time the interval would have taken at reference speed.  The probe
itself costs about 1% of the measured time, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

PERIOD_S = 0.02
# fastest mode of the probe on the machine the benchmark was built on
# (Xeon KVM guest, Python 3.11), so reference seconds read close to wall
# seconds on an idle host
REF_S = 16e-6

_SIDE = 8
_ADJ = tuple(
    tuple(v for v in (i - 1 if i % _SIDE else -1, i + 1 if (i + 1) % _SIDE else -1,
                      i - _SIDE, i + _SIDE) if 0 <= v < _SIDE * _SIDE)
    for i in range(_SIDE * _SIDE)
)


def _bfs() -> dict[int, int]:
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in _ADJ[u]:
            if w not in dist:
                dist[w] = du
                queue.append(w)
    return dist


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _sample(self, signum, frame) -> None:
        _bfs()
        t0 = perf_counter()
        _bfs()
        t1 = perf_counter()
        _bfs()
        t2 = perf_counter()
        self.samples.append((t0, min(t1 - t0, t2 - t1)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if not inside:  # interval shorter than the period: use the nearest sample
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - t0))[1]]
        return statistics.fmean(REF_S / s for s in inside)
