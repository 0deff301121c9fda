"""Machine-speed reference for the benchmark's timings (stdlib only).

The measuring host is a shared virtual machine whose CPU speed drifts by up
to half within tens of seconds: other guests share its cores and caches, so
the process CPU time of a fixed computation drifts with it, and runs of the
same code and input read up to a quarter apart. Every time the benchmark
reports is therefore *reference-normalized*:

    reported = CPU seconds of the work * REF_NOMINAL_S / reference seconds

where "reference seconds" is the mean CPU time of ``reference()`` (a
fixed pure-Python exact-arithmetic computation that never changes and never
calls the package) measured next to the work. On an unloaded machine where
``reference()`` takes ``REF_NOMINAL_S`` the reported time is the CPU time
itself; under drift the ratio stays put. The package is single-threaded
pure Python, so its CPU time is its wall time when nothing else runs.

A ``Speedometer`` samples the reference on a CPU-time timer (``SIGPROF``)
while work runs in this process, and explicitly between CLI children; it
keeps its own CPU time apart, so that the work's CPU time excludes it.
In-process CPU time is read from the thread clock: while a process-wide CPU
timer is armed, Linux serves the process clock at tick resolution, and the
benchmark's processes run one thread.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Nominal CPU time of reference(): about its time on an unloaded 2.1 GHz
# Xeon vCPU under Python 3.11. Only a scale: comparisons are relative.
REF_NOMINAL_S = 0.002
# SIGPROF period (process CPU seconds) while a worker runs jobs.
PERIOD_S = 0.1
# A job's speed comes from the samples taken during it, or from the NEAREST
# samples around it when fewer were taken: their mean without the TRIM
# share at each end. A mean, because CPU time adds up over the job's speed
# changes; trimmed, because a sample can catch an interrupt.
NEAREST = 15
TRIM = 0.1


def _matrix(n: int) -> list[list[int]]:
    x, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


_M = _matrix(7)
_TRIPLES = [(i, j, k) for i in range(9) for j in range(i) for k in range(j)]


def reference():
    """Fixed work resembling the package's: Gauss-Jordan over Fraction on a
    7x7 integer matrix, then a set of frozensets."""
    n = len(_M)
    tab = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(_M)]
    for c in range(n):
        p = next(r for r in range(c, n) if tab[r][c] != 0)
        tab[c], tab[p] = tab[p], tab[c]
        piv = tab[c][c]
        tab[c] = [v / piv for v in tab[c]]
        for r in range(n):
            if r != c and tab[r][c] != 0:
                f = tab[r][c]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[c])]
    faces = {frozenset(t) for t in _TRIPLES}
    return len(faces), tab[0][n]


class Speedometer:
    """Reference samples, each (monotonic time, CPU seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.overhead = 0.0  # CPU seconds spent in sample()

    def sample(self, count: int = 1) -> None:
        start = time.thread_time()
        try:
            for _ in range(count):
                t0 = time.thread_time()
                reference()
                self.samples.append((time.monotonic(), time.thread_time() - t0))
        finally:
            self.overhead += time.thread_time() - start

    def _on_prof(self, signum, frame):
        self.sample()

    def start(self) -> None:
        """Sample every PERIOD_S of this process's CPU time."""
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S / the reference's time around [start, end]."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            near = sorted(self.samples,
                          key=lambda ts: max(start - ts[0], ts[0] - end, 0.0))
            inside = [s for _, s in near[:NEAREST]]
        inside.sort()
        cut = int(TRIM * len(inside))
        return REF_NOMINAL_S / statistics.fmean(inside[cut:len(inside) - cut])
