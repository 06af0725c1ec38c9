"""Pace-normalised timing: time measured against a fixed reference kernel.

On a shared host the CPU runs the same Python code up to 2x slower for
seconds to minutes at a time, when other tenants load the core's sibling,
caches or memory. Timing a pass alone then measures the neighbours. So a
pass is timed together with its pace: every INTERVAL_S a timer signal runs
the reference kernel `reference()` once on the same core and times it. A
stretch of work between two probes is rescaled by REF_S divided by the
median time of the probes around it. A pace-normalised second is the time
the work would take on a host that runs the kernel in REF_S; a change to
the program moves it as it moves the raw time, and a slower neighbour does
not.

The kernel is work of the kind lapspec does -- a division-free
characteristic polynomial over Python ints, a product of sparse dict
polynomials, and Fraction sums -- so that it slows down as the program does.
It is written here and uses no lapspec code, so that a change to the
program cannot change it. The probes' own time is left out of every figure.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
NEIGHBOURS = 2  # probes on each side of a stretch whose median sets its pace
# Time of reference() on a quiet core of the 2-core host where the
# benchmark was calibrated (Python 3.11). Only a unit: it scales every
# normalised figure alike.
REF_S = 0.33e-3

_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 0), (0, 4), (2, 6), (1, 7)]
_L = [[0] * 9 for _ in range(9)]
for _u, _v in _EDGES:
    _L[_u][_v] = _L[_v][_u] = -1
for _i in range(9):
    _L[_i][_i] = -sum(_L[_i])
_P = {(i, j): (3 * i + j) % 5 - 2 for i in range(4) for j in range(4)}


def _dot(xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc += x * y
    return acc


def _berkowitz(a):
    n = len(a)
    coeffs = [1, -a[0][0]]
    for r in range(2, n + 1):
        row = a[r - 1][: r - 1]
        q = [1, -a[r - 1][r - 1]]
        v = [a[i][r - 1] for i in range(r - 1)]
        for k in range(2, r + 1):
            q.append(-_dot(row, v))
            if k < r:
                v = [_dot(a[i][: r - 1], v) for i in range(r - 1)]
        coeffs = [
            sum(q[i - j] * coeffs[j] for j in range(max(0, i - r), min(i, r - 1) + 1))
            for i in range(r + 1)
        ]
    return coeffs


def _poly_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def reference():
    """The fixed reference kernel, about REF_S on a quiet core."""
    coeffs = _berkowitz(_L)
    prod = _poly_mul(_P, _P)
    total = Fraction(0)
    for c in coeffs[:6]:
        total += Fraction(c, 7)
    return coeffs, prod, total


def median(xs):
    """Median without the statistics module, which lapspec does not import:
    the worker loads this file before lapspec, inside the timed set-up."""
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def burst(k):
    """Times of k back-to-back runs of the kernel."""
    clock = time.perf_counter
    times = []
    for _ in range(k):
        t0 = clock()
        reference()
        times.append(clock() - t0)
    return times


class Pacer:
    """Probe the kernel on a timer signal while work runs in this thread."""

    def __init__(self):
        self.probes = []  # (start, end, cpu seconds) of each probe
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        c0, t0 = time.process_time(), time.perf_counter()
        reference()
        self.probes.append((t0, time.perf_counter(), time.process_time() - c0))
        self._busy = False

    def start(self):
        self.probes.clear()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return Pace(self.probes)


class Pace:
    """The probes of one pass, and the rescaling they define."""

    def __init__(self, probes):
        self.probes = sorted(probes)
        self.starts = [p[0] for p in self.probes]
        durations = [end - start for start, end, _ in self.probes]
        # Stretch i runs from the end of probe i-1 to the start of probe i.
        self.factors = [
            REF_S / median(durations[max(0, i - NEIGHBOURS) : i + NEIGHBOURS] or [REF_S])
            for i in range(len(self.probes) + 1)
        ]

    def probe_s(self, a, b):
        """(wall, CPU) seconds of the probes run between times a and b."""
        inside = [(end - start, cpu) for start, end, cpu in self.probes if a <= start and end <= b]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def normalise(self, a, b):
        """Pace-normalised seconds of the work done between times a and b."""
        total = 0.0
        i = bisect.bisect_right(self.starts, a)
        if i > 0 and self.probes[i - 1][1] > a:
            a = self.probes[i - 1][1]  # a fell inside probe i-1
        while a < b:
            end = self.starts[i] if i < len(self.starts) else b
            total += (min(end, b) - a) * self.factors[i]
            if i >= len(self.probes):
                break
            a = self.probes[i][1]
            i += 1
        return total

    def median_s(self):
        return median(end - start for start, end, _ in self.probes) if self.probes else None
