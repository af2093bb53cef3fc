"""Host speed, sampled by a fixed reference computation, to normalise times.

The host this benchmark runs on changes speed by up to ±45 % from one
second to the next: it is a shared machine, and CPU time tracks wall time,
so the lost time is not spent waiting to be scheduled. A raw wall time
therefore measures the host as much as the program. While a ``Timeline`` is
running, a timer signal interrupts the program every ``PERIOD_S`` and times
a short piece of pure-Python work that shares nothing with graphnorms but
resembles its inner loops (rational arithmetic, tuple-keyed dict updates,
big-int products). Between two probes the host's speed is taken as the mean
of theirs, and each operation's wall time, probes left out, is turned into
reference seconds: the time it would have taken on a host that runs the
probe in ``REFERENCE_S``. The program's own work scales the result exactly
as it scales the wall time; only the host's speed cancels.

On a 2-vCPU virtual machine, eight runs of the same 0.45 s operation in one
process spread by 0.40 to 0.48 in wall time (quartile distance over median)
and by 0.03 to 0.05 in reference seconds, and the reference seconds of two
processes agreed within 1 %.
"""

import bisect
import contextlib
import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.001  # one probe on the reference host
PERIOD_S = 0.025  # time between probes


def reference_work():
    """The probe's fixed computation; returns a value so none of it is skipped."""
    acc = Fraction(0)
    counts = {}
    prod = 1
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 5 + 1, 3)
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        prod = (prod * (i | 1)) % (1 << 512)
    return acc, len(counts), prod


class Timeline:
    """Probes of the host's speed, taken from a timer signal while
    ``running()``; ``reference_s`` converts intervals of that time."""

    def __init__(self):
        self.probes = []  # (start, end) of each probe, in perf_counter time
        self._busy = False
        self._gaps_end = []

    def probe(self, *_):
        if self._busy:  # a signal that lands inside a probe
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's garbage, not the host
        try:
            t0 = time.perf_counter()
            reference_work()
            self.probes.append((t0, time.perf_counter()))
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        for _ in range(3):  # warm up, so that a fresh interpreter's first probe does not count
            reference_work()
        previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def reference_s(self, start, end):
        """(reference seconds, wall seconds) of [start, end], probes left out.
        The interval must lie between the first and the last probe."""
        probes = self.probes
        if len(self._gaps_end) != len(probes) - 1:
            self._gaps_end = [t0 for t0, _ in probes[1:]]  # gap i: probe i to probe i + 1
        gaps_end = self._gaps_end
        i = bisect.bisect_right(gaps_end, start)
        ref = wall = 0.0
        while i < len(gaps_end) and probes[i][1] < end:
            lo, hi = max(start, probes[i][1]), min(end, gaps_end[i])
            if hi > lo:
                speed = (self._speed(i) + self._speed(i + 1)) / 2
                ref += (hi - lo) * speed
                wall += hi - lo
            i += 1
        return ref, wall

    def _speed(self, i):
        t0, t1 = self.probes[i]
        return REFERENCE_S / (t1 - t0)

    def speed(self):
        """Median host speed over the probes (1 is the reference host)."""
        speeds = sorted(self._speed(i) for i in range(len(self.probes)))
        return speeds[len(speeds) // 2]


def timed(fn, *args):
    """Run fn(*args) under a timeline; (result, reference s, wall s)."""
    timeline = Timeline()
    with timeline.running():
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
    return (result, *timeline.reference_s(t0, t1))
