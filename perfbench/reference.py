"""The reference computation whose time is the unit of `ops_per_kref`.

On a shared 2-core VM the speed of the host changes by up to 2x within
seconds, and the share of slow time differs from run to run.  Over ten
seeds, correct solves per wall second spread 0.12 to 0.31 (quartile
distance over median).  `HostClock` times this fixed computation every
0.2 s of wall time while operations run, from a timer signal in the
benchmark's own thread.  Each operation's time is then measured in
multiples of the reference time sampled during it, because both slow down
together.  Over ten seeds per workload that spread was 0.015 to 0.024.

The computation mimics the solver's inner loops in plain Python: tuple
points, orientation determinants, a dict cache keyed by point pairs,
list appends and a sort.  It does not touch the twocenter package.
Changing it changes the unit, so results from before and after such a
change cannot be compared.

Set-up times are rescaled the same way: `in_reference_seconds` divides a
time by the reference time measured right after it and multiplies by
REF_SECONDS.  The result is the time the set-up would take on a host
where one reference computation takes REF_SECONDS.

The collector is off while the reference runs, so that its time does
not depend on how many objects the program being measured holds.
"""
import gc
import math
import random
import signal
import statistics
from time import perf_counter
from typing import List, Tuple

# the scale of rescaled set-up times: seconds per reference computation
REF_SECONDS = 0.0015

_PTS = [(r.random() * 64.0, r.random() * 64.0)
        for r in [random.Random(12345)] for _ in range(400)]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_work() -> float:
    pts = _PTS
    n = len(pts)
    acc = 0.0
    for rep in range(3):
        cache = {}
        chain = []
        for i in range(n - 2):
            a, b, c = pts[i], pts[(i + rep + 1) % n], pts[(i + 2 * rep + 2) % n]
            key = (a, b) if a < b else (b, a)
            hit = cache.get(key)
            if hit is None:
                hit = [a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), b]
                cache[key] = hit
            d = _cross(a, b, c)
            if d > 0:
                chain.append((d, key))
            acc += math.hypot(b[0] - a[0], b[1] - a[1]) + len(hit)
        chain.sort()
        acc += len(chain)
    return acc


def _timed_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def in_reference_seconds(seconds: float) -> float:
    """`seconds` just measured, rescaled by the median of five reference
    timings made now to a host where one takes REF_SECONDS."""
    ref = statistics.median(_timed_reference() for _ in range(5))
    return seconds / ref * REF_SECONDS


class HostClock:
    """Samples the reference time on a wall-clock timer inside a `with`.

    The timer signal runs the reference computation between two bytecodes
    of whatever is running, so the samples cover the operations
    themselves.  `since(mark)` gives the mean reference time of the
    samples taken after `mark` (the latest one when none was) and the
    seconds the samples took, which the caller subtracts from the
    operation's time.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self, *_signal):
        dt = _timed_reference()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: Tuple[int, float]) -> Tuple[float, float]:
        n, spent = mark
        during = self.samples[n:] or self.samples[-1:]
        return sum(during) / len(during), self.spent - spent
