"""The core's speed, sampled while the benchmark runs, and times at a reference speed.

The cores of the host switch between a fast and a slow state, about 2x
apart, in phases of a fraction of a second to minutes; a fixed task can run
in the slow state for a whole 30 s run.  The wall time of a pass follows
those phases, so a median of wall times moves with the host's load as much
as with the program.

``Sampler`` times a small fixed kernel every ``INTERVAL_S`` seconds from a
SIGALRM handler, so the samples are taken on the same core, inside the
operations being measured.  Each operation's time is divided by the mean
kernel time sampled during it (or by the nearest sample, for an operation
shorter than the interval), which gives its length in kernel units;
multiplied by ``REFERENCE_KERNEL_S`` that is its time in seconds at a fixed
reference speed.  Set-up is scaled the same way, by the mean over its
samples.  The kernel is pure Python with the instruction mix of the zsl hot
loops (a generator over ``zip`` inside ``all``/``any`` over tuples) and does
not touch zsl, so a change to zsl moves only the numerator.  It costs 0.17 to
0.34 ms in every 10 ms, which the operations' times include.
"""

from __future__ import annotations

import bisect
import random
import signal
from time import perf_counter

INTERVAL_S = 0.01
# The kernel's time on a core in the fast state of the machine the benchmark
# was defined on (Intel Xeon, 2 vCPUs, Python 3.11.7).  Times in kernel units
# times this constant are seconds at that reference speed.
REFERENCE_KERNEL_S = 170e-6
# A sample more than SPIKE times the pass's fast-state kernel time (its 10th
# percentile) was interrupted; the slow state itself is about 2x.
SPIKE = 3.0

_rng = random.Random(5)
_POOL = [tuple(_rng.randint(0, 3) for _ in range(16)) for _ in range(200)]
_PROBE = tuple(_rng.randint(0, 2) for _ in range(16))


def kernel() -> bool:
    """A fixed dominance scan: is some tuple of the pool below the probe?"""
    return any(all(a <= b for a, b in zip(p, _PROBE)) for p in _POOL)


class Sampler:
    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append(end)
        self.kernel_s.append(end - start)

    def start(self) -> None:
        self.times.clear()
        self.kernel_s.clear()
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def kernel_during(self, start: float, end: float, cap: float) -> float:
        """Mean kernel time sampled in [start, end], else the sample nearest to it;
        each sample is capped at ``cap``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return sum(min(k, cap) for k in self.kernel_s[lo:hi]) / (hi - lo)
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: max(start - self.times[i], self.times[i] - end))
        return min(self.kernel_s[near], cap)

    def _cap(self) -> float:
        ordered = sorted(self.kernel_s)
        return SPIKE * ordered[len(ordered) // 10]

    def in_kernels(self, spans: list[tuple[float, float]]) -> list[float]:
        """The length of each (start, seconds) span in kernel units."""
        cap = self._cap()
        return [seconds / self.kernel_during(start, start + seconds, cap)
                for start, seconds in spans]

    def mean_kernel_s(self) -> float:
        """Mean kernel time over every sample since ``start``."""
        cap = self._cap()
        return sum(min(k, cap) for k in self.kernel_s) / len(self.kernel_s)

    def median_kernel_ms(self) -> float:
        ordered = sorted(self.kernel_s)
        return ordered[len(ordered) // 2] * 1e3
