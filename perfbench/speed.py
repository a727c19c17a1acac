"""Host speed, sampled with a fixed reference loop, to normalise timings.

On a shared host the speed of one core drifts by up to a factor of two
over minutes, as other tenants load the machine; raw wall times of
identical runs then spread by 20-35%.  A pure-Python reference loop slows
down in step with the workload, so every timing is also reported scaled to
a fixed reference speed:

    scaled seconds = raw seconds * mean(REF_S / reference loop time)

with the loop timed every ``INTERVAL_S`` while the timed code runs.  The
speed changes within a pass of a few seconds: with one factor per pass,
from samples taken before and after it, run_s and the latency percentiles
of runs at five seeds spread 12-53% (quartile distance over median), and
with sampling during each command 4-11%.  On an
uncontended core (2.0 GHz Xeon) the loop takes about REF_S, so scaled
seconds are close to the wall time such a core would show.  The sampler
runs from SIGALRM in the timed process, between bytecodes, and adds about
1% to every timed interval, on every commit alike.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.0003
INTERVAL_S = 0.05


def reference_loop() -> float:
    """Seconds for a fixed mix of integer arithmetic and dict stores."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(1500):
        acc += i * i % 7
        table[i & 255] = (acc, i)
    return time.perf_counter() - t0


def speed_now(loops: int = 5) -> float:
    """REF_S over the median of a few reference loops, for one moment."""
    return REF_S / statistics.median(reference_loop() for _ in range(loops))


class Speedometer:
    """Samples (time, speed) every INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, REF_S / reference_loop()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1], widened by one interval on each side.

        An interval with no sample, as for a command shorter than the
        sampling interval, takes the nearest sample.
        """
        inside = [s for t, s in self.samples if t0 - INTERVAL_S <= t <= t1 + INTERVAL_S]
        if inside:
            return statistics.fmean(inside)
        if not self.samples:
            return speed_now()
        return min(self.samples, key=lambda ts: abs(ts[0] - (t0 + t1) / 2))[1]
