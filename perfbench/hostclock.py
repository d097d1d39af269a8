"""Host speed, sampled while the benchmark runs, and a clock that leaves the
sampling out.

On a shared host, load from other tenants slows all work by up to about
1.6x, in spells that last from under a second to over a minute, so a whole
run can fall in a slow spell and no statistic over its wall times removes
that. While `running`, a timer signal every SAMPLE_INTERVAL_S interrupts
the benchmark in its own thread, between two Python bytecodes, and times a
fixed reference computation there: an interpreter loop and a small im2col
convolution in numpy, the two kinds of work pacrr's time goes to. The
reference runs twice and only the second run is timed, so that its time
follows the host and not how much of the cache the benchmark's own work
had just evicted. Samples are filed under the benchmark's current phase
(set-up, training, re-ranking), and each entry to a phase takes one more,
so that a phase shorter than the interval has one too.

A unit of work's host factor is the mean, over REFERENCE_S, of its phase's
samples from WINDOW_PAD_S before it starts to WINDOW_PAD_S after it ends,
and its time at reference speed is its wall time over that factor. The
samples fall evenly in time, so their mean is the host's average speed
around the unit; the mean is used, not the median, because slow and fast
spells alternate faster than the window lasts. `now()` is
`time.perf_counter()` less the time spent sampling, so the sampling is not
counted in any unit's wall time. A faster program lowers the wall times and
leaves the reference alone, so it shows in full; a slower host stretches
both. Work the program leaves running in the background would slow the
reference too and so be partly hidden; the wall times are reported beside
the scaled ones for that reason.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from collections import defaultdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_INTERVAL_S = 0.04
WINDOW_PAD_S = 0.5

# The reference computation's time on the 2-vCPU Xeon (KVM) host the bounds
# were set on, in its fast phases. It only sets the scale: times at
# reference speed read as wall times on that host at that speed.
REFERENCE_S = 0.6e-3

_rng = np.random.default_rng(0)
_IMAGE = _rng.standard_normal((18, 130))
_KERNELS = _rng.standard_normal((9, 32))


def reference_s() -> float:
    """Wall time of one run of the fixed reference computation."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 17] = counts.get(i % 17, 0) + i
    cols = sliding_window_view(_IMAGE, (3, 3)).reshape(-1, 9)
    pre = cols @ _KERNELS
    (pre * (pre > 0.0)).T.copy().max(axis=1)
    return time.perf_counter() - t0


class HostClock:
    """Host factors sampled per phase of the benchmark, with the `now()` at
    which each was taken."""

    def __init__(self):
        self.phase: str | None = None  # samples outside a phase are dropped
        self.times: dict[str, list[float]] = defaultdict(list)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._sampling_s = 0.0

    def now(self) -> float:
        """`time.perf_counter()` less the time spent sampling."""
        return time.perf_counter() - self._sampling_s

    def enter(self, phase: str | None) -> None:
        """File the following samples under `phase` (None: drop them)."""
        self.phase = phase
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        if self.phase is not None:
            self.times[self.phase].append(t0 - self._sampling_s)
            reference_s()  # warms the caches the benchmark's work evicted
            self.samples[self.phase].append(reference_s() / REFERENCE_S)
        self._sampling_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, phase: str) -> float:
        """The phase's mean host factor: 1.0 at reference speed, 1.5 when the
        host ran the reference 1.5 times slower."""
        return statistics.fmean(self.samples[phase])

    def at_reference(self, phase: str, span: tuple[float, float]) -> float:
        """The time at reference speed of a unit of `phase` that ran over
        `span`, a (start, end) pair of `now()` values."""
        times = self.times[phase]
        lo = bisect.bisect_left(times, span[0] - WINDOW_PAD_S)
        hi = bisect.bisect_right(times, span[1] + WINDOW_PAD_S)
        window = self.samples[phase][lo:hi] or self.samples[phase]
        return (span[1] - span[0]) / statistics.fmean(window)
