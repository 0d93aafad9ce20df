"""Host speed, measured during a run, to scale the reported times by.

On a shared host the speed one process gets changes with its neighbours'
load: on a 2-vCPU VM the same op, timed back to back, moved between levels
1.5 to 2.5 times apart, within seconds and for a minute or more.  So every
time the benchmark reports is scaled by the host's speed in the same run.  A
fixed reference kernel, which does not touch mpf, is timed between ops about
every ``SAMPLE_EVERY_S`` seconds, and an op's wall time ``t`` is reported as
``t * REFERENCE_S / median(kernel times within LOCAL_S of the op)``: the time
the op would take on a host where the kernel takes ``REFERENCE_S``.  A change
to mpf moves the op times and not the kernel, so it shows in full; a slower
host moves both, and the two cancel to first order.  The kernel times are
taken near each op, not over the whole run, because the host's speed also
changes within a run, and a slow spell would otherwise set the tail.

The kernel is numpy work on a 32 KiB and a 1 MiB array, about 2 ms.  In
interleaved timings on that VM it followed the workloads' slowdowns more
closely than pure-Python loops did, which swung further than the ops.
"""

from __future__ import annotations

import bisect
import statistics
import time

# About the median kernel time on the 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6) the benchmark was tuned on, so scaled times read close to
# wall times there.  A constant: changing it rescales every reported time.
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.05
LOCAL_S = 0.5  # an op is scaled by the kernel runs from LOCAL_S before it to LOCAL_S after
MIN_LOCAL = 3  # fewer kernel runs than this near an op: use the run's median
AROUND = 3  # kernel runs on each side of a timed set-up


class HostSpeed:
    """Kernel timings taken through a run, and the scale factor they give."""

    def __init__(self):
        import numpy as np

        self._small = np.arange(1 << 12, dtype=np.int64)
        self._large = np.arange(1 << 17, dtype=np.int64)
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample started, ascending
        self._next = 0.0
        self._kernel()  # first-call costs stay out of the samples

    def _kernel(self) -> int:
        b = self._small
        for _ in range(10):
            b = (b * 3 + 1) & 0xFFFF
            b = b.reshape(-1, 2).sum(axis=1).repeat(2)
        c = self._large
        for _ in range(2):
            c = (c[::-1] * 3 + 1) & 0xFFFFFF
        return int(b[0] + c[0])

    def _timed_kernel(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(self._timed_kernel())
        self._next = time.perf_counter() + SAMPLE_EVERY_S

    def tick(self) -> None:
        """Take a sample if the last one is at least SAMPLE_EVERY_S old; call between ops."""
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, samples: list[float] | None = None) -> float:
        """Scale for wall times: REFERENCE_S over the median kernel time."""
        return REFERENCE_S / statistics.median(self.samples if samples is None else samples)

    def local_factor(self, start: float, end: float) -> float:
        """Scale for an op that ran from start to end (perf_counter seconds)."""
        lo = bisect.bisect_left(self.times, start - LOCAL_S)
        hi = bisect.bisect_right(self.times, end + LOCAL_S)
        near = self.samples[lo:hi]
        return self.factor(near if len(near) >= MIN_LOCAL else None)

    def timed_around(self, fn) -> tuple[float, float]:
        """(seconds fn returns, the factor from AROUND kernel runs just before and after it).

        These kernel runs are not added to the run's samples.
        """
        before = [self._timed_kernel() for _ in range(AROUND)]
        elapsed = fn()
        after = [self._timed_kernel() for _ in range(AROUND)]
        return elapsed, self.factor(before + after)
