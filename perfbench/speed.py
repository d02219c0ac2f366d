"""The host's speed, sampled while a timed section runs.

The shared host the bounds were set on changes speed by tens of percent
within a second (a fixed 0.2 s numpy kernel alternates between about 0.14 s
and 0.23 s), and its average over a minute drifts by up to 20 %.  A bare wall
time measures the host as much as the program.  ``SpeedMeter`` times a fixed
numpy kernel of about half a millisecond every ``INTERVAL_S`` seconds of a
section, from a SIGALRM handler in the section's own thread, so the samples
see the same slow and fast phases as the section does.  The section is then
reported twice: its wall time less the time spent sampling, and that time at
reference speed, scaled by ``KERNEL_REF_S`` over the mean sample.  The mean,
not the median, is used: it follows the share of time spent in slow phases.

On a 7 s n=2 Newton solve repeated in one process, the quartile spread of
wall times was 0.12 of their median, that of the reference-speed times 0.03;
sampling costs about 1 % of the section.  ``KERNEL_REF_S`` and the kernel
are part of the benchmark's definition: both sides of a comparison must use
the same ones.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# A typical kernel time on the 2-core Xeon the bounds were set on.  It only
# sets the scale: a section reported as r seconds took r seconds at the
# speed at which the kernel takes KERNEL_REF_S.
KERNEL_REF_S = 5e-4
WARMUP_RUNS = 50


class SpeedMeter:
    """Samples the host's speed during sections of the calling thread."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._plane = rng.standard_normal((64, 64))
        self._vector = rng.standard_normal(128)
        # Bound before any tracing hook replaces the numpy.fft entry points,
        # so the kernel's transforms are never counted as torusma's.
        self._rfft2, self._irfft2, self._dot = np.fft.rfft2, np.fft.irfft2, np.dot
        t = time.monotonic()
        for _ in range(WARMUP_RUNS):
            self._kernel()
        self.warmup_s = time.monotonic() - t
        self.samples = []
        self.spent_s = 0.0
        self.factor = 1.0

    def _kernel(self) -> float:
        t = time.perf_counter()
        plane, vector = self._plane, self._vector
        self._irfft2(self._rfft2(plane))
        (plane * plane + plane).sum()
        for _ in range(20):
            self._dot(vector[:64], vector[64:])
        return time.perf_counter() - t

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(self._kernel())
        self.spent_s += time.perf_counter() - t

    def start(self) -> float:
        """Start sampling; returns the section's start time (``time.monotonic``)."""
        self.samples = [self._kernel()]
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return time.monotonic()

    def stop(self, started: float) -> float:
        """Stop sampling; the section's wall seconds since ``started``, less
        the time spent sampling.  Sets ``factor``: wall seconds times it are
        seconds at reference speed."""
        wall = time.monotonic() - started - self.spent_s
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(self._kernel())
        self.factor = KERNEL_REF_S / statistics.fmean(self.samples)
        return wall
