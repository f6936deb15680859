"""Wall time scaled to a fixed machine speed, gauged by reference kernels.

On a shared host the speed available to one process drifts by up to 2x,
in phases from milliseconds to minutes, and CPU time drifts with wall time.
So the benchmark runs a short fixed kernel, which uses nothing of
``germimage``, before and after every timed item (and, in ``corpus``,
around the calls inside an entry), and scales the wall time in between by
``REFERENCE_S / (mean of the two kernel times)``.  A drift that slows the
kernel and the item alike cancels out.  Reported times are therefore
seconds on a machine on which each kernel takes its ``REFERENCE_S``.

There are two kernels, because a drift does not slow every kind of work
alike: ``python`` (Fraction arithmetic and dict updates, like the exact
algebra) and ``numpy`` (array arithmetic over about 1.5 MB, like the ball
sampler).  A workload gauges the machine with the kernel whose readings
track its own speed most closely.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# Time of each kernel on the 2-vCPU Xeon host the benchmark was tuned on,
# near its median over a 4-minute run.  Only their ratio to a new reading
# matters; they fix the scale in which times are reported.
REFERENCE_S = {"python": 2.3e-3, "numpy": 0.6e-3}

_POINTS = np.random.default_rng(0).random((3, 60_000))


def _python_kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i * 7919, i * i + 3)
        table[(i, i % 7)] = acc.numerator % 1_000_003
    return len(table)


def _numpy_kernel():
    x, y, z = _POINTS
    r = x * x * y - 3.0 * y * z + z * z * z
    return float(np.abs(r).max())


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def reference_seconds(kind):
    """Wall time of one run of the ``kind`` kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        KERNELS[kind]()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Laps of wall time, each also scaled to the reference speed.

    A lap runs from the end of one reference reading to the start of the
    next, so the readings themselves are in no lap.  Its scaled time is its
    wall time times the nominal kernel time over the mean of the readings
    that bracket it.  ``on_reading``, if given, is told the wall time of
    each reading, so that a tracer can leave it out of its open spans.
    """

    def __init__(self, kind, on_reading=None):
        self.kind = kind
        self.nominal = REFERENCE_S[kind]
        self.on_reading = on_reading
        self.wall = 0.0  # sums over laps
        self.scaled = 0.0
        self._ref = self._read(perf_counter())

    def _read(self, t):
        """Read the kernel and start the next lap; ``t`` is when the last lap ended."""
        ref = reference_seconds(self.kind)
        self._t = perf_counter()
        if self.on_reading is not None:
            self.on_reading(self._t - t)
        return ref

    def lap(self):
        """(wall, scaled) seconds since the previous lap or the clock's start."""
        t = perf_counter()
        wall = t - self._t
        ref = self._read(t)
        scaled = wall * 2 * self.nominal / (self._ref + ref)
        self._ref = ref
        self.wall += wall
        self.scaled += scaled
        return wall, scaled
