"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of the machine drifts by tens of percent over
tens of seconds, and CPU time tracks wall time: the process is not
descheduled, it runs slower (contention for caches, memory bandwidth and
sibling hardware threads).  Raw op times then differ by about 25% between
runs of the same code, more than any bound a regression check can use.

A fixed kernel that uses nothing from scalepde (numpy transforms at 64²,
128² and 256², element-wise arithmetic and a pure-Python loop, the same
kinds of work as the workloads) is timed between ops.  Each op's time is scaled
by ``REFERENCE_S / c``, with ``c`` the mean of the calibrations just before
and just after it: the op's time on a machine that runs the kernel in
``REFERENCE_S``.  A change to scalepde moves the op time and not the
kernel, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the machine the benchmark was written on (2 CPUs of
# a shared x86-64 host); scaled times there read close to raw ones.
REFERENCE_S = 0.06


class Calibrator:
    """Callable that runs the kernel once and returns its wall time in seconds.

    Create it before any wrapper is installed on ``numpy.fft``: it binds
    the transforms it uses when it is made, so a traced run does not count
    its transforms.
    """

    def __init__(self):
        rng = np.random.default_rng(20240607)
        self._small = rng.standard_normal((2, 64, 64)) + 0j
        self._mid = rng.standard_normal((2, 128, 128)) + 0j
        self._large = rng.standard_normal((2, 256, 256))
        self._fftn = np.fft.fftn
        self._ifftn = np.fft.ifftn
        self()  # warm-up: transform plans and allocator pools

    def __call__(self) -> float:
        fftn, ifftn, axes = self._fftn, self._ifftn, (-2, -1)
        start = time.perf_counter()
        for _ in range(60):
            y = ifftn(1.5 * fftn(self._small, axes=axes), axes=axes).real
            y = (y * y + y) / 3.0
        for _ in range(12):
            y = ifftn(1.5 * fftn(self._mid, axes=axes), axes=axes).real
            y = (y * y + y) / 3.0
        for _ in range(3):
            y = ifftn(fftn(self._large, axes=axes), axes=axes).real
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        return time.perf_counter() - start
