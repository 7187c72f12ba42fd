# Speed reference for the timing metrics.  The shared machine the
# benchmark runs on changes speed by tens of percent within seconds and
# between runs, for identical work.  A fixed reference kernel, which calls
# nothing from the library, is timed before and after every timed call in
# the same process; the call's time is scaled by the kernel's nominal time
# over its mean time around the call.  A change to the library cannot
# change the kernel's time.

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# Median kernel time on the reference machine (bench/notes.json); the
# scaled metrics read as seconds on that machine at its usual speed.
NOMINAL_S = 0.0045

_rng = np.random.Generator(np.random.PCG64(20240917))
_G = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _G + _G.conj().T
_PS = np.array([0, 2, 4, 6, 8, 10, 12, 14])
_QS = _PS + 1
_BAND = np.vstack([np.full(600, -1.0), np.full(600, 2.5)])
_RHS = _rng.standard_normal((600, 2))


def kernel() -> float:
    """Fixed work in the library's mix: interpreter-bound small-array
    updates in the shape of a Jacobi sweep, banded solves and a plain
    Python loop."""
    a = _H.copy()
    for _ in range(40):
        apq = a[_PS, _QS]
        absq = np.abs(apq)
        safe = np.where(absq > 0.0, absq, 1.0)
        tau = (a[_QS, _QS].real - a[_PS, _PS].real) / (2.0 * safe)
        t = np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        colp = a[:, _PS].copy()
        a[:, _PS] = c * colp - s * a[:, _QS]
        a[:, _QS] = s * colp + c * a[:, _QS]
        a /= np.max(np.abs(a))
    x = sum(scipy.linalg.solveh_banded(_BAND, _RHS)[0, 0] for _ in range(5))
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return float(abs(a[0, 0]) + x + acc)


def measure(reps: int = 3) -> float:
    """Median time of reps runs of the kernel."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A time measured between two kernel measurements, in seconds at
    the reference machine's speed."""
    return seconds * NOMINAL_S / (0.5 * (kernel_before + kernel_after))
