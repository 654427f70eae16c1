"""Phase-cancelling timing: a call's time in units of a reference kernel
sampled all through the call.

The host alternates between a fast and a slow phase, about 1.6x apart; a
phase lasts from ten milliseconds to a few seconds. Wall time of a call
moves with the share of it spent in the slow phase. While a call runs, a
SIGALRM timer runs a fixed reference kernel every INTERVAL_S of wall time,
so the kernel sees the same mix of phases as the call. The call's time,
less the time spent in the kernel, divided by the kernel's mean time, is
a ratio that keeps still across phases. REFERENCE_S, a constant (the
kernel's median time in the fast phase of the 2-core host that README.md's
figures come from), turns a ratio back into seconds, so figures read as
fast-phase seconds.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.005
REFERENCE_S = 0.0002
_ITERATIONS = 100
_VECTOR = np.linspace(0.0, 1.0, 24)


def reference_kernel() -> float:
    """Fixed pure-Python plus small-numpy loop; returns its own duration in s.

    Its mix (interpreter dispatch, small-array arithmetic, float boxing)
    matches the per-round work of omdkit's solvers.
    """
    started = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        w = _VECTOR * 0.5 + i
        acc += float(w.max()) + math.sqrt(i)
    elapsed = time.perf_counter() - started
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel diverged")
    return elapsed


class Sampler:
    """Times calls while sampling the reference kernel on a SIGALRM timer."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self._samples.append(reference_kernel())
        self._spent += time.perf_counter() - started

    def time(self, fn):
        """Run fn(); return (its result, seconds less kernel time, kernel mean s).

        The kernel also runs once right before and once right after the
        call, so a call shorter than the interval still has two samples.
        """
        self._samples = [reference_kernel()]
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._samples.append(reference_kernel())
        return out, elapsed - self._spent, statistics.fmean(self._samples)


def seconds(ratios) -> float:
    """Median ratio (call time / kernel time) in fast-phase seconds."""
    return statistics.median(ratios) * REFERENCE_S
