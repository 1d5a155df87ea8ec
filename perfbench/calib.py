"""The calibration computation that turns wall-clock times into times at a
nominal machine speed.

On a shared host the same fixed work can take twice as long from one
second to the next. The benchmark therefore times this computation next
to every timed op and reports op_time * NOMINAL_S / calibration_time:
the op's time on a machine that runs the calibration in NOMINAL_S.
The work is the kind the program's hot paths do: pure-Python arithmetic
on floats and lists of floats, a scalar function called per term, and
numpy calls on small arrays. Of four such kernels tried, this mix tracked
the speed of the program's ops best.
"""

from __future__ import annotations

import time

import numpy as np

# Median calibration time on the reference host (2-core x86-64 VM,
# CPython 3.11, numpy 2.4); fixed so that figures from different runs
# and commits share one scale.
NOMINAL_S = 4.4e-3

_STEPS = np.arange(1.0, 2049.0)


def _work() -> float:
    acc = 0.0
    # lists of floats summed and averaged pass by pass (alternating sums)
    for _ in range(6):
        partial, s = [], 0.0
        for j in range(60):
            s += (-1) ** j * 0.9 ** (j + 1) / (j + 1.0) ** 0.5
            partial.append(s)
        while len(partial) > 1:
            partial = [(a + b) / 2.0 for a, b in zip(partial[:-1], partial[1:])]
        acc += partial[0]
    # numpy calls on 2048-element arrays (term-ratio walks)
    for k in range(40):
        ratios = _STEPS / (2.0 * np.abs(3.0 * 2.0 ** (k % 8) + _STEPS))
        mags = np.minimum(np.cumprod(ratios), 1e280)
        acc += float(mags[-1]) + len(np.flatnonzero(mags < 1e-9))
    # a scalar Python function called once per term
    def ratio(x: float, k: int, m: float) -> float:
        return m / (2.0 * abs(2.0 ** k * x + 1.0 + m))
    for m in range(3000):
        acc += ratio(3.0, m % 7, float(m))
    return acc


def calibration_s() -> float:
    """Wall time of one run of the calibration computation, in seconds.

    An untimed run goes first: right after other work, the first run takes
    about 40 % longer while caches refill, which says nothing about the
    machine's speed."""
    _work()
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t
