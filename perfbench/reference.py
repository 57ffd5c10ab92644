"""Fixed reference work that gauges how fast this machine runs at the moment.

The benchmark's host is a small VM on a shared machine.  Its speed drifts by up
to 1.7x for seconds to minutes at a time, and CPU time drifts with wall time,
so neither tells a slow program from a slow machine.  This module times a
fixed piece of work that does not touch the program: the same mix of
interpreter work, small numpy arrays and a small dense solve that the
simulator spends its time on.  Timed between stretches of program work, it
gives the machine's speed at that moment, and `Gauge.factor` scales a stretch
to the speed of a quiet machine (`NOMINAL_S`).

The reference must never change: a benchmark figure is only comparable with
figures scaled by the same reference.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Least time of `seconds()` on the reference machine when quiet (2-vCPU VM,
# Python 3.11.7, numpy 2.4.6).  Only a unit: it makes scaled figures read as
# seconds on that machine.
NOMINAL_S = 0.0030

_A = np.array([[4.0 + 3.0 * (i == j) + 0.1 * (i - j) for j in range(6)]
               for i in range(6)])
_B = np.arange(6.0)
_M = np.eye(3) + 0.1


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def _work() -> float:
    s = 0.0
    for i in range(120):  # small dense solve and scalar math
        x = np.linalg.solve(_A, _B + i * 1e-3)
        s += float(x @ x)
        for k in range(20):
            s += math.sin(k * 0.1 + s * 1e-9) * math.cos(k * 0.2)
    table = {}
    for i in range(1500):  # objects, strings and a dict
        item = _Item(str(i), i)
        table[item.key] = item.value + len(table)
        if i % 7 == 0:
            table.pop(str(i - 3), None)
    s += len(table)
    for i in range(120):  # small arrays built from Python values
        q = np.array([0.1 * i, 0.2, 0.3])
        c, sn = np.cos(q), np.sin(q)
        jac = np.array([[c[0], -sn[1], 0.0], [sn[0], c[1], 1.0], [0.0, 0.0, 1.0]])
        z = np.concatenate([jac @ q + _M @ c, sn])
        s += float(np.max(np.abs(z)))
    return s


def seconds(repeats: int = 3) -> float:
    """Least wall time of the reference work over `repeats` runs."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best


class Gauge:
    """Measures the reference between stretches of timed work.

    Call `start()` before a series of stretches and `factor()` right after
    each stretch, both outside the timing.  `factor()` measures the reference
    again and returns the factor that scales the stretch to the nominal speed,
    taken from the mean of the measurements on both sides of it.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []  # every measurement, in order
        self.last = None

    def start(self) -> None:
        self.last = seconds()
        self.refs.append(self.last)

    def factor(self) -> float:
        ref = seconds()
        self.refs.append(ref)
        scale = 2.0 * NOMINAL_S / (self.last + ref)
        self.last = ref
        return scale
