"""Machine-speed probe: a fixed piece of work timed between inferences.

The benchmark shares its machine with other tenants, whose load changes
its speed by up to about 1.6x for tens of seconds at a time; a run is too
short to average that out. The probe runs the same kind of work as an
inference (a Python loop over small uint64 numpy vectors, as the HE
backend does, and 256-bit modular exponentiation, as base OT does) and
shares no code with the package, so a change to the package cannot move
it. A stretch of work timed between two probes, divided by their mean
and multiplied by REFERENCE_S, is its time at the machine's reference
speed.

A garbled-circuit inference lasts many seconds, longer than the probes
around it can follow, so StageProbes also probes after every secure stage
inside it and the stretches between those probes are scaled one by one.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# A round figure near the probe's median time on the benchmark machine
# (2-core Xeon VM, Python 3.11.7, numpy 2.4.6); see README.md.
REFERENCE_S = 0.02

_VEC = np.arange(1, 129, dtype=np.uint64)
_P = (1 << 255) - 19


def probe() -> float:
    """Seconds taken by the fixed work, now."""
    t = perf_counter()
    acc = 0
    v = _VEC
    for i in range(1200):
        r = np.roll(v, i % 128)
        v = r * _VEC + v
        acc ^= int(v[i % 128])
    for i in range(40):
        acc ^= pow(3 + i, _P - 2 - acc % 1024, _P)
    if acc == -1:  # keep the result live
        raise AssertionError
    return perf_counter() - t


class StageProbes:
    """Wraps engine.eval_secure to probe after each stage while active.

    Each mark is (start, end, probe seconds) of one probe; `scale` cuts
    the time spent probing out of the inference's time.
    """

    def __init__(self, engine):
        self.engine = engine
        self.orig = engine.eval_secure
        self.active = False
        self.marks: list[tuple[float, float, float]] = []
        orig = self.orig

        def eval_secure(*args, **kwargs):
            out = orig(*args, **kwargs)
            if self.active:
                start = perf_counter()
                p = probe()
                self.marks.append((start, perf_counter(), p))
            return out

        engine.eval_secure = eval_secure

    def take(self) -> list[tuple[float, float, float]]:
        marks, self.marks = self.marks, []
        return marks

    def restore(self) -> None:
        self.engine.eval_secure = self.orig


def scale(t0: float, t1: float, before: float, after: float, marks=()) -> tuple[float, float]:
    """(seconds worked, seconds at reference speed) between t0 and t1.

    before/after are the probe seconds just outside [t0, t1]; marks are
    probes taken inside it, whose own time is not counted as work.
    """
    points = [(t0, t0, before), *marks, (t1, t1, after)]
    worked = ref = 0.0
    for (_, end0, p0), (start1, _, p1) in zip(points, points[1:]):
        stretch = start1 - end0
        worked += stretch
        ref += stretch * REFERENCE_S / ((p0 + p1) / 2)
    return worked, ref
