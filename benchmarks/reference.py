"""The reference computation that turns measured seconds into reference seconds.

This benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, far more than the changes it must resolve.  So every timed
stretch is paired with runs of :func:`calibrate`, which times a fixed piece
of pure-Python integer work that uses no part of the program, right before
each of the stretch's items (a scan window, a family call, a fresh import).
A time ``t`` measured beside calibrations of median ``c`` seconds is
reported as ``t * REFERENCE_S / c``: the time the same work would take on a
machine where the calibration takes ``REFERENCE_S``.  A change to the
program moves ``t`` and leaves ``c`` alone; a slower host moves both.

The reference work runs with the garbage collector off, so that the
program's live objects cannot slow it down and hide a regression.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# what calibrate() returns on a quiet 2-vCPU x86-64 host under CPython 3.11
REFERENCE_S = 0.02


def arithmetic() -> int:
    """Small-integer arithmetic in a loop."""
    x = 0
    for i in range(150_000):
        x = (x * 31 + i) % 1_000_003
    return x


def walk() -> int:
    """A walk over exact continued-fraction prefixes that fills a dict of
    big-integer tuples; returns the number of prefixes seen."""
    memo: dict[tuple[int, int, int, int], int] = {}
    stack = [(1, 1, 1, 1, 0)]
    qn, qd = 7, 5
    while stack and len(memo) < 20_000:
        cn, cd, wn, wd, depth = stack.pop()
        key = (cn, cd, wn, wd)
        if key in memo:
            continue
        memo[key] = depth
        if depth >= 7:
            continue
        a, b = qn * cn, qd * cd
        wn2, wd2 = wn * qn * cn * cn, wd * qd * cd * cd
        g = math.gcd(wn2, wd2)
        wn2, wd2 = wn2 // g, wd2 // g
        for m in (-2, -1, 1, 2, 3):
            num = m * a + b
            if num:
                g = math.gcd(num, a)
                stack.append((num // g, a // g, wn2, wd2, depth + 1))
    return len(memo)


def calibrate() -> float:
    """Seconds the reference computation takes now: the geometric mean of the
    times of :func:`arithmetic` and :func:`walk`.

    A busy host slows the two by different factors and the program's work
    lies between them, so their mean tracks the program better than either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        arithmetic()
        t1 = time.perf_counter()
        walk()
        t2 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return math.sqrt((t1 - t0) * (t2 - t1))


def scale(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` measured beside ``calibrations``, in reference seconds."""
    return seconds * REFERENCE_S / statistics.median(calibrations)
