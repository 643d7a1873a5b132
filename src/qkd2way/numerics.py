"""Scalar root finding and maximization on an interval."""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import count, takewhile

MAX_GRID_POINTS = 1_000_000  # cap on the q1 and distance grids and on the steps of a scan

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def grid(start: float, step: float, stop: float) -> list[float]:
    """start + i * step for i = 0, 1, ... while the point is <= stop; the caller caps the count."""
    return list(takewhile(lambda v: v <= stop, (start + i * step for i in count())))


def bisect_first_zero(f: Callable[[float], float], lo: float, hi: float,
                      tol: float = 1e-6, max_iter: int = 200) -> float:
    """First point where a non-increasing f stops being positive.

    Requires f(lo) > 0.  Keeps the f > 0 side on the left, so a plateau of
    zeros (e.g. a clamped bound) converges to its left edge.
    """
    if f(lo) <= 0.0:
        raise ValueError("f must be positive at the left bracket")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink further
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-7, max_iter: int = 200) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max)."""
    if hi <= lo:
        raise ValueError("empty bracket")
    c = hi - (hi - lo) * _INVPHI
    d = lo + (hi - lo) * _INVPHI
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INVPHI
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INVPHI
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)
