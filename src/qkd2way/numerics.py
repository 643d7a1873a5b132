"""Checks of numeric inputs, grids, and scalar root finding and maximization on an interval."""

from __future__ import annotations

import math
from collections.abc import Callable

MAX_GRID_POINTS = 1_000_000  # cap on the q1 and distance grids and on the steps of a scan
MAX_ITER = 200  # iteration cap of the bisection and the golden-section search

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def real(name: str, value, lo: float = -math.inf, hi: float = math.inf, *,
         lo_open: bool = False) -> float:
    """value as a Python float, once it is a finite real number in [lo, hi] ((lo, hi] if lo_open).

    A bool, a non-real (None, a string), a NaN, an infinity or a value out of range is refused by name.
    """
    if type(value) is not float:
        import numbers  # only values that are not plain floats need it

        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)  # a np.float32 would make coin weights float32
        except OverflowError:
            raise ValueError(f"{name} must be finite, got {type(value).__name__} "
                             "too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not (lo < value if lo_open else lo <= value) or value > hi:
        left, right = "(" if lo_open else "[", ")" if hi == math.inf else "]"
        raise ValueError(f"{name} must lie in {left}{lo:g}, {hi:g}{right}, got {value!r}")
    return value


def integer(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """value as a Python int, once it is an integer in [lo, hi].

    A bool, a non-integer (a float, None, a string) or a value out of range is refused by name.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = value.__index__()  # a numpy integer becomes an int
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}{')' if hi == math.inf else ']'}, got {value!r}")
    return value


def grid(start: float, step: float, stop: float, step_name: str = "step") -> list[float]:
    """start + i * step for i = 0, 1, ... while the point is <= stop.

    Refuses by step_name a step that is not positive and finite, or that would give more
    than MAX_GRID_POINTS points, as one that rounds away against start would, without end.
    """
    step = real(step_name, step, 0.0, lo_open=True)
    # written so that NaN, which fails every comparison, is refused too
    if not (stop - start) / step < MAX_GRID_POINTS or start + step == start:
        raise ValueError(f"{step_name} {step!r} gives more than {MAX_GRID_POINTS} points "
                         f"from {start!r} to {stop!r}")
    points = []
    while (v := start + len(points) * step) <= stop:
        points.append(v)
    return points


def bisect_first_zero(f: Callable[[float], float], lo: float, hi: float,
                      tol: float = 1e-6) -> float:
    """First point where a non-increasing f stops being positive.

    Requires f(lo) > 0.  Keeps the f > 0 side on the left, so a plateau of
    zeros (e.g. a clamped bound) converges to its left edge.
    """
    if f(lo) <= 0.0:
        raise ValueError("f must be positive at the left bracket")
    for _ in range(MAX_ITER):
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
               tol: float = 1e-7) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max)."""
    if hi <= lo:
        raise ValueError("empty bracket")
    c = hi - (hi - lo) * _INVPHI
    d = lo + (hi - lo) * _INVPHI
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
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
