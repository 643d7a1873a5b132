import math

import numpy as np
import pytest

from qkd2way.attacks import AttackParams
from qkd2way.numerics import MAX_GRID_POINTS, grid, integer, real
from qkd2way.photonics import LinkBudget, crossover_distance


@pytest.mark.parametrize("value", [0.5, 1, np.float32(0.5), np.float64(0.5), np.int64(1)])
def test_real_returns_a_python_float(value):
    out = real("p", value, 0.0, 1.0)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("value, message", [
    (True, "p must be a real number, got True"),
    (None, "p must be a real number, got None"),
    ("0.5", "p must be a real number, got '0.5'"),
    (1j, "p must be a real number, got 1j"),
    (math.nan, "p must be finite, got nan"),
    (-math.inf, "p must be finite, got -inf"),
    (np.float32("inf"), "p must be finite, got inf"),
    (1.5, "p must lie in [0, 1], got 1.5"),
    (-0.1, "p must lie in [0, 1], got -0.1"),
])
def test_real_refuses_by_name(value, message):
    with pytest.raises(ValueError) as refused:
        real("p", value, 0.0, 1.0)
    assert str(refused.value) == message


@pytest.mark.parametrize("call, name", [
    (lambda: AttackParams(xi=10**400), "xi"),
    (lambda: LinkBudget(10**400), "mu"),
    (lambda: crossover_distance(l_hi=10**400), "l_hi"),
], ids=["AttackParams", "LinkBudget", "crossover_distance"])
def test_an_integer_too_large_for_a_float_is_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got int too large for a float$"):
        call()


def test_real_bounds():
    assert real("x", -1e300) == -1e300  # unbounded by default
    assert real("p", 1.0, 0.0, 1.0, lo_open=True) == 1.0
    with pytest.raises(ValueError, match=r"^mu must lie in \(0, inf\), got 0.0$"):
        real("mu", 0.0, 0.0, lo_open=True)
    with pytest.raises(ValueError, match=r"^L must lie in \[0, inf\), got -1.0$"):
        real("L", -1.0, 0.0)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint64(2**64 - 1)])
def test_integer_returns_a_python_int(value):
    out = integer("n", value)
    assert type(out) is int and out == int(value)


@pytest.mark.parametrize("value, message", [
    (True, "n must be an integer, got True"),
    (None, "n must be an integer, got None"),
    ("2", "n must be an integer, got '2'"),
    (2.0, "n must be an integer, got 2.0"),
    (1.5, "n must be an integer, got 1.5"),
    (-1, "n must lie in [0, 9], got -1"),
    (10, "n must lie in [0, 9], got 10"),
])
def test_integer_refuses_by_name(value, message):
    with pytest.raises(ValueError) as refused:
        integer("n", value, 0, 9)
    assert str(refused.value) == message


def test_integer_bounds():
    assert integer("seed", -2**70) == -2**70  # unbounded by default
    with pytest.raises(ValueError, match=r"^trials must lie in \[1, inf\), got 0$"):
        integer("trials", 0, 1)


def test_grid_points_and_end():
    assert grid(0.0, 0.25, 1.0) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert grid(2.0, 1.0, 2.0) == [2.0]
    assert grid(2.0, 1.0, 1.0) == []


@pytest.mark.parametrize("start, step, stop, message", [
    (0.0, 0.0, 1.0, r"lstep must lie in \(0, inf\), got 0.0"),
    (0.0, math.nan, 1.0, "lstep must be finite"),
    (0.0, True, 1.0, "lstep must be a real number"),
    (0.0, 1e-300, 1.0, f"lstep 1e-300 gives more than {MAX_GRID_POINTS} points"),
    (0.0, 1.0, math.inf, f"lstep 1.0 gives more than {MAX_GRID_POINTS} points"),
    (0.0, 1.0, math.nan, f"lstep 1.0 gives more than {MAX_GRID_POINTS} points"),
    # start + step rounds back to start, so every point would be start
    (1e300, 0.25, 1e300, f"lstep 0.25 gives more than {MAX_GRID_POINTS} points"),
])
def test_grid_refuses_a_step_by_name(start, step, stop, message):
    with pytest.raises(ValueError, match=message):
        grid(start, step, stop, "lstep")
