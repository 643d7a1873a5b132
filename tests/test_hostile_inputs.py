"""Hostile arguments to the closed-form API: a finite result, or a ValueError that names the parameter.

Each row of ``CASES`` is one (entry point, parameter) pair: a call that puts a value in that
parameter's place with every other argument valid, and the name a refusal of it gives.  Every row
is called with each of the twelve ``HOSTILE`` values.  numerics' solvers (``grid``,
``golden_max``, ``bisect_first_zero``) are left out, since they take checked values from their
callers, and so is the simulator layer.
"""

import math
import re

import numpy as np
import pytest

from qkd2way.infotheory import NoiseModel, binary_entropy, curve_points, generic_bound, secrecy, threshold
from qkd2way.photonics import (
    LinkBudget,
    crossover_distance,
    optimize_mu,
    pns_margin,
    raw_gain,
    scan_distances,
    secure_gain,
)
from qkd2way.protocol import Tallies

HOSTILE = {"True": True, "None": None, "str": "1", "nan": math.nan, "inf": math.inf, "-1": -1,
           "1e400": 10**400, "float32": np.float32(0.1), "int64": np.int64(1), "complex": 1j,
           "list": [], "tuple": (0,)}

# entry point.parameter: (value -> the call, the name a refusal gives)
CASES = {
    "binary_entropy.p": (binary_entropy, "p"),
    "generic_bound.q1": (generic_bound, "q1"),
    "secrecy.q1": (lambda v: secrecy(v, "ir"), "q1"),
    "secrecy.attack": (lambda v: secrecy(0.1, v), "attack"),
    "secrecy.model": (lambda v: secrecy(0.1, "ir", v), "model"),
    "threshold.attack": (threshold, "attack"),
    "threshold.reconciliation": (lambda v: threshold("ir", v), "reconciliation"),
    "curve_points.attack": (curve_points, "attack"),
    "curve_points.grid_step": (lambda v: curve_points("ir", grid_step=v), "grid_step"),
    "NoiseModel.kind": (NoiseModel, "kind"),
    "NoiseModel.value": (lambda v: NoiseModel("fixed", v), "fixed Q_AB"),  # a fixed model's value is Q_AB
    "LinkBudget.mu": (LinkBudget, "mu"),
    "LinkBudget.length_km": (lambda v: LinkBudget(0.1, v), "length_km"),
    "raw_gain.budget": (lambda v: raw_gain("lm05", v), "budget"),
    "secure_gain.budget": (lambda v: secure_gain("lm05", v), "budget"),
    "pns_margin.budget": (lambda v: pns_margin("lm05", v), "budget"),
    "optimize_mu.length_km": (lambda v: optimize_mu("pns_margin", "lm05", v), "length_km"),
    # a value that is not iterable is refused as lengths_km, a bad element as length_km
    "scan_distances.lengths_km": (lambda v: scan_distances("pns_margin", "lm05", v), "lengths?_km"),
    "crossover_distance.l_lo": (lambda v: crossover_distance(l_lo=v), "l_lo"),
    # at 2 decades per km the crossing is near 26 m, below every l_hi that is accepted
    "crossover_distance.l_hi": (lambda v: crossover_distance(l_hi=v, atten=2.0), "l_hi"),
}


def _finite(result) -> bool:
    """No float in result, or in the tuples and lists it holds, is a NaN or an infinity."""
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, (tuple, list)):
        return all(map(_finite, result))
    return True  # None (a threshold secure everywhere), a str or an int


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE)
@pytest.mark.parametrize("call, name", CASES.values(), ids=CASES)
def test_a_hostile_argument_gives_a_finite_result_or_is_refused_by_name(call, name, value):
    try:
        result = call(value)
    except ValueError as exc:
        assert re.search(rf"\b{name}\b", str(exc)), f"{exc} does not name {name}"
    else:
        assert _finite(result), result


@pytest.mark.parametrize("name", [*HOSTILE.values(), "q2", "__init__"], ids=[*HOSTILE, "q2", "__init__"])
def test_tallies_rate_refuses_a_name_that_is_not_a_rate(name):
    tallies = Tallies(q1=(1, 4))
    with pytest.raises(ValueError, match=r"^name must be one of \('q1', 'q_ab', 'q_ae', 'q_be'\)"):
        tallies.rate(name)
    assert tallies.rate("q1") == 0.25
