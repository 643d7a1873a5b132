"""Hostile arguments to the public API: a finite result, or a ValueError that names the parameter.

Each row of ``CASES`` is one (entry point, parameter) pair: a call that puts a value in that
parameter's place with every other argument valid, and the name a refusal of it gives.  Every row
is called with each of the twelve ``HOSTILE`` values.  The rows cover the closed forms
(``infotheory``, ``photonics``) and the simulator (``rng``, ``qsim``, ``attacks``, ``protocol``,
``montecarlo``).  A gate factory's wire has a case of its own: every hashable hostile value is
refused, as no wire of a register.  Left out, since they take checked values from their callers:
numerics' solvers (``grid``, ``golden_max``, ``bisect_first_zero``) and the coins,
``Stream.coin`` and ``Branching.coin``, on the walker's hot path; and a gate factory's unhashable
wire, which its ``lru_cache`` hashes before the ``Gate`` checks it.
"""

import math
import re

import numpy as np
import pytest

from qkd2way import qsim
from qkd2way.attacks import AttackParams, make_strategy
from qkd2way.infotheory import NoiseModel, binary_entropy, curve_points, generic_bound, secrecy, threshold
from qkd2way.montecarlo import predicted_rates, run_batch, wilson_interval
from qkd2way.photonics import (
    LinkBudget,
    crossover_distance,
    optimize_mu,
    pns_margin,
    raw_gain,
    scan_distances,
    secure_gain,
)
from qkd2way.protocol import ProtocolConfig, Tallies, enumerate_round
from qkd2way.rng import Stream, stream

HOSTILE = {"True": True, "None": None, "str": "1", "nan": math.nan, "inf": math.inf, "-1": -1,
           "1e400": 10**400, "float32": np.float32(0.1), "int64": np.int64(1), "complex": 1j,
           "list": [], "tuple": (0,)}

_TABLE = enumerate_round(ProtocolConfig())
_PLUS = qsim.prepare(qsim.Basis.X, 0)

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
    "stream.seed": (stream, "seed"),
    "stream.branch": (lambda v: stream(0, v), "branch"),
    "ProtocolConfig.protocol": (ProtocolConfig, "protocol"),
    "ProtocolConfig.control_prob": (lambda v: ProtocolConfig(control_prob=v), "control_prob"),
    "ProtocolConfig.rounds": (lambda v: ProtocolConfig(rounds=v), "rounds"),
    "ProtocolConfig.seed": (lambda v: ProtocolConfig(seed=v), "seed"),
    "ProtocolConfig.reveal_fraction": (lambda v: ProtocolConfig(reveal_fraction=v), "reveal_fraction"),
    "AttackParams.kind": (AttackParams, "kind"),
    "AttackParams.xi": (lambda v: AttackParams(xi=v), "xi"),
    "AttackParams.x": (lambda v: AttackParams(x=v), "x"),
    "AttackParams.x_prime": (lambda v: AttackParams(x_prime=v), "x_prime"),
    "AttackParams.chi": (lambda v: AttackParams(chi=v), "chi"),
    "make_strategy.protocol": (lambda v: make_strategy(v, AttackParams(kind="ir")), "protocol"),
    "make_strategy.attack": (lambda v: make_strategy("lm05", v), "attack"),
    "enumerate_round.config": (enumerate_round, "config"),
    "enumerate_round.attack": (lambda v: enumerate_round(ProtocolConfig(), v), "attack"),
    "run_batch.workers": (lambda v: run_batch(ProtocolConfig(rounds=100), workers=v), "workers"),
    "predicted_rates.protocol": (lambda v: predicted_rates(v, AttackParams(kind="ir")), "protocol"),
    "LeafTable.draw.rounds": (lambda v: _TABLE.draw(v, 0), "rounds"),
    "LeafTable.draw.seed": (lambda v: _TABLE.draw(100, v), "seed"),
    "wilson_interval.errors": (lambda v: wilson_interval(v, 10), "errors"),
    "wilson_interval.trials": (lambda v: wilson_interval(1, v), "trials"),
    "wilson_interval.z": (lambda v: wilson_interval(1, 10, v), "z"),
    "prepare.basis": (lambda v: qsim.prepare(v, 0), "basis"),
    "prepare.bit": (lambda v: qsim.prepare(qsim.Basis.Z, v), "bit"),
    "measure.wire": (lambda v: qsim.measure(_PLUS, v, qsim.Basis.Z, Stream(1)), "wire"),
    "measure.basis": (lambda v: qsim.measure(_PLUS, 0, v, Stream(1)), "basis"),
    "ancilla_rotation.angle": (lambda v: qsim.ancilla_rotation(v, 0, 1), "angle"),  # "probe angle"
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


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE)
@pytest.mark.parametrize("call, name", [(stream, "seed"), (lambda v: stream(0, v), "branch")], ids=["seed", "branch"])
def test_a_stream_key_is_an_int_in_the_seed_range_or_refused(call, name, value):
    # no other value is read as some seed: None would seed from OS entropy, True as 1, (0,) as 0
    if type(value) is np.int64:
        assert type(call(value)) is np.random.Generator
        assert call(value).random() == call(1).random()
    else:
        with pytest.raises(ValueError, match=rf"^{name} must"):
            call(value)


_HASHABLE = {key: value for key, value in HOSTILE.items() if key != "list"}
_FACTORIES = {"spin_flip": qsim.spin_flip, "hadamard": qsim.hadamard,
              "cnot.control": lambda v: qsim.cnot(v, 1), "cnot.target": lambda v: qsim.cnot(0, v)}


@pytest.mark.parametrize("value", _HASHABLE.values(), ids=_HASHABLE)
@pytest.mark.parametrize("factory", _FACTORIES.values(), ids=_FACTORIES)
def test_a_gate_factory_refuses_every_hostile_wire(factory, value):
    # a wire that is no int in [0, MAX_WIRES) is no wire of any register
    with pytest.raises(ValueError, match=r"\bwires\b"):
        factory(value)


@pytest.mark.parametrize("name", [*HOSTILE.values(), "q2", "__init__"], ids=[*HOSTILE, "q2", "__init__"])
def test_tallies_rate_refuses_a_name_that_is_not_a_rate(name):
    tallies = Tallies(q1=(1, 4))
    with pytest.raises(ValueError, match=r"^name must be one of \('q1', 'q_ab', 'q_ae', 'q_be'\)"):
        tallies.rate(name)
    assert tallies.rate("q1") == 0.25
