"""Closed-form information accounting and security thresholds.

Alice-Bob mutual information is the binary-channel value
I_AB = 1 - H(Q_AB); Eve's information is expressed as a function of the
forward-channel QBER q1 through the per-attack curves below.  The secrecy
capacities are the Csiszar-Korner differences

    C_DR = I_AB - I_AE      (direct reconciliation)
    C_RR = I_AB - I_BE      (reverse reconciliation)

and a protocol is secure at q1 as long as at least one capacity is
positive.  The relation between Q_AB and q1 is a modeling choice: the
"identified" noise model sets Q_AB = q1 (two-way channels controlled to
the same precision as one-way ones); a "fixed" model pins Q_AB to a
constant.

Eve curves (q1 domains in brackets):

* ``ir``         [0, 1/4]: the attacked fraction is xi = 4 q1, Eve learns
  Alice's bit exactly on attacked rounds, so I_AE = xi, and her key-bit
  error is 1/4 there, so I_BE = (1 - H(1/4)) xi.
* ``nort``       [0, 1/4]: invert q1 = (1 - cos x)/4, then
  I_AE = 1 - H((1 - sin x)/2) and I_BE = 1 - H((2 - sin x)/4).
* ``dcnot_star`` [0, 1/4]: I_AE = I_BE = xi = 4 q1.
* ``generic``    [0, 1/2]: the individual-attack bound
  -(1-q1) log2(1-q1) - q1 log2(q1/3), clamped to the one bit it reaches at
  q1 ~ 18.93%; the reverse direction is exposed for convenience but the
  bound is only meaningful for direct reconciliation.
* ``bb84_ir``    [0, 1/4]: I = 2 q1 (half a bit at q1 = 1/4).
* ``bb84_opt``   [0, 1/2]: optimal individual attack,
  I = 1 - H(1/2 + sqrt(q1 (1 - q1))); its threshold is (1 - 1/sqrt 2)/2.

Each curve is one function in a table keyed by attack.  ``secrecy``,
``curve_points`` and ``threshold``'s bisection go through one evaluator
per (attack, noise model), which picks the curve once and checks each
point against the attack's domain.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .numerics import bisect_first_zero, grid, real

_DOMAIN_EPS = 1e-12
_CAPACITY_TOL = 1e-12
_THRESHOLD_TOL = 1e-6  # bisection bracket width of a threshold
_LOG2_3 = math.log2(3.0)


class NoiseModel(namedtuple("NoiseModel", "kind value")):
    """Relation between the announced-round QBER Q_AB and the control QBER q1.

    kind "identified": Q_AB = q1, and value is 0; kind "fixed": Q_AB = value.
    """

    __slots__ = ()
    @classmethod
    def _make(cls, iterable):  # the stock length check, then __new__: _replace validates too
        return cls(*super()._make(iterable))

    def __new__(cls, kind: str = "identified", value: float = 0.0):
        if kind not in ("identified", "fixed"):
            raise ValueError(f"unknown noise model kind {kind!r}")
        if kind == "fixed":
            value = real("fixed Q_AB", value, 0.0, 0.5)
        else:  # the kind reads no value, so 0 is the one it takes
            value = real("identified model value", value, 0.0, 0.0)
        return super().__new__(cls, kind, value)

    def q_ab(self, q1: float) -> float:
        return q1 if self.kind == "identified" else self.value


IDENTIFIED = NoiseModel("identified")


InfoPoint = namedtuple("InfoPoint", "q1 i_ab i_ae i_be c_dr c_rr")


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit in bits, with 0 log 0 = 0."""
    if not -_DOMAIN_EPS <= p <= 1.0 + _DOMAIN_EPS:
        raise ValueError(f"probability out of range: {p!r}")
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def generic_bound(q1: float) -> float:
    """Individual-attack information bound, clamped to the one bit it reaches at q1 ~ 18.93%."""
    if q1 <= 0.0:
        return 0.0
    # -(1-q)log2(1-q) - q log2(q/3), with the quotient expanded so that
    # subnormal q1 cannot underflow inside the logarithm
    v = -(1.0 - q1) * math.log2(1.0 - q1) - q1 * (math.log2(q1) - _LOG2_3)
    return min(v, 1.0)


def _nort(q1: float) -> tuple[float, float]:
    cos_x = 1.0 - 4.0 * q1
    sin_x = math.sqrt(max(0.0, 1.0 - cos_x * cos_x))
    return 1.0 - binary_entropy((1.0 - sin_x) / 2.0), 1.0 - binary_entropy((2.0 - sin_x) / 4.0)


_IR_BE = 1.0 - binary_entropy(0.25)  # ir's I_BE per attacked round, where her key-bit error is 1/4
# attack: (upper end of its q1 domain, q1 in that domain -> (I_AE, I_BE)); (i,) * 2 is I_AE = I_BE
_CURVES = {
    "ir": (0.25, lambda q1: (4.0 * q1, _IR_BE * (4.0 * q1))),
    "nort": (0.25, _nort),
    "dcnot_star": (0.25, lambda q1: (4.0 * q1,) * 2),
    "generic": (0.5, lambda q1: (generic_bound(q1),) * 2),
    "bb84_ir": (0.25, lambda q1: (2.0 * q1,) * 2),
    "bb84_opt": (0.5, lambda q1: (1.0 - binary_entropy(0.5 + math.sqrt(q1 * (1.0 - q1))),) * 2),
}
EVE_MODELS = tuple(_CURVES)


def _evaluator(attack: str, model: NoiseModel) -> tuple[float, Callable[[float], InfoPoint]]:
    """(domain's upper end, q1 -> secrecy(q1, attack, model)), with the curve chosen once.

    Each point is still checked against the domain, and its Q_AB against
    binary_entropy's range.
    """
    if attack not in _CURVES:
        raise ValueError(f"unknown eve curve {attack!r}; expected one of {EVE_MODELS}")
    if not isinstance(model, NoiseModel):
        raise ValueError(f"model must be a NoiseModel, got {model!r}")
    dmax, curve = _CURVES[attack]
    q_ab = model.q_ab

    def point(q1: float) -> InfoPoint:
        if not -_DOMAIN_EPS <= q1 <= dmax + _DOMAIN_EPS:
            raise ValueError(f"q1={q1!r} outside [0, {dmax}] for {attack}")
        i_ae, i_be = curve(min(max(q1, 0.0), dmax))
        i_ab = 1.0 - binary_entropy(q_ab(q1))
        return InfoPoint(q1, i_ab, i_ae, i_be, i_ab - i_ae, i_ab - i_be)

    return dmax, point


def secrecy(q1: float, attack: str, model: NoiseModel = IDENTIFIED) -> InfoPoint:
    """Full information point at q1: I_AB from the noise model, capacities as differences."""
    return _evaluator(attack, model)[1](real("q1", q1))


def threshold(attack: str, reconciliation: str = "dr",
              model: NoiseModel = IDENTIFIED) -> float | None:
    """q1 where the chosen secrecy capacity first reaches zero.

    Returns None when the capacity stays strictly positive over the whole
    attack domain (secure everywhere), and 0.0 when it is not positive even
    at q1 = 0 (no q1 is secure, e.g. a fixed Q_AB of 1/2 gives I_AB = 0).
    The capacity is assumed monotone, so plain bisection suffices.
    """
    if reconciliation not in ("dr", "rr"):
        raise ValueError("reconciliation must be 'dr' or 'rr'")
    dmax, point = _evaluator(attack, model)
    column = InfoPoint._fields.index(f"c_{reconciliation}")

    def capacity(q1: float) -> float:
        return point(q1)[column]

    if capacity(0.0) <= 0.0:
        return 0.0
    if capacity(dmax) > _CAPACITY_TOL:
        return None
    return bisect_first_zero(capacity, 0.0, dmax, tol=_THRESHOLD_TOL)


def curve_points(attack: str, model: NoiseModel = IDENTIFIED,
                 grid_step: float = 0.001) -> list[InfoPoint]:
    """Information curve sampled on a q1 grid over the attack's domain."""
    dmax, point = _evaluator(attack, model)
    return [point(min(q1, dmax)) for q1 in grid(0.0, grid_step, dmax + _DOMAIN_EPS, "grid_step")]
