"""Zero-QBER attack analysis for weak coherent pulse sources.

An attenuated laser emits n photons per pulse with Poisson probability
P_n(mu); multi-photon pulses leak information without adding noise.  Two
regimes are modeled:

Beam splitting (BS)
    Eve taps the beam with ideal detectors.  Against BB84 her expected
    information per pulse is I_E = mu (tap ratio ~ 1, clamped at one
    bit).  Against LM05 she needs a detection on both passes; with taps
    R1 on the forward and R2 on the backward path her success probability
    is (1 - exp(-R1 mu)) (1 - exp(-R2 (1-R1) mu)), maximized by R1 = 1/2,
    R2 = 1 at I_E = (1 - exp(-mu/2))^2.  The secure gain is the raw
    detection gain times (1 - I_E).

Photon-number splitting (PNS)
    Eve blocks weak pulses and exploits multi-photon ones with conclusive
    collective measurements (modeled by their success probabilities only).
    BB84 is broken by any n >= 2 pulse: P_PNS = 1 - e^-mu (1 + mu).  LM05
    needs n >= 3 and the conclusive measurement fires with probability
    1/2, so P_PNS = 1 - e^-mu (1 + mu + mu^2/2 + mu^3/12).  The link is
    secure while the raw gain exceeds the dangerous-pulse probability;
    the margin D = G_raw - P_PNS defines the security region.

Raw gains follow the link budget: G_raw = 1 - exp(-mu eta_d Gamma(L))
with Gamma^BB84 = Gamma_QC Gamma_B and, because the LM05 channel is
traversed twice and Alice's box twice, Gamma^LM05 = Gamma_QC^2 Gamma_B
Gamma_A^2, where Gamma_QC(L) = 10^(-atten L).  The mean photon number is
optimized per distance.  A scan over distances checks its link and picks
its objective and protocol once; each distance then works out its
transmission and hands the golden-section search one function of mu.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable

from . import PROTOCOLS
from .numerics import MAX_GRID_POINTS, bisect_first_zero, golden_max, real

OBJECTIVES = ("secure_gain", "pns_margin")

DEFAULT_ETA_D = 0.12     # detector efficiency
DEFAULT_GAMMA_B = 0.4    # Bob-box transmission
DEFAULT_GAMMA_A = 0.45   # Alice-box transmission
DEFAULT_ATTEN = 0.02     # fiber attenuation, decades per km
MU_BRACKET = (1e-5, 2.0)
_MU_TOL = 1e-7  # bracket width at which the golden-section search over mu stops
_CROSSOVER_TOL_KM = 0.01  # bracket width at which the crossover bisection stops


class LinkBudget(namedtuple("LinkBudget", "mu length_km eta_d gamma_B gamma_A atten")):
    __slots__ = ()
    @classmethod
    def _make(cls, iterable):  # the stock length check, then __new__: _replace validates too
        return cls(*super()._make(iterable))

    def __new__(cls, mu: float, length_km: float = 0.0, eta_d: float = DEFAULT_ETA_D,
                gamma_B: float = DEFAULT_GAMMA_B, gamma_A: float = DEFAULT_GAMMA_A,
                atten: float = DEFAULT_ATTEN):
        return super().__new__(cls, real("mu", mu, 0.0, lo_open=True), real("length_km", length_km, 0.0),
                               real("eta_d", eta_d, 0.0, 1.0), real("gamma_B", gamma_B, 0.0, 1.0),
                               real("gamma_A", gamma_A, 0.0, 1.0), real("atten", atten, 0.0))


GainPoint = namedtuple("GainPoint", "protocol objective length_km mu_star value")


_BS_EVE_INFO = {
    "bb84": lambda mu: min(mu, 1.0),
    "lm05": lambda mu: (1.0 - math.exp(-mu / 2.0)) ** 2,
}
_PNS_PROB = {
    "bb84": lambda mu: 1.0 - math.exp(-mu) * (1.0 + mu),
    # n >= 3 pulses, counted with the conclusive-measurement fraction 1/2 of P_3
    "lm05": lambda mu: 1.0 - math.exp(-mu) * (1.0 + mu + mu ** 2 / 2.0 + mu ** 3 / 12.0),
}


def _mu_objective(objective: str, protocol: str,
                  budget: LinkBudget) -> Callable[[float], Callable[[float], float]]:
    """length_km -> the objective on a checked link at that checked distance, as a function of mu.

    Neither budget.mu nor budget.length_km is read.  The protocol and the
    budget are checked, and the objective is resolved, once here; each
    distance works out only its transmission, so the function of mu is the
    one frame a golden-section evaluation enters, with the raw gain
    1 - exp(-mu eta_d Gamma) inline.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if not isinstance(budget, LinkBudget):
        raise ValueError(f"budget must be a LinkBudget, got {budget!r}")
    expm1, (_, _, eta_d, gamma_B, gamma_A, atten) = math.expm1, budget

    def transmission(length_km: float) -> float:
        g_qc = 10.0 ** (-atten * length_km)
        return g_qc * gamma_B if protocol == "bb84" else g_qc * g_qc * gamma_B * gamma_A ** 2

    leak, dangerous = _BS_EVE_INFO[protocol], _PNS_PROB[protocol]
    # objective: transmission t -> the objective as a function of mu at t
    at_transmission = {
        "raw_gain": lambda t: lambda mu: -expm1(-mu * eta_d * t),
        "secure_gain": lambda t: lambda mu: -expm1(-mu * eta_d * t) * (1.0 - leak(mu)),
        "pns_margin": lambda t: lambda mu: -expm1(-mu * eta_d * t) - dangerous(mu),
    }[objective]
    return lambda length_km: at_transmission(transmission(length_km))


def raw_gain(protocol: str, budget: LinkBudget) -> float:
    """Detection probability per pulse: 1 - exp(-mu eta_d Gamma(L))."""
    return _mu_objective("raw_gain", protocol, budget)(budget.length_km)(budget.mu)


def secure_gain(protocol: str, budget: LinkBudget) -> float:
    """Raw gain times the fraction of the key not leaked through beam splitting."""
    return _mu_objective("secure_gain", protocol, budget)(budget.length_km)(budget.mu)


def pns_margin(protocol: str, budget: LinkBudget) -> float:
    """Security-region margin D = G_raw - P_PNS; positive means secure."""
    return _mu_objective("pns_margin", protocol, budget)(budget.length_km)(budget.mu)


def _mu_optimizer(objective: str, protocol: str, **link) -> Callable[[float], tuple[float, float]]:
    """length_km -> (mu_star, value) on one link, for a scan of distances.

    The objective, the protocol and the link are checked and resolved here,
    once; each call checks only its distance.  Every point golden_max
    evaluates lies in MU_BRACKET, so mu needs no check of its own.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    lo, hi = MU_BRACKET
    # mu and the length only pass their checks: the objective takes mu, and each call its length
    objective_at = _mu_objective(objective, protocol, LinkBudget(hi, 0.0, **link))

    def best(length_km: float) -> tuple[float, float]:
        return golden_max(objective_at(real("length_km", length_km, 0.0)), lo, hi, tol=_MU_TOL)

    return best


def optimize_mu(objective: str, protocol: str, length_km: float, **link) -> tuple[float, float]:
    """Golden-section maximization of the objective over MU_BRACKET at one distance.

    link is LinkBudget's eta_d, gamma_B, gamma_A and atten; the search stops
    at a width of 1e-7.  Returns (mu_star, value); a non-positive value means
    the link is insecure at this distance for every mean photon number in
    the bracket.  The link is checked once per call, not per evaluation; a
    scan over many distances (:func:`scan_distances`,
    :func:`crossover_distance`) checks it once per scan.
    """
    return _mu_optimizer(objective, protocol, **link)(length_km)


def scan_distances(objective: str, protocol: str, lengths_km: Iterable[float],
                   **link) -> list[GainPoint]:
    """One optimized GainPoint per length, on a link checked once; link as for optimize_mu."""
    best = _mu_optimizer(objective, protocol, **link)
    try:
        lengths = iter(lengths_km)
    except TypeError:
        raise ValueError(f"lengths_km must be an iterable of distances, got {lengths_km!r}") from None
    return [GainPoint(protocol, objective, length, *best(length)) for length in lengths]


class NoCrossover(ValueError):
    """The PNS margins of LM05 and BB84 do not cross in the searched span."""


def crossover_distance(*, l_lo: float = 0.0, l_hi: float = 100.0, **link) -> float:
    """Distance where the optimized PNS margins of LM05 and BB84 cross, to within 0.01 km.

    LM05's margin is larger at short range (it needs three-photon pulses
    to be broken) but decays faster with distance; raises ValueError when
    no crossing with LM05 initially on top exists in [l_lo, l_hi] (as
    :class:`NoCrossover`), or when the scan of the span would take more than
    MAX_GRID_POINTS steps.  link is as for :func:`optimize_mu`, and is
    checked once, not per distance.
    """
    l_lo = real("l_lo", l_lo, 0.0)
    l_hi = real("l_hi", l_hi, l_lo)
    step = max(_CROSSOVER_TOL_KM, min(1.0, (l_hi - l_lo) / 16.0))
    if (l_hi - l_lo) / step > MAX_GRID_POINTS:
        raise ValueError(f"[{l_lo}, {l_hi}] km takes more than {MAX_GRID_POINTS} scan steps "
                         f"of {step} km")
    lm05 = _mu_optimizer("pns_margin", "lm05", **link)
    bb84 = _mu_optimizer("pns_margin", "bb84", **link)

    def diff(length: float) -> float:
        return lm05(length)[1] - bb84(length)[1]

    if diff(l_lo) <= 0.0:
        raise NoCrossover(f"LM05 margin does not exceed BB84 at L = {l_lo} km; no crossover in range")
    lo, length = l_lo, l_lo + step
    # lo < length ends the scan once a step no longer moves the distance
    while lo < length <= l_hi + 1e-12:
        if diff(length) <= 0.0:
            break
        lo = length
        length += step
    else:  # the steps missed l_hi, so it is the scan's last point
        length = l_hi
        if not (lo < l_hi and diff(l_hi) <= 0.0):
            raise NoCrossover(f"no PNS crossover found in [{l_lo}, {l_hi}] km; check the link parameters")
    return bisect_first_zero(diff, lo, length, tol=_CROSSOVER_TOL_KM)
