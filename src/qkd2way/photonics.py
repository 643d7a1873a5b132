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
from collections.abc import Callable, Sequence

from . import PROTOCOLS
from .numerics import MAX_GRID_POINTS, bisect_first_zero, golden_max, integer, real

OBJECTIVES = ("secure_gain", "pns_margin")

DEFAULT_ETA_D = 0.12     # detector efficiency
DEFAULT_GAMMA_B = 0.4    # Bob-box transmission
DEFAULT_GAMMA_A = 0.45   # Alice-box transmission
DEFAULT_ATTEN = 0.02     # fiber attenuation, decades per km
MU_BRACKET = (1e-5, 2.0)
_MU_TOL = 1e-7  # bracket width at which the golden-section search over mu stops
_CROSSOVER_TOL_KM = 0.01  # bracket width at which the crossover bisection stops
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)


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


def _check_protocol(protocol: str):
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula, for n >= 1."""
    if n <= 15.0:  # terms this small cancel with an error of 1e-14 at most
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_2PI
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, the deviance of x from m, summed as a series where x is near m."""
    d = x - m
    half_sum = 0.5 * x + 0.5 * m  # (x + m) / 2 without overflow
    if abs(d) >= 0.2 * half_sum:
        return x * (math.log(x) - math.log(m)) + m - x
    v = 0.5 * d / half_sum  # d / (x + m), below 0.1 in size
    total, term = d * v, 2.0 * v * x
    for j in range(3, 21, 2):  # + 2x (v^3/3 + v^5/5 + ...): the ninth term is below 1e-17 of the sum
        term *= v * v
        total += term / j
    return total


def poisson_pmf(n: int, mu: float) -> float:
    """Probability of n photons in one pulse of mean photon number mu.

    In Loader's saddle-point form, exp(-stirlerr(n) - bd0(n, mu)) / sqrt(2 pi n),
    which cancels no large terms, so it keeps its accuracy where n log mu and
    log n! are huge and nearly equal.
    """
    n = integer("photon count n", n, 0)
    mu = real("mu", mu, 0.0, lo_open=True)
    if n == 0:
        return math.exp(-mu)
    try:
        x = float(n)
    except OverflowError:  # so far past every float mu that the probability underflows
        return 0.0
    return math.exp(-_stirlerr(x) - _bd0(x, mu)) / (_SQRT_2PI * math.sqrt(x))


_BS_EVE_INFO = {
    "bb84": lambda mu: min(mu, 1.0),
    "lm05": lambda mu: (1.0 - math.exp(-mu / 2.0)) ** 2,
}
_PNS_PROB = {
    "bb84": lambda mu: 1.0 - math.exp(-mu) * (1.0 + mu),
    # n >= 3 pulses, counted with the conclusive-measurement fraction 1/2 of P_3
    "lm05": lambda mu: 1.0 - math.exp(-mu) * (1.0 + mu + mu ** 2 / 2.0 + mu ** 3 / 12.0),
}


def bs_eve_info(protocol: str, mu: float) -> float:
    """Eve's expected information fraction from beam splitting."""
    _check_protocol(protocol)
    return _BS_EVE_INFO[protocol](real("mu", mu, 0.0, lo_open=True))


def pns_multiphoton_prob(protocol: str, mu: float) -> float:
    """Probability of a pulse whose photon number lets Eve attack without noise."""
    _check_protocol(protocol)
    return _PNS_PROB[protocol](real("mu", mu, 0.0, lo_open=True))


def _mu_objective(objective: str, protocol: str,
                  link: LinkBudget) -> Callable[[float], Callable[[float], float]]:
    """length_km -> the objective on a checked link at that checked distance, as a function of mu.

    Neither link.mu nor link.length_km is read.  The objective, the protocol
    and the link are resolved once here and each distance works out only its
    transmission, so the function of mu is the one frame a golden-section
    evaluation enters, with the raw gain 1 - exp(-mu eta_d Gamma) inline.
    """
    _check_protocol(protocol)
    expm1, eta_d, gamma_B, gamma_A, atten = math.expm1, link.eta_d, link.gamma_B, link.gamma_A, link.atten

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


def _mu_optimizer(objective: str, protocol: str, bracket: tuple[float, float] = MU_BRACKET,
                  **link) -> Callable[[float], tuple[float, float]]:
    """length_km -> (mu_star, value) on one link, for a scan of distances.

    The objective, the protocol, the bracket and the link are checked and
    resolved here, once; each call checks only its distance.  Every point
    golden_max evaluates lies in the bracket, so mu needs no check of its own.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    lo, hi = bracket
    lo = real("mu bracket low end", lo, 0.0)
    hi = real("mu bracket high end", hi, lo, lo_open=True)
    # mu and the length only pass their checks: the objective takes mu, and each call its length
    objective_at = _mu_objective(objective, protocol, LinkBudget(hi, 0.0, **link))

    def best(length_km: float) -> tuple[float, float]:
        return golden_max(objective_at(real("length_km", length_km, 0.0)), lo, hi, tol=_MU_TOL)

    return best


def optimize_mu(objective: str, protocol: str, length_km: float, **link) -> tuple[float, float]:
    """Golden-section maximization of the objective over the mu bracket at one distance.

    link is LinkBudget's eta_d, gamma_B, gamma_A and atten, and the mu
    ``bracket`` (default MU_BRACKET) of the search, which stops at a width of 1e-7.
    Returns (mu_star, value); a non-positive value means the link is
    insecure at this distance for every mean photon number in the bracket.
    The bracket and the link are checked once per call, not per evaluation;
    a scan over many distances (:func:`scan_distances`,
    :func:`crossover_distance`) checks them once per scan.
    """
    return _mu_optimizer(objective, protocol, **link)(length_km)


def scan_distances(objective: str, protocol: str, lengths_km: Sequence[float],
                   **link) -> list[GainPoint]:
    """One optimized GainPoint per length, on a link checked once; link as for optimize_mu."""
    best = _mu_optimizer(objective, protocol, **link)
    return [GainPoint(protocol, objective, length, *best(length)) for length in lengths_km]


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
