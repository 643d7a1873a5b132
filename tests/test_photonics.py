import math
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd2way import photonics
from qkd2way.numerics import golden_max
from qkd2way.photonics import (
    DEFAULT_ATTEN,
    DEFAULT_ETA_D,
    DEFAULT_GAMMA_A,
    DEFAULT_GAMMA_B,
    MU_BRACKET,
    GainPoint,
    LinkBudget,
    NoCrossover,
    bs_eve_info,
    crossover_distance,
    optimize_mu,
    pns_margin,
    pns_multiphoton_prob,
    poisson_pmf,
    raw_gain,
    scan_distances,
    secure_gain,
)
from qkd2way.cli import main as cli_main
from qkd2way.rng import stream

MU_GRID = [0.01 * i for i in range(1, 201)]  # (0, 2]


def double_tap_prob(r1: float, r2: float, mu: float) -> float:
    """Eve's chance of a photon at both taps of an LM05 pulse, tap ratio r1 forward and r2 back.

    The reference model behind bs_eve_info's LM05 value, which is its maximum at r1 = 1/2, r2 = 1.
    """
    return (1.0 - math.exp(-r1 * mu)) * (1.0 - math.exp(-r2 * (1.0 - r1) * mu))


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(mu=0.0)
    with pytest.raises(ValueError):
        LinkBudget(mu=0.1, length_km=-1.0)
    with pytest.raises(ValueError):
        LinkBudget(mu=0.1, eta_d=1.2)


def test_budget_and_gain_point_are_immutable_values():
    budget = LinkBudget(mu=0.1, length_km=5.0)
    assert budget == LinkBudget(0.1, 5.0, DEFAULT_ETA_D, DEFAULT_GAMMA_B, DEFAULT_GAMMA_A,
                                DEFAULT_ATTEN)
    point = GainPoint(protocol="lm05", objective="pns_margin", length_km=5.0, mu_star=0.3,
                      value=0.01)
    for value, same, other in ((budget, LinkBudget(mu=0.1, length_km=5.0), LinkBudget(mu=0.2)),
                               (point, GainPoint("lm05", "pns_margin", 5.0, 0.3, 0.01),
                                point._replace(protocol="bb84"))):
        assert value == same and hash(value) == hash(same) and value != other
        with pytest.raises(AttributeError):
            setattr(value, value._fields[-1], 0.0)
        with pytest.raises(AttributeError):
            value.note = "no per-instance attributes"
    with pytest.raises(ValueError, match=r"eta_d must lie in \[0, 1\]"):
        budget._replace(eta_d=1.2)
    with pytest.raises(TypeError, match="Expected 6 arguments, got 1"):
        LinkBudget._make([0.1])


@pytest.mark.parametrize("field", ["mu", "length_km", "eta_d", "gamma_B", "gamma_A", "atten"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_budget_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError):
        LinkBudget(**{"mu": 0.1, field: value})


def test_poisson_pmf_values():
    assert poisson_pmf(0, 0.1) == pytest.approx(math.exp(-0.1), abs=1e-12)
    # frozen from the cumulative-series oracle below
    assert poisson_pmf(2, 0.1) == pytest.approx(0.004524187090179798, abs=1e-12)
    assert sum(poisson_pmf(n, 1.0) for n in range(51)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        poisson_pmf(-1, 0.1)
    with pytest.raises(ValueError):
        poisson_pmf(2, 0.0)


@pytest.mark.parametrize("n, mu", [(171, 1.0), (200, 10.0), (1000, 5.0)])
def test_poisson_pmf_is_a_float_where_mu_to_the_n_or_n_factorial_overflows(n, mu):
    # mu ** n / n! used to raise OverflowError here
    assert isinstance(poisson_pmf(n, mu), float)


def test_poisson_pmf_far_tail():
    # 10^200 e^-10 / 200!, to 50 digits in exact decimal arithmetic
    assert poisson_pmf(200, 10.0) == pytest.approx(5.7566064628485215924738e-180, rel=1e-9)
    assert sum(poisson_pmf(n, 10.0) for n in range(400)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [10**12, 10**15])
def test_poisson_pmf_at_its_mean_keeps_its_accuracy_for_huge_counts(n):
    # n log mu and log n! cancel here: the log form was 0.4% low at 1e12 and 84% low at 1e15
    assert poisson_pmf(n, float(n)) == pytest.approx(math.exp(-1 / (12 * n)) / math.sqrt(2 * math.pi * n),
                                                     rel=1e-9)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(n=st.one_of(st.integers(0, 400), st.integers(0, 10**320)),
       mu=st.floats(5e-324, 1.7976931348623157e308, allow_nan=False, allow_infinity=False))
def test_poisson_pmf_is_a_probability_for_every_accepted_input(n, mu):
    assert 0.0 <= poisson_pmf(n, mu) <= 1.0


@pytest.mark.parametrize("n, mu", [(int(2.54e305), 1e308), (10**400, 1e308),
                                   (int(1.7976931348623157e308), 1.7976931348623157e308)],
                         ids=["2.54e305", "1e400", "float-max"])
def test_poisson_pmf_is_a_probability_at_the_float_range_ends(n, mu):
    # the log form returned inf at the first; the last is near its mean, so far from 0
    assert 0.0 <= poisson_pmf(n, mu) <= 1.0
    assert (poisson_pmf(n, mu) > 0.0) == (n == int(mu))


@pytest.mark.parametrize("n", [1.5, 2.0, True, "2"])
def test_poisson_pmf_refuses_a_non_integer_photon_count(n):
    with pytest.raises(ValueError, match="photon count n must be an integer"):
        poisson_pmf(n, 0.1)
    assert poisson_pmf(np.int64(2), 0.1) == poisson_pmf(2, 0.1)


@pytest.mark.parametrize("call", [partial(bs_eve_info, "bb84"), partial(bs_eve_info, "lm05"),
                                  partial(pns_multiphoton_prob, "bb84"), partial(poisson_pmf, 1)],
                         ids=["bs_bb84", "bs_lm05", "pns", "poisson"])
@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_mu_functions_refuse_a_non_finite_mu_by_name(call, mu):
    # bs_eve_info("bb84", nan) used to return nan
    with pytest.raises(ValueError, match="mu must be finite"):
        call(mu)


@pytest.mark.parametrize("kwargs, field", [(dict(mu="1"), "mu"), (dict(mu=True), "mu"),
                                           (dict(mu=0.1, eta_d=None), "eta_d")])
def test_budget_refuses_non_numeric_fields_by_name(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        LinkBudget(**kwargs)


def test_budget_stores_numpy_scalars_as_floats():
    budget = LinkBudget(mu=np.float32(0.5), length_km=np.float64(5.0), atten=np.int64(0))
    assert budget == LinkBudget(mu=0.5, length_km=5.0, atten=0.0)
    assert all(type(field) is float for field in budget)


def test_bs_eve_info_closed_forms():
    assert bs_eve_info("bb84", 0.1) == 0.1
    assert bs_eve_info("bb84", 1.7) == 1.0  # clamped at one bit
    assert bs_eve_info("lm05", 0.1) == pytest.approx(0.0023785690345315543, abs=1e-12)
    # vanishes quadratically for weak pulses
    assert bs_eve_info("lm05", 1e-4) == pytest.approx((0.5e-4) ** 2, rel=1e-3)


def test_bs_eve_info_matches_two_splitter_monte_carlo():
    # oracle: Poisson pulse, binomial 50/50 split, second tap takes the rest
    mu = 0.1
    rng = stream(77)
    n = 1_000_000
    photons = rng.poisson(mu, size=n)
    to_first_tap = rng.binomial(photons, 0.5)
    forwarded = photons - to_first_tap
    success = np.logical_and(to_first_tap >= 1, forwarded >= 1)
    p_hat = float(np.mean(success))
    p = bs_eve_info("lm05", mu)
    assert abs(p_hat - p) <= 5.0 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("mu", [0.05, 0.1, 0.5, 1.0])
def test_half_reflectivity_maximizes_double_tap(mu):
    r1_star, _ = golden_max(lambda r1: double_tap_prob(r1, 1.0, mu), 0.0, 1.0, tol=1e-9)
    assert abs(r1_star - 0.5) <= 1e-4


def test_double_tap_upper_bound_over_grid():
    for mu in (0.05, 0.1, 0.5, 1.0):
        bound = bs_eve_info("lm05", mu)
        for i in range(100):
            for j in range(100):
                r1, r2 = i / 99.0, j / 99.0
                assert double_tap_prob(r1, r2, mu) <= bound + 1e-12


def test_raw_gain_values_and_ordering():
    budget = LinkBudget(mu=0.1, length_km=0.0)
    # frozen from the product-of-factors oracle: exponent 0.1*0.12*0.4*0.45^2
    assert raw_gain("lm05", budget) == pytest.approx(0.0009715277610178231, abs=1e-12)
    for length in (0.0, 10.0, 40.0):
        b = LinkBudget(mu=0.1, length_km=length)
        assert raw_gain("bb84", b) > raw_gain("lm05", b)
    assert raw_gain("bb84", LinkBudget(mu=500.0)) == pytest.approx(1.0, abs=1e-9)


def test_secure_gain_limits():
    assert secure_gain("bb84", LinkBudget(mu=1.5)) == 0.0  # full leak
    tiny = secure_gain("lm05", LinkBudget(mu=1e-6))
    assert 0.0 < tiny < 1e-6


def test_pns_probabilities_match_poisson_series():
    for mu in MU_GRID:
        tail_bb84 = sum(poisson_pmf(n, mu) for n in range(2, 80))
        assert abs(pns_multiphoton_prob("bb84", mu) - tail_bb84) <= 1e-10
        tail_lm05 = sum(poisson_pmf(n, mu) for n in range(3, 80)) - 0.5 * poisson_pmf(3, mu)
        assert abs(pns_multiphoton_prob("lm05", mu) - tail_lm05) <= 1e-10


def test_pns_probability_values():
    assert pns_multiphoton_prob("bb84", 0.1) == pytest.approx(0.004678840160444397, abs=1e-10)
    for mu in MU_GRID:
        assert pns_multiphoton_prob("lm05", mu) < pns_multiphoton_prob("bb84", mu)


def test_objectives_keep_their_float_expressions():
    # the exact operations, in order, behind the byte-identical gain/pns CSVs
    for length in (0.0, 2.64, 17.25, 50.0):
        g_qc = 10.0 ** (-DEFAULT_ATTEN * length)
        transmission = {"bb84": g_qc * DEFAULT_GAMMA_B,
                        "lm05": g_qc * g_qc * DEFAULT_GAMMA_B * DEFAULT_GAMMA_A ** 2}
        for mu in MU_GRID:
            budget = LinkBudget(mu=mu, length_km=length)
            raw = {p: -math.expm1(-mu * DEFAULT_ETA_D * t) for p, t in transmission.items()}
            assert raw_gain("bb84", budget) == raw["bb84"]
            assert raw_gain("lm05", budget) == raw["lm05"]
            assert secure_gain("bb84", budget) == raw["bb84"] * (1.0 - min(mu, 1.0))
            assert secure_gain("lm05", budget) == raw["lm05"] * (
                1.0 - (1.0 - math.exp(-mu / 2.0)) ** 2)
            assert pns_margin("bb84", budget) == raw["bb84"] - (
                1.0 - math.exp(-mu) * (1.0 + mu))
            assert pns_margin("lm05", budget) == raw["lm05"] - (
                1.0 - math.exp(-mu) * (1.0 + mu + mu ** 2 / 2.0 + mu ** 3 / 12.0))


def test_optimize_mu_agrees_with_grid_scan():
    for length in (0.0, 10.0, 50.0):
        mu_star, best = optimize_mu("secure_gain", "bb84", length)
        grid_best = max(
            secure_gain("bb84", LinkBudget(mu=mu, length_km=length))
            for mu in np.linspace(1e-5, 2.0, 10_000)
        )
        assert best == pytest.approx(grid_best, abs=1e-6)
        assert 1e-5 <= mu_star <= 2.0


@pytest.mark.parametrize("bracket, expected", [
    ((math.nan, 2.0), None),
    ((1e-5, math.inf), None),
    ((-1.0, 2.0), None),
    # golden_max never evaluates an endpoint, so mu = 0 may bound the bracket;
    # frozen from the implementation that built a LinkBudget per evaluation
    ((0.0, 2.0), (0.04798731242760422, 0.00108209295643464)),
])
def test_optimize_mu_checks_the_bracket_once(bracket, expected):
    if expected is None:
        with pytest.raises(ValueError, match="bracket"):
            optimize_mu("pns_margin", "bb84", 1.0, bracket=bracket)
    else:
        result = optimize_mu("pns_margin", "bb84", 1.0, bracket=bracket)
        assert result == pytest.approx(expected, rel=1e-12)
        assert result == _reference_optimize_mu("pns_margin", "bb84", 1.0, bracket=bracket)


def _reference_optimize_mu(objective, protocol, length_km, bracket=MU_BRACKET, **link):
    """optimize_mu as a maximization of the public objective over full link budgets."""
    fn = {"secure_gain": secure_gain, "pns_margin": pns_margin}[objective]
    return golden_max(lambda mu: fn(protocol, LinkBudget(mu=mu, length_km=length_km, **link)),
                      *bracket, tol=1e-7)


@pytest.mark.parametrize("objective", ["secure_gain", "pns_margin"])
@pytest.mark.parametrize("protocol", ["bb84", "lm05"])
def test_scan_equals_reference_exactly(objective, protocol):
    # the CLI's default grid; == keeps the gain/pns CSVs byte-identical
    lengths = [0.0 + i * 0.25 for i in range(201)]
    points = scan_distances(objective, protocol, lengths)
    assert [(p.mu_star, p.value) for p in points] == [
        _reference_optimize_mu(objective, protocol, length) for length in lengths]


@pytest.mark.parametrize("length", [0.0, 7.25, 50.0])
@pytest.mark.parametrize("protocol", ["bb84", "lm05"])
@pytest.mark.parametrize("objective", ["secure_gain", "pns_margin"])
def test_a_scan_point_equals_the_single_point_api_bit_for_bit(objective, protocol, length):
    point = scan_distances(objective, protocol, [length])[0]
    assert repr(point) == repr(GainPoint(protocol, objective, length, *optimize_mu(objective, protocol, length)))
    value = {"secure_gain": secure_gain, "pns_margin": pns_margin}[objective](
        protocol, LinkBudget(point.mu_star, length))
    assert repr(value) == repr(point.value)


def test_crossover_equals_reference_exactly(monkeypatch):
    crossover = crossover_distance()
    # the crossover's per-distance optimizer, replaced by the reference maximization
    monkeypatch.setattr(photonics, "_mu_optimizer", lambda objective, protocol, **link:
                        partial(_reference_optimize_mu, objective, protocol, **link))
    assert crossover == crossover_distance()


def test_a_scan_checks_its_link_once(monkeypatch):
    built = []

    class CountedBudget(LinkBudget):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(photonics, "LinkBudget", CountedBudget)
    points = scan_distances("pns_margin", "lm05", [0.25 * i for i in range(201)])
    assert len(points) == 201 and len(built) == 1
    crossover_distance()  # one link per protocol
    assert len(built) == 3
    # inside the loop only the distance is checked
    with pytest.raises(ValueError, match="length_km must lie in"):
        scan_distances("pns_margin", "lm05", [0.0, -1.0])


def test_pns_margin_small_mu_expansion():
    # D ~ mu t - mu^2/2 peaks near t = eta_d * gamma_B
    mu_star, value = optimize_mu("pns_margin", "bb84", 0.0)
    assert value > 0.0
    assert abs(mu_star - 0.048) / 0.048 <= 0.20


def test_pns_margin_negative_at_extreme_distance():
    _, value = optimize_mu("pns_margin", "lm05", 300.0)
    assert value < 0.0


def test_optimized_gain_curves_decrease_with_distance():
    lengths = [0.0, 5.0, 10.0, 20.0, 35.0, 50.0]
    for protocol in ("bb84", "lm05"):
        values = [optimize_mu("secure_gain", protocol, length)[1] for length in lengths]
        assert all(v1 < v0 for v0, v1 in zip(values, values[1:]))


def test_bb84_secure_gain_dominates_lm05():
    for length in np.linspace(0.0, 50.0, 21):
        bb84 = optimize_mu("secure_gain", "bb84", float(length))[1]
        lm05 = optimize_mu("secure_gain", "lm05", float(length))[1]
        assert bb84 >= lm05


def test_crossover_distance_default_parameters():
    crossover = crossover_distance()
    assert 2.0 <= crossover <= 3.0


def test_crossover_moves_out_with_lossless_alice():
    assert crossover_distance(gamma_A=1.0) > crossover_distance()


def test_crossover_requires_distance_dependence():
    with pytest.raises(ValueError):
        crossover_distance(atten=0.0)
    with pytest.raises(ValueError):
        crossover_distance(l_lo=10.0, l_hi=50.0)  # LM05 already below at 10 km


def test_scan_and_csv_export(tmp_path, capsys):
    points = scan_distances("pns_margin", "lm05", [0.0, 5.0])
    assert [p.length_km for p in points] == [0.0, 5.0]
    out = tmp_path / "pns.csv"
    assert cli_main(["pns", "--lmin", "0", "--lmax", "5", "--lstep", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "L_km,mu_star,value,log10_value,protocol,objective"
    assert len(lines) == 2 * len(points) + 2
    footer = lines[-1].split(",")
    assert footer[4:] == ["crossover", "pns_margin"] and 2.0 <= float(footer[0]) <= 3.0
    # positive margins carry their log10 for plotting parity
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(math.log10(float(first[2])))


def test_gain_csv_empty_log_for_nonpositive_values(tmp_path, capsys):
    # both protocols' PNS margins are negative at 1000 km
    out = tmp_path / "pns.csv"
    assert cli_main(["pns", "--lmin", "1000", "--lmax", "1000", "--lstep", "1",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
    assert [row[4] for row in rows] == ["bb84", "lm05"]
    for row in rows:
        assert float(row[2]) <= 0.0 and row[3] == ""


@pytest.mark.parametrize("kwargs", ["atten=0.0, l_hi=float('inf')", "l_lo=1e17, l_hi=1e17 + 1e3",
                                    "atten=0.0, l_hi=1e12"])
def test_crossover_distance_returns_in_bounded_time(kwargs):
    # each of these looped forever before: a distance scan that never
    # reached l_hi (or took 1e12 steps)
    code = ("from qkd2way.photonics import crossover_distance\n"
            "try:\n"
            f"    print(crossover_distance({kwargs}))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError:")
    if kwargs == "atten=0.0, l_hi=1e12":  # refused before the first step
        assert "scan steps" in proc.stdout


def test_crossover_scan_checks_the_last_partial_step():
    # a span over 16 km is scanned in 1 km steps from l_lo; the crossing at
    # 17.6 km lies in the last, partial step [17, 17.9], so l_hi is scanned too
    whole = crossover_distance(atten=0.003, l_hi=100.0)
    assert 17.0 < whole < 17.9
    assert crossover_distance(atten=0.003, l_hi=17.9) == pytest.approx(whole, abs=0.01)


def test_crossover_distance_tells_no_crossing_from_a_refused_span():
    # the pns table reports NoCrossover as "none in range"; a refused span is an error
    with pytest.raises(NoCrossover):
        crossover_distance(l_lo=10.0, l_hi=50.0)
    with pytest.raises(ValueError, match="scan steps") as refused:
        crossover_distance(l_hi=2e6)  # the crossing at 2.64 km is in range
    assert not isinstance(refused.value, NoCrossover)


@pytest.mark.parametrize("kwargs", [dict(l_lo=math.nan), dict(l_hi=math.inf), dict(l_lo=5.0, l_hi=1.0),
                                    dict(l_lo=None)])
def test_crossover_distance_rejects_bad_bounds(kwargs):
    with pytest.raises(ValueError, match=r"^(l_lo|l_hi) must (be finite|lie in|be a real number)"):
        crossover_distance(**kwargs)
