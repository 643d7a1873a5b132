import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd2way.infotheory import (
    EVE_MODELS,
    IDENTIFIED,
    InfoPoint,
    NoiseModel,
    binary_entropy,
    curve_points,
    generic_bound,
    secrecy,
    threshold,
)
from qkd2way.cli import CURVE_COLUMNS
from qkd2way.numerics import bisect_first_zero, grid
from qkd2way.cli import main as cli_main

# exact binary-channel leak at a quarter error rate: 1 - H(1/4) = 0.75 log2(3) - 1
I_BE_QUARTER = 1.0 - binary_entropy(0.25)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # independent algebraic form: H(1/4) = 2 - (3/4) log2 3
    assert abs(binary_entropy(0.25) - (2.0 - 0.75 * math.log2(3.0))) <= 1e-12
    assert abs(binary_entropy(0.25) - 0.811278) <= 1e-6
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("weird")
    with pytest.raises(ValueError):
        NoiseModel("fixed", 0.7)
    assert NoiseModel("fixed", 0.1).q_ab(0.03) == 0.1
    assert IDENTIFIED.q_ab(0.03) == 0.03


@pytest.mark.parametrize("value", [None, "0.1", False])
def test_fixed_noise_model_refuses_a_non_numeric_value_by_name(value):
    # None and "0.1" used to raise TypeError, and False passed as Q_AB = 0
    with pytest.raises(ValueError, match="fixed Q_AB must be a real number"):
        NoiseModel("fixed", value)
    model = NoiseModel("fixed", np.float32(0.25))
    assert model == NoiseModel("fixed", 0.25) and type(model.value) is float


@pytest.mark.parametrize("value", ["junk", None, 0.1, -0.1, math.nan, True])
def test_identified_noise_model_takes_only_zero(value):
    # the kind ignores its value, so any other value used to be stored, and
    # NoiseModel("identified", None) compared unequal to IDENTIFIED
    with pytest.raises(ValueError, match=f"identified model value .*got {re.escape(repr(value))}$"):
        NoiseModel("identified", value)
    with pytest.raises(ValueError, match="identified model value"):
        IDENTIFIED._replace(value=value)
    for zero in (0, np.float64(0.0), np.int64(0)):
        model = NoiseModel("identified", zero)
        assert model == IDENTIFIED and hash(model) == hash(IDENTIFIED) and type(model.value) is float


def test_curve_points_refuses_a_bool_grid_step():
    with pytest.raises(ValueError, match="grid_step must be a real number, got True"):
        curve_points("ir", grid_step=True)


def test_noise_model_and_info_point_are_immutable_values():
    assert NoiseModel() == NoiseModel(kind="identified", value=0.0) == IDENTIFIED
    model = NoiseModel(kind="fixed", value=0.1)
    point = InfoPoint(q1=0.1, i_ab=0.5, i_ae=0.4, i_be=0.3, c_dr=0.1, c_rr=0.2)
    for value, same, other in ((model, NoiseModel("fixed", 0.1), NoiseModel("fixed", 0.2)),
                               (point, InfoPoint(0.1, 0.5, 0.4, 0.3, 0.1, 0.2),
                                point._replace(c_rr=0.3))):
        assert value == same and hash(value) == hash(same) and value != other
        with pytest.raises(AttributeError):
            setattr(value, value._fields[-1], 0.0)
        with pytest.raises(AttributeError):
            value.note = "no per-instance attributes"
    with pytest.raises(ValueError, match=r"fixed Q_AB must lie in \[0, 0.5\]"):
        model._replace(value=0.7)
    with pytest.raises(TypeError, match="Expected 2 arguments, got 1"):
        NoiseModel._make(["fixed"])
    # the curves command writes InfoPoints as its rows
    assert InfoPoint._fields == tuple(column.lower() for column in CURVE_COLUMNS)


def test_ir_curve_endpoint():
    point = secrecy(0.25, "ir")
    assert point.i_ae == pytest.approx(1.0, abs=1e-12)
    assert point.i_be == pytest.approx(0.188722, abs=1e-6)


def test_dcnot_star_curve_is_linear():
    point = secrecy(0.125, "dcnot_star")
    assert (point.i_ae, point.i_be) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_nort_curve_identity_at_ten_percent():
    # at q1 = 0.10: cos x = 0.6, sin x = 0.8, so Eve's error is exactly q1
    q1 = 0.10
    assert abs(secrecy(q1, "nort").i_ae - (1.0 - binary_entropy(q1))) <= 1e-9


def test_generic_bound_reaches_full_information():
    assert 1.0 - 2e-3 <= generic_bound(0.189) < 1.0  # just below the full-information point
    assert generic_bound(0.3) == 1.0  # clamped
    assert generic_bound(0.0) == 0.0


def test_curves_zero_at_origin():
    for attack in EVE_MODELS:
        point = secrecy(0.0, attack)
        assert point.i_ae == pytest.approx(0.0, abs=1e-12)
        assert point.i_be == pytest.approx(0.0, abs=1e-12)


def test_curve_domain_validation():
    with pytest.raises(ValueError):
        secrecy(0.3, "ir")
    with pytest.raises(ValueError):
        secrecy(0.6, "bb84_opt")
    with pytest.raises(ValueError):
        secrecy(0.1, "unknown")


@pytest.mark.parametrize("q1", [None, "0.1", True])
def test_a_q1_that_is_not_a_number_is_refused_by_name(q1):
    message = f"^q1 must be a real number, got {re.escape(repr(q1))}$"
    with pytest.raises(ValueError, match=message):
        secrecy(q1, "ir")


@given(q1=st.floats(min_value=0.0, max_value=0.25, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_information_values_stay_in_unit_interval(q1):
    for attack in EVE_MODELS:
        point = secrecy(q1, attack)
        assert 0.0 <= point.i_ab <= 1.0
        assert 0.0 <= point.i_ae <= 1.0
        assert 0.0 <= point.i_be <= 1.0
        assert -1.0 <= point.c_dr <= 1.0
        assert -1.0 <= point.c_rr <= 1.0


@pytest.mark.parametrize("attack", EVE_MODELS)
def test_eve_information_is_monotone_in_q1(attack):
    dmax = 0.25 if attack not in ("generic", "bb84_opt") else 0.5
    grid = [dmax * i / 400 for i in range(401)]
    values = [(p.i_ae, p.i_be) for p in (secrecy(q, attack) for q in grid)]
    for (a0, b0), (a1, b1) in zip(values, values[1:]):
        assert a1 >= a0 - 1e-12
        assert b1 >= b0 - 1e-12


def test_i_ab_monotone_decreasing_under_identified_model():
    grid = [0.5 * i / 200 for i in range(201)]
    values = [secrecy(q, "generic").i_ab for q in grid]
    for v0, v1 in zip(values, values[1:]):
        assert v1 <= v0 + 1e-12


def test_generic_bound_dominates_nort_at_low_qber():
    for i in range(101):
        q1 = 0.1 * i / 100
        assert secrecy(q1, "generic").i_ae >= secrecy(q1, "nort").i_ae - 1e-12


TABLE_EXPECTED = [
    ("ir", "dr", 0.119),
    ("ir", "rr", 0.250),
    ("bb84_ir", "dr", 0.171),
    ("nort", "dr", 0.100),
    ("nort", "rr", 0.250),
    ("bb84_opt", "dr", 0.146),
    ("dcnot_star", "dr", 0.119),
    ("dcnot_star", "rr", 0.119),
    ("generic", "dr", 0.088),
]


@pytest.mark.parametrize("attack,recon,expected", TABLE_EXPECTED)
def test_threshold_table(attack, recon, expected):
    value = threshold(attack, recon)
    assert value is not None
    assert abs(value - expected) <= 5e-4


def test_bb84_optimal_threshold_closed_form():
    value = threshold("bb84_opt", "dr")
    assert abs(value - (1.0 - 1.0 / math.sqrt(2.0)) / 2.0) <= 1e-6


def test_nort_dr_threshold_satisfies_exact_identity():
    q1 = threshold("nort", "dr")
    cos_x = 1.0 - 4.0 * q1
    sin_x = math.sqrt(1.0 - cos_x * cos_x)
    assert abs(q1 - 0.10) <= 5e-4
    # at the root Eve's discrimination error equals the control QBER itself
    assert abs(0.10 - (1.0 - math.sqrt(1.0 - (1.0 - 4 * 0.10) ** 2)) / 2.0) < 1e-9
    assert abs(q1 - (1.0 - sin_x) / 2.0) <= 1e-5


def test_full_information_point():
    # bisection keeps the positive side on the left, so it finds the left edge of the
    # clamped bound's plateau at one bit: where the unclamped bound first exceeds it
    full_info = bisect_first_zero(lambda q: 1.0 - generic_bound(q), 1e-12, 0.5, tol=1e-9)
    assert full_info == 0.1892896252690509
    assert abs(full_info - 0.189) <= 5e-4


def test_secure_everywhere_returns_none():
    # with a perfectly quiet announced channel, intercept-resend never
    # catches up with I_AB = 1 in reverse reconciliation
    assert threshold("ir", "rr", NoiseModel("fixed", 0.0)) is None


def test_threshold_is_zero_when_no_q1_is_secure():
    # a fixed Q_AB of 1/2 gives I_AB = 0, so the capacity is not positive at q1 = 0
    for attack in ("ir", "nort", "dcnot_star", "generic", "bb84_ir", "bb84_opt"):
        assert threshold(attack, "dr", NoiseModel("fixed", 0.5)) == 0.0
    assert threshold("ir", "rr", NoiseModel("fixed", 0.5)) == 0.0


def test_boundary_threshold_under_fixed_model():
    # I_AE = I_BE = 4 q1 meets I_AB = 1 exactly at the domain edge
    value = threshold("dcnot_star", "rr", NoiseModel("fixed", 0.0))
    assert value == pytest.approx(0.25, abs=5e-4)


def test_dcnot_full_strength_saturates_capacities():
    point = secrecy(0.25, "dcnot_star", NoiseModel("fixed", 0.0))
    assert point.i_ab == pytest.approx(1.0, abs=1e-12)
    assert point.i_ae == pytest.approx(1.0, abs=1e-12)
    assert point.c_dr == pytest.approx(0.0, abs=1e-12)
    assert point.c_rr == pytest.approx(0.0, abs=1e-12)


def test_quiet_backward_channel_scenario():
    # q1 = 15% with a quiet announced channel: BB84 cannot distill a key
    # under the optimal individual attack, the two-way protocol still can
    bb84 = secrecy(0.15, "bb84_opt", IDENTIFIED)
    assert bb84.c_dr <= 0.0
    lm05 = secrecy(0.15, "nort", NoiseModel("fixed", 0.0))
    assert lm05.c_dr > 0.0


def test_capacity_identities_in_info_points():
    point = secrecy(0.07, "nort")
    assert point.c_dr == pytest.approx(point.i_ab - point.i_ae, abs=1e-15)
    assert point.c_rr == pytest.approx(point.i_ab - point.i_be, abs=1e-15)


def test_curve_points_grid_and_csv(tmp_path):
    points = curve_points("ir", grid_step=0.05)
    assert [round(p.q1, 6) for p in points] == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
    assert points[0].i_ab == 1.0 and points[0].i_ae == 0.0
    assert points[-1].i_ae == pytest.approx(1.0, abs=1e-12)
    out = tmp_path / "ir.csv"
    assert cli_main(["curves", "--attack", "ir", "--grid-step", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q1,I_AB,I_AE,I_BE,C_DR,C_RR"
    assert len(lines) == len(points) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


@pytest.mark.parametrize("call", [lambda: threshold("bogus"), lambda: curve_points("bogus")],
                         ids=["threshold", "curve_points"])
def test_unknown_curve_raises_value_error_listing_the_models(call):
    with pytest.raises(ValueError, match="expected one of") as info:
        call()
    assert all(name in str(info.value) for name in EVE_MODELS)


@pytest.mark.parametrize("model", [IDENTIFIED, NoiseModel("fixed", 0.11)], ids=["identified", "fixed"])
@pytest.mark.parametrize("attack", EVE_MODELS)
def test_curve_points_equal_secrecy_on_their_grid_bit_for_bit(attack, model):
    dmax = 0.5 if attack in ("generic", "bb84_opt") else 0.25
    expected = [secrecy(min(q1, dmax), attack, model) for q1 in grid(0.0, 0.001, dmax + 1e-12)]
    assert list(map(repr, curve_points(attack, model))) == list(map(repr, expected))
