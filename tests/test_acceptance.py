"""End-to-end acceptance gates.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live).  The Monte Carlo block runs a million rounds per scenario and
gates every predicted rate at five sigma, so it is slow but flake-free.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qkd2way.attacks import AttackParams
from qkd2way.infotheory import (
    NoiseModel,
    binary_entropy,
    generic_bound,
    threshold,
)
from qkd2way.montecarlo import failure_text, run_batch
from qkd2way.numerics import bisect_first_zero, golden_max
from qkd2way.photonics import (
    LinkBudget,
    crossover_distance,
    optimize_mu,
    secure_gain,
)
from qkd2way.protocol import ProtocolConfig, run, tally
from test_photonics import double_tap_prob, pns_prob, poisson_prob

ROUNDS = 1_000_000
WORKERS = 2
GOLDEN_CROSSOVER_KM = 2.6367  # pinned from the first run of crossover_distance()


def _check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{detail}", flush=True)
    assert ok, f"{name}{detail}"


# --- criterion 1: threshold regression against the reference table -------

THRESHOLD_TABLE = [
    ("IR  LM05-DR", "ir", "dr", 0.119),
    ("IR  LM05-RR", "ir", "rr", 0.250),
    ("IR  BB84", "bb84_ir", "dr", 0.171),
    ("NORT  LM05-DR", "nort", "dr", 0.100),
    ("NORT  LM05-RR", "nort", "rr", 0.250),
    ("NORT  BB84", "bb84_opt", "dr", 0.146),
    ("DCNOT*  LM05-DR", "dcnot_star", "dr", 0.119),
    ("DCNOT*  LM05-RR", "dcnot_star", "rr", 0.119),
    ("Generic  LM05-DR", "generic", "dr", 0.088),
    ("Generic  BB84", "generic", "dr", 0.088),
]


def test_criterion_1_threshold_regression():
    started = time.perf_counter()
    for label, attack, recon, expected in THRESHOLD_TABLE:
        value = threshold(attack, recon)
        _check(f"criterion 1: threshold {label}",
               value is not None and abs(value - expected) <= 5e-4,
               f" (got {value:.6f}, want {expected:.3f} +- 0.0005)")
    # the left edge of the clamped bound's plateau at one bit
    full_info = bisect_first_zero(lambda q: 1.0 - generic_bound(q), 1e-12, 0.5, tol=1e-9)
    _check("criterion 1: generic full-information point",
           abs(full_info - 0.189) <= 5e-4, f" (got {full_info:.6f})")
    elapsed = time.perf_counter() - started
    _check("criterion 1: analytic block under one second", elapsed < 1.0,
           f" ({elapsed:.3f}s)")


# --- criterion 2: closed-form anchor values ------------------------------

def test_criterion_2_closed_form_anchors():
    leak = 1.0 - binary_entropy(0.25)
    _check("criterion 2: 1 - H(1/4) anchor", abs(leak - 0.188722) <= 1e-6,
           f" (got {leak:.9f})")
    q1 = 0.10
    sin_x = math.sqrt(1.0 - (1.0 - 4.0 * q1) ** 2)
    residual = abs(q1 - (1.0 - sin_x) / 2.0)
    _check("criterion 2: probe-angle identity at q1 = 0.10", residual < 1e-9,
           f" (residual {residual:.2e})")
    nort_dr = threshold("nort", "dr")
    _check("criterion 2: nort DR threshold sits on the identity",
           abs(nort_dr - 0.10) <= 5e-4, f" (got {nort_dr:.6f})")
    opt = threshold("bb84_opt", "dr")
    exact = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
    _check("criterion 2: optimal BB84 threshold equals (1 - 1/sqrt 2)/2",
           abs(opt - exact) <= 1e-6, f" (got {opt:.9f}, exact {exact:.9f})")


# --- criterion 3: Monte Carlo versus the closed forms ---------------------

MC_SCENARIOS = [
    ("ir xi=0.5", AttackParams(kind="ir", xi=0.5)),
    ("ir xi=1", AttackParams(kind="ir", xi=1.0)),
    ("nort x=pi/6", AttackParams(kind="nort", x=math.pi / 6)),
    ("nort x=pi/4", AttackParams(kind="nort", x=math.pi / 4)),
    ("nort x=pi/3", AttackParams(kind="nort", x=math.pi / 3)),
    ("dcnot xi=1", AttackParams(kind="dcnot")),
    ("dcnot* chi=0.1", AttackParams(kind="dcnot_star", chi=0.1)),
]


@pytest.mark.parametrize("label,attack", MC_SCENARIOS, ids=[s[0] for s in MC_SCENARIOS])
def test_criterion_3_monte_carlo_vs_analytic(label, attack):
    config = ProtocolConfig(protocol="lm05", rounds=ROUNDS, seed=20050920,
                            control_prob=0.25, reveal_fraction=0.1)
    report = run_batch(config, attack, workers=WORKERS)
    failure = failure_text(report)
    rates = {r.name: r for r in report.rates}
    detail = " ".join(
        f"{r.name}={r.estimate:.5f}~{r.prediction:.5f}" for r in report.rates
        if r.estimate is not None and r.prediction is not None
    )
    _check(f"criterion 3: {label} five-sigma gate", failure is None,
           f" ({detail}){'; ' + failure if failure else ''}")
    if attack.kind == "dcnot":
        _check("criterion 3: dcnot announced-QBER numerator exactly zero",
               rates["q_ab"].errors == 0, f" (errors {rates['q_ab'].errors})")
        _check("criterion 3: dcnot Eve guesses exactly right",
               rates["q_ae"].errors == 0 and rates["q_be"].errors == 0)


def test_criterion_3_verify_attacks_script_passes_every_scenario(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    monkeypatch.setattr(sys, "argv", ["verify_attacks.py", "--rounds", "20000"])
    import verify_attacks

    assert verify_attacks.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: all scenarios PASS"


# --- criterion 4: noiseless determinism -----------------------------------

def test_criterion_4_noiseless_determinism():
    config = ProtocolConfig(protocol="lm05", rounds=100_000, seed=41,
                            control_prob=0.0, reveal_fraction=1.0)
    records = run(config)
    combos = {(r.sender_basis, r.sender_bit, r.alice_op) for r in records}
    _check("criterion 4: all 8 (state, op) pairs exercised", len(combos) == 8)
    errors = sum(r.receiver_outcome ^ r.sender_bit != r.alice_op for r in records)
    _check("criterion 4: noiseless decoding error rate exactly zero",
           errors == 0, f" ({errors} errors in {len(records)} rounds)")
    t = tally(records)
    _check("criterion 4: announced-QBER tally exactly zero",
           t.q_ab == (0, len(records)))


# --- criterion 5: photonics ------------------------------------------------

def test_criterion_5_photonics():
    mu_grid = [0.005 * i for i in range(1, 401)]  # (0, 2]
    worst = 0.0
    for mu in mu_grid:
        bb84_series = sum(poisson_prob(n, mu) for n in range(2, 90))
        lm05_series = sum(poisson_prob(n, mu) for n in range(3, 90)) - 0.5 * poisson_prob(3, mu)
        worst = max(worst,
                    abs(pns_prob("bb84", mu) - bb84_series),
                    abs(pns_prob("lm05", mu) - lm05_series))
    _check("criterion 5: PNS closed forms match Poisson series to 1e-10",
           worst <= 1e-10, f" (worst {worst:.2e})")

    worst_r1 = 0.0
    for mu in (0.05, 0.1, 0.5, 1.0):
        r1_star, _ = golden_max(lambda r1: double_tap_prob(r1, 1.0, mu), 0.0, 1.0, tol=1e-9)
        worst_r1 = max(worst_r1, abs(r1_star - 0.5))
    _check("criterion 5: half reflectivity maximizes the double tap",
           worst_r1 <= 1e-4, f" (worst |r1 - 1/2| = {worst_r1:.2e})")

    dominated = all(
        optimize_mu("secure_gain", "bb84", float(length))[1]
        >= optimize_mu("secure_gain", "lm05", float(length))[1]
        for length in np.linspace(0.0, 50.0, 51)
    )
    _check("criterion 5: BB84 secure gain dominates at every distance", dominated)

    crossover = crossover_distance()
    _check("criterion 5: PNS crossover inside [2.0, 3.0] km",
           2.0 <= crossover <= 3.0, f" (got {crossover:.4f} km)")
    _check("criterion 5: PNS crossover matches the pinned golden value",
           abs(crossover - GOLDEN_CROSSOVER_KM) <= 0.02,
           f" (got {crossover:.4f} km, golden {GOLDEN_CROSSOVER_KM} km)")


# --- criterion 6: property suites runnable standalone ----------------------

PROPERTY_SUITES = ("test_qsim.py", "test_infotheory.py", "test_montecarlo.py")


def test_criterion_6_property_suites_standalone():
    # the suites run in full as part of this test session; here we verify
    # each file also collects cleanly on its own
    tests_dir = Path(__file__).parent
    for name in PROPERTY_SUITES:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             str(tests_dir / name)],
            capture_output=True, text=True, timeout=120,
        )
        _check(f"criterion 6: {name} collects standalone", proc.returncode == 0,
               f" (exit {proc.returncode})")
