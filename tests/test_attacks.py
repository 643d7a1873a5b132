import math
import re
from functools import lru_cache

import numpy as np
import pytest

from qkd2way import cli
from qkd2way.attacks import ATTACK_KINDS, NO_ATTACK, ONE_WAY_KINDS, AttackParams, make_strategy
from qkd2way.montecarlo import predicted_rates, run_batch
from qkd2way.protocol import ProtocolConfig, enumerate_round, run, run_round, tally
from qkd2way.qsim import Basis, ancilla_rotation, apply, attach_ancilla, prepare
from qkd2way.rng import stream


def test_params_validation():
    with pytest.raises(ValueError):
        AttackParams(kind="trojan")
    with pytest.raises(ValueError):
        AttackParams(kind="ir", xi=2.0)
    with pytest.raises(ValueError):
        AttackParams(kind="nort", x=-0.5)
    with pytest.raises(ValueError):
        AttackParams(kind="dcnot_star", chi=0.7)


@pytest.mark.parametrize("field,value", [("xi", None), ("x", "1"), ("x_prime", None), ("chi", "0"),
                                         ("xi", True)])
def test_params_refuse_non_numeric_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        AttackParams(kind="nort", **{field: value})


def test_params_accept_numpy_floats():
    params = AttackParams(kind="nort", xi=np.float32(0.5), x=np.float64(0.7), x_prime=np.float32(1.1))
    assert enumerate_round(ProtocolConfig(), params).exact_rates()["q1"] > 0.0


@lru_cache(maxsize=None)
def _stats(kind, xi=1.0, x=None, x_prime=None, chi=0.0, n=150_000, seed=11):
    kwargs = {"kind": kind, "xi": xi, "chi": chi}
    if x is not None:
        kwargs["x"] = x
    if x_prime is not None:
        kwargs["x_prime"] = x_prime
    config = ProtocolConfig(protocol="lm05", rounds=n, seed=seed,
                            control_prob=0.25, reveal_fraction=0.5)
    records = run(config, AttackParams(**kwargs))
    total = tally(records)
    per_basis = {
        basis: tally([r for r in records if r.sender_basis is basis])
        for basis in (Basis.Z, Basis.X)
    }
    em_rounds = sum(r.mode == "EM" for r in records)
    guessed = sum(r.mode == "EM" and r.eve_alice_guess is not None for r in records)
    return total, per_basis, em_rounds, guessed


def _band(p, trials, z=5.0):
    return z * math.sqrt(p * (1.0 - p) / trials)


def test_ir_full_strength_rates():
    t, _, _, _ = _stats("ir")
    assert abs(t.rate("q1") - 0.25) <= _band(0.25, t.q1[1])
    assert abs(t.rate("q_ab") - 0.25) <= _band(0.25, t.q_ab[1])
    assert t.q_ae[0] == 0  # the double readout recovers Alice's operation exactly
    assert abs(t.rate("q_be") - 0.25) <= _band(0.25, t.q_be[1])


def test_ir_fractional_attack_scales_q1():
    t, _, em, guessed = _stats("ir", xi=0.5)
    assert abs(t.rate("q1") - 0.125) <= _band(0.125, t.q1[1])
    # key-bit error stays 1/4 over the rounds Eve actually read
    assert abs(t.rate("q_be") - 0.25) <= _band(0.25, t.q_be[1])
    assert abs(guessed / em - 0.5) <= _band(0.5, em)


def test_ir_switched_off_is_a_no_op():
    t, _, _, guessed = _stats("ir", xi=0.0, n=40_000)
    assert t.q1[0] == 0 and t.q_ab[0] == 0
    assert guessed == 0 and t.q_ae[1] == 0 and t.q_be[1] == 0


def test_unattacked_rounds_leave_no_guesses():
    config = ProtocolConfig(protocol="lm05", rounds=20_000, seed=13, control_prob=0.2)
    records = run(config, AttackParams(kind="nort", xi=0.4, x=math.pi / 4))
    for r in records:
        if r.mode != "EM":
            continue
        if r.attacked:
            assert r.eve_alice_guess is not None and r.eve_bob_guess is not None
        else:
            assert r.eve_alice_guess is None and r.eve_bob_guess is None


def test_nort_rates_at_pi_third():
    x = math.pi / 3
    t, _, _, _ = _stats("nort", x=x)
    q1 = (1.0 - math.cos(x)) / 4.0
    q_ae = (1.0 - math.sin(x)) / 2.0
    q_be = (2.0 - math.sin(x)) / 4.0
    assert abs(t.rate("q1") - q1) <= _band(q1, t.q1[1])
    assert abs(t.rate("q_ae") - q_ae) <= _band(q_ae, t.q_ae[1])
    assert abs(t.rate("q_be") - q_be) <= _band(q_be, t.q_be[1])
    # the misaligned backward copy scrambles half the announced rounds
    assert abs(t.rate("q_ab") - 0.25) <= _band(0.25, t.q_ab[1])


def test_nort_orthogonal_probes_copy_perfectly():
    t, _, _, _ = _stats("nort", x=math.pi / 2, n=60_000)
    assert t.q_ae[0] == 0
    assert abs(t.rate("q1") - 0.25) <= _band(0.25, t.q1[1])


def test_nort_parallel_probes_leave_forward_channel_clean():
    t, _, _, _ = _stats("nort", x=0.0, n=60_000)
    assert t.q1[0] == 0
    # parallel probes carry no information: Eve's guess is a coin flip
    assert abs(t.rate("q_ae") - 0.5) <= _band(0.5, t.q_ae[1])


def test_the_z_readout_of_a_nort_probe_pair_is_its_helstrom_measurement():
    # the probe states e_b that ancilla_rotation(x) writes for qubit bit b
    for x in np.linspace(0.0, math.pi / 2, 25):
        probes = [apply(attach_ancilla(prepare(Basis.Z, b)), ancilla_rotation(x, 0, 1))
                  .amps.reshape(2, 2)[b] for b in (0, 1)]
        rho = [np.outer(e, e.conj()) for e in probes]
        helstrom = (1.0 - 0.5 * np.abs(np.linalg.eigvalsh(rho[0] - rho[1])).sum()) / 2.0
        z_readout = (abs(probes[0][1]) ** 2 + abs(probes[1][0]) ** 2) / 2.0
        q_ae = make_strategy("lm05", AttackParams(kind="nort", x=x, x_prime=math.pi / 2)).attacked_rates()[2]
        for error in (z_readout, (1.0 - math.sin(x)) / 2.0, q_ae):
            assert helstrom == pytest.approx(error, abs=1e-12), x


def test_dcnot_copies_silently():
    t, per_basis, _, _ = _stats("dcnot")
    assert t.q_ab[0] == 0  # the returning state is exactly the expected one
    assert t.q_ae[0] == 0 and t.q_be[0] == 0
    assert abs(t.rate("q1") - 0.25) <= _band(0.25, t.q1[1])
    # detectable only through the X-basis control rounds
    z_tally, x_tally = per_basis[Basis.Z], per_basis[Basis.X]
    assert z_tally.q1[0] == 0
    assert abs(x_tally.rate("q1") - 0.5) <= _band(0.5, x_tally.q1[1])


def test_dcnot_star_injects_tunable_noise():
    chi = 0.1
    t, _, _, _ = _stats("dcnot_star", chi=chi)
    assert abs(t.rate("q_ab") - chi) <= _band(chi, t.q_ab[1])
    assert t.q_ae[0] == 0
    assert t.q_be[0] == 0  # Eve folds her own flips into the key-bit guess
    assert abs(t.rate("q1") - 0.25) <= _band(0.25, t.q1[1])


@pytest.mark.parametrize("kind,xi,x,chi,expected", [
    ("ir", 0.3, None, 0.0, 0.25 * 0.3),
    ("nort", 0.6, math.pi / 4, 0.0, 0.6 * (1 - math.cos(math.pi / 4)) / 4),
    ("dcnot", 0.7, None, 0.0, 0.25 * 0.7),
    ("dcnot_star", 0.4, None, 0.2, 0.25 * 0.4),
])
def test_q1_closed_forms_scale_with_attacked_fraction(kind, xi, x, chi, expected):
    t, _, _, _ = _stats(kind, xi=xi, x=x, chi=chi, n=120_000, seed=29)
    assert abs(t.rate("q1") - expected) <= _band(expected, t.q1[1])


@pytest.mark.parametrize("kind,x", [("ir", None), ("nort", math.pi / 3)])
def test_symmetric_attacks_disturb_both_bases_equally(kind, x):
    _, per_basis, _, _ = _stats(kind, x=x)
    z_tally, x_tally = per_basis[Basis.Z], per_basis[Basis.X]
    rz, rx = z_tally.rate("q1"), x_tally.rate("q1")
    pooled = (z_tally.q1[0] + x_tally.q1[0]) / (z_tally.q1[1] + x_tally.q1[1])
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / z_tally.q1[1] + 1 / x_tally.q1[1]))
    assert abs(rz - rx) <= 5.0 * sigma


@pytest.mark.parametrize("kind", ["ir", "nort", "dcnot", "dcnot_star"])
def test_a_round_left_alone_calls_no_hook_after_start(kind, monkeypatch):
    params = AttackParams(kind=kind, xi=0.0, chi=0.5)
    strategy = make_strategy("lm05", params)
    rng = stream(3)
    assert all(strategy.start(rng) is None for _ in range(50))

    def refuse(*args):
        raise AssertionError("hook called in a round Eve left alone")

    for hook in ("forward", "backward", "finalize"):
        monkeypatch.setattr(type(strategy), hook, refuse)
    table = enumerate_round(ProtocolConfig(protocol="lm05"), params)
    assert not any(r.attacked or r.eve_bob_guess is not None for r in table.records)


_TWO_WAY_ONLY = ("nort", "dcnot", "dcnot_star")


@pytest.mark.parametrize("kind", _TWO_WAY_ONLY)
@pytest.mark.parametrize("entry", ["simulate", "run", "run_round", "enumerate_round", "run_batch",
                                   "predicted_rates"])
def test_every_entry_point_refuses_a_two_way_attack_on_bb84_alike(entry, kind, capsys):
    # the one-way list in attacks is the one check; the CLI and run_batch used to
    # say "is not defined for bb84" where run and enumerate_round said this
    message = f"attack {kind!r} needs the two-way channel; BB84 supports none/ir"
    config, params = ProtocolConfig(protocol="bb84", rounds=100), AttackParams(kind=kind)
    if entry == "simulate":
        argv = ["simulate", "--protocol", "bb84", "--attack", kind.replace("_", "-"), "--rounds", "100"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        return
    calls = {"run": lambda: run(config, params),
             "run_round": lambda: run_round(config, params, stream(0)),
             "enumerate_round": lambda: enumerate_round(config, params),
             "run_batch": lambda: run_batch(config, params),
             "predicted_rates": lambda: predicted_rates("bb84", params)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calls[entry]()


def test_attack_kinds_are_the_strategy_table():
    assert ATTACK_KINDS == ("none", "ir", "nort", "dcnot", "dcnot_star")
    # the CLI spells each kind with "-" for "_" in a literal tuple, as it may not import attacks
    assert cli._SIM_ATTACKS == tuple(sorted(kind.replace("_", "-") for kind in ATTACK_KINDS))
    assert set(ONE_WAY_KINDS) | set(_TWO_WAY_ONLY) == set(ATTACK_KINDS)
    assert NO_ATTACK == AttackParams(kind="none")
