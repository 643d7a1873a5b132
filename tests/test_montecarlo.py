import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd2way import protocol as protocol_module
from qkd2way import qsim
from qkd2way.attacks import AttackParams, check_channel
from qkd2way.infotheory import curve_points, secrecy, threshold
from qkd2way.montecarlo import (
    ENGINE,
    BatchReport,
    RateReport,
    failure_text,
    predicted_rates,
    report_text,
    run_batch,
    wilson_interval,
)
from qkd2way.protocol import (
    RATE_NAMES,
    ProtocolConfig,
    RoundRecord,
    Tallies,
    _LeafAlphabet,
    enumerate_round,
    run,
    run_round,
    tally,
    write_round_log,
)
from qkd2way.rng import Branching, coin, enumerate_paths, stream


def test_predicted_rates_closed_forms():
    ir = predicted_rates("lm05", AttackParams(kind="ir", xi=0.5))
    assert ir == {"q1": 0.125, "q_ab": 0.125, "q_ae": 0.0, "q_be": 0.25}
    nort = predicted_rates("lm05", AttackParams(kind="nort", x=math.pi / 3))
    assert nort["q1"] == pytest.approx(0.125)
    assert nort["q_ae"] == pytest.approx((1 - math.sin(math.pi / 3)) / 2)
    assert nort["q_be"] == pytest.approx((2 - math.sin(math.pi / 3)) / 4)
    star = predicted_rates("lm05", AttackParams(kind="dcnot_star", xi=0.8, chi=0.2))
    assert star == {"q1": 0.2, "q_ab": pytest.approx(0.16), "q_ae": 0.0, "q_be": 0.0}
    bb84 = predicted_rates("bb84", AttackParams(kind="ir"))
    assert bb84["q1"] == 0.25 and bb84["q_be"] == 0.25
    with pytest.raises(ValueError):
        predicted_rates("bb84", AttackParams(kind="dcnot"))


@pytest.mark.parametrize("protocol,attack", [("xyz", AttackParams(kind="ir")),
                                             ("LM05", AttackParams(kind="nort"))])
def test_predicted_rates_refuses_an_unknown_protocol(protocol, attack):
    # an unknown name used to get LM05's closed forms
    with pytest.raises(ValueError, match=f"unknown protocol '{protocol}'"):
        predicted_rates(protocol, attack)


def test_wilson_interval_basic_properties():
    lo, hi = wilson_interval(25, 100)
    assert 0.0 <= lo <= 0.25 <= hi <= 1.0
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == 0.0 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


@pytest.mark.parametrize("errors,trials,field", [(5, 3, "errors"), (-1, 3, "errors"), (1.5, 3, "errors"),
                                                 (True, 3, "errors"), (1, 3.0, "trials"), (1, "3", "trials")])
def test_wilson_interval_refuses_bad_counts_by_name(errors, trials, field):
    with pytest.raises(ValueError, match=field):
        wilson_interval(errors, trials)


@pytest.mark.parametrize("z", [math.nan, -1.96, math.inf, 0.0, True, "2"])
def test_wilson_interval_refuses_a_bad_z_by_name(z):
    # each of these used to give a zero-width interval, or a TypeError
    with pytest.raises(ValueError, match="z must"):
        wilson_interval(5, 10, z=z)


@given(errors=st.integers(min_value=0, max_value=1000), extra=st.integers(min_value=0, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_wilson_interval_stays_in_unit_range(errors, extra):
    trials = errors + extra + 1
    lo, hi = wilson_interval(errors, trials, z=5.0)
    assert 0.0 <= lo <= hi <= 1.0
    assert lo <= errors / trials <= hi


def test_wilson_interval_coverage_self_test():
    # calibrated Bernoulli stream: the 95% interval must cover p >= 93% of the time
    p = 0.3
    reps, n = 1000, 400
    rng = stream(101)
    draws = rng.binomial(n, p, size=reps)
    covered = sum(lo <= p <= hi for lo, hi in (wilson_interval(int(k), n) for k in draws))
    assert covered >= 0.93 * reps


def test_run_batch_is_reproducible():
    config = ProtocolConfig(protocol="lm05", rounds=20_000, seed=33)
    attack = AttackParams(kind="ir", xi=0.5)
    first = run_batch(config, attack)
    second = run_batch(config, attack)
    assert first.tallies == second.tallies
    assert first.rates == second.rates


def test_run_batch_results_independent_of_worker_count():
    config = ProtocolConfig(protocol="lm05", rounds=200_000, seed=35)
    reports = [run_batch(config, workers=w) for w in (1, 2, 3)]
    assert all(r.tallies == reports[0].tallies for r in reports)
    assert [r.workers for r in reports] == [1, 2, 3]
    assert run_batch(dataclasses.replace(config, seed=36)).tallies != reports[0].tallies
    with pytest.raises(ValueError):
        run_batch(config, workers=0)
    workers = run_batch(config, workers=np.int64(2)).workers
    assert workers == 2 and type(workers) is int


@pytest.mark.parametrize("workers", ["2", 1.5, True, None])
def test_run_batch_refuses_a_non_integer_worker_count(workers):
    with pytest.raises(ValueError, match="workers must be an integer"):
        run_batch(ProtocolConfig(rounds=10), workers=workers)


def test_run_batch_equals_merge_of_leaf_tallies():
    # the batch is every leaf's record, tallied as often as the seed's draw picked it
    config = ProtocolConfig(protocol="lm05", rounds=70_000, seed=36)
    attack = AttackParams(kind="dcnot")
    report = run_batch(config, attack)
    table = enumerate_round(config, attack)
    hits = stream(36).multinomial(config.rounds, table.weights)
    merged = tally(record for record, count in zip(table.records, hits) for _ in range(count))
    assert report.tallies == merged
    assert report.leaves == len(table.records) and report.engine == ENGINE


# every mc_verify benchmark scenario, plus BB84 without an attack
EXACT_SCENARIOS = [
    ("lm05", AttackParams(kind="none")),
    ("lm05", AttackParams(kind="ir", xi=1.0)),
    ("lm05", AttackParams(kind="ir", xi=0.5)),
    ("lm05", AttackParams(kind="nort", x=math.pi / 6)),
    ("lm05", AttackParams(kind="nort", x=math.pi / 4)),
    ("lm05", AttackParams(kind="nort", x=math.pi / 3)),
    ("lm05", AttackParams(kind="dcnot")),
    ("lm05", AttackParams(kind="dcnot_star", chi=0.1)),
    ("lm05", AttackParams(kind="nort", x=0.7, x_prime=1.1)),
    ("bb84", AttackParams(kind="ir", xi=1.0)),
    ("bb84", AttackParams(kind="none")),
]
_EXACT_IDS = [f"{p}-{a.kind}-xi{a.xi:g}-x{a.x:.3g}-xp{a.x_prime:.3g}-chi{a.chi:g}"
              for p, a in EXACT_SCENARIOS]


# nort over forward and backward probe angles (ends included), attacked
# fraction and control-mode probability: every rate has a closed form
_NORT_GRID = [(AttackParams(kind="nort", xi=xi, x=x, x_prime=xp), c)
              for x in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2)
              for xp in (0.0, 0.7, 1.1, math.pi / 2)
              for xi in (1.0, 0.3)
              for c in (0.25, 0.6)]
_CLOSED_FORM_CASES = ([(p, a, 0.25) for p, a in EXACT_SCENARIOS]
                      + [("lm05", a, c) for a, c in _NORT_GRID])
_CLOSED_FORM_IDS = _EXACT_IDS + [f"lm05-nort-xi{a.xi:g}-x{a.x:.3g}-xp{a.x_prime:.3g}-c{c:g}"
                                 for a, c in _NORT_GRID]


@pytest.mark.parametrize("protocol,attack,control_prob", _CLOSED_FORM_CASES, ids=_CLOSED_FORM_IDS)
def test_leaf_table_reproduces_closed_forms_exactly(protocol, attack, control_prob):
    table = enumerate_round(ProtocolConfig(protocol=protocol, control_prob=control_prob), attack)
    assert abs(math.fsum(table.weights) - 1.0) <= 1e-12
    # no leaf is a rounding-noise branch of an impossible Born outcome
    assert (table.weights > 1e-12).all()
    exact = table.exact_rates()
    predictions = predicted_rates(protocol, attack)
    if protocol == "lm05" and attack.kind != "none" and attack.xi > 0:
        assert None not in predictions.values()  # every rate of an LM05 attack is gated
    for name, prediction in predictions.items():
        if prediction is not None:
            assert abs(exact[name] - prediction) <= 1e-12, name
    if (protocol, attack.kind) == ("lm05", "none"):
        assert exact["q_ab"] == 0.0


def test_enumerate_round_rejects_weights_not_summing_to_one(monkeypatch):
    # a last stage whose coin has "probability" 1.5 scales every leaf weight by 1.5
    monkeypatch.setattr("qkd2way.protocol._readout", lambda config, strategy, back, rng: coin(rng, 1.5))
    with pytest.raises(ValueError, match="sum to"):
        enumerate_round(ProtocolConfig(protocol="lm05"))


# every attack kind, with nort at its probe-angle ends and dcnot* at two flip
# probabilities (the flip is the memory a sibling path must not see)
_STAGED_ATTACKS = ([("lm05", AttackParams(kind=kind)) for kind in ("none", "dcnot")]
                   + [("lm05", AttackParams(kind="ir", xi=xi)) for xi in (1.0, 0.5)]
                   + [("lm05", AttackParams(kind="dcnot_star", chi=chi)) for chi in (0.1, 0.5)]
                   + [("lm05", AttackParams(kind="nort", x=x, x_prime=xp))
                      for x in (0.0, math.pi / 4, math.pi / 2) for xp in (0.0, 1.1, math.pi / 2)]
                   + [("bb84", AttackParams(kind=kind)) for kind in ("none", "ir")])


@pytest.mark.parametrize("protocol,attack", _STAGED_ATTACKS,
                         ids=[f"{p}-{a.kind}-xi{a.xi:g}-x{a.x:.3g}-xp{a.x_prime:.3g}-chi{a.chi:g}"
                              for p, a in _STAGED_ATTACKS])
def test_staged_enumeration_equals_the_replay_from_the_root(protocol, attack):
    for control_prob in (0.0, 0.25, 1.0):
        for reveal_fraction in (0.1, 1.0):
            config = ProtocolConfig(protocol=protocol, control_prob=control_prob,
                                    reveal_fraction=reveal_fraction)
            weights, records = zip(*enumerate_paths(lambda branch: run_round(config, attack, branch)))
            table = enumerate_round(config, attack)
            assert np.array_equal(table.weights, np.array(weights))
            assert table.records == records
            assert table.counts.tolist() == [
                [c for name in RATE_NAMES for c in getattr(tally([r]), name)] for r in records]


def test_enumeration_flips_each_coin_prefix_once(monkeypatch):
    # the one-function replay flips 1,796 coins for this table
    flips = []
    plain = Branching.coin
    monkeypatch.setattr(Branching, "coin", lambda self, p: flips.append(p) or plain(self, p))
    table = enumerate_round(ProtocolConfig(), AttackParams(kind="nort", x=math.pi / 4))
    assert len(table.records) == 188
    assert len(flips) <= 668


def test_the_first_batch_builds_one_record_per_distinct_leaf(monkeypatch):
    # from a fresh alphabet, a batch checks and builds each leaf value's record
    # once, and no later entry point builds one again
    monkeypatch.setattr(protocol_module, "_ALPHABET", _LeafAlphabet())
    built = []  # the leaf of every record protocol builds
    monkeypatch.setattr(protocol_module, "RoundRecord",
                        lambda *leaf: built.append(leaf) or RoundRecord(*leaf))
    config, attack = ProtocolConfig(rounds=1000), AttackParams(kind="nort", x=math.pi / 4)
    assert run_batch(config, attack).leaves == 188
    assert len(built) == len(set(built)) == 80
    run_batch(config, attack)
    run(config, attack)
    table = enumerate_round(config, attack)
    assert len(built) == 80
    leaves = [leaf for _, leaf in enumerate_paths(*protocol_module._stages(config, attack))]
    assert table.records == tuple(RoundRecord(*leaf) for leaf in leaves)
    assert len(table.records) == 188 and len({id(r) for r in table.records}) == 80


def test_a_bad_leaf_is_refused_by_name_on_every_entry_point(monkeypatch):
    # every Encoding-Mode leaf carries alice_op = 2, which no record holds
    alphabet = _LeafAlphabet()
    monkeypatch.setattr(protocol_module, "_ALPHABET", alphabet)
    plain = protocol_module._readout

    def bad_op(config, strategy, back, rng):
        leaf = plain(config, strategy, back, rng)
        return (*leaf[:5], 2, *leaf[6:]) if leaf[0] == "EM" else leaf

    monkeypatch.setattr(protocol_module, "_readout", bad_op)
    for entry in (run_batch, enumerate_round, run):
        with pytest.raises(ValueError, match="alice_op must be the int 0 or 1, or None, got 2"):
            entry(ProtocolConfig(rounds=1000))
    # a refused call keeps none of its new values
    assert alphabet.rows == {} and alphabet.records == [] and alphabet.counters.shape[0] == 0


def test_tables_share_one_record_per_leaf_value():
    # a record is checked and built once per value and process, not once per table
    attack = AttackParams(kind="nort", x=math.pi / 4)
    first, again = (enumerate_round(ProtocolConfig(), attack).records for _ in range(2))
    assert first == again and all(a is b for a, b in zip(first, again))
    # run's rounds are a Rounds of the table's own records
    rounds = run(ProtocolConfig(rounds=1000), attack)
    assert type(rounds) is protocol_module.Rounds and {id(r) for r in rounds} <= {id(r) for r in first}


_IDENTITY_SCENARIOS = EXACT_SCENARIOS + [("lm05", AttackParams(kind="nort", x=0.0, x_prime=0.0))]


def _qsim_caches():
    return [f for f in vars(qsim).values() if hasattr(f, "cache_info")]


def _clear_qsim_caches():
    for cache in _qsim_caches():
        cache.cache_clear()


@pytest.mark.parametrize("protocol,attack", _IDENTITY_SCENARIOS,
                         ids=_EXACT_IDS + ["lm05-nort-xi1-x0-xp0-chi0"])
def test_kernel_cache_keeps_the_leaf_table_bit_identical(protocol, attack):
    # reference: the same replay with every path started from cleared caches,
    # so no path reuses a quantum step that another path computed
    config = ProtocolConfig(protocol=protocol)

    def cold_path(branch):
        _clear_qsim_caches()
        return run_round(config, attack, branch)

    weights, records = zip(*enumerate_paths(cold_path))
    _clear_qsim_caches()
    cold = enumerate_round(config, attack)
    warm = enumerate_round(config, attack)
    for table in (cold, warm):
        assert np.array_equal(table.weights, np.array(weights))
        assert table.records == records
        assert np.array_equal(table.counts, cold.counts)


@pytest.mark.parametrize("attack", [AttackParams(kind="nort", x=math.pi / 4),
                                    AttackParams(kind="nort", x=0.7, x_prime=1.1)],
                         ids=["nort-pi4", "nort-x0.7-xp1.1"])
def test_repeat_enumeration_misses_no_qsim_cache(attack):
    # a second strategy for the same attack gets the first one's gates, so
    # every step of the repeat is a hit
    enumerate_round(ProtocolConfig(), attack)
    misses = {f.__name__: f.cache_info().misses for f in _qsim_caches()}
    enumerate_round(ProtocolConfig(), attack)
    assert {f.__name__: f.cache_info().misses for f in _qsim_caches()} == misses


def test_a_repeated_verification_pass_misses_no_qsim_cache():
    # one pass over every verification setting fits in each cache, so the
    # second pass recomputes no step; with 512 entries _outcomes missed 491 of its 528 keys
    def one_pass():
        for protocol, attack in EXACT_SCENARIOS:
            enumerate_round(ProtocolConfig(protocol=protocol), attack)

    one_pass()
    misses = {f.__name__: f.cache_info().misses for f in _qsim_caches()}
    one_pass()
    assert {f.__name__: f.cache_info().misses for f in _qsim_caches()} == misses


def test_each_kernel_cache_holds_a_verification_pass_with_headroom(monkeypatch):
    # the rule that sizes qsim._STEPS: each kernel's distinct keys in one pass, times 1.5, fit
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import enumeration_costs

    occupancy = enumeration_costs.kernel_occupancy()
    assert set(occupancy) == {"apply", "attach_ancilla", "_outcomes"}
    for name, (distinct, later_misses) in occupancy.items():
        assert 1.5 * distinct <= qsim._STEPS and later_misses == [0, 0], (name, distinct, later_misses)


def test_qsim_caches_stay_bounded():
    caches = _qsim_caches()
    assert {f.__name__ for f in caches} >= {"apply", "attach_ancilla", "_outcomes", "_expanded_matrix",
                                            "spin_flip", "hadamard", "cnot", "_ancilla_rotation"}
    _clear_qsim_caches()
    for x in np.linspace(0.0, math.pi / 2, 60):
        enumerate_round(ProtocolConfig(), AttackParams(kind="nort", x=float(x), x_prime=1.1))
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cache.__name__
    # the enumerations met more distinct steps than one cache holds, and
    # their paths shared them: most measurements were hits
    assert qsim.apply.cache_info().misses > qsim.apply.cache_info().maxsize
    assert qsim._outcomes.cache_info().hits > 2 * qsim._outcomes.cache_info().misses


# run_batch tallies (seed 11, 20,000 rounds), recorded before the qsim kernels were
# cached, and the round log's sha256 prefix (seed 12, 3,000 rounds), re-taken when
# the record became the round's two ends (sender and receiver)
_PINNED = [
    ("lm05", AttackParams(kind="ir", xi=0.5),
     ((291, 2380), (198, 1531), (0, 7469), (1891, 7469)), "c873b02c7c83d847"),
    ("lm05", AttackParams(kind="nort", x=math.pi / 4),
     ((195, 2525), (361, 1521), (2179, 15040), (4827, 15040)), "8f2eb92d9df7c70e"),
    ("lm05", AttackParams(kind="nort", x=0.7, x_prime=1.1),
     ((128, 2513), (285, 1509), (3218, 15041), (5364, 15041)), "d2a54fda20e22ba9"),
    ("lm05", AttackParams(kind="dcnot_star", chi=0.1),
     ((637, 2506), (139, 1468), (0, 14991), (0, 14991)), "c23db09effbdd36e"),
    ("bb84", AttackParams(kind="ir"),
     ((2382, 9801), (0, 0), (0, 0), (2447, 9801)), "e627009eac48e2a9"),
]


@pytest.mark.parametrize("protocol,attack,tallies,log_digest", _PINNED,
                         ids=[f"{p}-{a.kind}" for p, a, _, _ in _PINNED])
def test_seeded_tallies_and_round_logs_are_pinned(protocol, attack, tallies, log_digest):
    report = run_batch(ProtocolConfig(protocol=protocol, rounds=20_000, seed=11), attack)
    assert report.tallies == Tallies(*tallies)
    log = io.StringIO()
    write_round_log(run(ProtocolConfig(protocol=protocol, rounds=3_000, seed=12), attack), log)
    assert hashlib.sha256(log.getvalue().encode()).hexdigest()[:16] == log_digest


@pytest.mark.parametrize("protocol,attack", EXACT_SCENARIOS, ids=_EXACT_IDS)
def test_per_round_engine_agrees_with_leaf_table(protocol, attack):
    # differential oracle: the round state machine stepped round by round on
    # one sampled stream, against the exact leaf rates, five-sigma gated for
    # every rate, including those without a closed form
    config = ProtocolConfig(protocol=protocol, rounds=20_000, seed=44)
    rounds_stream = stream(44)
    observed = tally(run_round(config, attack, rounds_stream) for _ in range(config.rounds))
    exact = enumerate_round(config, attack).exact_rates()
    for name in RATE_NAMES:
        errors, trials = getattr(observed, name)
        if exact[name] is None:
            assert trials == 0, name
            continue
        lo, hi = wilson_interval(errors, trials, z=5.0)
        assert lo <= exact[name] <= hi, (name, errors, trials, exact[name])


@pytest.mark.parametrize("protocol,attack", EXACT_SCENARIOS, ids=_EXACT_IDS)
@pytest.mark.parametrize("seed", [45, 46])
def test_run_and_run_batch_share_one_stream_layout(protocol, attack, seed):
    config = ProtocolConfig(protocol=protocol, rounds=20_000, seed=seed)
    assert tally(run(config, attack)) == run_batch(config, attack).tallies


_CONFIG = ProtocolConfig(rounds=100)
_WRONG_TYPES = [
    ("model", "'identified'", lambda: secrecy(0.1, "ir", "identified")),
    ("model", "'fixed'", lambda: threshold("ir", "dr", "fixed")),
    ("model", "None", lambda: curve_points("ir", None)),
    ("attack", "'ir'", lambda: run_batch(_CONFIG, "ir")),
    ("attack", "'ir'", lambda: predicted_rates("lm05", "ir")),
    ("attack", "'ir'", lambda: predicted_rates("bb84", "ir")),
    ("attack", "'ir'", lambda: run(_CONFIG, "ir")),
    ("attack", "'ir'", lambda: enumerate_round(_CONFIG, "ir")),
    ("config", "None", lambda: run_batch(None)),
    ("config", "None", lambda: run(None)),
    ("config", "'lm05'", lambda: enumerate_round("lm05")),
    ("config", "None", lambda: run_round(None, AttackParams(), stream(1))),
    ("attack", "'ir'", lambda: run_round(_CONFIG, "ir", stream(1))),
    ("attack", "'ir'", lambda: check_channel("lm05", "ir")),
    ("attack", "'ir'", lambda: check_channel("bb84", "ir")),
]


@pytest.mark.parametrize("name,value,call", _WRONG_TYPES)
def test_an_argument_of_the_wrong_type_is_refused_by_name(name, value, call):
    with pytest.raises(ValueError, match=rf"^{name} must be an? \w+, got {value}$"):
        call()


def test_run_batch_verdicts_pass_for_calibrated_attack():
    config = ProtocolConfig(protocol="lm05", rounds=80_000, seed=37, reveal_fraction=0.5)
    report = run_batch(config, AttackParams(kind="ir"))
    verdicts = {r.name: r.verdict for r in report.rates}
    assert verdicts == {"q1": "PASS", "q_ab": "PASS", "q_ae": "PASS", "q_be": "PASS"}
    assert failure_text(report) is None
    assert 0.0 < report.enumerate_s <= report.elapsed_s
    assert 0.0 < report.draw_s <= report.elapsed_s - report.enumerate_s
    assert report.gate_s >= 0.0


def test_no_attack_report_skips_eve_rates():
    config = ProtocolConfig(protocol="lm05", rounds=5_000, seed=38)
    report = run_batch(config)
    by_name = {r.name: r for r in report.rates}
    assert by_name["q1"].verdict == "PASS"
    assert by_name["q_ae"].trials == 0 and by_name["q_ae"].verdict is None
    assert failure_text(report) is None


def _doctored_report(verdicts):
    rates = tuple(
        RateReport(name, 0, 10, 0.0, 0.0, 0.1, 0.0, verdict)
        for name, verdict in verdicts.items()
    )
    return BatchReport(config=ProtocolConfig(), attack=AttackParams(), rounds=10,
                       workers=1, tallies=Tallies(), rates=rates, elapsed_s=0.1)


def test_failure_text_names_each_failed_gate():
    report = _doctored_report({"q1": "PASS", "q_ab": "FAIL", "q_ae": None, "q_be": "FAIL"})
    text = failure_text(report)
    assert text.startswith("verification FAILED for: q_ab (estimate 0.000000, predicted 0.000000, z=+0.00")
    assert "; q_be (" in text and "q1" not in text and "q_ae" not in text
    assert failure_text(_doctored_report({"q1": "PASS", "q_ae": None})) is None


def test_verify_attacks_says_why_a_scenario_failed(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    monkeypatch.setattr(sys, "argv", ["verify_attacks.py", "--rounds", "100"])
    import verify_attacks

    failing = dataclasses.replace(_doctored_report({"q1": "PASS"}), rates=(
        RateReport("q1", 0, 10, 0.0, 0.0, 0.1, 0.0, "PASS"),
        RateReport("q_ab", 50, 100, 0.5, 0.4, 0.6, 0.1, "FAIL")))
    reports = iter([failing])
    monkeypatch.setattr(verify_attacks, "run_batch",
                        lambda config, attack: next(reports, _doctored_report({"q1": "PASS"})))
    assert verify_attacks.main() == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("verification FAILED")]
    assert failed == [failure_text(failing)]
    assert "z=+13.33" in failed[0] and "outside the 5-sigma band" in failed[0]
    assert lines[-1] == "verdict: FAILURES present"


def test_report_text_contains_verdicts():
    config = ProtocolConfig(protocol="lm05", rounds=2_000, seed=39)
    text = report_text(run_batch(config, AttackParams(kind="ir")))
    assert "q1" in text and "PASS" in text and "seed=39" in text


def test_write_report_formats(tmp_path, capsys):
    from qkd2way.cli import main as cli_main

    config = ProtocolConfig(protocol="lm05", rounds=2_000, seed=40)
    report = run_batch(config, AttackParams(kind="ir"))
    argv = ["simulate", "--attack", "ir", "--rounds", "2000", "--seed", "40"]
    csv_out, jsonl_out = tmp_path / "report.csv", tmp_path / "report.jsonl"
    assert cli_main([*argv, "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("rate,errors,trials")
    assert len(lines) == 5
    assert [row["errors"] for row in csv.DictReader(lines)] == [str(r.errors) for r in report.rates]
    assert cli_main([*argv, "--format", "jsonl", "--out", str(jsonl_out)]) == 0
    rows = [json.loads(line) for line in jsonl_out.read_text().splitlines()]
    assert rows[0]["record"] == "meta" and rows[0]["seed"] == 40
    assert rows[0]["engine"] == ENGINE and rows[0]["leaves"] == report.leaves > 0
    assert [row["rate"] for row in rows[1:]] == ["q1", "q_ab", "q_ae", "q_be"]
    capsys.readouterr()
    assert cli_main([*argv, "--format", "xml", "--out", str(tmp_path / "x")]) == 2
    assert "--format" in capsys.readouterr().err and not (tmp_path / "x").exists()
