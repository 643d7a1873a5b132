import csv
import io
import math
import pickle
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import enumeration_costs  # noqa: E402
import round_log_costs  # noqa: E402

from qkd2way import protocol  # noqa: E402
from qkd2way.attacks import AttackParams  # noqa: E402
from qkd2way.montecarlo import run_batch  # noqa: E402
from qkd2way.protocol import (  # noqa: E402
    ProtocolConfig,
    RoundRecord,
    Rounds,
    Tallies,
    _LeafAlphabet,
    enumerate_round,
    run,
    run_round,
    tally,
    write_round_log,
)
from qkd2way.qsim import Basis, prepare  # noqa: E402
from qkd2way.rng import stream  # noqa: E402


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="e91")
    with pytest.raises(ValueError):
        ProtocolConfig(control_prob=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(reveal_fraction=0.0)


@pytest.mark.parametrize("field,value", [("rounds", 1000.7), ("rounds", 1000.0), ("rounds", True),
                                         ("seed", 1.5), ("seed", None), ("seed", "7")])
def test_config_refuses_non_integer_rounds_and_seed(field, value):
    # a float count would run int(rounds) rounds but report the float
    with pytest.raises(ValueError, match=field):
        ProtocolConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2**64, -2**64])
def test_config_refuses_a_seed_outside_64_bits(seed):
    # a seed used to be folded modulo 2**64, so 2**64 ran the rounds of seed 0
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 18446744073709551615\]"):
        ProtocolConfig(seed=seed)


def test_config_keeps_every_64_bit_seed():
    assert ProtocolConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert run(ProtocolConfig(rounds=50, seed=2**64 - 1)) != run(ProtocolConfig(rounds=50, seed=0))


@pytest.mark.parametrize("field,value", [("control_prob", None), ("reveal_fraction", "0.1"),
                                         ("control_prob", False)])
def test_config_refuses_non_numeric_probabilities(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        ProtocolConfig(**{field: value})


def test_config_accepts_numpy_floats():
    # kept as float32, these would make float32 leaf weights that do not sum to 1
    config = ProtocolConfig(control_prob=np.float32(0.3), reveal_fraction=np.float32(0.1), rounds=10)
    assert config.control_prob == float(np.float32(0.3)) and type(config.reveal_fraction) is float
    assert len(run(config)) == 10


def test_config_accepts_numpy_integers():
    assert len(run(ProtocolConfig(rounds=np.int64(10), seed=np.uint64(2**64 - 1)))) == 10


def test_record_mode_invariants():
    z, x = Basis.Z, Basis.X
    with pytest.raises(ValueError, match="alice_op"):
        RoundRecord("EM", z, 0, z, 0)  # missing alice_op
    with pytest.raises(ValueError, match="alice_op"):
        RoundRecord("CM", z, 0, z, 0, alice_op=1)
    with pytest.raises(ValueError, match="sender's basis"):
        RoundRecord("EM", z, 0, x, 0, alice_op=1)  # Bob measures in his own basis
    with pytest.raises(ValueError, match="unknown mode"):
        RoundRecord("??", z, 0, z, 0)
    assert RoundRecord("CM", z, 0, x, 1).receiver_basis is x  # Alice's basis is her own


def test_a_record_is_a_validated_value_equal_to_its_leaf_tuple():
    z, x = Basis.Z, Basis.X
    record = RoundRecord("EM", z, 1, z, 0, alice_op=1, revealed=True)
    leaf = ("EM", z, 1, z, 0, 1, True, None, None, False)
    assert isinstance(record, tuple) and RoundRecord.__slots__ == ()
    assert record == leaf and hash(record) == hash(leaf) and tuple(record) == leaf
    assert RoundRecord._make(leaf) == record and record._replace(revealed=False) != record
    # the round log's header names the fields
    buffer = io.StringIO()
    write_round_log([], buffer)
    assert buffer.getvalue() == ",".join(RoundRecord._fields) + "\n"
    with pytest.raises(ValueError, match="alice_op"):
        record._replace(alice_op=None)
    with pytest.raises(ValueError, match="sender's basis"):
        record._replace(receiver_basis=x)
    with pytest.raises(ValueError, match="unknown mode"):
        RoundRecord._make(("??", *leaf[1:]))
    with pytest.raises(TypeError, match="Expected 10 arguments, got 5"):
        RoundRecord._make(leaf[:5])
    with pytest.raises(AttributeError):
        record.revealed = False
    with pytest.raises(AttributeError):
        record.note = "no per-instance attributes"


def test_a_record_names_the_field_of_a_bad_value():
    z = Basis.Z
    bad = [(("CM", "Z", 7, None, "x"), "sender_basis must be a Basis"),
           (("CM", z, 1.0, z, 1), "sender_bit must be the int 0 or 1"),  # a float bit
           (("CM", "Z", 1, "Z", 1), "sender_basis must be a Basis"),  # a basis by name
           (("EM", z, 1, z, 1, 2, True), "alice_op must be the int 0 or 1")]
    for fields, message in bad:
        for use in (list, tally, lambda records: write_round_log(records, io.StringIO())):
            with pytest.raises(ValueError, match=message):
                use([RoundRecord(*fields)])
    # a plain tuple is checked as the record it stands for
    plain = [(("EM", z, 0, z, 1, 2, True, 0, 1, True), "alice_op must be the int 0 or 1"),
             (("CM", z, 1, z, 1, None, False, None, None, 1), "attacked must be a bool"),
             (("a,b",) * 10, "unknown mode 'a,b'")]
    for leaf, message in plain:
        for use in (tally, lambda records: write_round_log(records, io.StringIO())):
            with pytest.raises(ValueError, match=message):
                use([leaf] * 3)
    for records in ([(1, 2)], [("a,b",)]):
        for use in (tally, lambda records: write_round_log(records, io.StringIO())):
            with pytest.raises(TypeError, match="Expected 10 arguments"):
                use(records)
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="alice_op"):
        write_round_log([plain[0][0], (1, 2), ("a,b",)], buffer)
    assert buffer.getvalue() == ",".join(RoundRecord._fields) + "\n"  # the header alone
    good = ("EM", z, 1, z, 0, 1, False, None, 0, True)
    for name, value in [("receiver_outcome", True), ("receiver_outcome", None), ("eve_bob_guess", 1.0),
                        ("revealed", 1), ("attacked", None), ("receiver_basis", "Z")]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            RoundRecord._make(good)._replace(**{name: value})
    assert RoundRecord(*good) == good
    # a valid plain leaf tallies and logs like its record
    leaves, records = [good] * 2, [RoundRecord(*good)] * 2
    assert tally(leaves) == tally(records) == Tallies(q_be=(2, 2))
    logs = [io.StringIO(), io.StringIO()]
    write_round_log(leaves, logs[0])
    write_round_log(records, logs[1])
    assert logs[0].getvalue() == logs[1].getvalue() == _plain_round_log(records)


@lru_cache(maxsize=None)
def _noiseless_run():
    config = ProtocolConfig(protocol="lm05", rounds=20_000, seed=3,
                            control_prob=0.0, reveal_fraction=1.0)
    return config, run(config)


def test_noiseless_determinism_over_all_state_op_pairs():
    _, records = _noiseless_run()
    combos = {(r.sender_basis, r.sender_bit, r.alice_op) for r in records}
    assert len(combos) == 8
    assert all(r.receiver_outcome ^ r.sender_bit == r.alice_op for r in records)


def test_noiseless_tally_is_error_free():
    _, records = _noiseless_run()
    t = tally(records)
    assert t.q_ab == (0, len(records))
    assert t.q_ae == (0, 0) and t.q_be == (0, 0)


def test_control_mode_fraction_matches_probability():
    n = 100_000
    config = ProtocolConfig(protocol="lm05", rounds=n, seed=5, control_prob=0.25)
    records = run(config)
    cm = sum(r.mode == "CM" for r in records)
    assert abs(cm / n - 0.25) <= 5.0 * math.sqrt(0.25 * 0.75 / n)
    # Alice measures in her own random basis, which matches Bob's on half the CM rounds
    matched = sum(r.mode == "CM" and r.receiver_basis is r.sender_basis for r in records)
    assert abs(matched / cm - 0.5) <= 5.0 * math.sqrt(0.25 / cm)


def test_run_rounds_come_in_random_order():
    # i.i.d. rounds repeat the previous round's outcome path with probability
    # sum(w^2); run's shuffle must not leave same-path rounds side by side
    n = 40_000
    config = ProtocolConfig(protocol="lm05", rounds=n, seed=6)
    records = run(config)
    p = float((enumerate_round(config).weights ** 2).sum())
    repeats = sum(a is b for a, b in zip(records, records[1:]))
    assert abs(repeats - (n - 1) * p) <= 5.0 * math.sqrt((n - 1) * p * (1.0 - p))


def test_same_seed_reproduces_round_sequence():
    config = ProtocolConfig(protocol="lm05", rounds=3_000, seed=17)
    attack = AttackParams(kind="ir", xi=0.7)
    assert run(config, attack) == run(config, attack)


def test_different_seed_changes_round_sequence():
    a = run(ProtocolConfig(protocol="lm05", rounds=500, seed=1))
    b = run(ProtocolConfig(protocol="lm05", rounds=500, seed=2))
    assert a != b


def test_basis_blindness_average_state_is_basis_independent():
    # what leaves Bob's station averages to the maximally mixed state in
    # either basis, so the forward state carries no basis information
    def average_density(basis):
        rho = np.zeros((2, 2), dtype=complex)
        for bit in (0, 1):
            amps = prepare(basis, bit).amps
            rho += 0.5 * np.outer(amps, amps.conj())
        return rho
    assert np.allclose(average_density(Basis.Z), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(average_density(Basis.Z), average_density(Basis.X), atol=1e-12)


def test_tally_counting_rules_on_hand_built_records():
    z, x = Basis.Z, Basis.X
    records = [
        # matched-basis CM with wrong outcome: q1 error
        RoundRecord(mode="CM", sender_basis=z, sender_bit=0, receiver_basis=z, receiver_outcome=1),
        # matched-basis CM, correct
        RoundRecord(mode="CM", sender_basis=x, sender_bit=1, receiver_basis=x, receiver_outcome=1),
        # mismatched CM never counted
        RoundRecord(mode="CM", sender_basis=z, sender_bit=0, receiver_basis=x, receiver_outcome=1),
        # revealed EM with decode error (outcome 0 -> decoded 0 != op 1), Eve right about Alice
        RoundRecord(mode="EM", sender_basis=z, sender_bit=0, receiver_basis=z, receiver_outcome=0,
                    alice_op=1, revealed=True, eve_alice_guess=1, eve_bob_guess=1, attacked=True),
        # unrevealed EM, Eve wrong about Alice, right about the key bit
        RoundRecord(mode="EM", sender_basis=z, sender_bit=1, receiver_basis=z, receiver_outcome=1,
                    alice_op=0, revealed=False, eve_alice_guess=1, eve_bob_guess=0, attacked=True),
        # EM without any Eve guesses
        RoundRecord(mode="EM", sender_basis=x, sender_bit=0, receiver_basis=x, receiver_outcome=0,
                    alice_op=0, revealed=False),
    ]
    t = tally(records)
    assert t.q1 == (1, 2)
    assert t.q_ab == (1, 1)
    assert t.q_ae == (1, 2)
    assert t.q_be == (1, 2)


def _spy(monkeypatch, name):
    """Calls of protocol.<name> from here on, recorded by their first argument."""
    calls, plain = [], getattr(protocol, name)
    monkeypatch.setattr(protocol, name, lambda value: calls.append(value) or plain(value))
    return calls


def test_tally_counts_each_record_value_once(monkeypatch):
    monkeypatch.setattr(protocol, "_ALPHABET", _LeafAlphabet())
    z = Basis.Z
    same = [RoundRecord("CM", z, 0, z, 1) for _ in range(3)]
    other = RoundRecord("EM", z, 1, z, 0, alice_op=1, revealed=True)
    assert len({id(r) for r in same}) == 3
    counted = _spy(monkeypatch, "_counters")
    assert tally([*same, other, *same]) == Tallies(q1=(6, 6), q_ab=(0, 1))
    assert counted == [same[0], other]
    # a value is counted once per process: a later call counts none it has met
    assert tally([other, *same]) == Tallies(q1=(3, 3), q_ab=(0, 1))
    assert counted == [same[0], other]


def test_tally_of_a_stream_holds_one_entry_per_value(monkeypatch):
    config = ProtocolConfig(rounds=20_000)
    attack = AttackParams(kind="nort", x=math.pi / 4)

    def stepped():
        rounds_stream = stream(5)
        return (run_round(config, attack, rounds_stream) for _ in range(config.rounds))

    monkeypatch.setattr(protocol, "_ALPHABET", _LeafAlphabet())
    counted = _spy(monkeypatch, "_counters")
    expected = tally(stepped())
    records = list(stepped())
    assert sorted(map(repr, counted)) == sorted(map(repr, set(records))) and len(counted) < 100
    # a value is counted once per process: a later call counts none it has met
    counted.clear()
    assert tally(records) == expected and counted == []


@pytest.mark.parametrize("field,value", [("attacked", 1), ("sender_bit", 1.0)])
def test_a_bad_plain_tuple_is_refused_whatever_came_before_it(field, value):
    # the bad tuple equals, and hashes like, a valid record: a cache keyed on the value
    # used to let it through when the record came first
    z = Basis.Z
    good = RoundRecord("CM", z, 1, z, 1, attacked=True)
    bad = tuple(value if name == field else v for name, v in zip(RoundRecord._fields, good))
    assert bad == good and hash(bad) == hash(good)
    for records in ([good, bad], [bad, good]):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            tally(records)
        buffer = io.StringIO()
        with pytest.raises(ValueError, match=f"^{field} must be"):
            write_round_log(records, buffer)
        assert buffer.getvalue() == ",".join(RoundRecord._fields) + "\n"  # the header alone


def test_a_non_iterable_is_refused_before_a_round_is_counted_or_written():
    for records in (None, 3):
        with pytest.raises(ValueError, match=f"^records must be an iterable, got {records!r}$"):
            tally(records)
        buffer = io.StringIO()
        with pytest.raises(ValueError, match=f"^records must be an iterable, got {records!r}$"):
            write_round_log(records, buffer)
        assert buffer.getvalue() == ""


@pytest.mark.parametrize("field,value,message", [
    ("rounds", 1.5, "must be an integer"), ("rounds", True, "must be an integer"),
    ("rounds", 0, "must lie in"), ("rounds", 2**63, "must lie in"),
    ("seed", 0.0, "must be an integer"), ("seed", False, "must be an integer"),
    ("seed", -1, "must lie in"), ("seed", 2**64, "must lie in")])
def test_a_leaf_table_draw_checks_its_arguments_as_the_config_does(field, value, message):
    table = enumerate_round(ProtocolConfig())
    for call in (lambda: table.draw(**{"rounds": 1, "seed": 0, field: value}),
                 lambda: ProtocolConfig(**{field: value})):
        with pytest.raises(ValueError, match=f"^{field} {message}"):
            call()
    # a numpy integer is an integer, as the config takes it
    assert np.array_equal(table.draw(np.int64(5), np.uint64(2**64 - 1)), table.draw(5, 2**64 - 1))


def test_tally_empty_input():
    t = tally([])
    assert t == Tallies()
    assert t.rate("q1") is None


def test_tallies_validation():
    with pytest.raises(ValueError):
        Tallies(q1=(2, 1))
    q_be = Tallies(q_be=(np.int64(1), np.int64(2))).q_be
    assert q_be == (1, 2) and all(type(v) is int for v in q_be)


@pytest.mark.parametrize("value", [None, (0.5, 1), (1, 2.0), (True, 1), (1, 2, 3), [0, 1]])
def test_tallies_refuse_a_counter_that_is_not_an_integer_pair(value):
    with pytest.raises(ValueError, match="q1"):
        Tallies(q1=value)


def test_bb84_noiseless_sifting():
    n = 40_000
    config = ProtocolConfig(protocol="bb84", rounds=n, seed=21)
    records = run(config)
    t = tally(records)
    # about half the rounds survive sifting, none carry errors
    assert t.q1[0] == 0
    assert abs(t.q1[1] / n - 0.5) <= 5.0 * math.sqrt(0.25 / n)
    assert t.q_ab == (0, 0) and t.q_ae == (0, 0) and t.q_be == (0, 0)


def test_bb84_intercept_resend_rates():
    n = 150_000
    config = ProtocolConfig(protocol="bb84", rounds=n, seed=22)
    t = tally(run(config, AttackParams(kind="ir")))
    sigma = math.sqrt(0.25 * 0.75 / t.q1[1])
    assert abs(t.rate("q1") - 0.25) <= 5.0 * sigma
    sigma_be = math.sqrt(0.25 * 0.75 / t.q_be[1])
    assert abs(t.rate("q_be") - 0.25) <= 5.0 * sigma_be


def test_bb84_rejects_two_way_attacks():
    config = ProtocolConfig(protocol="bb84", rounds=10, seed=1)
    for kind in ("nort", "dcnot", "dcnot_star"):
        with pytest.raises(ValueError):
            run(config, AttackParams(kind=kind))
        # the stepper reads config.protocol too: no two-way attack on a BB84 round
        with pytest.raises(ValueError, match="BB84 supports none/ir"):
            run_round(config, AttackParams(kind=kind), stream(1))


def test_run_round_refuses_a_stream_that_flips_no_coin():
    # a plain numpy Generator has random() but no coin: the stepped path takes a Stream or a Branching
    with pytest.raises(ValueError, match=r"^rng must be a Stream or a Branching, got Generator\(Philox\)"):
        run_round(ProtocolConfig(), AttackParams(), np.random.Generator(np.random.Philox(1)))


def test_round_log_csv_format():
    config = ProtocolConfig(protocol="lm05", rounds=200, seed=8, control_prob=0.5)
    records = run(config, AttackParams(kind="ir", xi=0.5))
    buffer = io.StringIO()
    write_round_log(records, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ("mode,sender_basis,sender_bit,receiver_basis,receiver_outcome,alice_op,"
                        "revealed,eve_alice_guess,eve_bob_guess,attacked")
    assert len(lines) == len(records) + 1
    for record, line in zip(records, lines[1:]):
        cells = line.split(",")
        assert cells[0] == record.mode
        assert cells[3] == record.receiver_basis.value  # every round has a receiver
        assert cells[4] == str(record.receiver_outcome)
        assert cells[5] == ("" if record.mode == "CM" else str(record.alice_op))
    # byte for byte a plain per-row rendering, for run's shared leaf records
    # and for distinct records stepped round by round; the stepped records
    # arrive from a generator, so a freed record's id could come back
    assert buffer.getvalue() == _plain_round_log(records)

    def stepped():
        attack, rounds_stream = AttackParams(kind="ir", xi=0.5), stream(8)
        return (run_round(config, attack, rounds_stream) for _ in range(config.rounds))

    buffer = io.StringIO()
    write_round_log(stepped(), buffer)
    assert buffer.getvalue() == _plain_round_log(list(stepped()))


def test_round_log_renders_each_record_value_once(monkeypatch):
    config = ProtocolConfig(rounds=2_000, seed=8, control_prob=0.5)
    attack, rounds_stream = AttackParams(kind="nort", x=0.7), stream(8)
    records = [run_round(config, attack, rounds_stream) for _ in range(config.rounds)]
    monkeypatch.setattr(protocol, "_ALPHABET", _LeafAlphabet())
    rendered = _spy(monkeypatch, "_cell")
    buffer = io.StringIO()
    write_round_log(iter(records), buffer)
    assert len(rendered) == len(RoundRecord._fields) * len(set(records)) < len(records)
    assert buffer.getvalue() == _plain_round_log(records)
    # a value is rendered once per process: a later log renders none it has met
    rendered.clear()
    again = io.StringIO()
    write_round_log(iter(records), again)
    assert rendered == [] and again.getvalue() == buffer.getvalue()


class _CountingFile(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


_CHUNK = protocol._LOG_CHUNK


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_round_log_writes_whole_chunks_of_rows(n):
    config = ProtocolConfig(rounds=2 * _CHUNK + 1, seed=12, control_prob=0.5)
    attack = AttackParams(kind="nort", x=0.7)

    def stepped():
        rounds_stream = stream(12)
        return (run_round(config, attack, rounds_stream) for _ in range(n))

    shared = run(config, attack)[:n]
    # run's shared leaf records, and distinct records from a generator
    for records, reference in ((shared, shared), (stepped(), list(stepped()))):
        file = _CountingFile()
        write_round_log(records, file)
        assert file.getvalue() == _plain_round_log(reference)
        assert file.writes <= math.ceil(n / _CHUNK) + 1  # the header, then one write per chunk


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("scenario", enumeration_costs.SCENARIOS,
                         ids=[enumeration_costs.label(p, a) for p, a in enumeration_costs.SCENARIOS])
def test_a_run_is_tallied_and_logged_from_its_draw_as_record_by_record(monkeypatch, scenario, n):
    # the record-by-record path, which reads any iterable, is the oracle of the draw's path
    attack = scenario[1]
    config = ProtocolConfig(protocol=scenario[0], rounds=n, seed=n)
    monkeypatch.setattr(protocol, "_ALPHABET", _LeafAlphabet())
    counted, rendered = _spy(monkeypatch, "_counters"), _spy(monkeypatch, "_cell")
    rounds, batch = run(config, attack), run_batch(config, attack).tallies
    # the table counts each of its values once per process, and no tally counts one again
    assert len(counted) == len(set(rounds.table.records))
    counted.clear()
    assert type(rounds) is Rounds and len(rounds) == len(rounds.order) == rounds.hits.sum() == n
    assert tally(rounds) == batch and counted == []
    assert tally(iter(rounds)) == batch and counted == []
    first = _CountingFile()
    write_round_log(rounds, first)
    assert first.writes <= math.ceil(n / _CHUNK) + 1
    # the first log of a table's values renders them, once per process
    assert len(rendered) == len(RoundRecord._fields) * len(set(rounds.table.records))
    rendered.clear()
    again, plain = io.StringIO(), io.StringIO()
    write_round_log(rounds, again)
    assert rendered == []
    write_round_log(list(rounds), plain)
    assert first.getvalue() == again.getvalue() == plain.getvalue() == _plain_round_log(rounds)
    # a slice or a copy is a plain tuple, logged record by record; a slice as the run's prefix
    copied = pickle.loads(pickle.dumps(rounds))
    assert type(copied) is tuple and copied == rounds
    head = rounds[:n // 2]
    assert type(head) is tuple
    prefix = io.StringIO()
    write_round_log(head, prefix)
    assert rendered == []
    assert prefix.getvalue() == "".join(first.getvalue().splitlines(keepends=True)[:n // 2 + 1])


def test_a_batch_renders_no_log_line(monkeypatch):
    monkeypatch.setattr(protocol, "_ALPHABET", _LeafAlphabet())
    rendered = _spy(monkeypatch, "_cell")
    config, attack = ProtocolConfig(rounds=1000), AttackParams(kind="nort", x=math.pi / 4)
    run_batch(config, attack)
    rounds = run(config, attack)
    tally(rounds)
    assert rendered == []
    write_round_log(rounds, io.StringIO())
    assert len(rendered) == len(RoundRecord._fields) * len(set(rounds.table.records))


def test_round_log_costs_prints_the_hash_of_the_record_by_record_logs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["round_log_costs.py", "--calls", "1"])
    assert round_log_costs.main() == 0
    logs = [_plain_round_log(run(config, attack))
            for _, config, attack in round_log_costs.settings(round_log_costs.DEFAULT_SEED)]
    assert capsys.readouterr().out.splitlines()[-1] == f"round-log hash {round_log_costs.log_hash(logs)}"


def _plain_round_log(records):
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, Basis):
            return value.value
        if isinstance(value, bool):
            return "1" if value else "0"
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    names = ["mode", "sender_basis", "sender_bit", "receiver_basis", "receiver_outcome", "alice_op",
             "revealed", "eve_alice_guess", "eve_bob_guess", "attacked"]
    writer.writerow(names)
    for record in records:
        writer.writerow([cell(getattr(record, name)) for name in names])
    return buffer.getvalue()
