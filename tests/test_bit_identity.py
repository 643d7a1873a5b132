"""Bit-identity pins: the exact leaf tables, stepped rounds, predictions, figure CSVs and help.

A change that keeps every output must keep these bytes.  The digests come
from ``scripts/enumeration_costs.py`` (the ``SCENARIOS`` of
``verify_attacks.py`` in their order, and its ``digest``, ``physics_digest``,
``stepped_digest``, ``stepped_counters_digest`` and ``predictions_digest``);
the physics and counter digests read no record field, so they also hold
across a change of the record's fields, which re-takes the other two.  The
CSV hash comes from ``scripts/make_figure_data.py`` run in process, as
``sha256sum *.csv | sha256sum`` prints it.  The help digest hashes the
``--help`` texts of the root parser and of each subcommand, wrapped at 80
columns; argparse's wrapping may differ on another Python.  Like
``_PINNED`` in test_montecarlo.py, the values are tied to this numpy and
libm: float results may differ in their last bits on another platform.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import enumeration_costs  # noqa: E402
import figure_costs  # noqa: E402
import make_figure_data  # noqa: E402

from qkd2way import protocol as protocol_module  # noqa: E402
from qkd2way.cli import main  # noqa: E402
from qkd2way.protocol import (ProtocolConfig, RoundRecord, _counters, _LeafAlphabet,  # noqa: E402
                              enumerate_round)

LEAF_DIGESTS = ("b6700ba02040 4cef76007c57 861a2f0e6e2e b792d6b7a27e 28c066eb601d "
                "0df18d2b975c 402e069d4adf 01385f4cbdbe 9a515f853c88 3388eab1a98d").split()
STEPPED_DIGEST = "84b39d2256e22500"
PHYSICS_DIGESTS = ("01fbb763fdc0 81901123154b de7e031a0257 7b8f3b50621b 5067b99da1b0 "
                   "e0b05b8eba83 922d44af531a dd662f052059 7a5e52471d80 d928f418a40b").split()
STEPPED_COUNTERS_DIGEST = "91f4a30a3975d4ae"
PREDICTIONS_DIGEST = "a49288bab50fa413"
HELP_DIGEST = "51ddb652dfd53cfe"
FIGURE_CSV_HASH = "2814f982da1494528a2f91e3acbd953cd35a52717772f2e2b9c09f53dbb77fea"


@pytest.mark.parametrize("history", ["empty alphabet", "after the others"])
@pytest.mark.parametrize("scenario,expected", zip(enumeration_costs.SCENARIOS, LEAF_DIGESTS),
                         ids=[enumeration_costs.label(p, a) for p, a in enumeration_costs.SCENARIOS])
def test_leaf_table_is_bit_identical(monkeypatch, scenario, expected, history):
    # the same table whether the leaf alphabet knows none of its values or
    # every other scenario's; a fresh alphabet leaves the shared one alone
    monkeypatch.setattr(protocol_module, "_ALPHABET", _LeafAlphabet())
    if history == "after the others":
        for other in enumeration_costs.SCENARIOS:
            if other != scenario:
                enumerate_round(ProtocolConfig(protocol=other[0]), other[1])
    protocol, attack = scenario
    assert enumeration_costs.digest(enumerate_round(ProtocolConfig(protocol=protocol), attack)) == expected


@pytest.mark.parametrize("control_prob", [0.25, 0.6])
def test_leaf_alphabet_counts_each_leaf_value_once_by_the_direct_rule(monkeypatch, control_prob):
    alphabet = _LeafAlphabet()
    monkeypatch.setattr(protocol_module, "_ALPHABET", alphabet)
    met = set()
    for protocol, attack in enumeration_costs.SCENARIOS:
        table = enumerate_round(ProtocolConfig(protocol=protocol, control_prob=control_prob), attack)
        # the direct rule, leaf by leaf, is the reference
        assert np.array_equal(table.counts, np.array([_counters(leaf) for leaf in table.records],
                                                     dtype=np.int64))
        met.update(table.records)
    assert len(alphabet.rows) == len(met) == alphabet.counters.shape[0] == len(alphabet.records)
    assert sorted(alphabet.rows.values()) == list(range(len(met)))
    for leaf, row in alphabet.rows.items():
        assert alphabet.counters[row].tolist() == list(_counters(leaf))
        assert type(alphabet.records[row]) is RoundRecord and alphabet.records[row] == leaf


@pytest.mark.parametrize("scenario,expected", zip(enumeration_costs.SCENARIOS, PHYSICS_DIGESTS),
                         ids=[enumeration_costs.label(p, a) for p, a in enumeration_costs.SCENARIOS])
def test_leaf_weights_and_counts_are_bit_identical(scenario, expected):
    protocol, attack = scenario
    table = enumerate_round(ProtocolConfig(protocol=protocol), attack)
    assert enumeration_costs.physics_digest(table) == expected


def test_scenario_count_matches_the_pins():
    assert len(enumeration_costs.SCENARIOS) == len(LEAF_DIGESTS) == len(PHYSICS_DIGESTS)


def test_stepped_rounds_are_bit_identical():
    assert enumeration_costs.stepped_digest() == STEPPED_DIGEST


def test_stepped_round_counters_are_bit_identical():
    assert enumeration_costs.stepped_counters_digest() == STEPPED_COUNTERS_DIGEST


def test_predicted_rates_are_bit_identical():
    assert sum(1 for _ in enumeration_costs.prediction_settings()) == 712
    assert enumeration_costs.predictions_digest() == PREDICTIONS_DIGEST


def test_help_texts_are_byte_identical(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    h = hashlib.sha256()
    for command in ([], ["simulate"], ["curves"], ["thresholds"], ["gain"], ["pns"]):
        assert main([*command, "--help"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest()[:16] == HELP_DIGEST


def test_figure_csvs_are_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--out-dir", str(tmp_path)])
    assert make_figure_data.main() == 0
    assert len(list(tmp_path.glob("*.csv"))) == 9
    assert figure_costs.figure_hash(tmp_path) == FIGURE_CSV_HASH


def test_figure_costs_prints_the_figure_csv_hash_last(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["figure_costs.py", "--calls", "1"])
    assert figure_costs.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12  # header, nine commands, the total, the hash
    assert lines[-1] == f"figure-CSV hash {FIGURE_CSV_HASH}"
