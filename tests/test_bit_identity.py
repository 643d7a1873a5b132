"""Bit-identity pins: the exact leaf tables, stepped rounds and the figure CSVs.

A change that keeps every output must keep these bytes.  The digests come
from ``scripts/enumeration_costs.py`` (its ``ALL_SCENARIOS``, ``digest``
and ``stepped_digest``) and the CSV hash from ``scripts/make_figure_data.py``
run in process, as ``sha256sum *.csv | sha256sum`` prints it.  Like
``_PINNED`` in test_montecarlo.py, the values are tied to this numpy and
libm: float results may differ in their last bits on another platform.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import enumeration_costs  # noqa: E402
import make_figure_data  # noqa: E402

from qkd2way.protocol import ProtocolConfig, enumerate_round  # noqa: E402

LEAF_DIGESTS = ("44e6fbc89c94 590681426acb 2f493fc82a82 cf2e51d5f2f1 779dcdd04be1 "
                "be40f44b23cb f60c20b2c288 c86042736c98 6088c9097f37 2e61c0b595a4").split()
STEPPED_DIGEST = "d4e972ef03c0271d"
FIGURE_CSV_HASH = "2814f982da1494528a2f91e3acbd953cd35a52717772f2e2b9c09f53dbb77fea"


@pytest.mark.parametrize("scenario,expected", zip(enumeration_costs.ALL_SCENARIOS, LEAF_DIGESTS),
                         ids=[enumeration_costs.label(p, a) for p, a in enumeration_costs.ALL_SCENARIOS])
def test_leaf_table_is_bit_identical(scenario, expected):
    protocol, attack = scenario
    assert enumeration_costs.digest(enumerate_round(ProtocolConfig(protocol=protocol), attack)) == expected


def test_scenario_count_matches_the_pins():
    assert len(enumeration_costs.ALL_SCENARIOS) == len(LEAF_DIGESTS)


def test_stepped_rounds_are_bit_identical():
    assert enumeration_costs.stepped_digest() == STEPPED_DIGEST


def test_figure_csvs_are_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--out-dir", str(tmp_path)])
    assert make_figure_data.main() == 0
    # sha256sum's lines, in the C-locale order of the shell glob
    listing = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                      for path in sorted(tmp_path.glob("*.csv")))
    assert len(listing.splitlines()) == 9
    assert hashlib.sha256(listing.encode()).hexdigest() == FIGURE_CSV_HASH
