"""Byte-format guard for the CLI tables.

Each table is rendered here by reference, straight from the analysis API,
as a header plus one ``csv.writer`` row per point with explicit
``repr(v)`` / ``""`` cells, and compared byte for byte with the file that
``cli.main`` writes.  The JSONL test checks that every record carries the
CSV header as its keys and the CSV cells as its values.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

import qkd2way
from qkd2way.attacks import AttackParams
from qkd2way.cli import main
from qkd2way.infotheory import curve_points, threshold
from qkd2way.montecarlo import run_batch
from qkd2way.photonics import crossover_distance, scan_distances
from qkd2way.protocol import ProtocolConfig

CURVE_HEADER = ("q1", "I_AB", "I_AE", "I_BE", "C_DR", "C_RR")
THRESHOLD_HEADER = ("attack", "lm05_dr", "lm05_rr", "bb84")
SCAN_HEADER = ("L_km", "mu_star", "value", "log10_value", "protocol", "objective")
REPORT_HEADER = ("rate", "errors", "trials", "estimate", "lo95", "hi95", "prediction", "verdict")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buffer.getvalue().encode()


def _curve_table():
    points = curve_points("nort", grid_step=0.001)
    return _render(CURVE_HEADER, [(p.q1, p.i_ab, p.i_ae, p.i_be, p.c_dr, p.c_rr) for p in points])


def _threshold_table():
    rows = [("IR", threshold("ir", "dr"), threshold("ir", "rr"), threshold("bb84_ir", "dr")),
            ("NORT", threshold("nort", "dr"), threshold("nort", "rr"), threshold("bb84_opt", "dr")),
            ("DCNOT*", threshold("dcnot_star", "dr"), threshold("dcnot_star", "rr"), None),
            ("Generic", threshold("generic", "dr"), None, threshold("generic", "dr"))]
    return _render(THRESHOLD_HEADER, rows)


def _scan_table(objective, lmin, lmax, lstep):
    grid = [lmin + i * lstep for i in range(round((lmax - lmin) / lstep) + 1)]
    rows = []
    for protocol in ("bb84", "lm05"):
        for p in scan_distances(objective, protocol, grid):
            log10 = math.log10(p.value) if p.value > 0.0 else None
            rows.append((p.length_km, p.mu_star, p.value, log10, p.protocol, p.objective))
    if objective == "pns_margin":
        try:
            rows.append((crossover_distance(l_lo=lmin, l_hi=lmax), None, None, None,
                         "crossover", "pns_margin"))
        except ValueError:
            rows.append((None, None, None, None, "crossover", "none in range"))
    return _render(SCAN_HEADER, rows)


def _report_table():
    config = ProtocolConfig(protocol="lm05", control_prob=0.25, rounds=20_000, seed=7,
                            reveal_fraction=0.1)
    attack = AttackParams(kind="nort", xi=1.0, x=0.7, x_prime=1.1, chi=0.0)
    report = run_batch(config, attack)
    return _render(REPORT_HEADER, [(r.name, r.errors, r.trials, r.estimate, r.lo95, r.hi95,
                                    r.prediction, r.verdict) for r in report.rates])


CASES = {
    "curves-nort": (["curves", "--attack", "nort"], _curve_table),
    "thresholds": (["thresholds"], _threshold_table),
    "gain": (["gain"], lambda: _scan_table("secure_gain", 0.0, 50.0, 0.25)),
    "pns-crossover": (["pns"], lambda: _scan_table("pns_margin", 0.0, 50.0, 0.25)),
    "pns-no-crossover": (["pns", "--lmin", "10", "--lmax", "30", "--lstep", "1"],
                         lambda: _scan_table("pns_margin", 10.0, 30.0, 1.0)),
    "simulate": (["simulate", "--rounds", "20000", "--seed", "7", "--attack", "nort",
                  "--x", "0.7", "--xprime", "1.1"], _report_table),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_table_matches_reference_rendering(case, tmp_path, capsys):
    argv, reference = CASES[case]
    out = tmp_path / "table.csv"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == reference()


@pytest.mark.parametrize("case", sorted(CASES))
def test_jsonl_records_carry_the_csv_columns_and_cells(case, tmp_path, capsys):
    argv, _ = CASES[case]
    csv_out, jsonl_out = tmp_path / "table.csv", tmp_path / "table.jsonl"
    assert main([*argv, "--out", str(csv_out)]) == 0
    assert main([*argv, "--format", "jsonl", "--out", str(jsonl_out)]) == 0
    capsys.readouterr()
    header, *cells = csv.reader(csv_out.open(newline=""))
    records = [json.loads(line) for line in jsonl_out.read_text().splitlines()]
    if case == "simulate":
        meta = records.pop(0)
        assert meta["record"] == "meta"
        assert set(meta) == {"record", "protocol", "attack", "rounds", "seed", "workers",
                             "engine", "leaves", "elapsed_s", "enumerate_s", "draw_s",
                             "gate_s", "rounds_per_s", "qkd2way", "numpy"}
        assert (meta["rounds"], meta["seed"], meta["attack"]["x"]) == (20_000, 7, 0.7)
        assert (meta["qkd2way"], meta["numpy"]) == (qkd2way.__version__, np.__version__)
        assert 0.0 < meta["enumerate_s"] <= meta["elapsed_s"]
        assert 0.0 < meta["draw_s"] <= meta["elapsed_s"] - meta["enumerate_s"]
        assert meta["gate_s"] >= 0.0
        assert meta["rounds_per_s"] == meta["rounds"] / meta["elapsed_s"]
    assert len(records) == len(cells)
    for record, row in zip(records, cells):
        assert list(record) == header
        assert [_cell(v) for v in record.values()] == row
