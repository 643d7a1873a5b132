import csv
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd2way import cli, montecarlo, photonics
from qkd2way.attacks import AttackParams
from qkd2way.cli import CONFIG_MAX_BYTES, REPORT_COLUMNS, SCAN_COLUMNS, build_parser, main
from qkd2way.montecarlo import RateReport, gate_miss, predicted_rates, run_batch, wilson_interval
from qkd2way.protocol import ProtocolConfig


def _run(argv):
    return main(argv)


def test_simulate_dcnot_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    status = _run(["simulate", "--protocol", "lm05", "--attack", "dcnot", "--xi", "1",
                   "--rounds", "20000", "--seed", "7", "--reveal", "0.5",
                   "--out", str(out)])
    assert status == 0
    text = capsys.readouterr().out
    assert "q_ab" in text and "FAIL" not in text
    rows = list(csv.DictReader(out.open()))
    by_name = {row["rate"]: row for row in rows}
    assert by_name["q_ab"]["errors"] == "0"
    assert by_name["q_ab"]["verdict"] == "PASS"


def test_simulate_nort_parallel_probes_leave_forward_channel_clean(tmp_path):
    out = tmp_path / "report.csv"
    status = _run(["simulate", "--attack", "nort", "--x", "0", "--rounds", "20000",
                   "--seed", "9", "--out", str(out)])
    assert status == 0
    rows = {row["rate"]: row for row in csv.DictReader(out.open())}
    assert rows["q1"]["errors"] == "0"


def test_simulate_rejects_out_of_range_xi(capsys):
    assert _run(["simulate", "--attack", "ir", "--xi", "2"]) == 2
    assert "xi" in capsys.readouterr().err


def test_simulate_rejects_two_way_attack_on_bb84(capsys):
    assert _run(["simulate", "--protocol", "bb84", "--attack", "dcnot",
                 "--rounds", "100"]) == 2


@pytest.mark.parametrize("where", ["flag", "config file"])
def test_simulate_rejects_more_rounds_than_a_draw_can_count(where, tmp_path, capsys):
    # numpy's multinomial counts in int64; one past its range used to raise OverflowError (exit 1)
    argv, origin = ["simulate", "--rounds", "100000000000000000000"], ""
    if where == "config file":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = 100000000000000000000\n")
        argv, origin = ["simulate", "--config", str(cfg)], f"{cfg}:1: rounds = 100000000000000000000: "
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {origin}rounds must lie in") and captured.out == ""


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_simulate_refuses_a_seed_outside_64_bits(seed, capsys):
    assert _run(["simulate", "--seed", seed, "--rounds", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must lie in [0, 18446744073709551615], got {seed}\n"
    assert captured.out == ""


def test_unknown_flag_is_usage_error():
    assert _run(["simulate", "--bogus", "1"]) == 2


def test_default_seed_is_reported(capsys):
    assert _run(["simulate", "--rounds", "1000"]) == 0
    assert "seed=20050920" in capsys.readouterr().out


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rounds = 1500\nseed = 5  # comment\nattack = ir\n")
    status = _run(["simulate", "--config", str(cfg)])
    assert status == 0
    assert "rounds=1500" in capsys.readouterr().out
    status = _run(["simulate", "--config", str(cfg), "--rounds", "800"])
    assert status == 0
    assert "rounds=800" in capsys.readouterr().out


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert _run(["simulate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command, line, flag", [
    ("simulate", "attack = bogus", "--attack"),
    ("curves", "attack = bogus", "--attack"),
    ("simulate", "format = xml", "--format"),
    ("curves", "format = xml", "--format"),
    ("thresholds", "format = xml", "--format"),
    ("gain", "format = xml", "--format"),
    ("simulate", "round = 5", "--round"),
])
def test_config_file_values_are_checked_like_flags(command, line, flag, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "simulate":
        argv += ["--rounds", "1000"]
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_config_file_cannot_name_another_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"config = {cfg}\n")
    assert _run(["thresholds", "--config", str(cfg)]) == 2
    assert "cannot name another" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["rounds = x", "bogus = 1"])
def test_config_file_errors_name_the_file_and_line(line, tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"seed = 5\n{line}\n")
    assert _run(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}:2: {line}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command, line, message", [
    ("simulate", "seed = -1", "seed must lie in [0, 18446744073709551615], got -1"),
    ("simulate", "xi = 2", "xi must lie in [0, 1], got 2.0"),
    ("gain", "lstep = 0", "lstep must lie in (0, inf), got 0.0"),
])
def test_config_file_range_errors_name_the_file_and_line(command, line, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format = csv\n{line}\n")
    out = tmp_path / "out.csv"
    assert _run([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:2: {line}: {message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("text, flags", [("lmin = 60\nlmax = 61\n", []), ("lmin = 60\n", ["--lmax", "61"])],
                         ids=["file", "file and flag"])
def test_config_file_range_checks_see_the_other_values(text, flags, tmp_path, capsys):
    # lmin = 60 is out of range only beside the default lmax of 50
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _run(["gain", "--config", str(cfg), *flags]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("60.0,")


def test_a_range_error_on_the_command_line_names_no_config_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lmax = 10\n")
    assert _run(["pns", "--config", str(cfg), "--lstep", "0"]) == 2
    assert capsys.readouterr().err == "error: lstep must lie in (0, inf), got 0.0\n"


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the list of calls."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_a_config_range_error_never_starts_the_scan(tmp_path, monkeypatch, capsys):
    # naming the line runs the command without each line; the scan waits for its rows to be written
    scans = _counted(monkeypatch, photonics, "scan_distances")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("lstep = 0.002\nlmin = -1\n")
    assert _run(["gain", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: lmin = -1: lmin must lie in [0, inf), got -1.0\n"
    assert scans == []


def test_a_config_parse_error_never_runs_the_command(tmp_path, monkeypatch, capsys):
    # a parse error is named by parsing without each line, so the 10^6-point grid is never built
    curves = _counted(monkeypatch, cli, "curve_points")
    cfg = tmp_path / "p.cfg"
    cfg.write_text("grid_step = 5e-7\nattack = bogus\n")
    assert _run(["curves", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: attack = bogus: argument --attack: invalid choice")
    assert curves == []


@pytest.mark.parametrize("size", [CONFIG_MAX_BYTES, CONFIG_MAX_BYTES + 1])
def test_config_file_size_is_bounded(size, tmp_path, capsys):
    # a file of comment bytes: read to its end at the bound, refused past it
    cfg = tmp_path / "big.cfg"
    cfg.write_bytes(b"#" * (size - 1) + b"\n")
    status = _run(["thresholds", "--config", str(cfg)])
    captured = capsys.readouterr()
    if size > CONFIG_MAX_BYTES:
        assert status == 2 and captured.out == ""
        assert captured.err == f"error: cannot read config file {cfg}: larger than {CONFIG_MAX_BYTES} bytes\n"
    else:
        assert status == 0 and captured.err == "" and "IR" in captured.out


# each command, then one of its inputs that is rejected only after parsing
@pytest.mark.parametrize("argv,rejected", [
    (["curves"], ["--grid-step", "0"]),
    (["thresholds"], ["--model", "bogus"]),
    (["gain", "--lmax", "1"], ["--lstep", "0"]),
    (["pns", "--lmax", "1"], ["--lstep", "0"]),
    (["simulate", "--rounds", "1000"], ["--protocol", "bb84", "--attack", "nort"]),
], ids=["curves", "thresholds", "gain", "pns", "simulate"])
@pytest.mark.parametrize("where", ["missing directory", "empty config line", "rejected input"])
def test_bad_out_path_is_a_usage_error(argv, rejected, where, tmp_path, capsys):
    # a bad path exits 2 with a message and nothing printed, never with an
    # OSError traceback; a rejected input leaves a good path uncreated
    out = tmp_path / "out.csv"
    if where == "missing directory":
        argv = [*argv, "--out", str(tmp_path / "missing" / "out.csv")]
    elif where == "empty config line":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out =\n")
        argv = [*argv, "--config", str(cfg)]
    else:
        argv = [*argv, *rejected, "--out", str(out)]
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert ("--out" in captured.err) == (where != "rejected input")
    assert not (tmp_path / "missing").exists() and not out.exists()


def test_curves_csv_values(tmp_path):
    out = tmp_path / "ir.csv"
    assert _run(["curves", "--attack", "ir", "--grid-step", "0.005", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert float(rows[0]["q1"]) == 0.0
    assert float(rows[0]["I_AB"]) == 1.0 and float(rows[0]["I_AE"]) == 0.0
    last = rows[-1]
    assert float(last["q1"]) == pytest.approx(0.25)
    assert float(last["I_AE"]) == pytest.approx(1.0)


def test_curves_generic_clamps_at_full_information(tmp_path):
    out = tmp_path / "generic.csv"
    assert _run(["curves", "--attack", "generic", "--grid-step", "0.01", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    for row in rows:
        assert float(row["I_AE"]) <= 1.0
    beyond = [row for row in rows if float(row["q1"]) >= 0.20]
    assert all(float(row["I_AE"]) == 1.0 for row in beyond)


def test_curves_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert _run(["curves", "--attack", "nort", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_curves_jsonl_format(tmp_path):
    out = tmp_path / "c.jsonl"
    assert _run(["curves", "--attack", "dcnot-star", "--grid-step", "0.05",
                 "--format", "jsonl", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[-1]["I_AE"] == pytest.approx(1.0)


def test_thresholds_table(tmp_path, capsys):
    out = tmp_path / "thresholds.csv"
    assert _run(["thresholds", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "11.9" in text and "25.0" in text and "17.1" in text
    assert "10.0" in text and "14.6" in text and "8.8" in text
    assert "n/a" in text
    rows = list(csv.DictReader(out.open()))
    by_attack = {row["attack"]: row for row in rows}
    assert float(by_attack["IR"]["lm05_dr"]) == pytest.approx(0.119, abs=5e-4)
    assert by_attack["DCNOT*"]["bb84"] == ""
    assert by_attack["Generic"]["lm05_rr"] == ""


def test_thresholds_fixed_model(tmp_path, capsys):
    out = tmp_path / "thresholds.csv"
    assert _run(["thresholds", "--model", "fixed:0.05", "--out", str(out)]) == 0
    assert "secure everywhere" in capsys.readouterr().out
    by_attack = {row["attack"]: row for row in csv.DictReader(out.open())}
    assert by_attack["IR"]["lm05_rr"] == ""  # secure everywhere
    assert float(by_attack["IR"]["lm05_dr"]) == pytest.approx(0.178, abs=5e-4)


@pytest.mark.parametrize("command", ["simulate", "thresholds", "curves", "gain", "pns"])
def test_out_help_says_where_the_table_goes(command, capsys):
    # simulate and thresholds print a text report and write their table only to --out
    out_help = ("file for the CSV/JSONL table; without it only the text report is printed"
                if command in ("simulate", "thresholds") else "output file path (default stdout)")
    assert _run([command, "--help"]) == 0
    assert f"--out OUT {out_help}" in " ".join(capsys.readouterr().out.split())


def test_thresholds_fixed_model_at_one_half_secures_nothing(tmp_path):
    # Q_AB = 1/2 gives I_AB = 0: every threshold is 0, not an error
    out = tmp_path / "thresholds.csv"
    assert _run(["thresholds", "--model", "fixed:0.5", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    cells = [row[column] for row in rows for column in ("lm05_dr", "lm05_rr", "bb84")]
    assert {cell for cell in cells if cell} == {"0.0"}


def test_curves_fixed_model_holds_i_ab_constant(tmp_path):
    out = tmp_path / "ir.csv"
    assert _run(["curves", "--model", "fixed:0.1", "--grid-step", "0.05", "--out", str(out)]) == 0
    assert {row["I_AB"] for row in csv.DictReader(out.open())} == {"0.5310044064107188"}


@pytest.mark.parametrize("model", ["fixed:abc", "fixed:0.7"])
def test_bad_fixed_model_is_a_usage_error(model, capsys):
    assert _run(["curves", "--model", model]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: argument --model: bad fixed noise model {model!r}")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["curves", "thresholds"])
def test_bad_model_config_line_names_the_file_and_line(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = bogus\n")
    assert _run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}:1: model = bogus: argument --model: must be "
                                   "'identified' or 'fixed:<value>', got 'bogus'")
    assert captured.out == ""


def test_config_file_skips_comment_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# curve settings\n\n   \nattack = dcnot-star\n  # grid\ngrid_step = 0.25\n")
    assert _run(["curves", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0.0,1.0,0.0,0.0,1.0,1.0",
                                                        "0.25,0.18872187554086717,1.0,1.0,"
                                                        "-0.8112781244591328,-0.8112781244591328"]


@pytest.mark.parametrize("where, message", [("line without =", "expected key=value"),
                                            ("unreadable path", "cannot read config file")])
def test_config_file_read_errors_are_usage_errors(where, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if where == "line without =":
        cfg.write_text("grid_step = 0.05\nattack nort\n")
        message = f"{cfg}:2: {message}"
    assert _run(["curves", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_a_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"rounds = 2000\nxi = \xff\n")
    assert _run(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read config file {cfg}:") and captured.out == ""


def test_a_config_file_with_a_utf8_bom_reads_as_without_it(tmp_path, capsys):
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(b"rounds = 100\nattack = ir\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _run(["simulate", "--config", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert _run(["simulate", "--config", str(bom)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected and "rounds=100" in expected and captured.err == ""


def test_gain_curves_bb84_dominates(tmp_path):
    out = tmp_path / "gain.csv"
    assert _run(["gain", "--lmin", "0", "--lmax", "20", "--lstep", "5",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    bb84 = {row["L_km"]: float(row["value"]) for row in rows if row["protocol"] == "bb84"}
    lm05 = {row["L_km"]: float(row["value"]) for row in rows if row["protocol"] == "lm05"}
    assert set(bb84) == set(lm05) and len(bb84) == 5
    for length in bb84:
        assert bb84[length] >= lm05[length]


def test_pns_footer_reports_crossover(tmp_path, capsys):
    out = tmp_path / "pns.csv"
    assert _run(["pns", "--lmin", "0", "--lmax", "10", "--lstep", "2.5",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "crossover" in stdout
    km = float(stdout.split(":")[1].split("km")[0])
    assert 2.0 <= km <= 3.0
    last = out.read_text().splitlines()[-1].split(",")
    assert last[4] == "crossover"
    assert 2.0 <= float(last[0]) <= 3.0


def test_pns_footer_none_in_range(tmp_path, capsys):
    out = tmp_path / "pns.csv"
    assert _run(["pns", "--lmin", "10", "--lmax", "20", "--lstep", "5",
                 "--out", str(out)]) == 0
    assert "none in range" in capsys.readouterr().out
    last = out.read_text().splitlines()[-1].split(",")
    assert last[0] == "" and last[5] == "none in range"


@pytest.mark.parametrize("lmax", ["2", "5"], ids=["none-in-range", "crossover"])
def test_pns_stdout_is_the_table_alone(lmax, capsys):
    # without --out, the crossover is the footer row only, never a text line
    assert _run(["pns", "--lmax", lmax, "--lstep", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(SCAN_COLUMNS)
    rows = list(csv.reader(lines[1:]))
    assert len(rows) == 2 * (int(lmax) + 1) + 1 and all(len(row) == len(SCAN_COLUMNS) for row in rows)
    assert rows[-1][4] == "crossover"
    assert _run(["pns", "--lmax", lmax, "--lstep", "1", "--format", "jsonl"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [list(r) for r in records] == [list(SCAN_COLUMNS)] * len(rows)
    assert records[-1]["protocol"] == "crossover"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qkd2way", "thresholds"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "11.9" in proc.stdout


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_closed_stdout_exits_1_without_a_traceback(fmt):
    # ~2.7 MB of rows, far more than a pipe buffer holds, so the writes hit the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "qkd2way", "curves", "--grid-step", "0.00001",
                             "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@_NO_DEV_FULL
def test_a_failed_out_write_is_one_error_line(capsys):
    assert _run(["thresholds", "--out", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write --out /dev/full: No space left on device\n"
    assert captured.out == ""


@_NO_DEV_FULL
@pytest.mark.parametrize("argv", [["curves"], ["thresholds"], ["gain", "--lstep", "5", "--format", "jsonl"]])
def test_a_failed_stdout_write_is_one_error_line(argv):
    # curves fails mid-table, thresholds at main's flush; nothing more is printed at exit
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qkd2way", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("argv", [["gain", "--lstep", "nan"], ["gain", "--lmin", "nan"],
                                  ["pns", "--lmax", "inf"]])
def test_distance_scans_reject_non_finite_bounds(argv):
    # these loops never ended before the bounds were checked
    proc = subprocess.run(
        [sys.executable, "-m", "qkd2way", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_curves_rejects_non_finite_grid_step(step, capsys):
    assert _run(["curves", "--grid-step", step]) == 2
    assert f"grid_step must be finite, got {step}" in capsys.readouterr().err


def _cap_address_space():
    # a grid that outgrows its cap fails here with MemoryError, not on the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [["curves", "--grid-step", "1e-300"],
                                  ["gain", "--lmax", "1e9", "--lstep", "1e-9"],
                                  # a grid of 500,000 distances, but a crossover span of 2e6 km
                                  ["pns", "--lmax", "2e6", "--lstep", "4"],
                                  # lmax - lmin is 0, but the end point's 1e-9 km
                                  # tolerance holds 1e291 steps
                                  ["gain", "--lmax", "0", "--lstep", "1e-300"],
                                  # lmin + i * lstep rounds back to lmin for every i
                                  ["pns", "--lmin", "1e300", "--lmax", "1e300"]])
def test_oversized_grids_are_refused_before_they_are_built(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "qkd2way", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},  # per-thread buffers count against the cap
    )
    assert proc.returncode == 2
    assert "more than 1000000" in proc.stderr


_EXTREME_FLOATS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")
_FLOAT_FLAGS = {"curves": ("--grid-step",),
                "gain": ("--lmin", "--lmax", "--lstep"),
                "pns": ("--lmin", "--lmax", "--lstep"),
                "simulate": ("--xi", "--x", "--xprime", "--chi", "--c", "--reveal")}
_EXAMPLE_BUDGET_S = 2.0  # a pass of the slowest command takes about 25 ms


class _OverBudget(Exception):
    pass


@contextmanager
def _budget(seconds):
    def expire(signum, frame):
        raise _OverBudget(f"example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def _float_flag_argv(draw):
    command = draw(st.sampled_from(sorted(_FLOAT_FLAGS)))
    values = draw(st.dictionaries(st.sampled_from(_FLOAT_FLAGS[command]), st.sampled_from(_EXTREME_FLOATS)))
    argv = [command, *(f"{flag}={value}" for flag, value in values.items())]
    if command == "simulate":
        argv += ["--protocol", draw(st.sampled_from(("lm05", "bb84"))),
                 "--attack", draw(st.sampled_from(("none", "ir", "nort", "dcnot", "dcnot-star")))]
    return argv


# derandomized: a simulate example runs the five-sigma gates, which a fresh
# draw of examples on every run could fail (exit 1) once in a long while
@given(argv=_float_flag_argv())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_extreme_float_flags_work_or_exit_2(argv):
    # every float a user can type either runs or is refused with a message,
    # within the budget; no value reaches past the grid or span caps
    out, err = io.StringIO(), io.StringIO()
    with _budget(_EXAMPLE_BUDGET_S), redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    assert status in (0, 2), (argv, status, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert "error: " in err.getvalue()


FIGURE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_figure_data.py"


def _run_figure_script(*args):
    return subprocess.run([sys.executable, str(FIGURE_SCRIPT), *args],
                          capture_output=True, text=True, timeout=120)


def test_figure_script_matches_the_cli(tmp_path):
    proc = _run_figure_script("--out-dir", str(tmp_path / "script"), "--lstep", "5")
    assert proc.returncode == 0, proc.stderr
    direct = tmp_path / "cli"
    direct.mkdir()
    runs = {f"curve_{attack.replace('-', '_')}.csv": ["curves", "--attack", attack]
            for attack in ("ir", "nort", "dcnot-star", "generic", "bb84-ir", "bb84-opt")}
    runs["thresholds.csv"] = ["thresholds"]
    runs["secure_gain.csv"] = ["gain", "--lstep", "5"]
    runs["pns_regions.csv"] = ["pns", "--lstep", "5"]
    for name, argv in runs.items():
        assert _run([*argv, "--out", str(direct / name)]) == 0
    assert sorted(p.name for p in (tmp_path / "script").iterdir()) == sorted(runs)
    for name in runs:
        assert (tmp_path / "script" / name).read_bytes() == (direct / name).read_bytes()


def test_figure_script_stops_at_a_failing_subcommand(tmp_path):
    proc = _run_figure_script("--out-dir", str(tmp_path), "--grid-step", "nan")
    assert proc.returncode == 2
    assert "grid_step must be finite" in proc.stderr
    assert "wrote" not in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    assert build_parser() is build_parser()
    outs = {name: tmp_path / f"{name}.csv" for name in ("nort", "plain", "ir", "cfg", "after")}
    assert _run(["curves", "--attack", "nort", "--out", str(outs["nort"])]) == 0
    assert _run(["curves", "--out", str(outs["plain"])]) == 0
    assert _run(["curves", "--attack", "ir", "--out", str(outs["ir"])]) == 0
    assert outs["plain"].read_bytes() == outs["ir"].read_bytes() != outs["nort"].read_bytes()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_step = 0.05\nattack = nort\n")
    assert _run(["curves", "--config", str(cfg), "--out", str(outs["cfg"])]) == 0
    assert _run(["curves", "--out", str(outs["after"])]) == 0
    assert len(outs["cfg"].read_text().splitlines()) == 7
    assert outs["after"].read_bytes() == outs["ir"].read_bytes()


def test_failed_gate_says_by_how_much(tmp_path, monkeypatch, capsys):
    wrong = {**predicted_rates("lm05", AttackParams(kind="ir")), "q_ab": 0.1}
    monkeypatch.setattr(montecarlo, "predicted_rates", lambda protocol, attack: wrong)
    out = tmp_path / "report.csv"
    assert _run(["simulate", "--attack", "ir", "--rounds", "20000", "--seed", "3",
                 "--reveal", "0.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("verification FAILED for: q_ab (estimate 0.2")
    assert "predicted 0.100000" in err and "outside the 5-sigma band" in err
    assert "q1" not in err and "\n" not in err
    rows = {row["rate"]: row for row in csv.DictReader(out.open())}
    assert list(rows["q_ab"]) == list(REPORT_COLUMNS) and rows["q_ab"]["verdict"] == "FAIL"
    rate = next(r for r in run_batch(ProtocolConfig(rounds=20000, seed=3, reveal_fraction=0.5),
                                     AttackParams(kind="ir")).rates if r.name == "q_ab")
    z, distance = gate_miss(rate)
    assert f"z={z:+.2f}, {distance:.6f} outside" in err
    assert z > 5.0 and 0.0 < distance < rate.estimate - 0.1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10_000), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_gate_miss_agrees_with_the_gate(trials, share, prediction):
    errors = round(share * trials)
    glo, ghi = wilson_interval(errors, trials, z=5.0)
    rate = RateReport("q1", errors, trials, errors / trials, None, None, prediction, None)
    z, distance = gate_miss(rate)
    assume(abs(abs(z) - 5.0) > 1e-6)
    # the Wilson band is the set of predictions whose score z is at most 5
    assert (abs(z) <= 5.0) == (distance == 0.0) == (glo <= prediction <= ghi)
    assert distance == pytest.approx(max(glo - prediction, prediction - ghi, 0.0))


_SIMULATOR_MODULES = ("numpy", "qkd2way.qsim", "qkd2way.attacks", "qkd2way.protocol",
                      "qkd2way.montecarlo", "qkd2way.rng")
# dataclasses imports inspect; json serves only simulate and --format jsonl
_UNUSED_BY_CLOSED_FORMS = (*_SIMULATOR_MODULES, "dataclasses", "inspect", "json")
# each command in the order one process runs them, with what must still be unloaded after it
_COMMAND_LOADS = (
    (["thresholds"], (*_UNUSED_BY_CLOSED_FORMS, "qkd2way.photonics")),
    (["curves"], (*_UNUSED_BY_CLOSED_FORMS, "qkd2way.photonics")),
    (["gain", "--lstep", "5"], _UNUSED_BY_CLOSED_FORMS),
    (["pns", "--lstep", "5"], _UNUSED_BY_CLOSED_FORMS),
)


def test_closed_form_commands_load_neither_numpy_nor_the_simulator(tmp_path):
    script = f"""
import sys
from qkd2way.cli import main
for argv, unused in {_COMMAND_LOADS!r}:
    assert main([*argv, "--out", {str(tmp_path / "out.csv")!r}]) == 0, argv
    loaded = [name for name in unused if name in sys.modules]
    assert not loaded, (argv, loaded)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


_ROOT_IMPORT = """
import sys
import qkd2way
assert not [name for name in sys.modules if name.startswith("qkd2way.")]
assert [name for name in vars(qkd2way) if not name.startswith("_")] == ["PROTOCOLS"]
assert qkd2way.__version__
for name in ("no_such_name", "run_batch", "rng"):  # a name lives in its home module alone
    try:
        getattr(qkd2way, name)
    except AttributeError as exc:
        assert name in str(exc), exc
    else:
        raise AssertionError(name)
try:
    from qkd2way import no_such_name
except ImportError:
    pass
else:
    raise AssertionError("no_such_name")
from qkd2way import rng
from qkd2way.montecarlo import run_batch
"""


def test_package_root_loads_nothing_and_defines_only_its_version_and_protocols():
    proc = subprocess.run([sys.executable, "-c", _ROOT_IMPORT], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
