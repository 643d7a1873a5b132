"""Command line front end.

Subcommands
-----------
simulate    run protocol rounds under an attack and verify the QBERs
curves      information curves I_AB / I_AE / I_BE / capacities vs q1
thresholds  security-threshold table (LM05 DR/RR and BB84 columns)
gain        beam-splitting secure gain vs distance (both protocols)
pns         PNS security-region margins vs distance, with the crossover

Every flag can also be given in a key=value config file (--config): each
line is read as the flag --key=value, with the same type and choice checks,
and an explicit flag wins over the file; an error that leaving one line out
removes or changes names that line's file and number.

Each command is one function from its arguments to an _Output, with no
I/O; main alone writes it.  The table goes to --out, or to stdout when
there is no report, and then the report is printed.  --out is opened once
the command has returned with every input checked, and before anything is
printed, so a bad path exits 2 with nothing on stdout and a rejected input
creates no file; gain and pns return before their scans, which run as
their rows are written.  Exit codes: 0 success or all-pass, 1 verification
failure, closed stdout or failed write (one "error: cannot write ..."
line), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import cache, partial

from . import PROTOCOLS, __version__
from .infotheory import EVE_MODELS, IDENTIFIED, NoiseModel, curve_points, threshold
from .numerics import grid, real

DEFAULT_SEED = 20050920
CONFIG_MAX_BYTES = 1 << 20  # a config file's size limit: a larger one is refused, read no further

CURVE_COLUMNS = ("q1", "I_AB", "I_AE", "I_BE", "C_DR", "C_RR")
THRESHOLD_COLUMNS = ("attack", "lm05_dr", "lm05_rr", "bb84")
SCAN_COLUMNS = ("L_km", "mu_star", "value", "log10_value", "protocol", "objective")
REPORT_COLUMNS = ("rate", "errors", "trials", "estimate", "lo95", "hi95", "prediction", "verdict")
# --out of simulate and thresholds, which print a text report and write their table only to a file
_REPORT_OUT_HELP = "file for the CSV/JSONL table; without it only the text report is printed"
# attacks.ATTACK_KINDS with "-" for "_"; cli must not import attacks, which loads numpy
_SIM_ATTACKS = ("dcnot", "dcnot-star", "ir", "none", "nort")

# a command's results: the text report (or None), the table's rows, the
# stderr line of a failed verification, and the JSONL meta record
_Output = namedtuple("_Output", "report rows failure meta", defaults=(None, None))


class UsageError(Exception):
    pass


class _RaisingParser(argparse.ArgumentParser):
    """Parser that raises UsageError where argparse would print usage and exit: one error line."""

    def error(self, message):
        raise UsageError(message)


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("needs a file path")
    return text


def _parse_model(text: str) -> NoiseModel:
    if text == "identified":
        return IDENTIFIED
    if text.startswith("fixed:"):
        try:
            return NoiseModel("fixed", float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad fixed noise model {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"must be 'identified' or 'fixed:<value>', got {text!r}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once and shared: callers only parse with it."""
    parser = _RaisingParser(prog="qkd2way", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, run, columns):
        # no abbreviations: a config-file key must name its flag exactly
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(run=run, columns=columns)
        return p

    def add_common(p, out_help="output file path (default stdout)"):
        p.add_argument("--config", help="key=value defaults file")
        p.add_argument("--out", type=_out_path, help=out_help)
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = add_command("simulate", "run rounds under an attack and verify QBERs", _simulate, REPORT_COLUMNS)
    p.add_argument("--protocol", choices=PROTOCOLS, default="lm05")
    p.add_argument("--attack", choices=_SIM_ATTACKS, default="none")
    p.add_argument("--xi", type=float, default=1.0, help="attacked fraction in [0,1]")
    p.add_argument("--x", type=float, default=math.pi / 2, help="forward probe angle (nort)")
    p.add_argument("--xprime", type=float, default=math.pi / 2, help="backward probe angle (nort)")
    p.add_argument("--chi", type=float, default=0.0, help="flip probability (dcnot-star)")
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--c", type=float, default=0.25, help="control-mode probability")
    p.add_argument("--reveal", type=float, default=0.1, help="revealed EM fraction")
    add_common(p, _REPORT_OUT_HELP)

    p = add_command("curves", "information curves vs q1", _curves, CURVE_COLUMNS)
    p.add_argument("--attack", choices=sorted(m.replace("_", "-") for m in EVE_MODELS), default="ir")
    p.add_argument("--model", type=_parse_model, default="identified")
    p.add_argument("--grid-step", dest="grid_step", type=float, default=0.001)
    add_common(p)

    p = add_command("thresholds", "security threshold table", _thresholds, THRESHOLD_COLUMNS)
    p.add_argument("--model", type=_parse_model, default="identified")
    add_common(p, _REPORT_OUT_HELP)

    for name, help_text, objective in (("gain", "secure gain vs distance", "secure_gain"),
                                       ("pns", "PNS security regions vs distance", "pns_margin")):
        p = add_command(name, help_text, partial(_scan, objective=objective), SCAN_COLUMNS)
        p.add_argument("--lmin", type=float, default=0.0)
        p.add_argument("--lmax", type=float, default=50.0)
        p.add_argument("--lstep", type=float, default=0.25)
        add_common(p)

    return parser


def _config_args(path: str) -> list[tuple[str, str]]:
    """The config file's key=value lines as (origin "path:lineno: line", --key=value argument)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(CONFIG_MAX_BYTES + 1)  # so a file with no end ends the read
        if len(data) > CONFIG_MAX_BYTES:
            raise UsageError(f"cannot read config file {path}: larger than {CONFIG_MAX_BYTES} bytes")
        # a leading BOM is dropped, not read as part of the first key; lines split as a
        # text-mode file's are
        text = io.StringIO(data.decode("utf-8-sig"), newline=None)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    args = []
    for lineno, raw in enumerate(text, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise UsageError(f"{path}:{lineno}: a config file cannot name another")
        args.append((f"{path}:{lineno}: {line}", f"--{key.replace('_', '-')}={value}"))
    return args


def _prepare_with_config(parser, head: list[str], lines: list[tuple[str, str]], tail: list[str]):
    """(args, the command's _Output), with the config lines' arguments between head and tail.

    An error that leaving one line out removes or changes is that line's and
    names its origin: a parse error (UsageError) is retried by parsing alone,
    a check error (ValueError) by parsing and running the command.
    """
    def parse(skip=None):
        return parser.parse_args([*head, *(arg for i, (_, arg) in enumerate(lines) if i != skip), *tail])

    def prepare(skip=None):
        args = parse(skip)
        return args, args.run(args)

    try:
        return prepare()
    except (UsageError, ValueError) as exc:
        retry = parse if isinstance(exc, UsageError) else prepare
        for i, (origin, _) in enumerate(lines):
            try:
                retry(i)
            except (UsageError, ValueError) as without:
                if str(without) == str(exc):
                    continue  # the error stands without this line
            raise UsageError(f"{origin}: {exc}") from None
        raise


@contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from exc
    with fh:
        yield fh


def write_rows(file, fmt: str, columns, rows, meta=None) -> None:
    """One table: CSV (header, then one line per row) or one JSON object per row.

    csv.writer writes a float as its repr and None as an empty cell; JSONL
    keys are the CSV columns, with None as null, after the meta record if
    there is one.
    """
    if fmt == "jsonl":
        import json

        if meta is not None:
            file.write(json.dumps(meta) + "\n")
        for row in rows:
            file.write(json.dumps(dict(zip(columns, row))) + "\n")
        return
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _simulate(args) -> _Output:
    # the simulator (and numpy) load here, so the closed-form commands start without them
    from dataclasses import asdict, astuple

    import numpy as np

    from .attacks import AttackParams
    from .montecarlo import compare, failure_text, report_text, run_batch
    from .protocol import ProtocolConfig

    attack = AttackParams(kind=args.attack.replace("-", "_"), xi=args.xi,
                          x=args.x, x_prime=args.xprime, chi=args.chi)
    config = ProtocolConfig(protocol=args.protocol, control_prob=args.c,
                            rounds=args.rounds, seed=args.seed,
                            reveal_fraction=args.reveal)
    report = run_batch(config, attack)
    meta = {"record": "meta", "protocol": config.protocol, "attack": asdict(report.attack),
            "rounds": report.rounds, "seed": config.seed, "workers": report.workers,
            "engine": report.engine, "leaves": report.leaves, "elapsed_s": report.elapsed_s,
            "enumerate_s": report.enumerate_s, "draw_s": report.draw_s, "gate_s": report.gate_s,
            "rounds_per_s": report.rounds / report.elapsed_s, "qkd2way": __version__,
            "numpy": np.__version__}
    return _Output(report_text(report), map(astuple, report.rates),
                   failure_text(report) if compare(report) else None, meta)


def _curves(args) -> _Output:
    # InfoPoint fields are CURVE_COLUMNS
    return _Output(None, curve_points(args.attack.replace("-", "_"), args.model, grid_step=args.grid_step))


_TABLE_ROWS = (
    # label, LM05 curve, BB84 curve; _NA_REASONS names the cells left undefined
    ("IR", "ir", "bb84_ir"),
    ("NORT", "nort", "bb84_opt"),
    ("DCNOT*", "dcnot_star", None),
    ("Generic", "generic", "generic"),
)
_NA_REASONS = {
    ("DCNOT*", "bb84"): "needs the two-way channel",
    ("Generic", "rr"): "bound covers direct reconciliation only",
}


def _thresholds(args) -> _Output:
    """The text table as the report, and the CSV rows."""
    rows, table = [], [("attack", "LM05-DR (%)", "LM05-RR (%)", "BB84 (%)")]
    for label, lm05_curve, bb84_curve in _TABLE_ROWS:
        row, cells = [label], [label]
        for column, curve, recon in (("dr", lm05_curve, "dr"), ("rr", lm05_curve, "rr"),
                                     ("bb84", bb84_curve, "dr")):
            reason = _NA_REASONS.get((label, column))
            value = None if reason else threshold(curve, recon, args.model)
            row.append(value)
            if value is None:
                cells.append(f"n/a ({reason})" if reason else "secure everywhere")
            else:
                cells.append(f"{100.0 * value:.1f}")
        rows.append(row)
        table.append(cells)
    widths = [max(len(row[i]) for row in table) + 2 for i in range(3)]
    report = "\n".join("".join(cell.ljust(width) for cell, width in zip(row, widths)) + row[3]
                       for row in table)
    return _Output(report, rows)


def _distance_grid(args) -> list[float]:
    lmin = real("lmin", args.lmin, 0.0)
    return grid(lmin, args.lstep, real("lmax", args.lmax, lmin) + 1e-9, "lstep")


def _scan(args, objective: str) -> _Output:
    """The table, with pns's crossover line as the report when the table goes to --out."""
    from .photonics import NoCrossover, crossover_distance, scan_distances  # only gain/pns load it

    lengths = _distance_grid(args)
    footer, report = [], None
    if objective == "pns_margin":
        # the crossover is the table's last row, marked protocol=crossover; it
        # is found before the scan, so a span it refuses costs no scan
        try:
            km = crossover_distance(l_lo=args.lmin, l_hi=max(args.lmax, args.lmin + 1e-9))
        except NoCrossover:
            km = None
        text = "none in range" if km is None else f"{km:.2f} km"
        footer.append((km, None, None, None, "crossover", text if km is None else objective))
        if args.out:  # without --out, stdout is the table alone
            report = f"pns crossover: {text}"

    def rows():  # the scan runs as main writes its rows
        for protocol in sorted(PROTOCOLS):  # BB84's rows first
            for p in scan_distances(objective, protocol, lengths):
                log10 = math.log10(p.value) if p.value > 0.0 else None
                yield p.length_km, p.mu_star, p.value, log10, p.protocol, p.objective
        yield from footer

    return _Output(report, rows())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    writing = None  # the stream that a failed write names, once the command has returned
    try:
        args = parser.parse_args(argv)
        if args.config is None:
            out = args.run(args)
        else:
            # file values go ahead of the command line's flags, so a flag wins
            at = argv.index(args.command) + 1
            args, out = _prepare_with_config(parser, argv[:at], _config_args(args.config), argv[at:])
        writing = f"--out {args.out}" if args.out else "stdout"
        with _open_out(args.out) as fh:
            if args.out or out.report is None:
                write_rows(fh, args.format, args.columns, out.rows, out.meta)
        writing = "stdout"
        if out.report is not None:
            print(out.report)
        if out.failure:
            print(out.failure, file=sys.stderr)
        sys.stdout.flush()  # so that a closed pipe's EPIPE is raised here, not at exit
        return 1 if out.failure else 0
    except BrokenPipeError:  # stdout's reader has gone: what is left to flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # a write that failed otherwise, such as on a full disk
        if writing is None:
            raise
        print(f"error: cannot write {writing}: {exc.strerror}", file=sys.stderr)
        if writing == "stdout":  # so that nothing is flushed, and fails again, at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
