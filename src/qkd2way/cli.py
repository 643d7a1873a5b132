"""Command line front end.

Subcommands
-----------
simulate    run protocol rounds under an attack and verify the QBERs
curves      information curves I_AB / I_AE / I_BE / capacities vs q1
thresholds  security-threshold table (LM05 DR/RR and BB84 columns)
gain        beam-splitting secure gain vs distance (both protocols)
pns         PNS security-region margins vs distance, with the crossover

Every flag can also be given in a key=value config file (--config); an
explicit flag wins over the file.  The default seed comes from the
QKD2WAY_SEED environment variable when set.  Exit codes: 0 success or
all-pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

from .attacks import AttackParams
from .infotheory import (IDENTIFIED, MAX_GRID_POINTS, NoiseModel, curve_points, threshold,
                         write_curves_csv)
from .montecarlo import compare, failures, run_batch, report_text, write_report
from .photonics import crossover_distance, scan_distances, write_gain_csv
from .protocol import ProtocolConfig

DEFAULT_SEED = 20050920

_DEFAULTS = {
    "simulate": dict(protocol="lm05", attack="none", xi=1.0, x=math.pi / 2,
                     xprime=math.pi / 2, chi=0.0, rounds=100_000, c=0.25,
                     reveal=0.1, workers=1, seed=None, out=None, format="csv"),
    "curves": dict(attack="ir", model="identified", grid_step=0.001, out=None, format="csv"),
    "thresholds": dict(model="identified", out=None, format="csv"),
    "gain": dict(lmin=0.0, lmax=50.0, lstep=0.25, out=None, format="csv"),
    "pns": dict(lmin=0.0, lmax=50.0, lstep=0.25, out=None, format="csv"),
}

_CURVE_ATTACKS = {"ir": "ir", "nort": "nort", "dcnot-star": "dcnot_star",
                  "generic": "generic", "bb84-ir": "bb84_ir", "bb84-opt": "bb84_opt"}
_SIM_ATTACKS = {"none": "none", "ir": "ir", "nort": "nort",
                "dcnot": "dcnot", "dcnot-star": "dcnot_star"}


class UsageError(Exception):
    pass


def _parse_model(text: str) -> NoiseModel:
    if text == "identified":
        return IDENTIFIED
    if text.startswith("fixed:"):
        try:
            return NoiseModel("fixed", float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad fixed noise model {text!r}: {exc}") from exc
    raise UsageError(f"--model must be 'identified' or 'fixed:<value>', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qkd2way", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=argparse.SUPPRESS, help="key=value defaults file")
        p.add_argument("--out", default=argparse.SUPPRESS, help="output file path (default stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"), default=argparse.SUPPRESS)

    p = sub.add_parser("simulate", help="run rounds under an attack and verify QBERs")
    p.add_argument("--protocol", choices=("lm05", "bb84"), default=argparse.SUPPRESS)
    p.add_argument("--attack", choices=sorted(_SIM_ATTACKS), default=argparse.SUPPRESS)
    p.add_argument("--xi", type=float, default=argparse.SUPPRESS, help="attacked fraction in [0,1]")
    p.add_argument("--x", type=float, default=argparse.SUPPRESS, help="forward probe angle (nort)")
    p.add_argument("--xprime", type=float, default=argparse.SUPPRESS, help="backward probe angle (nort)")
    p.add_argument("--chi", type=float, default=argparse.SUPPRESS, help="flip probability (dcnot-star)")
    p.add_argument("--rounds", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--c", type=float, default=argparse.SUPPRESS, help="control-mode probability")
    p.add_argument("--reveal", type=float, default=argparse.SUPPRESS, help="revealed EM fraction")
    p.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    add_common(p)

    p = sub.add_parser("curves", help="information curves vs q1")
    p.add_argument("--attack", choices=sorted(_CURVE_ATTACKS), default=argparse.SUPPRESS)
    p.add_argument("--model", default=argparse.SUPPRESS)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=argparse.SUPPRESS)
    add_common(p)

    p = sub.add_parser("thresholds", help="security threshold table")
    p.add_argument("--model", default=argparse.SUPPRESS)
    add_common(p)

    for name, help_text in (("gain", "secure gain vs distance"),
                            ("pns", "PNS security regions vs distance")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--lmin", type=float, default=argparse.SUPPRESS)
        p.add_argument("--lmax", type=float, default=argparse.SUPPRESS)
        p.add_argument("--lstep", type=float, default=argparse.SUPPRESS)
        add_common(p)

    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = value
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge_options(command: str, namespace: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS[command])
    given = {k: v for k, v in vars(namespace).items() if k != "command"}
    if "config" in given:
        file_values = _load_config_file(given.pop("config"))
        for key, text in file_values.items():
            if key not in opts:
                raise UsageError(f"config key {key!r} not valid for {command}")
            current = opts[key]
            if isinstance(current, bool):
                opts[key] = text.lower() in ("1", "true", "yes")
            elif isinstance(current, int) and not isinstance(current, bool):
                opts[key] = int(text)
            elif isinstance(current, float):
                opts[key] = float(text)
            else:
                opts[key] = text
    opts.update(given)
    return opts


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("QKD2WAY_SEED")
    return int(env) if env else DEFAULT_SEED


@contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _cmd_simulate(opts) -> int:
    attack = AttackParams(kind=_SIM_ATTACKS[opts["attack"]], xi=opts["xi"],
                          x=opts["x"], x_prime=opts["xprime"], chi=opts["chi"])
    config = ProtocolConfig(protocol=opts["protocol"], control_prob=opts["c"],
                            rounds=opts["rounds"], seed=_resolve_seed(opts["seed"]),
                            reveal_fraction=opts["reveal"])
    report = run_batch(config, attack, workers=opts["workers"])
    print(report_text(report))
    if opts["out"]:
        with _open_out(opts["out"]) as fh:
            write_report(report, fh, opts["format"])
    status = compare(report)
    if status:
        print(f"verification FAILED for: {', '.join(failures(report))}", file=sys.stderr)
    return status


def _cmd_curves(opts) -> int:
    attack = _CURVE_ATTACKS[opts["attack"]]
    model = _parse_model(opts["model"])
    points = curve_points(attack, model, grid_step=opts["grid_step"])
    with _open_out(opts["out"]) as fh:
        if opts["format"] == "jsonl":
            import json
            from dataclasses import asdict
            for p in points:
                fh.write(json.dumps(asdict(p)) + "\n")
        else:
            write_curves_csv(points, fh)
    return 0


_TABLE_ROWS = (
    # label, LM05 curve, BB84 curve (None = attack undefined for that column)
    ("IR", "ir", "bb84_ir"),
    ("NORT", "nort", "bb84_opt"),
    ("DCNOT*", "dcnot_star", None),
    ("Generic", "generic", "generic"),
)
_NA_REASONS = {
    ("DCNOT*", "bb84"): "needs the two-way channel",
    ("Generic", "rr"): "bound covers direct reconciliation only",
}


def _cmd_thresholds(opts) -> int:
    model = _parse_model(opts["model"])
    rows = []
    for label, lm05_curve, bb84_curve in _TABLE_ROWS:
        cells = {}
        for column, curve, recon in (("dr", lm05_curve, "dr"), ("rr", lm05_curve, "rr"),
                                     ("bb84", bb84_curve, "dr")):
            if curve is None or (label, column) in _NA_REASONS:
                cells[column] = None
                continue
            cells[column] = threshold(curve, recon, model)
        rows.append((label, cells))

    def render(value, label, column):
        if value is None:
            reason = _NA_REASONS.get((label, column))
            return f"n/a ({reason})" if reason else "secure everywhere"
        return f"{100.0 * value:.1f}"

    table = [("attack", "LM05-DR (%)", "LM05-RR (%)", "BB84 (%)")]
    for label, cells in rows:
        table.append((label,) + tuple(render(cells[k], label, k) for k in ("dr", "rr", "bb84")))
    widths = [max(len(row[i]) for row in table) + 2 for i in range(3)]
    for row in table:
        print("".join(cell.ljust(width) for cell, width in zip(row, widths)) + row[3])
    if opts["out"]:
        with _open_out(opts["out"]) as fh:
            if opts["format"] == "jsonl":
                import json
                for label, cells in rows:
                    fh.write(json.dumps({"attack": label, **cells}) + "\n")
            else:
                import csv
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["attack", "lm05_dr", "lm05_rr", "bb84"])
                for label, cells in rows:
                    writer.writerow([label] + ["" if cells[k] is None else repr(cells[k])
                                               for k in ("dr", "rr", "bb84")])
    return 0


def _distance_grid(opts) -> list[float]:
    lmin, lmax, lstep = opts["lmin"], opts["lmax"], opts["lstep"]
    if not all(map(math.isfinite, (lmin, lmax, lstep))):
        raise UsageError("lmin, lmax and lstep must be finite")
    if lstep <= 0 or lmax < lmin or lmin < 0:
        raise UsageError("need lmin >= 0, lmax >= lmin and lstep > 0")
    if (lmax - lmin) / lstep >= MAX_GRID_POINTS:
        raise UsageError(f"lmin, lmax and lstep give more than {MAX_GRID_POINTS} distances")
    grid = []
    i = 0
    while True:
        length = lmin + i * lstep
        if length > lmax + 1e-9:
            break
        grid.append(length)
        i += 1
    return grid


def _scan_command(opts, objective: str) -> int:
    grid = _distance_grid(opts)
    points = []
    for protocol in ("bb84", "lm05"):
        points.extend(scan_distances(objective, protocol, grid))
    crossover_km = None
    note = None
    if objective == "pns_margin":
        try:
            crossover_km = crossover_distance(l_lo=opts["lmin"], l_hi=max(opts["lmax"], opts["lmin"] + 1e-9))
            print(f"pns crossover: {crossover_km:.2f} km")
        except ValueError:
            note = "none in range"
            print("pns crossover: none in range")
    with _open_out(opts["out"]) as fh:
        if opts["format"] == "jsonl":
            import json
            from dataclasses import asdict
            for p in points:
                fh.write(json.dumps(asdict(p)) + "\n")
            if objective == "pns_margin":
                fh.write(json.dumps({"record": "crossover", "L_km": crossover_km,
                                     "note": note}) + "\n")
        else:
            write_gain_csv(points, fh,
                           crossover_km=crossover_km,
                           crossover_note=note if objective == "pns_margin" else None)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _merge_options(namespace.command, namespace)
        if namespace.command == "simulate":
            return _cmd_simulate(opts)
        if namespace.command == "curves":
            return _cmd_curves(opts)
        if namespace.command == "thresholds":
            return _cmd_thresholds(opts)
        if namespace.command == "gain":
            return _scan_command(opts, "secure_gain")
        return _scan_command(opts, "pns_margin")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
