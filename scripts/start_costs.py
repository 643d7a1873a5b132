#!/usr/bin/env python3
"""Print what starting each qkd2way command in a fresh process costs.

For each command below (and a bare ``python -c pass`` for reference) it
runs ``python -m qkd2way ...`` RUNS times after one untimed warm-up, each
run between two bare ``python -c "import numpy"`` runs, checks that each
run ends with the exit code its row expects (2 for the config-file range
error, 0 for the rest), and prints the
median wall time and the median ratio of a run to the mean of the two
numpy runs beside it.  Process start-up speed drifts with the machine by
tens of percent between runs; the ratio stays steady.  The processes are
started by the benchmark's own helpers (``perfbench/run.py``), and the
loop is the one of its ``_between_numpy_starts``, so these ratios are
measured as the benchmark's ``cli_cold_start_vs_numpy`` is.

With --importtime each command also runs RUNS times under
``python -X importtime``, and the script lists the modules imported once
qkd2way starts (everything from the first ``qkd2way`` import on, so the
interpreter's own start-up is left out), with the median self and
cumulative import times of the TOP costliest.  Without cached bytecode
(PYTHONDONTWRITEBYTECODE) a module's self time includes compiling it.

    python scripts/start_costs.py --importtime
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.run import _numpy_start, _python  # noqa: E402

RUNS = 12  # timed runs per command
TOP = 8    # modules listed per command with --importtime

CONFIG = "{config}"  # stands for a config file holding CONFIG_TEXT
CONFIG_TEXT = "lstep = 0.002\nlmin = -1\n"  # line 2 is out of range, and is named as such

COMMANDS = (
    # label, python arguments, the exit code every run must end with
    ("python -c pass", ["-c", "pass"], 0),
    ("thresholds", ["-m", "qkd2way", "thresholds"], 0),
    ("curves", ["-m", "qkd2way", "curves"], 0),
    ("gain --lstep 5", ["-m", "qkd2way", "gain", "--lstep", "5"], 0),
    ("pns --lstep 5", ["-m", "qkd2way", "pns", "--lstep", "5"], 0),
    ("simulate --rounds 1000", ["-m", "qkd2way", "simulate", "--rounds", "1000"], 0),
    ("gain --config (lmin = -1)", ["-m", "qkd2way", "gain", "--config", CONFIG], 2),
)


def python(args: list[str], code: int) -> tuple[float, str]:
    """(wall seconds, stderr) of one fresh interpreter; raises unless it exits with code."""
    started = time.perf_counter()
    proc = _python(*args)
    seconds = time.perf_counter() - started
    if proc.returncode != code:
        raise RuntimeError(f"python {' '.join(args)} exited {proc.returncode}, not {code}: {proc.stderr}")
    return seconds, proc.stderr


def start_times(args: list[str], code: int) -> tuple[list[float], list[float]]:
    """(seconds, ratio to the numpy starts on either side) of each timed run."""
    seconds, ratios = [], []
    before = _numpy_start()
    for i in range(RUNS + 1):
        run = python(args, code)[0]
        after = _numpy_start()
        if i > 0:  # the first run only warms the file cache
            seconds.append(run)
            ratios.append(2.0 * run / (before + after))
        before = after
    return seconds, ratios


def qkd2way_imports(stderr: str) -> dict[str, tuple[float, float]]:
    """Module -> (self s, cumulative s) for the -X importtime rows from the first qkd2way import on.

    The rows come children first, so the qkd2way side starts with the first
    top-level import tree whose root is a qkd2way module.
    """
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "self [us]" not in line:
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            rows.append((name[1:].rstrip(), int(self_us), int(cumulative_us)))  # indent = depth
    tree_start = 0
    for i, (name, _, _) in enumerate(rows):
        if not name.startswith(" "):  # a top-level import ends the tree that began at tree_start
            if name.startswith("qkd2way"):
                return {n.strip(): (s * 1e-6, c * 1e-6) for n, s, c in rows[tree_start:]}
            tree_start = i + 1
    return {}


def import_rows(args: list[str], code: int) -> list[tuple[str, float, float]]:
    """The TOP qkd2way-side modules by median self time over RUNS importtime runs."""
    samples: dict[str, list[tuple[float, float]]] = {}
    for _ in range(RUNS):
        for name, times in qkd2way_imports(python(["-X", "importtime", *args], code)[1]).items():
            samples.setdefault(name, []).append(times)
    rows = [(name, statistics.median(s for s, _ in times), statistics.median(c for _, c in times))
            for name, times in samples.items()]
    return sorted(rows, key=lambda row: -row[1])[:TOP]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--importtime", action="store_true",
                        help="also list the costliest imports of each command")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "lmin.cfg"
        config.write_text(CONFIG_TEXT)
        commands = [(label, [str(config) if a == CONFIG else a for a in argv], code)
                    for label, argv, code in COMMANDS]
        width = max(len(label) for label, _, _ in commands)
        print(f"{'command':<{width}} {'median (ms)':>11} {'vs numpy':>8}")
        for label, argv, code in commands:
            seconds, ratios = start_times(argv, code)
            print(f"{label:<{width}} {1e3 * statistics.median(seconds):>11.1f} "
                  f"{statistics.median(ratios):>8.3f}")
        if args.importtime:
            for label, argv, code in commands[1:]:
                print(f"\n{label}: median import times from the first qkd2way import on")
                print(f"  {'self (ms)':>9} {'cumulative (ms)':>15}  module")
                for name, self_s, cumulative_s in import_rows(argv, code):
                    print(f"  {1e3 * self_s:>9.2f} {1e3 * cumulative_s:>15.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
