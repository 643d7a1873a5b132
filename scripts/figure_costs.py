#!/usr/bin/env python3
"""Print what each command of the figure pipeline costs in process.

Runs the nine commands of make_figure_data.py (six curves, the threshold
table, the gain and the pns scans, each with --out into a temporary
directory) through ``cli.main`` in this process.  Each command's time is
the minimum over --calls calls, made after one warm-up call of every
command.  The next row sums them, which is one pass of the ``figures``
benchmark workload.  The last line is the figure-CSV hash: a sha256 over
the ``sha256sum`` lines of the nine CSVs in name order, the hash
tests/test_bit_identity.py pins.  Two trees that print the same hash write
byte-identical figure CSVs.

    python scripts/figure_costs.py --calls 15
"""

import argparse
import contextlib
import hashlib
import io
import math
import sys
import tempfile
import time
from pathlib import Path

from make_figure_data import figure_jobs

from qkd2way.cli import main as cli_main


def figure_hash(directory: Path) -> str:
    """sha256 over the sha256sum lines of the directory's CSVs, in the C-locale order of a shell glob."""
    listing = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                      for path in sorted(directory.glob("*.csv")))
    return hashlib.sha256(listing.encode()).hexdigest()


def call_seconds(jobs, out_dir: Path, calls: int) -> list[float]:
    """Per job, the fastest of `calls` timed calls after one warm-up pass over every job."""
    best = [math.inf] * len(jobs)
    with contextlib.redirect_stdout(io.StringIO()):  # thresholds and pns print a text report
        for timed in [False] + [True] * calls:
            for i, (name, argv) in enumerate(jobs):
                started = time.perf_counter()
                status = cli_main([*argv, "--out", str(out_dir / name)])
                elapsed = time.perf_counter() - started
                if status:
                    raise SystemExit(f"{' '.join(argv)} exited {status}")
                if timed:
                    best[i] = min(best[i], elapsed)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=15, help="timed calls per command")
    args = parser.parse_args()
    if args.calls < 1:
        parser.error("--calls must be >= 1")

    jobs = figure_jobs()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        seconds = call_seconds(jobs, out_dir, args.calls)
        digest = figure_hash(out_dir)
    rows = [(" ".join(argv), s) for (_, argv), s in zip(jobs, seconds)]
    rows.append(("total (one figures pass)", sum(seconds)))
    width = max(len(name) for name, _ in rows)
    print(f"{'command':<{width}} {'time (ms)':>9}")
    for name, s in rows:
        print(f"{name:<{width}} {1e3 * s:>9.2f}")
    print(f"figure-CSV hash {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
