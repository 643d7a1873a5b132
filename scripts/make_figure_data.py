#!/usr/bin/env python3
"""Export every analysis curve as CSV for plotting.

Writes into the output directory (default ./figure_data):

  curve_<attack>.csv     mutual informations and capacities vs q1, for
                         ir, nort, dcnot-star, generic, bb84-ir, bb84-opt
  thresholds.csv         the security-threshold table
  secure_gain.csv        per-distance optimized beam-splitting gain
  pns_regions.csv        per-distance optimized PNS margins + crossover

All files use the same schemas as the CLI subcommands.  The script stops
with the exit status of the first subcommand that fails.
"""

import argparse
from pathlib import Path

from qkd2way.cli import main as cli_main
from qkd2way.infotheory import EVE_MODELS


def figure_jobs(grid_step: float = 0.001, lmax: float = 50.0,
                lstep: float = 0.25) -> list[tuple[str, list[str]]]:
    """(file name, CLI arguments without --out) of each figure CSV, in the order they are written."""
    lengths = ["--lmax", str(lmax), "--lstep", str(lstep)]
    jobs = [(f"curve_{model}.csv",
             ["curves", "--attack", model.replace("_", "-"), "--grid-step", str(grid_step)])
            for model in EVE_MODELS]
    return jobs + [("thresholds.csv", ["thresholds"]),
                   ("secure_gain.csv", ["gain", *lengths]),
                   ("pns_regions.csv", ["pns", *lengths])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out-dir", type=Path, default=Path("figure_data"))
    parser.add_argument("--grid-step", type=float, default=0.001)
    parser.add_argument("--lmax", type=float, default=50.0)
    parser.add_argument("--lstep", type=float, default=0.25)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for name, argv in figure_jobs(args.grid_step, args.lmax, args.lstep):
        path = args.out_dir / name
        status = cli_main([*argv, "--out", str(path)])
        if status:
            return status
        print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
