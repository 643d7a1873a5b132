#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --seconds T``
in the base checkout and in the changed one, with the same seed and
seconds on both sides; even pairs run the base first, odd pairs the change
first, so a drift of the machine's speed falls on both sides alike.  Only
the last line of each run's standard output, its JSON verdict, is read.
A run that exits non-zero is reported with its exit code, and one that
exits 0 without a JSON object on its last line as malformed; either is
left out of the medians and of the pairs counted for wins, and the others
go on.

Prints one line per run (its ``correct`` and ``failed`` and its end-to-end
metrics), then per end-to-end metric each side's median and quartiles, the
pairs the change wins and the base's interquartile range, and last the runs
that were not correct or failed.  The metrics and their directions come
from the changed checkout's ``BENCHMARK.json``.

    python3 scripts/paired_bench.py --base ../parent --change . \\
        --workload mc_verify --pairs 10 --seed 101
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[str, Optional[dict]]:
    """One benchmark run's JSON verdict, the last line of its standard output, or None and why
    there is none: its exit code, or "malformed output" when it exits 0 without one."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}", None
    try:
        verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):  # no output, or a last line that is not JSON
        verdict = None
    return ("", verdict) if isinstance(verdict, dict) else ("malformed output", None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}  # per pair, the run's verdict, None if it failed
    failed = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            why, line = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(line)
            if line is None:
                failed.append(f"{side} pair {i} ({why})")
                print(f"pair {i} seed {seed} {side:<6} failed with {why}", flush=True)
                continue
            metrics = " ".join(f"{name}={m['value']:.4g}" for name, m in line["metrics"].items())
            print(f"pair {i} seed {seed} {side:<6} correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {metrics}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    print(f"{'metric':<24} {'base p50 [q1, q3]':>28} {'change p50 [q1, q3]':>28} "
          f"{'change':>8} {'wins':>6} {'base IQR':>9}")
    pairs = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b is not None and c is not None]
    for name, direction in better.items():
        values = {side: [line["metrics"][name]["value"] for line in runs[side] if line is not None]
                  for side in runs}
        if min(map(len, values.values())) < 2:
            print(f"{name:<24} too few runs to compare")
            continue
        (bq1, bmed, bq3), (cq1, cmed, cq3) = (statistics.quantiles(values[side], n=4, method="inclusive")
                                              for side in ("base", "change"))
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b["metrics"][name]["value"] - c["metrics"][name]["value"]) > 0
                   for b, c in pairs)
        print(f"{name:<24} {f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>28} "
              f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':>28} {(cmed - bmed) / bmed:>+8.1%} "
              f"{f'{wins}/{len(pairs)}':>6} {bq3 - bq1:>9.4g}")
    incorrect = [f"{side} pair {i}" for side in runs for i, line in enumerate(runs[side])
                 if line is not None and not line["correct"]]
    summary = [f"{label}: {', '.join(names)}"
               for label, names in (("not correct", incorrect), ("failed", failed)) if names]
    print("; ".join(summary) or "every run correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
