#!/usr/bin/env python3
"""Print where one pass of the ``round_log`` benchmark workload spends its time, in process.

For each setting of the workload's first pass at --seed (its name, config
and attack come from ``perfbench/workloads.py``: 10,000 rounds each), prints
the time of ``protocol.enumerate_round``, of ``run`` (which enumerates the
round too, then draws, shuffles and gathers the rounds), of ``tally`` of the
run and of ``write_round_log`` of the run into a ``StringIO``, and then the
record-by-record cost of the same rounds: ``tally`` and the log of
``list(run(...))``, which reads them one chunk at a time.  Each time is
the minimum over --calls calls, made after one warm-up call of each, so the
kernel caches and the leaf alphabet hold the settings, as they do in every
benchmark pass but the first.  The pass column is run + tally + log, the
calls one benchmark pass times, and the last row sums the settings.  The
last line is a sha256 over the settings' round logs in order: two trees that
print the same hash write byte-identical round logs.

    python scripts/round_log_costs.py --calls 40
"""

import argparse
import hashlib
import io
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import build_inputs  # noqa: E402

from qkd2way.protocol import enumerate_round, run, tally, write_round_log  # noqa: E402

DEFAULT_SEED = 0
COLUMNS = ("enumerate", "run", "tally", "log", "tally list", "log list")
PASS = slice(1, 4)  # run, tally and log: the calls of one benchmark pass


def settings(seed: int):
    """(name, config, attack) of each call of the workload's first pass at `seed`."""
    return build_inputs("round_log", seed)


def log_hash(logs: list[str]) -> str:
    """sha256 over the round logs, concatenated in order."""
    return hashlib.sha256("".join(logs).encode()).hexdigest()


def _log(records) -> str:
    buffer = io.StringIO()
    write_round_log(records, buffer)
    return buffer.getvalue()


def call_seconds(config, attack, calls: int) -> tuple[list[float], str]:
    """The fastest of `calls` timed calls of each step after one warm-up call, and the run's log."""
    steps = (lambda: enumerate_round(config, attack), lambda: run(config, attack),
             lambda: tally(rounds), lambda: _log(rounds), lambda: tally(listed), lambda: _log(listed))
    rounds = steps[1]()
    listed = list(rounds)
    best = [math.inf] * len(steps)
    for timed in [False] + [True] * calls:
        for i, step in enumerate(steps):
            started = time.perf_counter()
            step()
            elapsed = time.perf_counter() - started
            if timed:
                best[i] = min(best[i], elapsed)
    return best, _log(rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=15, help="timed calls per step")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="the workload seed")
    args = parser.parse_args()
    if args.calls < 1:
        parser.error("--calls must be >= 1")

    rows, logs = [], []
    for name, config, attack in settings(args.seed):
        seconds, log = call_seconds(config, attack, args.calls)
        rows.append((f"{name} ({config.rounds} rounds)", seconds))
        logs.append(log)
    rows.append(("total (one round_log pass)", [sum(column) for column in zip(*(s for _, s in rows))]))
    width = max(len(name) for name, _ in rows)
    print(f"{'setting':<{width}}" + "".join(f" {c + ' (ms)':>15}" for c in (*COLUMNS, "pass")))
    for name, seconds in rows:
        print(f"{name:<{width}}" + "".join(f" {1e3 * s:>15.3f}" for s in (*seconds, sum(seconds[PASS]))))
    print(f"round-log hash {log_hash(logs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
