#!/usr/bin/env python3
"""Run the full attack-verification sweep.

Executes every canonical eavesdropping scenario at the requested round
count and prints one report block per scenario, with each empirical QBER
gated against its closed form.  Exit status 0 means every gate passed.

    python scripts/verify_attacks.py --rounds 1000000
"""

import argparse
import math
import sys

from qkd2way.attacks import AttackParams
from qkd2way.cli import DEFAULT_SEED
from qkd2way.montecarlo import compare, report_text, run_batch
from qkd2way.protocol import ProtocolConfig

SCENARIOS = [
    ("lm05", AttackParams(kind="none")),
    ("lm05", AttackParams(kind="ir", xi=1.0)),
    ("lm05", AttackParams(kind="ir", xi=0.5)),
    ("lm05", AttackParams(kind="nort", x=math.pi / 6)),
    ("lm05", AttackParams(kind="nort", x=math.pi / 4)),
    ("lm05", AttackParams(kind="nort", x=math.pi / 3)),
    ("lm05", AttackParams(kind="dcnot")),
    ("lm05", AttackParams(kind="dcnot_star", chi=0.1)),
    ("bb84", AttackParams(kind="ir", xi=1.0)),
    ("lm05", AttackParams(kind="nort", x=0.7, x_prime=1.1)),  # the one Q_AB that depends on x'
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    status = 0
    for protocol, attack in SCENARIOS:
        config = ProtocolConfig(protocol=protocol, rounds=args.rounds, seed=args.seed)
        report = run_batch(config, attack)
        print(report_text(report))
        print()
        status = max(status, compare(report))
    print("verdict:", "all scenarios PASS" if status == 0 else "FAILURES present")
    return status


if __name__ == "__main__":
    sys.exit(main())
