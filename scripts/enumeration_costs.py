#!/usr/bin/env python3
"""Print what building each verification scenario's leaf table costs.

For every scenario of verify_attacks.py, prints the leaf count of
``protocol.enumerate_round``, the coins its enumeration flips, its
first-call time (the call comes after ``cache_clear()`` on every qsim
cache: the kernel caches and the gate factories' caches, so the call also
builds its gates anew; and it starts from an empty leaf alphabet, so it
also checks and builds each new leaf value's record and counts the value)
and its repeat-call time (the same call again at once, with the caches and
the alphabet kept, which is what a second call gains from them).
Each time is the minimum over --calls calls in each of --processes fresh
processes, run one after another.  The last row sums the scenarios, which
is one pass of the ``mc_verify`` benchmark workload.  The digest column is the
first 12 hex digits of a sha256 over the table's weights bytes, counts
and records, taken once outside the timed calls: two trees that print the
same digests build bit-identical leaf tables.  The physics column hashes
the weights and counts alone, so it holds across a change of the record's
fields.  The next line is the leaf alphabet's size after one pass from an
empty alphabet, and the share of that pass's paths whose leaf value was
already there when the path was counted.  The next line is the occupancy
of the kernel caches of ``qsim.apply``, ``attach_ancilla`` and
``_outcomes`` against their ``_STEPS`` entries: from emptied caches, the
distinct keys one pass of the scenarios reads from each, then the misses
of each of two later passes.  The next two lines are the
stepped-round digests, the first 16 hex digits of a sha256 over 300
rounds stepped by ``protocol.run_round`` per scenario and control
probability: one over their records, one over their tally counters alone,
which reads no field either.  Two trees that print them step bit-identical
rounds.  The last line digests ``montecarlo.predicted_rates`` over a fixed
grid of every protocol, attack and knob (712 settings): two trees that
print it predict bit-identical rates.

    python scripts/enumeration_costs.py --calls 15 --processes 3
"""

import argparse
import hashlib
import json
import math
import subprocess
import sys
import time

from verify_attacks import SCENARIOS

from qkd2way import attacks as attacks_module
from qkd2way import protocol as protocol_module
from qkd2way import qsim, rng
from qkd2way.attacks import ATTACK_KINDS, ONE_WAY_KINDS, AttackParams
from qkd2way.montecarlo import predicted_rates
from qkd2way.protocol import (LeafTable, ProtocolConfig, _counters, _LeafAlphabet, enumerate_round,
                              run_round)


def label(protocol: str, attack: AttackParams) -> str:
    knobs = {"ir": ("xi",), "nort": ("xi", "x", "x_prime"), "dcnot": ("xi",),
             "dcnot_star": ("xi", "chi")}.get(attack.kind, ())
    return " ".join([protocol, attack.kind, *(f"{k}={getattr(attack, k):.4g}" for k in knobs)])


def digest(table: LeafTable) -> str:
    """12-hex sha256 prefix of the table's weights bytes, counts and records."""
    h = hashlib.sha256(table.weights.tobytes())
    h.update(table.counts.tobytes())
    h.update(repr(table.records).encode())
    return h.hexdigest()[:12]


def physics_digest(table: LeafTable) -> str:
    """12-hex sha256 prefix of the table's weights and counts bytes: no record field is read."""
    h = hashlib.sha256(table.weights.tobytes())
    h.update(table.counts.tobytes())
    return h.hexdigest()[:12]


def stepped_rounds():
    """300 rounds per scenario and c in {0.25, 0.6}, each run stepped on
    rng.stream(1234, scenario index, 100 c)."""
    for i, (protocol, attack) in enumerate(SCENARIOS):
        for c in (0.25, 0.6):
            config = ProtocolConfig(protocol=protocol, control_prob=c)
            stream = rng.stream(1234, i, int(100 * c))
            for _ in range(300):
                yield run_round(config, attack, stream)


def stepped_digest() -> str:
    """16-hex sha256 prefix of the reprs of the stepped rounds' records."""
    h = hashlib.sha256()
    for record in stepped_rounds():
        h.update(repr(record).encode())
    return h.hexdigest()[:16]


def stepped_counters_digest() -> str:
    """16-hex sha256 prefix of the stepped rounds' tally counters: no record field is read."""
    h = hashlib.sha256()
    for record in stepped_rounds():
        h.update(repr(_counters(record)).encode())
    return h.hexdigest()[:16]


_PREDICTION_XIS = (0.0, 1e-300, 1e-9, 0.1, 0.37, 0.5, 0.8, 1.0)
_PREDICTION_ANGLES = (0.0, 1e-8, 0.3, 0.7, math.pi / 6, math.pi / 4, math.pi / 3, 1.1, math.pi / 2)
_PREDICTION_CHIS = (0.0, 0.1, 0.5)


def prediction_settings():
    """(protocol, attack) over every protocol, each attack its channel carries, xi, and the
    knobs of the kind: x and x' for nort, chi for dcnot_star (712 settings)."""
    for protocol in ("lm05", "bb84"):
        for kind in ONE_WAY_KINDS if protocol == "bb84" else ATTACK_KINDS:
            angles = _PREDICTION_ANGLES if kind == "nort" else (math.pi / 2,)
            chis = _PREDICTION_CHIS if kind == "dcnot_star" else (0.0,)
            for xi in _PREDICTION_XIS:
                for x in angles:
                    for x_prime in angles:
                        for chi in chis:
                            yield protocol, AttackParams(kind, xi, x, x_prime, chi)


def predictions_digest() -> str:
    """16-hex sha256 prefix of the reprs of predicted_rates over prediction_settings()."""
    text = "\n".join(repr(predicted_rates(protocol, attack))
                     for protocol, attack in prediction_settings())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def count_coins(config: ProtocolConfig, attack: AttackParams) -> tuple[LeafTable, int]:
    """(leaf table, coins flipped) of one enumeration."""
    flips = 0
    plain = rng.Branching.coin

    def counted(self, p):
        nonlocal flips
        flips += 1
        return plain(self, p)

    rng.Branching.coin = counted
    try:
        table = enumerate_round(config, attack)
    finally:
        rng.Branching.coin = plain
    return table, flips


def one_pass() -> list[LeafTable]:
    """The scenarios' leaf tables: one mc_verify pass."""
    return [enumerate_round(ProtocolConfig(protocol=protocol), attack) for protocol, attack in SCENARIOS]


def alphabet_hits() -> tuple[int, int]:
    """(leaf values in the alphabet after one pass from an empty one, paths of that pass).
    Every path but each value's first finds its value already there."""
    protocol_module._ALPHABET = _LeafAlphabet()
    paths = sum(len(table.records) for table in one_pass())
    return len(protocol_module._ALPHABET.rows), paths


def kernel_occupancy(later_passes: int = 2) -> dict[str, tuple[int, list[int]]]:
    """Per kernel cache: (the distinct keys one pass from emptied qsim caches reads, the misses
    of each later pass).  In the first pass every module that names a kernel calls it through
    a wrapper that records the key."""
    for f in vars(qsim).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    kernels = {name: getattr(qsim, name) for name in ("apply", "attach_ancilla", "_outcomes")}
    keys = {name: set() for name in kernels}

    def recorded(name, kernel):
        return lambda *args: keys[name].add(args) or kernel(*args)

    bound = [(module, name) for module in (qsim, attacks_module, protocol_module)
             for name in kernels if getattr(module, name, None) is kernels[name]]
    for module, name in bound:
        setattr(module, name, recorded(name, kernels[name]))
    try:
        one_pass()
    finally:
        for module, name in bound:
            setattr(module, name, kernels[name])
    misses = {name: [] for name in kernels}
    for _ in range(later_passes):
        before = {name: kernel.cache_info().misses for name, kernel in kernels.items()}
        one_pass()
        for name, kernel in kernels.items():
            misses[name].append(kernel.cache_info().misses - before[name])
    return {name: (len(keys[name]), misses[name]) for name in kernels}


def call_seconds(calls: int) -> tuple[list[float], list[float]]:
    """Per scenario, the fastest of `calls` first calls, each from emptied qsim caches and
    an empty leaf alphabet, and the fastest of the repeat calls made right after them."""
    caches = [f for f in vars(qsim).values() if hasattr(f, "cache_clear")]
    first = [math.inf] * len(SCENARIOS)
    repeat = [math.inf] * len(SCENARIOS)
    for _ in range(calls):
        for i, (protocol, attack) in enumerate(SCENARIOS):
            config = ProtocolConfig(protocol=protocol)
            for cache in caches:
                cache.cache_clear()
            protocol_module._ALPHABET = _LeafAlphabet()
            for best in (first, repeat):
                started = time.perf_counter()
                enumerate_round(config, attack)
                best[i] = min(best[i], time.perf_counter() - started)
    return first, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=15, help="timed calls per scenario and process")
    parser.add_argument("--processes", type=int, default=3, help="fresh processes, run in turn")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.calls < 1 or args.processes < 1:
        parser.error("--calls and --processes must be >= 1")
    if args.worker:
        print(json.dumps(call_seconds(args.calls)))
        return 0

    first = [math.inf] * len(SCENARIOS)
    repeat = [math.inf] * len(SCENARIOS)
    for _ in range(args.processes):
        out = subprocess.run([sys.executable, __file__, "--worker", "--calls", str(args.calls)],
                             check=True, capture_output=True, text=True).stdout
        worker_first, worker_repeat = json.loads(out)
        first = [min(a, b) for a, b in zip(first, worker_first)]
        repeat = [min(a, b) for a, b in zip(repeat, worker_repeat)]

    values, paths = alphabet_hits()
    rows = []
    for (protocol, attack), first_s, repeat_s in zip(SCENARIOS, first, repeat):
        table, coins = count_coins(ProtocolConfig(protocol=protocol), attack)
        rows.append((label(protocol, attack), len(table.weights), coins, first_s, repeat_s,
                     digest(table), physics_digest(table)))
    rows.append(("total (one mc_verify pass)", *(sum(col) for col in list(zip(*rows))[1:-2]), "", ""))
    width = max(len(row[0]) for row in rows)
    print(f"{'scenario':<{width}} {'leaves':>6} {'coins':>6} {'first call (ms)':>15} "
          f"{'repeat call (ms)':>16} {'digest':<12} physics")
    for name, leaves, coins, first_s, repeat_s, table_digest, physics in rows:
        print(f"{name:<{width}} {leaves:>6} {coins:>6} {1e3 * first_s:>15.2f} {1e3 * repeat_s:>16.2f} "
              f"{table_digest:<12} {physics}")
    print(f"leaf alphabet after one pass from empty: {values} values; {paths - values:,} of "
          f"{paths:,} paths ({(paths - values) / paths:.0%}) found theirs already there")
    occupancy = kernel_occupancy()
    print(f"kernel caches of {qsim._STEPS} entries (keys one pass reads / misses of two later "
          f"passes): " + "; ".join(f"{name} {distinct} / {', '.join(map(str, later))}"
                                   for name, (distinct, later) in occupancy.items()))
    print(f"stepped-round digest {stepped_digest()}")
    print(f"stepped-counters digest {stepped_counters_digest()}")
    print(f"predictions digest {predictions_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
