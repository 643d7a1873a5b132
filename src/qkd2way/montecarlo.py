"""Batch experiment runner with analytic-vs-empirical verification.

Engine: every round is an independent, identically distributed draw from
one finite distribution -- a fixed circuit whose only randomness is a
sequence of coins (see :mod:`qkd2way.rng`).  :func:`enumerate_round` runs
the round state machine once per outcome path, giving a leaf table of path
probabilities and per-leaf tally counters, and a batch of n rounds is then
one multinomial draw over the leaves.  This holds only while rounds are
i.i.d.: an attack or protocol whose rounds share state (memory, drift,
adaptive choices) cannot use it, and must run round by round as
:func:`qkd2way.protocol.run` does.

Each tallied rate is reported with a 95% Wilson interval and, where a
closed form exists, gated PASS/FAIL against the prediction using a 5-sigma
Wilson band (wide enough to be flake-free at a million rounds).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import rng as _rng
from .attacks import NO_ATTACK, AttackParams, make_strategy
from .protocol import ProtocolConfig, RoundRecord, Tallies, run_round_bb84, run_round_lm05, tally

RATE_NAMES = ("q1", "q_ab", "q_ae", "q_be")
ENGINE = "leaf-multinomial"

_GATE_Z = 5.0   # verdict band
_CI_Z = 1.959963984540054  # two-sided 95%
_WEIGHT_ATOL = 1e-12


@dataclass(frozen=True)
class RateReport:
    name: str
    errors: int
    trials: int
    estimate: Optional[float]
    lo95: Optional[float]
    hi95: Optional[float]
    prediction: Optional[float]
    verdict: Optional[str]  # PASS/FAIL, None when skipped


@dataclass(frozen=True)
class BatchReport:
    config: ProtocolConfig
    attack: AttackParams
    rounds: int
    seed: int
    workers: int
    tallies: Tallies
    rates: tuple[RateReport, ...]
    elapsed_s: float
    engine: str = ENGINE
    leaves: int = 0


def wilson_interval(errors: int, trials: int, z: float = _CI_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; always inside [0, 1]."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    # the interval always holds p; rounding can leave e.g. lo = 5.6e-17 at p = 0
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


def predicted_rates(protocol: str, attack: AttackParams) -> dict[str, Optional[float]]:
    """Closed-form expectations for each tallied rate; None = no prediction.

    q1 and q_ab average over all (matched / revealed) rounds, so they scale
    with the attacked fraction xi; q_ae and q_be are conditioned on the
    rounds where Eve actually guessed, so they do not.
    """
    kind = attack.kind
    xi = attack.xi
    none = {name: None for name in RATE_NAMES}
    if protocol == "bb84":
        if kind == "none":
            return {**none, "q1": 0.0}
        if kind == "ir":
            return {**none, "q1": 0.25 * xi, "q_be": 0.25 if xi > 0 else None}
        raise ValueError(f"attack {kind!r} is not defined for bb84")
    if kind == "none":
        return {**none, "q1": 0.0, "q_ab": 0.0}
    guessed = xi > 0
    if kind == "ir":
        return {"q1": 0.25 * xi, "q_ab": 0.25 * xi,
                "q_ae": 0.0 if guessed else None, "q_be": 0.25 if guessed else None}
    if kind == "nort":
        p = (1.0 - math.sin(attack.x)) / 2.0
        pp = (1.0 - math.sin(attack.x_prime)) / 2.0
        copy_exact = abs(attack.x_prime - math.pi / 2) < 1e-9
        return {"q1": xi * (1.0 - math.cos(attack.x)) / 4.0,
                # misaligned backward copy fully scrambles Bob's outcome
                "q_ab": 0.25 * xi if copy_exact else None,
                "q_ae": (p * (1.0 - pp) + (1.0 - p) * pp) if guessed else None,
                "q_be": (2.0 - math.sin(attack.x)) / 4.0 if (guessed and copy_exact) else None}
    chi = attack.chi if kind == "dcnot_star" else 0.0
    return {"q1": 0.25 * xi, "q_ab": chi * xi,
            "q_ae": 0.0 if guessed else None, "q_be": 0.0 if guessed else None}


@dataclass(frozen=True)
class LeafTable:
    """Every outcome path of one round: probability, record and tally counters.

    ``counts`` has one row per leaf holding the eight counters of
    ``tally([record])`` in (errors, trials) pairs, in RATE_NAMES order.
    """

    weights: np.ndarray
    records: tuple[RoundRecord, ...]
    counts: np.ndarray

    def exact_rates(self) -> dict[str, Optional[float]]:
        """Expected errors / expected trials per rate; None where no round is a trial."""
        expected = (self.weights @ self.counts).tolist()
        return {name: errors / trials if trials > 0 else None
                for name, errors, trials in zip(RATE_NAMES, expected[0::2], expected[1::2])}


def _counters(t: Tallies) -> tuple[int, ...]:
    return tuple(c for name in RATE_NAMES for c in getattr(t, name))


def enumerate_round(config: ProtocolConfig, attack: AttackParams = NO_ATTACK) -> LeafTable:
    """Exact outcome distribution of one round, by running it once per coin path."""
    strategy = make_strategy(attack)
    round_fn = run_round_lm05 if config.protocol == "lm05" else run_round_bb84
    weights, records = zip(*_rng.enumerate_paths(lambda branch: round_fn(config, strategy, branch)))
    total = math.fsum(weights)
    if abs(total - 1.0) > _WEIGHT_ATOL:
        raise ValueError(f"leaf weights sum to {total!r}, not 1")
    counts = np.array([_counters(tally([r])) for r in records], dtype=np.int64)
    return LeafTable(np.array(weights), records, counts)


def run_batch(config: ProtocolConfig, attack: AttackParams = NO_ATTACK,
              n: Optional[int] = None, seed: Optional[int] = None,
              workers: int = 1) -> BatchReport:
    """Sample n rounds from the exact leaf table and gate the tallies against predictions.

    ``workers`` is validated and recorded only: one multinomial draw needs no
    parallelism, and the tallies depend on (config, attack, n, seed) alone.
    """
    n = config.rounds if n is None else n
    seed = config.seed if seed is None else seed
    if n < 1:
        raise ValueError("n must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    predictions = predicted_rates(config.protocol, attack)  # validates the combo
    started = time.perf_counter()
    table = enumerate_round(config, attack)
    hits = _rng.stream(seed).multinomial(n, table.weights)
    counters = (hits @ table.counts).tolist()
    total = Tallies(*zip(counters[0::2], counters[1::2]))
    elapsed = time.perf_counter() - started

    rates = []
    for name in RATE_NAMES:
        errors, trials = getattr(total, name)
        prediction = predictions[name]
        if trials == 0:
            rates.append(RateReport(name, errors, trials, None, None, None, prediction, None))
            continue
        lo95, hi95 = wilson_interval(errors, trials)
        verdict = None
        if prediction is not None:
            glo, ghi = wilson_interval(errors, trials, z=_GATE_Z)
            verdict = "PASS" if glo - 1e-15 <= prediction <= ghi + 1e-15 else "FAIL"
        rates.append(RateReport(name, errors, trials, errors / trials, lo95, hi95, prediction, verdict))
    return BatchReport(config=config, attack=attack, rounds=n, seed=seed, workers=workers,
                       tallies=total, rates=tuple(rates), elapsed_s=elapsed,
                       leaves=len(table.weights))


def failures(report: BatchReport) -> list[str]:
    return [r.name for r in report.rates if r.verdict == "FAIL"]


def compare(report: BatchReport) -> int:
    """Exit status: 0 iff every gated rate passed (skipped rates do not fail)."""
    return 1 if failures(report) else 0


def report_text(report: BatchReport) -> str:
    cfg, atk = report.config, report.attack
    lines = [
        f"protocol={cfg.protocol} attack={atk.kind} xi={atk.xi:g} x={atk.x:g} "
        f"x_prime={atk.x_prime:g} chi={atk.chi:g}",
        f"rounds={report.rounds} seed={report.seed} workers={report.workers} "
        f"c={cfg.control_prob:g} reveal={cfg.reveal_fraction:g} elapsed={report.elapsed_s:.2f}s",
        f"{'rate':<6} {'errors':>9} {'trials':>9} {'estimate':>10} {'95% interval':>23} "
        f"{'predicted':>10} verdict",
    ]
    for r in report.rates:
        est = f"{r.estimate:.6f}" if r.estimate is not None else "-"
        ci = f"[{r.lo95:.6f}, {r.hi95:.6f}]" if r.lo95 is not None else "-"
        pred = f"{r.prediction:.6f}" if r.prediction is not None else "-"
        lines.append(f"{r.name:<6} {r.errors:>9} {r.trials:>9} {est:>10} {ci:>23} "
                     f"{pred:>10} {r.verdict or 'skip'}")
    return "\n".join(lines)


def report_rows(report: BatchReport) -> list[dict]:
    return [asdict(r) for r in report.rates]


def write_report(report: BatchReport, file, fmt: str = "csv") -> None:
    """Machine-readable report: one record per rate (jsonl adds a meta record)."""
    rows = report_rows(report)
    if fmt == "jsonl":
        meta = {"record": "meta", "protocol": report.config.protocol,
                "attack": asdict(report.attack), "rounds": report.rounds,
                "seed": report.seed, "workers": report.workers,
                "engine": report.engine, "leaves": report.leaves,
                "elapsed_s": report.elapsed_s}
        file.write(json.dumps(meta) + "\n")
        for row in rows:
            file.write(json.dumps({"record": "rate", **row}) + "\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    import csv as _csv

    writer = _csv.writer(file, lineterminator="\n")
    writer.writerow(["rate", "errors", "trials", "estimate", "lo95", "hi95", "prediction", "verdict"])
    for row in rows:
        writer.writerow([row["name"], row["errors"], row["trials"],
                         "" if row["estimate"] is None else repr(row["estimate"]),
                         "" if row["lo95"] is None else repr(row["lo95"]),
                         "" if row["hi95"] is None else repr(row["hi95"]),
                         "" if row["prediction"] is None else repr(row["prediction"]),
                         row["verdict"] or ""])
