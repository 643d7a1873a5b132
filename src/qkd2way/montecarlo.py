"""Batch experiment runner with analytic-vs-empirical verification.

Engine: a batch of n rounds is one multinomial draw over the exact leaf
table of :func:`qkd2way.protocol.enumerate_round`, multiplied by the
per-leaf tally counters.  It is the draw :func:`qkd2way.protocol.run` makes
for the same seed, so the batch tallies equal ``tally(run(...))``.  Like
``run``, it holds only while rounds are i.i.d. (see :mod:`qkd2way.protocol`).

Each tallied rate is reported with a 95% Wilson interval and, where a
closed form exists, gated PASS/FAIL against the prediction using a 5-sigma
Wilson band (wide enough to be flake-free at a million rounds).  Each
closed form lives on its attack's class, as ``attacked_rates``.  A batch
fails when a gated rate fails, and then ``qkd2way simulate`` and
``scripts/verify_attacks.py`` print :func:`failure_text` and exit with status 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .attacks import NO_ATTACK, AttackParams, make_strategy
from .numerics import integer, real
from .protocol import RATE_NAMES, ProtocolConfig, Tallies, enumerate_round

ENGINE = "leaf-multinomial"

_GATE_Z = 5.0   # verdict band
_CI_Z = 1.959963984540054  # two-sided 95%


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
    workers: int
    tallies: Tallies
    rates: tuple[RateReport, ...]
    elapsed_s: float
    engine: str = ENGINE
    leaves: int = 0
    enumerate_s: float = 0.0  # of elapsed_s, building the leaf table, or looking it up once cached
    draw_s: float = 0.0  # of elapsed_s, the multinomial draw and the tallies of its counter product
    gate_s: float = 0.0  # after elapsed_s, the Wilson intervals and verdicts of the rates


def wilson_interval(errors: int, trials: int, z: float = _CI_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; always inside [0, 1]."""
    trials = integer("trials", trials, 1, 2**63 - 1)  # a tally counts in int64
    errors = integer("errors", errors, 0, trials)
    z = real("z", z, 0.0, lo_open=True)
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
    rounds where Eve actually guessed, so they do not.  BB84 has no
    Encoding Mode, so no q_ab and no q_ae.
    """
    q1, q_ab, q_ae, q_be = make_strategy(protocol, attack).attacked_rates()
    xi = attack.xi
    two_way = protocol != "bb84"
    return {"q1": xi * q1, "q_ab": xi * q_ab if two_way else None,
            "q_ae": q_ae if two_way and xi > 0 else None, "q_be": q_be if xi > 0 else None}


def _band_distance(errors: int, trials: int, prediction: float) -> float:
    """How far the prediction lies outside the five-sigma Wilson band of errors/trials (0 inside)."""
    glo, ghi = wilson_interval(errors, trials, z=_GATE_Z)
    return max(glo - prediction, prediction - ghi, 0.0)


def run_batch(config: ProtocolConfig, attack: AttackParams = NO_ATTACK, *,
              workers: int = 1) -> BatchReport:
    """Sample config.rounds rounds from the exact leaf table; gate the tallies against predictions.

    ``workers`` is validated and recorded only: one multinomial draw needs no
    parallelism, and the tallies depend on (config, attack) alone.
    """
    workers = integer("workers", workers, 1)
    started = time.perf_counter()
    table = enumerate_round(config, attack)  # checks config, attack and their combination
    enumerated = time.perf_counter()
    hits = table.draw(config.rounds, config.seed)
    total = Tallies.of(hits @ table.counts)
    tallied = time.perf_counter()

    predictions = predicted_rates(config.protocol, attack)
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
            verdict = "PASS" if _band_distance(errors, trials, prediction) <= 1e-15 else "FAIL"
        rates.append(RateReport(name, errors, trials, errors / trials, lo95, hi95, prediction, verdict))
    return BatchReport(config=config, attack=attack, rounds=config.rounds, workers=workers,
                       tallies=total, rates=tuple(rates), elapsed_s=tallied - started,
                       leaves=len(table.weights), enumerate_s=enumerated - started,
                       draw_s=tallied - enumerated, gate_s=time.perf_counter() - tallied)


def gate_miss(rate: RateReport) -> tuple[float, float]:
    """(z, distance): how far a gated rate's estimate is from its prediction.

    z is the score statistic (estimate - prediction) / sqrt(p (1 - p) / trials)
    at p = prediction, the one the Wilson band inverts, so the gate passes
    iff |z| <= 5; distance is how far the prediction lies outside the
    five-sigma band (0 inside it).
    """
    p, diff = rate.prediction, rate.estimate - rate.prediction
    sd = math.sqrt(p * (1.0 - p)) / math.sqrt(rate.trials)  # no underflow at subnormal p
    if sd > 0.0:
        z = diff / sd
    else:  # a prediction of 0 or 1: any miss at all is infinitely unlikely
        z = math.copysign(math.inf, diff) if diff else 0.0
    return z, _band_distance(rate.errors, rate.trials, p)


def failure_text(report: BatchReport) -> Optional[str]:
    """One line naming each failed rate with its z-score and distance to the band, or None
    when every gated rate passed (a skipped rate does not fail)."""
    parts = []
    for r in report.rates:
        if r.verdict == "FAIL":
            z, distance = gate_miss(r)
            parts.append(f"{r.name} (estimate {r.estimate:.6f}, predicted {r.prediction:.6f}, "
                         f"z={z:+.2f}, {distance:.6f} outside the {_GATE_Z:g}-sigma band)")
    return f"verification FAILED for: {'; '.join(parts)}" if parts else None


def report_text(report: BatchReport) -> str:
    cfg, atk = report.config, report.attack
    lines = [
        f"protocol={cfg.protocol} attack={atk.kind} xi={atk.xi:g} x={atk.x:g} "
        f"x_prime={atk.x_prime:g} chi={atk.chi:g}",
        f"rounds={report.rounds} seed={cfg.seed} workers={report.workers} "
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
