"""Round-level state machines for LM05 and BB84, sifting and QBER tallies.

An LM05 round: Bob prepares one of |0>, |1>, |+>, |-> uniformly at random
and sends it out.  With probability ``control_prob`` Alice runs Control
Mode (a projective measurement in a random basis; the qubit is consumed
and Bob registers a lost pulse), otherwise Encoding Mode (identity for
bit 0, spin-flip i*Y for bit 1, qubit returned).  Bob measures returning
qubits in his own preparation basis, which in a clean Encoding-Mode round
recovers Alice's operation deterministically.  A BB84 round is the one-way
half of this: the receiver measures in a random basis and mismatched-basis
rounds are discarded at sifting.

Four error rates are tallied:

* ``q1``   -- matched-basis Control-Mode disagreement (forward channel);
  for BB84 records this is exactly the sifted QBER.
* ``q_ab`` -- decoded-operation errors on the revealed fraction of
  Encoding-Mode rounds.
* ``q_ae`` -- Eve's errors on Alice's operation, over rounds she guessed.
* ``q_be`` -- Eve's errors on the sifted key bit, over rounds she guessed
  (LM05 key bit = Bob's decoded operation; BB84 key bit = sender's bit).

Round draws happen in a fixed order (preparation, attack, mode, encoding,
attack, measurement, reveal coin, attack readout), each through
:func:`qkd2way.rng.coin`.

Runs are sampled, not stepped: every round is an independent, identically
distributed draw from one finite distribution, so :func:`enumerate_round`
runs the round state machine once per coin path and gets a leaf table of
path probabilities, records and tally counters.  A run of n rounds is one
multinomial draw over the leaves (:meth:`LeafTable.draw`), the same draw
``montecarlo.run_batch`` tallies, put in a uniformly shuffled order.  This
holds only while rounds are i.i.d.: an attack or protocol whose rounds
share state (memory, drift, adaptive choices) would have to step
``run_round_*`` round by round on one stream.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rng as _rng
from .attacks import NO_ATTACK, AttackParams, AttackStrategy, make_strategy
from .qsim import Basis, apply, measure, prepare, spin_flip
from .rng import coin

LOST = None  # Bob's outcome when the qubit never returns
RATE_NAMES = ("q1", "q_ab", "q_ae", "q_be")

_WEIGHT_ATOL = 1e-12

_SPIN_FLIP_0 = spin_flip(0)


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: str = "lm05"        # "lm05" | "bb84"
    control_prob: float = 0.25    # LM05 only
    rounds: int = 100_000
    seed: int = 0
    reveal_fraction: float = 0.1  # fraction of EM rounds sacrificed for q_ab

    def __post_init__(self):
        if self.protocol not in ("lm05", "bb84"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not 0.0 <= self.control_prob <= 1.0:
            raise ValueError("control_prob must lie in [0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.reveal_fraction <= 1.0:
            raise ValueError("reveal_fraction must lie in (0, 1]")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    mode: str                     # "EM" | "CM"
    bob_basis: Basis
    bob_bit: int
    alice_op: Optional[int] = None          # EM only: 0 identity, 1 spin-flip
    alice_cm_basis: Optional[Basis] = None  # CM only
    alice_cm_outcome: Optional[int] = None  # CM only
    bob_outcome: Optional[int] = LOST       # None = lost pulse
    revealed: bool = False                  # EM round sacrificed for q_ab
    eve_alice_guess: Optional[int] = None
    eve_bob_guess: Optional[int] = None
    attacked: bool = False

    def __post_init__(self):
        if self.mode == "EM":
            if self.alice_op is None or self.alice_cm_basis is not None:
                raise ValueError("EM round must carry alice_op and no CM fields")
        elif self.mode == "CM":
            if self.alice_op is not None or self.alice_cm_basis is None or self.alice_cm_outcome is None:
                raise ValueError("CM round must carry CM fields and no alice_op")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def decoded_op(self) -> Optional[int]:
        """Bob's inferred operation: outcome XOR preparation bit (EM rounds)."""
        if self.mode != "EM" or self.bob_outcome is LOST:
            return None
        return self.bob_outcome ^ self.bob_bit


@dataclass(frozen=True)
class Tallies:
    """(errors, trials) counters for the four QBERs."""

    q1: tuple[int, int] = (0, 0)
    q_ab: tuple[int, int] = (0, 0)
    q_ae: tuple[int, int] = (0, 0)
    q_be: tuple[int, int] = (0, 0)

    def __post_init__(self):
        for name in RATE_NAMES:
            errors, trials = getattr(self, name)
            if errors < 0 or trials < 0 or errors > trials:
                raise ValueError(f"bad counter {name}: {errors}/{trials}")

    def rate(self, name: str) -> Optional[float]:
        errors, trials = getattr(self, name)
        return errors / trials if trials > 0 else None


def _random_basis(rng) -> Basis:
    return Basis.Z if coin(rng, 0.5) else Basis.X


def run_round_lm05(config: ProtocolConfig, strategy: AttackStrategy, rng) -> RoundRecord:
    basis = _random_basis(rng)
    bit = 0 if coin(rng, 0.5) else 1
    state = prepare(basis, bit)
    ctx = strategy.new_round(rng)
    state = ctx.forward(state, rng)
    if coin(rng, config.control_prob):
        cm_basis = _random_basis(rng)
        cm_outcome, _ = measure(state, 0, cm_basis, rng)
        return RoundRecord(mode="CM", bob_basis=basis, bob_bit=bit,
                           alice_cm_basis=cm_basis, alice_cm_outcome=cm_outcome,
                           bob_outcome=LOST, attacked=ctx.attacked)
    op = 0 if coin(rng, 0.5) else 1
    if op:
        state = apply(state, _SPIN_FLIP_0)
    state = ctx.backward(state, rng)
    outcome, state = measure(state, 0, basis, rng)
    revealed = coin(rng, config.reveal_fraction)
    guess_a, guess_b = ctx.finalize(state, rng)
    return RoundRecord(mode="EM", bob_basis=basis, bob_bit=bit, alice_op=op,
                       bob_outcome=outcome, revealed=revealed,
                       eve_alice_guess=guess_a, eve_bob_guess=guess_b,
                       attacked=ctx.attacked)


def run_round_bb84(config: ProtocolConfig, strategy: AttackStrategy, rng) -> RoundRecord:
    """One BB84 round, recorded in Control-Mode form (receiver consumes the qubit)."""
    if strategy.params.kind not in ("none", "ir"):
        raise ValueError(f"attack {strategy.params.kind!r} needs the two-way channel; BB84 supports none/ir")
    basis = _random_basis(rng)
    bit = 0 if coin(rng, 0.5) else 1
    state = prepare(basis, bit)
    ctx = strategy.new_round(rng)
    state = ctx.forward(state, rng)
    recv_basis = _random_basis(rng)
    recv_outcome, state = measure(state, 0, recv_basis, rng)
    _, guess_b = ctx.finalize(state, rng)
    return RoundRecord(mode="CM", bob_basis=basis, bob_bit=bit,
                       alice_cm_basis=recv_basis, alice_cm_outcome=recv_outcome,
                       bob_outcome=LOST, eve_bob_guess=guess_b, attacked=ctx.attacked)


def run(config: ProtocolConfig, attack: AttackParams = NO_ATTACK) -> list[RoundRecord]:
    """config.rounds i.i.d. rounds from config.seed, one record per round.

    The leaf counts are the draw ``run_batch`` makes for the same seed, so
    ``tally(run(c, a)) == run_batch(c, a).tallies``; a second stream of the
    seed shuffles them into a uniformly random order.  Rounds that took the
    same outcome path share one record object.
    """
    table = enumerate_round(config, attack)
    hits = table.draw(config.rounds, config.seed)
    order = _rng.stream(config.seed, 1).permutation(np.repeat(np.arange(len(hits)), hits))
    records = table.records
    return [records[i] for i in order.tolist()]


def tally(records: Iterable[RoundRecord]) -> Tallies:
    """Aggregate QBER counters from round records (lost pulses never count)."""
    q1_e = q1_t = ab_e = ab_t = ae_e = ae_t = be_e = be_t = 0
    for r in records:
        if r.mode == "CM":
            if r.alice_cm_basis is r.bob_basis:
                q1_t += 1
                if r.alice_cm_outcome != r.bob_bit:
                    q1_e += 1
                if r.eve_bob_guess is not None:  # BB84: Eve vs the sifted sender bit
                    be_t += 1
                    if r.eve_bob_guess != r.bob_bit:
                        be_e += 1
        else:
            decoded = r.decoded_op
            if decoded is None:
                continue
            if r.revealed:
                ab_t += 1
                if decoded != r.alice_op:
                    ab_e += 1
            if r.eve_alice_guess is not None:
                ae_t += 1
                if r.eve_alice_guess != r.alice_op:
                    ae_e += 1
            if r.eve_bob_guess is not None:
                be_t += 1
                if r.eve_bob_guess != decoded:
                    be_e += 1
    return Tallies((q1_e, q1_t), (ab_e, ab_t), (ae_e, ae_t), (be_e, be_t))


@dataclass(frozen=True)
class LeafTable:
    """Every outcome path of one round: probability, record and tally counters.

    ``counts`` has one row per leaf holding the eight counters of
    ``tally([record])`` in (errors, trials) pairs, in RATE_NAMES order.
    """

    weights: np.ndarray
    records: tuple[RoundRecord, ...]
    counts: np.ndarray

    def draw(self, rounds: int, seed: int) -> np.ndarray:
        """How often each leaf occurs in `rounds` i.i.d. rounds from `seed`."""
        return _rng.stream(seed).multinomial(rounds, self.weights)

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


_CSV_FIELDS = [f.name for f in fields(RoundRecord)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Basis):
        return value.value
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_round_log(records: Sequence[RoundRecord], file: io.TextIOBase) -> None:
    """Round log as CSV: one row per round, header mandatory, lost = empty cell.

    Each distinct record object is rendered once; a run repeats its leaf
    records, so most rows are copies of a row already rendered.
    """
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    rows = [line.getvalue()]
    rendered = {}  # id(record) -> (record, row); holding the record keeps its id unique
    for r in records:
        hit = rendered.get(id(r))
        if hit is None:
            line.seek(0)
            line.truncate()
            writer.writerow([_cell(getattr(r, name)) for name in _CSV_FIELDS])
            hit = rendered[id(r)] = (r, line.getvalue())
        rows.append(hit[1])
    file.write("".join(rows))
