"""Round-level state machines for LM05 and BB84, sifting and QBER tallies.

An LM05 round: Bob, the sender, prepares one of |0>, |1>, |+>, |->
uniformly at random and sends it out.  With probability ``control_prob``
Alice runs Control Mode (she measures the qubit in a random basis),
otherwise Encoding Mode (identity for bit 0, spin-flip i*Y for bit 1, qubit
returned), and Bob measures the returning qubit in his preparation basis,
which in a clean round recovers her operation deterministically.  Either
way the round ends in one measurement: a :class:`RoundRecord` holds the
sender's basis and bit and the receiver's (Alice's in Control Mode, Bob's
in Encoding Mode) basis and outcome.  A BB84 round is always in Control
Mode; mismatched-basis rounds are discarded at sifting.

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
:func:`qkd2way.rng.coin`.  A round is one chain of three stages for both
protocols, cut at its physical seams: the forward leg (preparation, Eve's
set-up, the forward pass), Alice's station (Control Mode, always in BB84,
which draws no mode coin, and in LM05 on the mode coin; or else her
operation, the backward pass and Bob's measurement), and the readout: on
a round that carries a key bit (LM05's Encoding-Mode rounds, every BB84
round), the reveal coin of an Encoding-Mode round and Eve's readout, then
the round's leaf: the field values of its :class:`RoundRecord`.  A
measurement whose collapsed state no later step reads (Alice's in an LM05
Control-Mode round, Eve's last readout) is a :func:`qkd2way.qsim.read`,
which draws the same coin and builds no state.  ``_stages`` builds the
chain for both uses: :func:`run_round` runs it in order on one stream and
builds the record from the leaf, so it is the one physics path, and
:func:`enumerate_round` hands it to :func:`qkd2way.rng.enumerate_paths`.
No stage changes the value it was given, because its other paths read
that value again; Eve's memory of the round is such a value too (see
:mod:`qkd2way.attacks`).

Runs are sampled, not stepped: every round is an independent, identically
distributed draw from one finite distribution, so :func:`enumerate_round`
lists every coin path of the round and gets a leaf table of path
probabilities, records and tally counters.  A leaf's record and counters
depend on its value alone, and values repeat across paths and settings (a
pass of the ten verification settings has 1,184 paths and 152 values), so
the process keeps one leaf alphabet that checks, builds and counts each
value once, and every table, on every entry point, gathers its records and
counter rows from it.  A record is a named tuple equal to its leaf, and
:func:`tally` and :func:`write_round_log` hold one entry per distinct
record value; the writer joins its rows in C, one chunk of rounds per
write.  Each stage reruns once per
coin path of its own, starting from its parent stage's result, so a coin
prefix shared by many leaves runs once rather than once per leaf; the
leaves come out in the order, and with the bit-identical weights, of the
whole round replayed from the root per leaf.  A run of n rounds is one
multinomial draw over the leaves (:meth:`LeafTable.draw`), the same draw
``montecarlo.run_batch`` tallies, put in a uniformly shuffled order and
gathered from the table's records by one numpy take.  This
holds only while rounds are i.i.d.: an attack or protocol whose rounds
share state (memory, drift, adaptive choices) would have to step
:func:`run_round` round by round on one stream.
"""

from __future__ import annotations

import io
import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rng as _rng
from . import PROTOCOLS
from .attacks import NO_ATTACK, AttackParams, AttackStrategy, check_channel, make_strategy
from .numerics import integer, real
from .qsim import Basis, apply, measure, prepare, random_basis, read, spin_flip
from .rng import coin

RATE_NAMES = ("q1", "q_ab", "q_ae", "q_be")

_WEIGHT_ATOL = 1e-12
_MAX_ROUNDS = 2**63 - 1  # numpy's multinomial draws counts as int64
# rounds per write of a round log: a chunk of ~20-byte rows is ~80 kB, so the write
# call costs little next to its rows, while a chunk stays small next to a long run
_LOG_CHUNK = 4096


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: str = "lm05"        # one of PROTOCOLS
    control_prob: float = 0.25    # LM05 only
    rounds: int = 100_000
    seed: int = 0
    reveal_fraction: float = 0.1  # fraction of EM rounds sacrificed for q_ab

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for name, lo_open in (("control_prob", False), ("reveal_fraction", True)):
            object.__setattr__(self, name, real(name, getattr(self, name), 0.0, 1.0, lo_open=lo_open))
        object.__setattr__(self, "rounds", integer("rounds", self.rounds, 1, _MAX_ROUNDS))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, 2**64 - 1))  # a 64-bit key


_BASIS = ("a Basis", lambda v: type(v) is Basis)
_BIT = ("the int 0 or 1", lambda v: type(v) is int and v in (0, 1))  # a bool or a float is no bit
_BIT_OR_NONE = ("the int 0 or 1, or None", lambda v: v is None or type(v) is int and v in (0, 1))
_BOOL = ("a bool", lambda v: type(v) is bool)
# (what the value must be, its test) per record field after mode
_FIELD_RULES = (_BASIS, _BIT, _BASIS, _BIT, _BIT_OR_NONE, _BOOL, _BIT_OR_NONE, _BIT_OR_NONE, _BOOL)


class RoundRecord(namedtuple("RoundRecord", "mode sender_basis sender_bit receiver_basis receiver_outcome "
                                             "alice_op revealed eve_alice_guess eve_bob_guess attacked",
                             defaults=(None, False, None, None, False))):
    """One round's two ends: Bob, the sender, prepares; the receiver measures once.

    mode is "EM" or "CM"; receiver_basis is Alice's random basis in CM, Bob's own (sender_basis)
    in EM; alice_op, EM only, is 0 for identity and 1 for spin-flip; revealed marks an EM round
    sacrificed for q_ab.  Every field is checked, and a bad one is named: a basis is a Basis, a
    bit the int 0 or 1 (alice_op and Eve's guesses may be None), revealed and attacked are bools.
    A record is its leaf: it equals and hashes like its values' tuple.
    """

    __slots__ = ()
    @classmethod
    def _make(cls, iterable):  # the stock length check, then __new__: _replace validates too
        return cls(*super()._make(iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in ("EM", "CM"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, (want, ok), value in zip(self._fields[1:], _FIELD_RULES, self[1:]):
            if not ok(value):
                raise ValueError(f"{name} must be {want}, got {value!r}")
        if (self.mode == "EM") != (self.alice_op is not None):
            raise ValueError("a round carries alice_op exactly when it is in Encoding Mode")
        if self.mode == "EM" and self.receiver_basis is not self.sender_basis:
            raise ValueError("an Encoding-Mode round is measured in the sender's basis")
        return self


@dataclass(frozen=True)
class Tallies:
    """(errors, trials) counters for the four QBERs."""

    q1: tuple[int, int] = (0, 0)
    q_ab: tuple[int, int] = (0, 0)
    q_ae: tuple[int, int] = (0, 0)
    q_be: tuple[int, int] = (0, 0)

    def __post_init__(self):
        for name in RATE_NAMES:
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"{name} must be an (errors, trials) pair, got {pair!r}")
            trials = integer(f"{name} trials", pair[1], 0)
            object.__setattr__(self, name, (integer(f"{name} errors", pair[0], 0, trials), trials))

    def rate(self, name: str) -> Optional[float]:
        errors, trials = getattr(self, name)
        return errors / trials if trials > 0 else None


def _forward_leg(strategy: AttackStrategy, rng):
    """Stage 1: preparation, Eve's round set-up, the forward pass."""
    basis = random_basis(rng)
    bit = 0 if coin(rng, 0.5) else 1
    state = prepare(basis, bit)
    memory = strategy.start(rng)
    if memory is not None:
        memory, state = strategy.forward(memory, state, rng)
    return basis, bit, memory, state


def _keyed(config: ProtocolConfig, mode: str) -> bool:
    """Whether a round carries a key bit: LM05's Encoding-Mode rounds, every BB84 round."""
    return mode == "EM" or config.protocol == "bb84"


def _alice(config: ProtocolConfig, strategy: AttackStrategy, leg, rng):
    """Stage 2, Alice's station: Control Mode (her measurement in a random basis), always in
    BB84 and on LM05's mode coin, or else her operation, the way back and Bob's measurement
    in his basis.  Returns (the record's first six fields, Eve's memory, state); the state is
    None after a round that carries no key bit, as no stage reads it again."""
    basis, bit, memory, state = leg
    if config.protocol == "bb84" or coin(rng, config.control_prob):
        mode, op, receiver_basis = "CM", None, random_basis(rng)
    else:
        mode, op, receiver_basis = "EM", 0 if coin(rng, 0.5) else 1, basis
        if op:
            state = apply(state, spin_flip(0))
        if memory is not None:
            memory, state = strategy.backward(memory, state, rng)
    if _keyed(config, mode):
        outcome, state = measure(state, 0, receiver_basis, rng)
    else:
        outcome, state = read(state, 0, receiver_basis, rng), None
    return (mode, basis, bit, receiver_basis, outcome, op), memory, state


def _readout(config: ProtocolConfig, strategy: AttackStrategy, back, rng) -> tuple:
    """Stage 3: on a round that carries a key bit (LM05's EM rounds, every BB84 round), the
    reveal coin of an EM round and Eve's readout; then the leaf, the record's field values."""
    ends, memory, state = back
    if not _keyed(config, ends[0]):
        return (*ends, False, None, None, memory is not None)
    revealed = ends[0] == "EM" and coin(rng, config.reveal_fraction)
    guess_a, guess_b = (None, None) if memory is None else strategy.finalize(memory, state, rng)
    return (*ends, revealed, guess_a, guess_b, memory is not None)


def _stages(config: ProtocolConfig, strategy: AttackStrategy):
    """The round's chain of three stages, one for both protocols."""
    if not isinstance(config, ProtocolConfig):
        raise ValueError(f"config must be a ProtocolConfig, got {config!r}")
    check_channel(config.protocol, strategy.params)
    return (partial(_forward_leg, strategy), partial(_alice, config, strategy),
            partial(_readout, config, strategy))


def run_round(config: ProtocolConfig, strategy: AttackStrategy, rng) -> RoundRecord:
    """One round on one stream: each stage continues from the value of the one before, and
    the last one's leaf becomes the record."""
    first, *rest = _stages(config, strategy)
    value = first(rng)
    for stage in rest:
        value = stage(value, rng)
    return RoundRecord(*value)


def run(config: ProtocolConfig, attack: AttackParams = NO_ATTACK) -> list[RoundRecord]:
    """config.rounds i.i.d. rounds from config.seed, one record per round.

    The leaf counts are the draw ``run_batch`` makes for the same seed, so
    ``tally(run(c, a)) == run_batch(c, a).tallies``; a second stream of the
    seed shuffles them into a uniformly random order.  One take from an
    object array of the table's records gathers them, so the list holds the
    table's own objects: rounds with equal leaves share one record, checked
    once per process.
    """
    table = enumerate_round(config, attack)
    hits = table.draw(config.rounds, config.seed)
    order = _rng.stream(config.seed, 1).permutation(np.repeat(np.arange(len(hits)), hits))
    return np.fromiter(table.records, dtype=object, count=len(table.records))[order].tolist()


def _counters(leaf: tuple) -> tuple[int, ...]:
    """The eight tally counters of one leaf or record: (errors, trials) per rate, in RATE_NAMES order.

    Mismatched bases never count.  ``flip``, the receiver's outcome XOR the sender's bit, is a
    q1 error in Control Mode and Bob's decoded operation, the key bit, in Encoding Mode.
    """
    mode, sender_basis, sender_bit, receiver_basis, outcome, alice_op, revealed, guess_a, guess_b, _ = leaf
    q1 = ab = ae = be = (0, 0)
    if receiver_basis is sender_basis:  # always so in Encoding Mode
        flip = outcome ^ sender_bit
        if mode == "CM":
            q1, key = (flip, 1), sender_bit  # BB84's key bit
        else:
            key = flip
            if revealed:
                ab = (int(flip != alice_op), 1)
            if guess_a is not None:
                ae = (int(guess_a != alice_op), 1)
        if guess_b is not None:
            be = (int(guess_b != key), 1)
    return (*q1, *ab, *ae, *be)


def _checked(value) -> RoundRecord:
    """A record value as a checked record: a RoundRecord checked itself when built, any other is built."""
    return value if isinstance(value, RoundRecord) else RoundRecord._make(value)


def tally(records: Iterable[RoundRecord]) -> Tallies:
    """Aggregate QBER counters from round records.

    Each distinct record value is checked and counted once, by
    :func:`_counters`, and weighted by how often it occurs; a run repeats
    its leaf values, so the memory held is one entry per distinct value,
    however long the stream.
    """
    totals = [0] * 2 * len(RATE_NAMES)
    for record, occurrences in Counter(records).items():
        for i, c in enumerate(_counters(_checked(record))):
            totals[i] += occurrences * c
    return Tallies(*zip(totals[0::2], totals[1::2]))


class _LeafAlphabet:
    """Every leaf value met so far, with its checked record and its row of eight tally counters.

    A value's record and row are :class:`RoundRecord` and :func:`_counters`
    of it, so neither goes stale and no result depends on which tables were
    built before.  The values are bounded by the record's value set.  The
    package starts no threads; a threaded caller would need a lock here.
    """

    def __init__(self):
        self.rows: dict[tuple, int] = {}  # leaf value -> row index
        self.records: list[RoundRecord] = []  # by row
        self.counters = np.empty((0, 2 * len(RATE_NAMES)), dtype=np.int64)

    def index(self, leaves: Sequence[tuple]) -> list[int]:
        """The rows of `leaves`, in their order; a new value gets its record and counter row here."""
        rows = self.rows
        try:
            return list(map(rows.__getitem__, leaves))
        except KeyError:
            new = [RoundRecord(*leaf) for leaf in dict.fromkeys(leaves) if leaf not in rows]
            for record in new:
                rows[record] = len(rows)
            self.records += new
            # one rebuild per call, however many values are new
            self.counters = np.concatenate(
                [self.counters, np.array([_counters(record) for record in new], dtype=np.int64)])
            return list(map(rows.__getitem__, leaves))


_ALPHABET = _LeafAlphabet()  # one per process, fed by enumerate_round alone


@dataclass(frozen=True)
class LeafTable:
    """Every outcome path of one round: probability, record and tally counters.

    A record is its path's leaf, the field values in field order, checked;
    equal leaves share one record object.  ``counts`` has one row per leaf
    holding its eight tally counters in (errors, trials) pairs, in
    RATE_NAMES order: the row :func:`_counters` gives the leaf.  Both are
    gathered from the process's leaf alphabet.
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


def enumerate_round(config: ProtocolConfig, attack: AttackParams = NO_ATTACK) -> LeafTable:
    """Exact outcome distribution of one round: its stages run once per coin path of their own.

    A leaf value repeats across paths and settings, so its record and
    counters come from the process's leaf alphabet, built once per value.
    """
    strategy = make_strategy(attack)
    weights, leaves = zip(*_rng.enumerate_paths(*_stages(config, strategy)))
    total = math.fsum(weights)
    if abs(total - 1.0) > _WEIGHT_ATOL:
        raise ValueError(f"leaf weights sum to {total!r}, not 1")
    index = _ALPHABET.index(leaves)
    return LeafTable(np.array(weights), tuple(map(_ALPHABET.records.__getitem__, index)),
                     _ALPHABET.counters[index])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Basis):
        return value.value
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class _Rows(dict):
    """Record value -> its round-log row, checked as a record and rendered by :func:`_cell` once."""

    def __missing__(self, record: RoundRecord) -> str:
        row = self[record] = ",".join(map(_cell, _checked(record))) + "\n"
        return row


def write_round_log(records: Iterable[RoundRecord], file: io.TextIOBase) -> None:
    """Round log as CSV: one row per round, header mandatory, an absent value as an empty cell.

    The header is ``RoundRecord._fields``, and no checked field needs
    quoting.  Each distinct record value is rendered once; a run repeats its
    leaf values, so most rows are copies of a row already rendered.  Rows
    are looked up and joined in C, ``_LOG_CHUNK`` rounds per write, so the
    memory held is one row per distinct value plus one chunk.
    """
    file.write(",".join(RoundRecord._fields) + "\n")  # identifiers, which no CSV cell quotes
    rows, records = _Rows(), iter(records)
    while chunk := "".join(map(rows.__getitem__, islice(records, _LOG_CHUNK))):
        file.write(chunk)
