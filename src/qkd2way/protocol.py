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
attack, measurement, reveal coin, attack readout), each a ``coin(p)`` on
the round's stream.  A round is one chain of three stages for both
protocols, cut at its physical seams: the forward leg (preparation, Eve's
set-up, the forward pass), Alice's station (Control Mode, always in BB84,
which draws no mode coin, and in LM05 on the mode coin; or else her
operation, the backward pass and Bob's measurement), and the readout: on
a round that carries a key bit (LM05's Encoding-Mode rounds, every BB84
round), the reveal coin of an Encoding-Mode round and Eve's readout, then
the round's leaf: the field values of its :class:`RoundRecord`.  Every
measurement is a :func:`qkd2way.qsim.measure`.  ``_stages`` builds the
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
value once, and every table and every chunk of records read record by
record gathers its records and counter rows from it.  A record is a named
tuple equal to its leaf.  Each stage reruns once per coin path of its own,
starting from its parent stage's result, so a coin prefix shared by many
leaves runs once rather than once per leaf; the leaves come out in the
order, and with the bit-identical weights, of the whole round replayed
from the root per leaf.  A run of n rounds is one
multinomial draw over the leaves (:meth:`LeafTable.draw`), the same draw
``montecarlo.run_batch`` tallies, put in a uniformly shuffled order and
gathered from the table's records by one numpy take.  :func:`run` hands
back a :class:`Rounds`, the records together with that draw, so
:func:`tally` reads it as the batch does, one product of the leaf counts
with the table's counters, and :func:`write_round_log` takes one rendered
line per leaf by the shuffled order, one chunk of rounds per write; a
leaf value's line is rendered once per process.  Any other iterable of
records (stepped rounds, plain tuples, a slice of a run) is checked record
by record and read through the same alphabet, one chunk at a time.  This
holds only while rounds are i.i.d.: an attack or protocol whose rounds
share state (memory, drift, adaptive choices) would have to step
:func:`run_round` round by round on one stream.

A table depends on (protocol, control_prob, reveal_fraction, attack)
alone, so the process keeps its last ``_TABLES`` tables in an
``lru_cache`` keyed on the leaf alphabet and those four values: a repeated
``run_batch`` or ``run`` of a setting enumerates nothing.  A table's
weights, counts and records tuple take 3-18 kB (a nort table about 18 kB),
so 64 tables hold at most about 1.2 MB and ten verification settings six
times over.  The arrays are read-only, since every caller shares them.
"""

from __future__ import annotations

import io
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from . import rng as _rng
from . import PROTOCOLS
from .attacks import NO_ATTACK, AttackParams, AttackStrategy, make_strategy
from .numerics import integer, real
from .qsim import Basis, _read_only, apply, measure, prepare, random_basis, spin_flip

RATE_NAMES = ("q1", "q_ab", "q_ae", "q_be")

_WEIGHT_ATOL = 1e-12
_MAX_ROUNDS = 2**63 - 1  # numpy's multinomial draws counts as int64
# rounds per write of a round log: a chunk of ~20-byte rows is ~80 kB, so the write
# call costs little next to its rows, while a chunk stays small next to a long run
_LOG_CHUNK = 4096
_TABLES = 64  # leaf tables the process keeps; the module docstring sizes them


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
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, _rng.MAX_SEED))


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

    @classmethod
    def of(cls, counters: np.ndarray) -> Tallies:
        """The tallies of eight counter totals, laid out as a row of a leaf table's ``counts``."""
        totals = counters.tolist()
        return cls(*zip(totals[0::2], totals[1::2]))

    def rate(self, name: str) -> Optional[float]:
        if name not in RATE_NAMES:
            raise ValueError(f"name must be one of {RATE_NAMES}, got {name!r}")
        errors, trials = getattr(self, name)
        return errors / trials if trials > 0 else None


def _forward_leg(strategy: AttackStrategy, rng):
    """Stage 1: preparation, Eve's round set-up, the forward pass."""
    basis = random_basis(rng)
    bit = 0 if rng.coin(0.5) else 1
    state = prepare(basis, bit)
    memory = strategy.start(rng)
    if memory is not None:
        memory, state = strategy.forward(memory, state, rng)
    return basis, bit, memory, state


def _alice(config: ProtocolConfig, strategy: AttackStrategy, leg, rng):
    """Stage 2, Alice's station: Control Mode (her measurement in a random basis), always in
    BB84 and on LM05's mode coin, or else her operation, the way back and Bob's measurement
    in his basis.  Returns (the record's first six fields, Eve's memory, the collapsed state)."""
    basis, bit, memory, state = leg
    if config.protocol == "bb84" or rng.coin(config.control_prob):
        mode, op, receiver_basis = "CM", None, random_basis(rng)
    else:
        mode, op, receiver_basis = "EM", 0 if rng.coin(0.5) else 1, basis
        if op:
            state = apply(state, spin_flip(0))
        if memory is not None:
            memory, state = strategy.backward(memory, state, rng)
    outcome, state = measure(state, 0, receiver_basis, rng)
    return (mode, basis, bit, receiver_basis, outcome, op), memory, state


def _readout(config: ProtocolConfig, strategy: AttackStrategy, back, rng) -> tuple:
    """Stage 3: on a round that carries a key bit (LM05's EM rounds, every BB84 round), the
    reveal coin of an EM round and Eve's readout; then the leaf, the record's field values."""
    ends, memory, state = back
    if ends[0] == "CM" and config.protocol != "bb84":  # an LM05 Control-Mode round: no key bit
        return (*ends, False, None, None, memory is not None)
    revealed = ends[0] == "EM" and rng.coin(config.reveal_fraction)
    guess_a, guess_b = (None, None) if memory is None else strategy.finalize(memory, state, rng)
    return (*ends, revealed, guess_a, guess_b, memory is not None)


def _stages(config: ProtocolConfig, attack: AttackParams):
    """The round's chain of three stages, one for both protocols, bound to the attack's strategy."""
    if not isinstance(config, ProtocolConfig):
        raise ValueError(f"config must be a ProtocolConfig, got {config!r}")
    strategy = make_strategy(config.protocol, attack)
    return (partial(_forward_leg, strategy), partial(_alice, config, strategy),
            partial(_readout, config, strategy))


def run_round(config: ProtocolConfig, attack: AttackParams, rng) -> RoundRecord:
    """One round on `rng`, a Stream or a Branching: each stage continues from the value of the
    one before, and the last one's leaf becomes the record."""
    first, *rest = _stages(config, attack)
    if not hasattr(rng, "coin"):  # a plain numpy Generator has no coin
        raise ValueError(f"rng must be a Stream or a Branching, got {rng!r}")
    value = first(rng)
    for stage in rest:
        value = stage(value, rng)
    return RoundRecord(*value)


class Rounds(tuple):
    """A run's rounds, as :func:`run` builds them: a tuple of the table's own records that also
    keeps the draw it was gathered from.

    ``table`` is the run's :class:`LeafTable`, ``hits`` how often each leaf
    occurs and ``order`` each round's leaf, a permutation of the leaves
    repeated by ``hits``; both arrays are read-only, and a tuple cannot
    change, so the draw never goes stale.  :func:`tally` and
    :func:`write_round_log` read the draw of exactly a ``Rounds``; a slice,
    a copy into a list or any other iterable of records takes their
    record-by-record path.
    """

    def __new__(cls, table: LeafTable, hits: np.ndarray, order: np.ndarray):
        self = super().__new__(cls, np.fromiter(table.records, dtype=object,
                                                count=len(table.records))[order].tolist())
        hits.setflags(write=False)
        order.setflags(write=False)
        self.table, self.hits, self.order = table, hits, order
        return self

    def __reduce__(self):  # a copy or an unpickled run is a plain tuple of its records
        return tuple, (tuple(self),)


def run(config: ProtocolConfig, attack: AttackParams = NO_ATTACK) -> Rounds:
    """config.rounds i.i.d. rounds from config.seed, one record per round.

    The leaf counts are the draw ``run_batch`` makes for the same seed, so
    ``tally(run(c, a)) == run_batch(c, a).tallies``; a second stream of the
    seed shuffles them into a uniformly random order.  One take from an
    object array of the table's records gathers them, so the rounds are the
    table's own objects: rounds with equal leaves share one record, checked
    once per process.  The :class:`Rounds` returned keeps the draw, so its
    tally is the batch's one matrix product and its log one take per chunk.
    """
    table = enumerate_round(config, attack)
    hits = table.draw(config.rounds, config.seed)
    order = _rng.stream(config.seed, 1).permutation(np.repeat(np.arange(len(hits)), hits))
    return Rounds(table, hits, order)


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


def _chunks(records: Iterable[RoundRecord]):
    """`records` in lists of at most ``_LOG_CHUNK`` checked records, so a bad value is refused
    whatever came before it; a non-iterable is refused by name, before a round is read."""
    try:
        rounds = iter(records)
    except TypeError:
        raise ValueError(f"records must be an iterable, got {records!r}") from None
    return iter(lambda: list(map(_checked, islice(rounds, _LOG_CHUNK))), [])


def tally(records: Iterable[RoundRecord]) -> Tallies:
    """Aggregate QBER counters from round records.

    A :class:`Rounds` is tallied from its draw, ``hits @ table.counts``, the
    product ``run_batch`` takes, and no record is read.  Any other iterable
    is read ``_LOG_CHUNK`` checked records at a time: one ``bincount`` of a
    chunk's rows in the leaf alphabet times the alphabet's counter rows, so
    the memory held is one chunk, however long the stream.
    """
    if type(records) is Rounds:
        return Tallies.of(records.hits @ records.table.counts)
    totals = np.zeros(2 * len(RATE_NAMES), dtype=np.int64)
    # map calls index first, which grows the counter rows, and drops a chunk once indexed
    for rows in map(_ALPHABET.index, _chunks(records)):
        totals += np.bincount(rows, minlength=len(_ALPHABET.records)) @ _ALPHABET.counters
    return Tallies.of(totals)


class _LeafAlphabet:
    """Every leaf value met so far, with its checked record, its row of eight tally counters and,
    once a round log needs it, its log line.

    It is the one place that builds them, once per value, for the tables and the record-by-record
    chunks of :func:`tally` and :func:`write_round_log` alike.  A value's record, row and line
    are :class:`RoundRecord`, :func:`_counters` and :func:`_cell` of it, so none goes stale and
    no result depends on what was built, tallied or logged before.  The values are bounded by
    the record's value set.  The package starts no threads; a threaded caller would need a
    lock here.
    """

    def __init__(self):
        self.rows: dict[tuple, int] = {}  # leaf value -> row index
        self.records: list[RoundRecord] = []  # by row
        self.counters = np.empty((0, 2 * len(RATE_NAMES)), dtype=np.int64)
        self.lines: list[Optional[str]] = []  # by row; None until a log needs it

    def log_lines(self, leaves: Sequence[tuple]) -> np.ndarray:
        """The round-log lines of `leaves` as an object array, in their order; each value's line
        is rendered the first time a log needs it, so building a table renders none."""
        index = self.index(leaves)
        lines = self.lines
        lines += [None] * (len(self.records) - len(lines))
        for row in index:
            if lines[row] is None:
                lines[row] = _line(self.records[row])
        return np.array(lines, dtype=object)[index]

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


_ALPHABET = _LeafAlphabet()  # one per process, fed by enumerate_round, tally and write_round_log


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
        """How often each leaf occurs in `rounds` i.i.d. rounds from `seed`, both checked as
        :class:`ProtocolConfig` checks them."""
        return _rng.stream(seed).multinomial(integer("rounds", rounds, 1, _MAX_ROUNDS), self.weights)

    def exact_rates(self) -> dict[str, Optional[float]]:
        """Expected errors / expected trials per rate; None where no round is a trial."""
        expected = (self.weights @ self.counts).tolist()
        return {name: errors / trials if trials > 0 else None
                for name, errors, trials in zip(RATE_NAMES, expected[0::2], expected[1::2])}


def enumerate_round(config: ProtocolConfig, attack: AttackParams = NO_ATTACK) -> LeafTable:
    """Exact outcome distribution of one round: its stages run once per coin path of their own.

    A leaf value repeats across paths and settings, so its record and
    counters come from the process's leaf alphabet, built once per value.
    A setting's table is built once per process; ``rounds`` and ``seed`` are no part of it.
    """
    if not isinstance(config, ProtocolConfig):
        raise ValueError(f"config must be a ProtocolConfig, got {config!r}")
    if not isinstance(attack, AttackParams):  # before the cache hashes it: [] is unhashable
        raise ValueError(f"attack must be an AttackParams, got {attack!r}")
    return _leaf_table(_ALPHABET, config.protocol, config.control_prob, config.reveal_fraction, attack)


@lru_cache(maxsize=_TABLES)
def _leaf_table(alphabet: _LeafAlphabet, protocol: str, control_prob: float, reveal_fraction: float,
                attack: AttackParams) -> LeafTable:
    config = ProtocolConfig(protocol, control_prob, reveal_fraction=reveal_fraction)
    weights, leaves = zip(*_rng.enumerate_paths(*_stages(config, attack)))
    total = math.fsum(weights)
    if not abs(total - 1.0) <= _WEIGHT_ATOL:  # `not <=` so that a NaN sum fails too
        raise ValueError(f"leaf weights sum to {total!r}, not 1")
    index = alphabet.index(leaves)
    return LeafTable(_read_only(np.array(weights)), tuple(map(alphabet.records.__getitem__, index)),
                     _read_only(alphabet.counters[index]))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Basis):
        return value.value
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _line(record: RoundRecord) -> str:
    return ",".join(map(_cell, record)) + "\n"


_HEADER = ",".join(RoundRecord._fields) + "\n"  # identifiers, which no CSV cell quotes


def write_round_log(records: Iterable[RoundRecord], file: io.TextIOBase) -> None:
    """Round log as CSV: one row per round, header mandatory, an absent value as an empty cell.

    The header is ``RoundRecord._fields``, and no checked field needs
    quoting.  Rows are joined in C, ``_LOG_CHUNK`` rounds per write.  A
    :class:`Rounds` is written from its draw: each chunk is one take of its
    table's leaf lines by ``order``, and a leaf value's line is rendered
    once per process.  Any other iterable is read ``_LOG_CHUNK`` checked
    records at a time, each chunk written as the alphabet's lines of its
    records, so the memory held is one chunk, however long the stream.
    """
    if type(records) is Rounds:
        file.write(_HEADER)
        lines, order = _ALPHABET.log_lines(records.table.records), records.order
        for start in range(0, len(order), _LOG_CHUNK):
            file.write("".join(lines[order[start:start + _LOG_CHUNK]].tolist()))
        return
    chunks = _chunks(records)
    file.write(_HEADER)
    for lines in map(_ALPHABET.log_lines, chunks):
        file.write("".join(lines.tolist()))
