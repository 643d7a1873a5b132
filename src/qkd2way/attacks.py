"""Eavesdropping strategies acting on the traveling qubit.

A strategy touches the state at two points: on the forward path (between
the sender's preparation and Alice's station) and on the backward path
(between Alice's encoding and the final measurement).  After the round it
produces Eve's guesses for Alice's encoding bit and for the sifted key
bit.  Hooks receive only the state vector plus Eve's own ancilla wires,
never the preparation basis or bit, and never Alice's operation.

Eve's memory of a round is an immutable value, handed from hook to hook
like the state.  ``start(rng)`` returns it, or None when she leaves the
round alone, and then no other hook runs; ``forward`` and ``backward``
(memory, state, rng) return a new ``(memory, state)``, and ``finalize``
(memory, state, rng) returns her guesses.  No hook changes the memory it
was given, so the leaf enumerator can rerun a stage from one value once
per coin path.  A new attack is one :class:`AttackStrategy` subclass, named
in ``_STRATEGIES``, that states its channel (``one_way``, which
``ONE_WAY_KINDS`` is read from) and its closed forms (``attacked_rates``).

Implemented strategies:

``ir``
    Intercept-resend: measure in a random basis on the way out, remeasure
    in the same basis on the way back.  The XOR of the two outcomes equals
    Alice's operation exactly; the forward disturbance costs q1 = xi/4.

``nort``
    Non-orthogonal probe attack.  Eve aligns with Z or X at random,
    entangles a probe pair at angle x on the forward path and a second
    pair at angle x' (default pi/2, i.e. an exact copy) on the backward
    path, then reads both probes with minimum-error measurements.  The
    forward disturbance is q1 = xi (1 - cos x)/4 and her error on Alice's
    bit is (1 - sin x)/2 at x' = pi/2.

``dcnot`` / ``dcnot_star``
    Double controlled-NOT: a CNOT copy onto the ancilla on each pass.
    The second CNOT undoes the first, so the returning state is exactly
    the expected one (Q_AB = 0) while the ancilla holds Alice's bit.  The
    starred variant additionally spin-flips the returning qubit with
    probability chi; Eve records her own flip, so her key-bit prediction
    stays exact while Q_AB rises to chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import PROTOCOLS
from .numerics import real
from .qsim import (PROBE_ANGLES, Basis, ancilla_rotation, apply, attach_ancilla, cnot, hadamard, measure,
                   random_basis, spin_flip)
from .rng import coin


@dataclass(frozen=True)
class AttackParams:
    """Attack kind plus its knobs; parameters irrelevant to the kind are ignored."""

    kind: str = "none"
    xi: float = 1.0               # fraction of attacked rounds
    x: float = math.pi / 2        # forward probe angle (nort)
    x_prime: float = math.pi / 2  # backward probe angle (nort)
    chi: float = 0.0              # backward flip probability (dcnot_star)

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}")
        for name, lo, hi in (("xi", 0.0, 1.0), ("x", *PROBE_ANGLES), ("x_prime", *PROBE_ANGLES),
                             ("chi", 0.0, 0.5)):
            object.__setattr__(self, name, real(name, getattr(self, name), lo, hi))


class AttackStrategy:
    """One attack's hooks; this base class is no attack, leaving every round alone."""

    one_way = True  # a BB84 round may carry it; False needs the two-way channel

    def __init__(self, params: AttackParams):
        self.params = params

    def attacked_rates(self):
        """Closed forms (q1, q_ab, q_ae, q_be) on one attacked LM05 round; None: Eve guesses nothing."""
        return 0.0, 0.0, None, None

    def start(self, rng):
        """Eve's memory of a new round, or None when she leaves the round alone."""
        return None

    def forward(self, memory, state, rng):
        """The forward pass: a new (memory, state)."""
        raise NotImplementedError

    def backward(self, memory, state, rng):
        """The backward pass: a new (memory, state)."""
        raise NotImplementedError

    def finalize(self, memory, state, rng):
        """Eve's (alice_guess, key_bit_guess); None where she has nothing."""
        raise NotImplementedError


class _IRStrategy(AttackStrategy):
    """Memory: (basis, forward outcome, backward outcome), filled in as she measures."""

    def attacked_rates(self):
        return 0.25, 0.25, 0.0, 0.25

    def start(self, rng):
        if not coin(rng, self.params.xi):
            return None
        return (random_basis(rng),)

    def forward(self, memory, state, rng):
        outcome, state = measure(state, 0, memory[0], rng)
        return (*memory, outcome), state

    backward = forward

    def finalize(self, memory, state, rng):
        if len(memory) == 2:
            # one-way round (BB84): the forward outcome is her bit guess
            return None, memory[1]
        _, fwd, bwd = memory
        guess = fwd ^ bwd
        return guess, guess


class _NortStrategy(AttackStrategy):
    """Memory: her alignment, Z or X."""

    one_way = False

    def attacked_rates(self):
        x, x_prime = self.params.x, self.params.x_prime
        # p, pp: Eve's error reading the forward / backward probe
        p = (1.0 - math.sin(x)) / 2.0
        pp = (1.0 - math.sin(x_prime)) / 2.0
        q_ae = p * (1.0 - pp) + (1.0 - p) * pp
        return ((1.0 - math.cos(x)) / 4.0, (1.0 - math.cos(x) * math.cos(x_prime)) / 4.0,
                q_ae, 0.25 + q_ae / 2.0)

    def start(self, rng):
        if not coin(rng, self.params.xi):
            return None
        return random_basis(rng)

    def _probe(self, align, state, angle, probe_wire):
        state = attach_ancilla(state)
        if align is Basis.X:
            state = apply(state, hadamard(0))
        state = apply(state, ancilla_rotation(angle, 0, probe_wire))
        if align is Basis.X:
            state = apply(state, hadamard(0))
        return align, state

    def forward(self, align, state, rng):
        return self._probe(align, state, self.params.x, 1)

    def backward(self, align, state, rng):
        return self._probe(align, state, self.params.x_prime, 2)

    def finalize(self, align, state, rng):
        # Z is the minimum-error (Helstrom) readout of either probe pair, for every angle
        # (test_the_z_readout_of_a_nort_probe_pair_is_its_helstrom_measurement)
        g, state = measure(state, 1, Basis.Z, rng)
        r, _ = measure(state, 2, Basis.Z, rng)
        # forward read = bit before Alice (in Eve's frame), backward read =
        # bit after; the XOR estimates the flip, which is also the key bit
        guess = g ^ r
        return guess, guess


class _DcnotStrategy(AttackStrategy):
    """Memory: the flip she injected on the way back, 0 or 1."""

    one_way = False

    def attacked_rates(self):
        return 0.25, self.params.chi if self.params.kind == "dcnot_star" else 0.0, 0.0, 0.0

    def start(self, rng):
        return 0 if coin(rng, self.params.xi) else None

    def forward(self, flip, state, rng):
        return flip, apply(attach_ancilla(state), cnot(0, 1))

    def backward(self, flip, state, rng):
        state = apply(state, cnot(0, 1))
        if self.params.kind == "dcnot_star" and coin(rng, self.params.chi):
            return 1, apply(state, spin_flip(0))
        return flip, state

    def finalize(self, flip, state, rng):
        bit, _ = measure(state, 1, Basis.Z, rng)
        # Eve knows her own injected flip, so her key-bit prediction folds it in
        return bit, bit ^ flip


_STRATEGIES = {"none": AttackStrategy, "ir": _IRStrategy, "nort": _NortStrategy,
               "dcnot": _DcnotStrategy, "dcnot_star": _DcnotStrategy}
ATTACK_KINDS = tuple(_STRATEGIES)
ONE_WAY_KINDS = tuple(kind for kind, strategy in _STRATEGIES.items() if strategy.one_way)
NO_ATTACK = AttackParams()


def check_channel(protocol: str, params: AttackParams) -> None:
    """Refuse a protocol not in PROTOCOLS, and an attack its channel cannot carry: BB84 takes
    only ONE_WAY_KINDS."""
    if not isinstance(params, AttackParams):
        raise ValueError(f"attack must be an AttackParams, got {params!r}")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "bb84" and params.kind not in ONE_WAY_KINDS:
        raise ValueError(f"attack {params.kind!r} needs the two-way channel; "
                         f"BB84 supports {'/'.join(ONE_WAY_KINDS)}")


def make_strategy(params: AttackParams) -> AttackStrategy:
    if not isinstance(params, AttackParams):
        raise ValueError(f"attack must be an AttackParams, got {params!r}")
    return _STRATEGIES[params.kind](params)
