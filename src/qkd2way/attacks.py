"""Eavesdropping strategies acting on the traveling qubit.

A strategy touches the state at two points: on the forward path (between
the sender's preparation and Alice's station) and on the backward path
(between Alice's encoding and the final measurement).  After the round it
produces Eve's guesses for Alice's encoding bit and for the sifted key
bit.  Hooks receive only the state vector plus Eve's own ancilla wires,
never the preparation basis or bit, and never Alice's operation.

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

from .qsim import Basis, ancilla_rotation, apply, attach_ancilla, cnot, discriminate, hadamard, measure, spin_flip
from .rng import coin

ATTACK_KINDS = ("none", "ir", "nort", "dcnot", "dcnot_star")


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
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must lie in [0, 1]")
        if not -1e-12 <= self.x <= math.pi / 2 + 1e-12:
            raise ValueError("x must lie in [0, pi/2]")
        if not -1e-12 <= self.x_prime <= math.pi / 2 + 1e-12:
            raise ValueError("x_prime must lie in [0, pi/2]")
        if not 0.0 <= self.chi <= 0.5:
            raise ValueError("chi must lie in [0, 0.5]")


NO_ATTACK = AttackParams()


class RoundAttack:
    """Per-round attack context: scratch state for one protocol round."""

    __slots__ = ("attacked",)

    def __init__(self, attacked: bool):
        self.attacked = attacked

    def forward(self, state, rng):
        return state

    def backward(self, state, rng):
        return state

    def finalize(self, state, rng):
        """Eve's (alice_guess, key_bit_guess); None where she has nothing."""
        return None, None


class _IRRound(RoundAttack):
    __slots__ = ("basis", "fwd", "bwd")

    def __init__(self, attacked, rng):
        super().__init__(attacked)
        self.basis = None
        self.fwd = None
        self.bwd = None
        if attacked:
            self.basis = Basis.Z if coin(rng, 0.5) else Basis.X

    def forward(self, state, rng):
        if not self.attacked:
            return state
        self.fwd, state = measure(state, 0, self.basis, rng)
        return state

    def backward(self, state, rng):
        if not self.attacked:
            return state
        self.bwd, state = measure(state, 0, self.basis, rng)
        return state

    def finalize(self, state, rng):
        if not self.attacked or self.fwd is None:
            return None, None
        if self.bwd is None:
            # one-way round (BB84): the forward outcome is her bit guess
            return None, self.fwd
        guess = self.fwd ^ self.bwd
        return guess, guess


class _NortRound(RoundAttack):
    __slots__ = ("strategy", "align", "done_backward")

    def __init__(self, strategy, attacked, rng):
        super().__init__(attacked)
        self.strategy = strategy
        self.align = None
        self.done_backward = False
        if attacked:
            self.align = Basis.Z if coin(rng, 0.5) else Basis.X

    def _probe(self, state, rotation, h_gate):
        state = attach_ancilla(state)
        if self.align is Basis.X:
            state = apply(state, h_gate)
        state = apply(state, rotation)
        if self.align is Basis.X:
            state = apply(state, h_gate)
        return state

    def forward(self, state, rng):
        if not self.attacked:
            return state
        s = self.strategy
        return self._probe(state, s.rot_fwd, s.h)

    def backward(self, state, rng):
        if not self.attacked:
            return state
        self.done_backward = True
        s = self.strategy
        return self._probe(state, s.rot_bwd, s.h)

    def finalize(self, state, rng):
        if not self.attacked or not self.done_backward:
            return None, None
        s = self.strategy
        g, state = discriminate(state, 1, s.params.x, rng)
        r, state = discriminate(state, 2, s.params.x_prime, rng)
        # forward read = bit before Alice (in Eve's frame), backward read =
        # bit after; the XOR estimates the flip, which is also the key bit
        guess = g ^ r
        return guess, guess


class _DcnotRound(RoundAttack):
    __slots__ = ("strategy", "engaged", "flip")

    def __init__(self, strategy, attacked):
        super().__init__(attacked)
        self.strategy = strategy
        self.engaged = False
        self.flip = 0

    def forward(self, state, rng):
        if not self.attacked:
            return state
        self.engaged = True
        state = attach_ancilla(state)
        return apply(state, self.strategy.copy_gate)

    def backward(self, state, rng):
        if not self.attacked:
            return state
        s = self.strategy
        state = apply(state, s.copy_gate)
        if s.star and coin(rng, s.params.chi):
            self.flip = 1
            state = apply(state, s.flip_gate)
        return state

    def finalize(self, state, rng):
        if not self.attacked or not self.engaged:
            return None, None
        bit, state = measure(state, 1, Basis.Z, rng)
        # Eve knows her own injected flip, so her key-bit prediction folds it in
        return bit, bit ^ self.flip


class AttackStrategy:
    """Factory handing out a fresh per-round context (Bernoulli-xi attacked flag)."""

    def __init__(self, params: AttackParams):
        self.params = params

    def new_round(self, rng) -> RoundAttack:
        return RoundAttack(False)


class _IRStrategy(AttackStrategy):
    def new_round(self, rng):
        return _IRRound(coin(rng, self.params.xi), rng)


class _NortStrategy(AttackStrategy):
    def __init__(self, params):
        super().__init__(params)
        self.rot_fwd = ancilla_rotation(params.x, 0, 1)
        self.rot_bwd = ancilla_rotation(params.x_prime, 0, 2)
        self.h = hadamard(0)

    def new_round(self, rng):
        return _NortRound(self, coin(rng, self.params.xi), rng)


class _DcnotStrategy(AttackStrategy):
    def __init__(self, params):
        super().__init__(params)
        self.star = params.kind == "dcnot_star"
        self.copy_gate = cnot(0, 1)
        self.flip_gate = spin_flip(0)

    def new_round(self, rng):
        return _DcnotRound(self, coin(rng, self.params.xi))


def make_strategy(params: AttackParams) -> AttackStrategy:
    if params.kind == "none":
        return AttackStrategy(params)
    if params.kind == "ir":
        return _IRStrategy(params)
    if params.kind == "nort":
        return _NortStrategy(params)
    return _DcnotStrategy(params)
