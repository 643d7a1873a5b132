"""Minimal pure-state simulator for registers of up to three qubit wires.

Wire 0 carries the traveling qubit; wires 1 and 2 are eavesdropper probe
ancillae attached on demand.  Amplitudes are stored densely with wire 0 as
the most significant bit of the index.  States are immutable values and
every operation is a pure function; anything that samples takes an
explicit generator, so runs are reproducible bit for bit.

Conventions
-----------
* Global phase is ignored throughout.
* A :class:`Gate` is a unitary matrix plus the wires it acts on; the first
  listed wire is the high bit of the matrix's row and column index.  Each
  gate's factory hands out one shared ``Gate`` per gate (see below).
* ``spin_flip`` is i*Y = Z@X, the encoding operation that maps each of the
  four protocol states |0>, |1>, |+>, |-> to an orthogonal state.
* ``ancilla_rotation(x, control, target)`` writes one of two real probe
  states onto a fresh |0> target, conditioned on the control bit::

      |0>|0>  ->  |0>|e0>,   |e0> at angle pi/4 - x/2 in the (|0>,|1>) plane
      |1>|0>  ->  |1>|e1>,   |e1> at angle pi/4 + x/2

  so <e0|e1> = cos(x).  The pair straddles the diagonal symmetrically,
  which makes the computational basis the minimum-error (Helstrom)
  measurement for every x, with error probability (1 - sin x)/2 (the
  attacks tests check both against the trace norm of the pair).  At
  x = pi/2 the gate acts on a fresh ancilla exactly like a CNOT copy.

Kernel cache
------------
:func:`apply`, :func:`attach_ancilla` and the Born-rule kernel behind
:func:`measure` are pure, so each keeps its ``_STEPS`` (1024) most
recently used results in a ``functools.lru_cache``, as do the gate-matrix
tables.  One pass over the ten verification settings of
``scripts/verify_attacks.py`` reads 528 distinct ``_outcomes`` keys, 252
``apply`` and 68 ``attach_ancilla`` keys, so every cache holds a whole
pass with 1.9x headroom and a pass that repeats a setting misses nothing.
The bound helps only where a setting repeats within one process; a
process that builds each setting once gains nothing from it.
States and gates hash and compare by identity, and a cache entry holds its
key objects, so no id is reused while the entry lives and a hit is always
the very input it was computed from.  So each gate factory caches the
gates it hands out, keyed on its positional-only arguments and their types
(so a bool or float wire, which a ``Gate`` refuses, never hits an int's
gate), and ``ancilla_rotation`` on its angle once checked; a ``Gate``
built directly is shared by no one.  Results are shared by every caller, so their
amplitudes are read-only, and so is a gate's matrix, so that the expansion
cached for a gate stays its own.  Enumerating a round's outcome paths
replays the same state through the same step again and again; those
repeats are hits.  :func:`measure` draws its outcome with
:func:`qkd2way.rng.coin` on every call, hit or miss, so streams see the
same coins in the same order.  A basis that is not a :class:`Basis` is
refused on a miss, and a hit needs no check: a ``Basis`` hashes by
identity, so no other key ever matches a cached one.  A wire is not so:
``0.0`` and ``False`` hash like ``0``, so :func:`measure` refuses a wire
that is not an int before it looks in the cache, and the answer does not
depend on what the cache holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .numerics import real
from .rng import coin

MAX_WIRES = 3
NORM_ATOL = 1e-9
BORN_SNAP = 1e-12  # Born probabilities this close to 0 or 1 are rounding noise
PROBE_ANGLES = (-1e-12, math.pi / 2 + 1e-12)  # [0, pi/2], with 1e-12 of slack against rounding
# entries per kernel cache: one pass over the ten verification settings reads
# at most 528 distinct keys from one kernel (_outcomes; apply 252, attach_ancilla
# 68), and 1024, the smallest power of two with 1.5x headroom over that, keeps a
# whole pass, so a repeated setting recomputes no step
_STEPS = 1024

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class Basis(Enum):
    Z = "Z"
    X = "X"

    # the members are singletons compared by identity, so an identity hash
    # agrees with equality, and a tuple holding a Basis hashes in C
    __hash__ = object.__hash__


def random_basis(rng) -> Basis:
    """Z or X with probability 1/2 each, from one coin."""
    return Basis.Z if coin(rng, 0.5) else Basis.X


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over a wire register; always unit norm."""

    amps: np.ndarray
    num_wires: int

    def __post_init__(self):
        if not 1 <= self.num_wires <= MAX_WIRES:
            raise ValueError(f"num_wires must be in [1, {MAX_WIRES}], got {self.num_wires}")
        if self.amps.shape != (2 ** self.num_wires,):
            raise ValueError("amplitude vector length must be 2**num_wires")
        n2 = float(np.vdot(self.amps, self.amps).real)
        if abs(n2 - 1.0) > NORM_ATOL:
            raise ValueError(f"state not normalized: |amps|^2 = {n2!r}")


def _sv(amps: np.ndarray, num_wires: int) -> StateVector:
    # trusted constructor for operations that preserve normalization; the
    # kernel caches hand one result to every caller, so it is read-only
    amps.setflags(write=False)
    state = object.__new__(StateVector)
    object.__setattr__(state, "amps", amps)
    object.__setattr__(state, "num_wires", num_wires)
    return state


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary on distinct wires; it keeps a read-only copy of its matrix."""

    matrix: np.ndarray
    wires: tuple[int, ...]

    def __post_init__(self):
        for wire in self.wires:
            if type(wire) is not int:  # True and 0.0 equal wires 1 and 0, but are no wire
                raise ValueError(f"gate wires must be ints, got {self.wires!r}")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"gate wires must be distinct, got {self.wires}")
        dim = 2 ** len(self.wires)
        matrix = _read_only(np.array(self.matrix, dtype=complex))
        if matrix.shape != (dim, dim):
            raise ValueError(f"a gate on {len(self.wires)} wire(s) needs a {dim}x{dim} matrix, "
                             f"got shape {matrix.shape}")
        # `not <=` so that a NaN entry fails too
        if not np.abs(matrix.conj().T @ matrix - np.eye(dim)).max() <= NORM_ATOL:
            raise ValueError("gate matrix is not unitary")
        object.__setattr__(self, "matrix", matrix)


_SPIN_FLIP = _read_only(np.array([[0, 1], [-1, 0]], dtype=complex))  # i*Y: |0> -> -|1>, |1> -> |0>
_HADAMARD = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT1_2)
_CNOT = _read_only(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex))


@lru_cache(maxsize=_STEPS, typed=True)
def spin_flip(wire: int, /) -> Gate:
    return Gate(_SPIN_FLIP, (wire,))


@lru_cache(maxsize=_STEPS, typed=True)
def hadamard(wire: int, /) -> Gate:
    return Gate(_HADAMARD, (wire,))


@lru_cache(maxsize=_STEPS, typed=True)
def cnot(control: int, target: int, /) -> Gate:
    return Gate(_CNOT, (control, target))


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def ancilla_rotation(angle: float, control: int, target: int, /) -> Gate:
    return _ancilla_rotation(real("probe angle", angle, *PROBE_ANGLES), control, target)


@lru_cache(maxsize=_STEPS, typed=True)
def _ancilla_rotation(angle: float, control: int, target: int, /) -> Gate:
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = _rot2(math.pi / 4 - angle / 2)
    u[2:, 2:] = _rot2(math.pi / 4 + angle / 2)
    return Gate(u, (control, target))


@lru_cache(maxsize=_STEPS)
def _expanded_matrix(gate: Gate, num_wires: int) -> np.ndarray:
    """Gate unitary embedded into the full register (wire 0 = MSB)."""
    k = len(gate.wires)
    local = gate.matrix.reshape((2,) * 2 * k)
    # the gate acting on the identity: contract its inputs with the register
    # axes of its wires, then move its outputs back to those wires
    eye = np.eye(2 ** num_wires, dtype=complex).reshape((2,) * 2 * num_wires)
    full = np.tensordot(local, eye, axes=(range(k, 2 * k), gate.wires))
    return np.moveaxis(full, range(k), gate.wires).reshape(2 ** num_wires, 2 ** num_wires)


@lru_cache(maxsize=_STEPS)
def _wire_table(num_wires: int, wire: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Hadamard on the wire, indices where the wire reads 0, where it reads 1)."""
    idx = np.arange(2 ** num_wires)
    bit = (idx >> (num_wires - 1 - wire)) & 1
    return _expanded_matrix(hadamard(wire), num_wires), idx[bit == 0], idx[bit == 1]


def _check_wires(state: StateVector, wires: tuple[int, ...]):
    for w in wires:
        if not 0 <= w < state.num_wires:
            raise ValueError(f"wire {w} out of range for {state.num_wires}-wire register")


def _make_prepared() -> dict[tuple[Basis, int], StateVector]:
    table = {
        (Basis.Z, 0): np.array([1.0, 0.0], dtype=complex),
        (Basis.Z, 1): np.array([0.0, 1.0], dtype=complex),
        (Basis.X, 0): np.array([_SQRT1_2, _SQRT1_2], dtype=complex),
        (Basis.X, 1): np.array([_SQRT1_2, -_SQRT1_2], dtype=complex),
    }
    for amps in table.values():
        amps.setflags(write=False)
    return {key: StateVector(amps, 1) for key, amps in table.items()}


_PREPARED = _make_prepared()


def prepare(basis: Basis, bit: int) -> StateVector:
    """One-wire state per (basis, bit): Z -> |0>/|1>, X -> |+>/|->."""
    if type(bit) is not int or bit not in (0, 1):  # True and 1.0 equal 1, but are no bit
        raise ValueError(f"bit must be the int 0 or 1, got {bit!r}")
    if type(basis) is not Basis:
        raise ValueError(f"basis must be a Basis, got {basis!r}")
    return _PREPARED[(basis, bit)]


@lru_cache(maxsize=_STEPS)
def apply(state: StateVector, gate: Gate) -> StateVector:
    """U|state>; unitary gates keep the norm at machine precision."""
    _check_wires(state, gate.wires)
    return _sv(_expanded_matrix(gate, state.num_wires) @ state.amps, state.num_wires)


@lru_cache(maxsize=_STEPS)
def attach_ancilla(state: StateVector) -> StateVector:
    """Tensor a fresh |0> wire onto the register (new wire = highest index)."""
    if state.num_wires >= MAX_WIRES:
        raise ValueError(f"register already at maximum size {MAX_WIRES}")
    amps = np.zeros(2 * state.amps.shape[0], dtype=complex)
    amps[0::2] = state.amps
    return _sv(amps, state.num_wires + 1)


@lru_cache(maxsize=_STEPS)
def _outcomes(state: StateVector, wire: int, basis: Basis):
    """(the Born probability p0 of outcome 0, collapse on 0, collapse on 1); an impossible
    outcome, never drawn, has None."""
    if type(basis) is not Basis:
        raise ValueError(f"basis must be a Basis, got {basis!r}")
    _check_wires(state, (wire,))
    n = state.num_wires
    hadamard_full, keep0, keep1 = _wire_table(n, wire)
    amps = hadamard_full @ state.amps if basis is Basis.X else state.amps
    zero = amps[keep0]
    p0 = float(np.vdot(zero, zero).real)
    # an impossible outcome must never be drawn or enumerated, nor renormalised
    if p0 < BORN_SNAP:
        p0 = 0.0
    elif p0 > 1.0 - BORN_SNAP:
        p0 = 1.0
    collapsed = []
    for keep, p in ((keep0, p0), (keep1, 1.0 - p0)):
        if p == 0.0:
            collapsed.append(None)
            continue
        post = np.zeros(amps.shape[0], dtype=complex)
        post[keep] = amps[keep] / math.sqrt(p)
        collapsed.append(_sv(hadamard_full @ post if basis is Basis.X else post, n))
    return p0, *collapsed


def measure(state: StateVector, wire: int, basis: Basis, rng) -> tuple[int, StateVector]:
    """Projective measurement of one wire; returns (outcome, collapsed state).

    Outcomes follow the Born rule; the returned state is the normalized
    post-measurement collapse (other wires keep their correlations).
    """
    if type(wire) is not int:  # checked before the cache: 0.0 and False hash like wire 0
        raise ValueError(f"wire must be an int, got {wire!r}")
    p0, zero, one = _outcomes(state, wire, basis)
    if coin(rng, p0):
        return 0, zero
    return 1, one
