import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd2way import qsim
from qkd2way.qsim import (
    Basis,
    Gate,
    StateVector,
    ancilla_rotation,
    apply,
    attach_ancilla,
    cnot,
    hadamard,
    measure,
    prepare,
    spin_flip,
)
from qkd2way.rng import Branching, Stream

SQ2 = 1.0 / math.sqrt(2.0)

ALL_GATES = {
    "spin_flip-0": spin_flip(0),
    "hadamard-0": hadamard(0),
    "cnot-0-1": cnot(0, 1),
    "cnot-1-0": cnot(1, 0),
    "rotation-0-0-1": ancilla_rotation(0.0, 0, 1),
    "rotation-pi/6-0-1": ancilla_rotation(math.pi / 6, 0, 1),
    "rotation-pi/3-1-0": ancilla_rotation(math.pi / 3, 1, 0),
    "rotation-pi/2-0-1": ancilla_rotation(math.pi / 2, 0, 1),
}


def overlap(a: StateVector, b: StateVector) -> complex:
    assert a.num_wires == b.num_wires
    return complex(np.vdot(a.amps, b.amps))


def states_close(a: StateVector, b: StateVector, atol: float = qsim.NORM_ATOL) -> bool:
    """Equality up to global phase: |<a|b>| = 1 within atol."""
    return abs(abs(overlap(a, b)) - 1.0) <= atol


@pytest.mark.parametrize("gate", ALL_GATES.values(), ids=ALL_GATES.keys())
def test_gate_unitarity(gate):
    u = gate.matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12


@pytest.mark.parametrize("matrix,wires", [
    (np.eye(4), (1, 1)),
    (np.eye(2), (0, 1)),
    (np.eye(4), (0,)),
    (np.eye(4)[:, :2], (0, 1)),
    (np.ones((2, 2)), (0,)),
    (np.diag([1.0, 1.0 + 1e-6]), (0,)),
    (np.diag([1.0, np.nan]), (0,)),
], ids=["repeated-wire", "2x2-on-two-wires", "4x4-on-one-wire", "not-square", "not-unitary",
        "off-by-1e-6", "nan"])
def test_gate_refuses_bad_construction(matrix, wires):
    with pytest.raises(ValueError):
        Gate(matrix, wires)


def test_gate_keeps_a_read_only_copy_of_its_matrix():
    matrix = np.eye(2, dtype=complex)
    gate = Gate(matrix, (0,))
    matrix[0, 0] = -1.0
    assert gate.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        gate.matrix[0, 0] = -1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.matrix = matrix
    assert [f.name for f in dataclasses.fields(Gate)] == ["matrix", "wires"]


def test_factories_hand_out_one_shared_gate_per_gate():
    assert spin_flip(0) is spin_flip(0) and hadamard(1) is hadamard(1)
    assert cnot(0, 1) is cnot(0, 1) and cnot(0, 1) is not cnot(1, 0)
    # the angle is keyed once checked, whatever real type spelled it
    assert ancilla_rotation(np.float64(0.7), 0, 1) is ancilla_rotation(0.7, 0, 1)
    assert ancilla_rotation(0.7, 0, 1) is not ancilla_rotation(0.7, 0, 2)
    assert Gate(qsim._CNOT, (0, 1)) is not cnot(0, 1)  # a gate built directly is not shared
    # one spelling per gate: the arguments are positional only, with no default wire
    for call in (lambda: spin_flip(), lambda: spin_flip(wire=0), lambda: hadamard(wire=0),
                 lambda: cnot(control=0, target=1), lambda: ancilla_rotation(0.7, control=0, target=1)):
        with pytest.raises(TypeError):
            call()


def test_factories_check_their_arguments_whatever_their_caches_hold():
    gate = ancilla_rotation(1.0, 0, 1)
    for angle in (True, 2.0, math.nan, -0.1):
        with pytest.raises(ValueError):
            ancilla_rotation(angle, 0, 1)
    assert ancilla_rotation(1.0, 0, 1) is gate
    for _ in range(2):
        with pytest.raises(ValueError):
            cnot(0, 0)
    # a float or bool wire never stands in for the int: it is refused, cold or warm
    for warm in (False, True):
        cnot.cache_clear()
        if warm:
            cnot(0, 1)
        for wire in (1.0, True):
            with pytest.raises(ValueError, match="gate wires must be ints"):
                cnot(0, wire)
        assert cnot(0, 1).wires == (0, 1) and type(cnot(0, 1).wires[1]) is int


@pytest.mark.parametrize("wire", [0.0, True, np.int64(0)])
def test_a_gate_refuses_a_wire_that_is_not_an_int_by_name(wire):
    # 0.0 raised numpy's TypeError when the gate was applied, True read as wire 1,
    # and np.int64(0) was applied as wire 0
    with pytest.raises(ValueError, match=re.escape(f"gate wires must be ints, got {(wire,)!r}")):
        Gate(qsim._SPIN_FLIP, (wire,))


def test_a_wire_outside_every_register_is_refused_when_the_gate_is_built():
    # each of these used to build and cache a Gate that only apply refused
    calls = [(spin_flip, (-1,)), (hadamard, (10**400,)), (cnot, (0, -1)), (cnot, (0, 3))]
    cached = {factory: factory.cache_info().currsize for factory, _ in calls}
    for factory, wires in calls:
        with pytest.raises(ValueError, match=re.escape(f"gate wires must lie in [0, 3), got {wires}")):
            factory(*wires)
    with pytest.raises(ValueError, match=re.escape("gate wires must lie in [0, 3), got (3,)")):
        Gate(qsim._SPIN_FLIP, (3,))
    assert {factory: factory.cache_info().currsize for factory in cached} == cached


def test_gate_matrix_takes_first_wire_as_high_bit():
    # X on the first listed wire, which is register wire 1, the low bit of two
    x_then_identity = np.kron([[0, 1], [1, 0]], np.eye(2))
    out = apply(attach_ancilla(prepare(Basis.Z, 0)), Gate(x_then_identity, (1, 0)))
    assert np.array_equal(out.amps, [0, 1, 0, 0])


def test_prepare_protocol_states():
    assert np.allclose(prepare(Basis.Z, 0).amps, [1.0, 0.0])
    assert np.allclose(prepare(Basis.Z, 1).amps, [0.0, 1.0])
    assert np.allclose(prepare(Basis.X, 0).amps, [SQ2, SQ2])
    assert np.allclose(prepare(Basis.X, 1).amps, [SQ2, -SQ2])


def test_a_basis_that_is_not_a_basis_is_refused_by_name():
    # a basis named by its value would otherwise measure in Z, and miss the kernel cache
    state = prepare(Basis.X, 0)
    for basis in ("X", "Z", None, 0):
        with pytest.raises(ValueError, match=f"basis must be a Basis, got {basis!r}"):
            prepare(basis, 0)
        for _ in range(2):  # a refused key is never cached
            with pytest.raises(ValueError, match=f"basis must be a Basis, got {basis!r}"):
                measure(state, 0, basis, Stream(0))
    assert all(measure(state, 0, Basis.X, Stream(seed))[0] == 0 for seed in range(20))


def test_a_bit_or_wire_that_is_not_an_int_is_refused_by_name():
    # True and 1.0 equal 1, so prepare made |1> of them; a float wire raised numpy's
    # TypeError on a cold Born cache and, once wire 0 was cached, measured wire 0
    for bit in (True, False, 1.0, 0.0, np.int64(1), None, "1"):
        with pytest.raises(ValueError, match=re.escape(f"bit must be the int 0 or 1, got {bit!r}")):
            prepare(Basis.Z, bit)
    state = apply(attach_ancilla(prepare(Basis.X, 0)), cnot(0, 1))
    for warm in (False, True):
        qsim._outcomes.cache_clear()
        if warm:
            measure(state, 0, Basis.Z, Stream(0))
            measure(state, 1, Basis.Z, Stream(0))
        for wire in (0.0, False, 1.0, True, np.int64(0), None):
            with pytest.raises(ValueError, match=re.escape(f"wire must be an int, got {wire!r}")):
                measure(state, wire, Basis.Z, Stream(0))


def test_basis_members_hash_by_identity_and_survive_pickling():
    # qsim's kernel caches and the leaf alphabet key on bases and on tuples holding them
    for basis in Basis:
        same = Basis(basis.value)
        assert same is basis and hash(same) == hash(basis) == object.__hash__(basis)
        assert {basis: 1}[same] == 1 and same in {basis}
        assert pickle.loads(pickle.dumps(basis)) is basis
    assert hash(("CM", Basis.Z, 0)) == hash(("CM", Basis("Z"), 0))
    assert len({Basis.Z, Basis.X, Basis("Z"), Basis("X")}) == 2


def test_spin_flip_maps_protocol_states_to_orthogonal():
    for basis in (Basis.Z, Basis.X):
        for bit in (0, 1):
            before = prepare(basis, bit)
            after = apply(before, spin_flip(0))
            assert abs(overlap(before, after)) <= 1e-12
            # and onto the other state of the same basis, up to phase
            assert states_close(after, prepare(basis, bit ^ 1))


def test_cnot_on_z_eigenstate_does_nothing():
    state = attach_ancilla(prepare(Basis.Z, 0))
    out = apply(state, cnot(0, 1))
    assert np.allclose(out.amps, [1, 0, 0, 0])


def test_cnot_on_plus_creates_entangled_state():
    state = attach_ancilla(prepare(Basis.X, 0))
    out = apply(state, cnot(0, 1))
    assert np.allclose(out.amps, [SQ2, 0, 0, SQ2])


def test_apply_rejects_out_of_range_wire():
    with pytest.raises(ValueError):
        apply(prepare(Basis.Z, 0), cnot(0, 1))
    with pytest.raises(ValueError):
        measure(prepare(Basis.Z, 0), 1, Basis.Z, Stream(0))


def test_attach_ancilla_caps_register_size():
    state = attach_ancilla(attach_ancilla(prepare(Basis.Z, 0)))
    with pytest.raises(ValueError):
        attach_ancilla(state)


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0], dtype=complex), 1)  # not normalized
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0], dtype=complex), 1)  # bad length
    with pytest.raises(ValueError):
        cnot(0, 0)
    with pytest.raises(ValueError):
        ancilla_rotation(2.0, 0, 1)


@pytest.mark.parametrize("amp", [math.nan, math.inf, complex(0.0, math.nan)], ids=["nan", "inf", "nanj"])
def test_statevector_refuses_a_nan_or_infinite_amplitude(amp):
    # a NaN norm fails every comparison, so the check must be `not <=`
    with pytest.raises(ValueError, match="state not normalized"):
        StateVector(np.array([amp, 0.0], dtype=complex), 1)


@given(x=st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_ancilla_rotation_probe_overlap(x):
    gate = ancilla_rotation(x, 0, 1)
    probe = {}
    for bit in (0, 1):
        out = apply(attach_ancilla(prepare(Basis.Z, bit)), gate)
        # control is untouched, ancilla amplitudes sit in the control=bit block
        block = out.amps[2 * bit : 2 * bit + 2]
        assert abs(np.linalg.norm(block) - 1.0) <= 1e-12
        probe[bit] = block
    assert abs(np.vdot(probe[0], probe[1]).real - math.cos(x)) <= 1e-12
    assert abs(np.vdot(probe[0], probe[1]).imag) <= 1e-12


def test_ancilla_rotation_at_right_angle_copies_like_cnot():
    gate = ancilla_rotation(math.pi / 2, 0, 1)
    for bit in (0, 1):
        out = apply(attach_ancilla(prepare(Basis.Z, bit)), gate)
        want = np.zeros(4)
        want[2 * bit + bit] = 1.0
        assert np.allclose(np.abs(out.amps), want, atol=1e-12)


def _normalized_states(num_wires):
    dim = 2 ** num_wires
    reals = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    return (
        st.lists(st.tuples(reals, reals), min_size=dim, max_size=dim)
        .map(lambda pairs: np.array([complex(a, b) for a, b in pairs]))
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: StateVector(v / np.linalg.norm(v), num_wires))
    )


def _gates(num_wires):
    wires = st.integers(min_value=0, max_value=num_wires - 1)
    one_wire = st.builds(lambda factory, wire: factory(wire), st.sampled_from([spin_flip, hadamard]), wires)
    if num_wires == 1:
        return one_wire
    pairs = st.tuples(wires, wires).filter(lambda p: p[0] != p[1])
    two_wire = st.one_of(
        pairs.map(lambda p: cnot(*p)),
        st.tuples(st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False), pairs)
        .map(lambda t: ancilla_rotation(t[0], *t[1])),
    )
    return st.one_of(one_wire, two_wire)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(_normalized_states(n), _gates(n))
    )
)
@settings(max_examples=150, deadline=None)
def test_apply_preserves_norm(state_and_gate):
    state, gate = state_and_gate
    out = apply(state, gate)
    assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-9


def test_measure_eigenstate_is_deterministic():
    rng = Stream(1)
    for _ in range(500):
        assert measure(prepare(Basis.Z, 0), 0, Basis.Z, rng)[0] == 0
        assert measure(prepare(Basis.X, 1), 0, Basis.X, rng)[0] == 1


def test_measure_born_statistics_plus_state():
    # |+> measured in Z: a fair coin, checked over a million samples
    rng = Stream(42)
    state = prepare(Basis.X, 0)
    n = 1_000_000
    zeros = sum(measure(state, 0, Basis.Z, rng)[0] == 0 for _ in range(n))
    assert abs(zeros - n / 2) <= 4.0 * math.sqrt(n * 0.25)


@pytest.mark.parametrize("basis,bit,meas,p0", [
    (Basis.Z, 1, Basis.X, 0.5),
    (Basis.X, 1, Basis.Z, 0.5),
    (Basis.Z, 0, Basis.Z, 1.0),
])
def test_measure_born_statistics_grid(basis, bit, meas, p0):
    rng = Stream(43, bit)
    state = prepare(basis, bit)
    n = 100_000
    zeros = sum(measure(state, 0, meas, rng)[0] == 0 for _ in range(n))
    if p0 in (0.0, 1.0):
        assert zeros == int(n * p0)
    else:
        assert abs(zeros - n * p0) <= 5.0 * math.sqrt(n * p0 * (1 - p0))


def test_measurement_collapse_keeps_bell_correlations():
    rng = Stream(9)
    bell = apply(attach_ancilla(prepare(Basis.X, 0)), cnot(0, 1))
    for _ in range(300):
        first, collapsed = measure(bell, 0, Basis.Z, rng)
        second, _ = measure(collapsed, 1, Basis.Z, rng)
        assert first == second


def test_kernel_caches_never_confuse_recycled_ids():
    # each state is dropped right after use, so a later one may reuse its id:
    # a cache keyed by id() alone would hand back the dropped state's result
    rng = np.random.default_rng(17)
    gate = ancilla_rotation(0.7, 0, 1)
    for _ in range(1000):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = StateVector(amps / np.linalg.norm(amps), 1)
        pair = attach_ancilla(state)
        assert np.array_equal(pair.amps, attach_ancilla.__wrapped__(state).amps)
        assert np.array_equal(apply(pair, gate).amps, apply.__wrapped__(pair, gate).amps)
        for basis in Basis:
            _, *collapsed = qsim._outcomes.__wrapped__(state, 0, basis)
            for outcome, path in enumerate([(), (False,)]):
                got, post = measure(state, 0, basis, Branching(path))
                assert got == outcome
                assert np.array_equal(post.amps, collapsed[outcome].amps)
        del state, pair


@pytest.mark.parametrize("x", [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2])
def test_measure_probe_pair_error_rate(x):
    rng = Stream(5, int(x * 1e6))
    probes = {
        bit: apply(attach_ancilla(prepare(Basis.Z, bit)), ancilla_rotation(x, 0, 1))
        for bit in (0, 1)
    }
    n = 200_000
    errors = 0
    for _ in range(n):
        bit = 0 if rng.random() < 0.5 else 1
        guess, _ = measure(probes[bit], 1, Basis.Z, rng)
        errors += guess != bit
    p = (1.0 - math.sin(x)) / 2.0
    if x == math.pi / 2:
        assert errors == 0  # orthogonal probes are perfectly distinguishable
    else:
        assert abs(errors / n - p) <= 5.0 * math.sqrt(p * (1 - p) / n)


def test_measure_probe_pair_error_rate_pi_third_large_sample():
    # closed form (1 - sin x)/2 ~ 0.0670 at x = pi/3, brute-force sampled
    x = math.pi / 3
    rng = Stream(6)
    probes = {
        bit: apply(attach_ancilla(prepare(Basis.Z, bit)), ancilla_rotation(x, 0, 1))
        for bit in (0, 1)
    }
    n = 1_000_000
    errors = 0
    for _ in range(n):
        bit = 0 if rng.random() < 0.5 else 1
        guess, _ = measure(probes[bit], 1, Basis.Z, rng)
        errors += guess != bit
    p = (1.0 - math.sin(x)) / 2.0
    assert abs(errors / n - p) <= 4.0 * math.sqrt(p * (1 - p) / n)

