"""Property tests of the in-place gate engine against dense kron/projector products."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkcomplement import circuit as cc
from walkcomplement import complement, linalg
from walkcomplement.circuit import (
    Circuit,
    CnotGate,
    Control,
    ControlledUGate,
    HGate,
    MultiControlledHadamard,
    Polarity,
    XGate,
)

H1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X1 = np.array([[0, 1], [1, 0]], dtype=complex)
PROJ = {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}


def dense_controlled(n_qubits, factors, controls):
    """Dense matrix of ``factors`` (qubit -> 2x2) applied where every control
    (qubit, bit) holds, identity elsewhere, from kron products and projectors.
    Qubit 0 is the least significant index bit, so it is the last kron factor."""
    def chain(ops):
        out = np.eye(1)
        for q in reversed(range(n_qubits)):
            out = np.kron(out, ops.get(q, np.eye(2)))
        return out

    proj = {q: PROJ[bit] for q, bit in controls}
    return np.eye(2**n_qubits) + chain({**proj, **factors}) - chain(proj)


def dense_gate(n_qubits, gate):
    if isinstance(gate, HGate):
        return dense_controlled(n_qubits, {gate.qubit: H1}, ())
    if isinstance(gate, XGate):
        return dense_controlled(n_qubits, {gate.qubit: X1}, ())
    if isinstance(gate, CnotGate):
        return dense_controlled(n_qubits, {gate.target: X1}, ((gate.control, 1),))
    if isinstance(gate, ControlledUGate):
        block = cc.u_target_block(gate.theta, gate.phi, gate.lam)
        return dense_controlled(n_qubits, {gate.target: block}, ((gate.control, 1),))
    controls = tuple((c.qubit, int(c.polarity is Polarity.BLACK)) for c in gate.controls)
    return dense_controlled(n_qubits, {t: H1 for t in gate.targets}, controls)


angles = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def gates(draw, n_qubits):
    qubits = draw(st.permutations(range(n_qubits)))
    kind = draw(st.sampled_from(["h", "x", "cx", "cu", "mch"]))
    if kind == "h":
        return HGate(qubits[0])
    if kind == "x":
        return XGate(qubits[0])
    if kind == "cx":
        return CnotGate(qubits[0], qubits[1])
    if kind == "cu":
        return ControlledUGate(qubits[0], qubits[1], draw(angles), draw(angles), draw(angles))
    n_controls = draw(st.integers(0, n_qubits - 1))
    n_targets = draw(st.integers(1, n_qubits - n_controls))
    controls = tuple(Control(q, draw(st.sampled_from(list(Polarity))))
                     for q in qubits[:n_controls])
    return MultiControlledHadamard(controls, tuple(qubits[n_controls:n_controls + n_targets]))


@st.composite
def circuits(draw):
    n_qubits = draw(st.sampled_from([2, 4, 6]))
    return Circuit(n_qubits, tuple(draw(st.lists(gates(n_qubits), max_size=8))))


def random_state(rng, n_qubits, cols):
    return rng.standard_normal((2**n_qubits, cols)) + 1j * rng.standard_normal((2**n_qubits, cols))


@settings(max_examples=60, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_circuit_matches_dense_kron_product(circ, seed, cols):
    reference = np.eye(2**circ.n_qubits)
    for gate in circ.gates:
        reference = dense_gate(circ.n_qubits, gate) @ reference
    np.testing.assert_allclose(cc.circuit_to_unitary(circ), reference, atol=1e-12)
    state = random_state(np.random.default_rng(seed), circ.n_qubits, cols)
    expected = reference @ state
    np.testing.assert_allclose(cc.apply_circuit(circ, state), expected, atol=1e-12)


matrices = st.sampled_from(["h", "x", "random"])


def draw_gate(data, n_qubits, kind, rng):
    """A target qubit, (qubit, bit) controls on other qubits and the 2x2 matrix of ``kind``."""
    qubits = data.draw(st.permutations(range(n_qubits)))
    n_controls = data.draw(st.integers(0, n_qubits - 1))
    controls = tuple((q, data.draw(st.integers(0, 1))) for q in qubits[1:1 + n_controls])
    matrix = {"h": H1, "x": X1}.get(kind)
    if matrix is None:
        matrix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return qubits[0], controls, matrix


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data(), matrices, st.integers(0, 2**32 - 1),
       st.sampled_from([1, 4, 1 << 15]))
def test_apply_gate_matches_dense_reference(n_qubits, data, kind, seed, block):
    rng = np.random.default_rng(seed)
    target, controls, matrix = draw_gate(data, n_qubits, kind, rng)
    state = random_state(rng, n_qubits, data.draw(st.integers(1, 3)))
    expected = dense_controlled(n_qubits, {target: matrix}, controls) @ state
    # a small block size makes even these states run through the block loop
    with mock.patch.object(linalg, "_BLOCK", block):
        linalg.apply_gate(state, n_qubits, matrix, target, controls)
    np.testing.assert_allclose(state, expected, atol=1e-12)


def test_apply_gate_rejects_bad_arguments():
    state = np.zeros((4, 1), dtype=complex)
    for target, controls in [(2, ()), (-1, ()), (0, ((0, 1),)), (0, ((1, 2),)), (0, ((2, 1),))]:
        with pytest.raises(ValueError, match="bad target"):
            linalg.apply_gate(state, 2, H1, target, controls)
    for bad in (np.zeros((8, 1), dtype=complex), np.zeros((4, 1)),
                np.zeros((2, 4), dtype=complex).T):
        with pytest.raises(ValueError, match="C-contiguous complex128 array of 2"):
            linalg.apply_gate(bad, 2, H1, 0)


@st.composite
def sparse_states(draw, n_qubits, cols):
    """Basis columns, random columns with whole halves zeroed, or all zeros but
    one NaN, so that many blocks are all zero when the block size is small."""
    kind = draw(st.sampled_from(["basis", "halves", "nan"]))
    state = np.zeros((2**n_qubits, cols), dtype=complex)
    rows = st.integers(0, 2**n_qubits - 1)
    if kind == "basis":
        state[[draw(rows) for _ in range(cols)], np.arange(cols)] = 1.0
    elif kind == "halves":
        state = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             n_qubits, cols)
        index = np.arange(2**n_qubits)
        for q, bit in draw(st.lists(st.tuples(st.integers(0, n_qubits - 1), st.integers(0, 1)),
                                    min_size=1, max_size=n_qubits)):
            state[(index >> q) & 1 == bit] = 0.0
    else:
        state[draw(rows), draw(st.integers(0, cols - 1))] = np.nan
    return state


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.data(), matrices, st.integers(0, 2**32 - 1),
       st.sampled_from([1, 4]))
def test_apply_gate_on_sparse_states_matches_dense_reference(n_qubits, data, kind, seed, block):
    rng = np.random.default_rng(seed)
    target, controls, matrix = draw_gate(data, n_qubits, kind, rng)
    state = data.draw(sparse_states(n_qubits, data.draw(st.integers(1, 3))))
    dense = dense_controlled(n_qubits, {target: matrix}, controls)
    nan = np.isnan(state)
    # a NaN reaches every row whose dense-reference coefficient on its row is
    # non-zero; everything else is the product with the NaN set to zero
    reached = (dense != 0).astype(int) @ nan.astype(int) > 0
    expected = dense @ np.where(nan, 0.0, state)
    with mock.patch.object(linalg, "_BLOCK", block):
        linalg.apply_gate(state, n_qubits, matrix, target, controls)
    assert np.array_equal(np.isnan(state), reached)
    np.testing.assert_allclose(state[~reached], expected[~reached], atol=1e-12)


@pytest.mark.parametrize("n_qubits, gate_list", [
    (2, [XGate(0), HGate(0)]),
    (2, [XGate(1), CnotGate(1, 0)]),
    (2, [XGate(0), CnotGate(1, 0), XGate(0), HGate(0)]),
    (2, [XGate(0), XGate(1), ControlledUGate(0, 1, *cc.SQRT_H_ANGLES), HGate(0)]),
    (4, [HGate(0), HGate(1), XGate(0), XGate(2),
         MultiControlledHadamard((Control(0, Polarity.BLACK), Control(1, Polarity.WHITE),
                                  Control(2, Polarity.WHITE)), (3,)),
         XGate(0)]),
    (4, [XGate(0), XGate(1), XGate(1), XGate(1), XGate(3), HGate(2)]),
    (4, [HGate(3), XGate(3), XGate(1), CnotGate(3, 1),
         MultiControlledHadamard((Control(1, Polarity.BLACK),), (0, 3)), XGate(2)]),
], ids=["x-then-h", "x-on-cnot-control", "x-on-cnot-target", "x-on-cu-qubits",
        "x-on-mch-controls", "odd-x-at-end", "x-on-mch-target"])
def test_deferred_x_matches_dense_reference(n_qubits, gate_list):
    circ = Circuit(n_qubits, tuple(gate_list))
    reference = np.eye(2**n_qubits)
    for gate in circ.gates:
        reference = dense_gate(n_qubits, gate) @ reference
    np.testing.assert_allclose(cc.circuit_to_unitary(circ), reference, atol=1e-12)
    state = random_state(np.random.default_rng(7), n_qubits, 2)
    expected = reference @ state
    np.testing.assert_allclose(cc.apply_circuit(circ, state), expected, atol=1e-12)


def test_complement_route_makes_no_x_pass():
    n = 6
    for target in range(2**n):
        with mock.patch.object(linalg, "apply_gate", wraps=linalg.apply_gate) as spy:
            complement.run_complement_statevector(complement.ComplementSpec(n, target))
        passes = [(np.asarray(call.args[2]), call.args[4] if len(call.args) > 4 else ())
                  for call in spy.call_args_list]
        assert not [m for m, controls in passes if not controls and (m == X1).all()]
        assert len(passes) == 3 * n  # n H, n controlled H and n CNOTs
