import numpy as np
import pytest

from readers import parse_qasm
from walkcomplement import circuit as cc
from walkcomplement import linalg
from walkcomplement.circuit import (
    Circuit,
    CnotGate,
    Control,
    ControlledUGate,
    HGate,
    MultiControlledHadamard,
    Polarity,
    XGate,
    controlled_u_matrix,
    decompose_mcmt_hadamard,
    deviation_up_to_global_phase,
    export_qasm,
    synthesize_complement_circuit,
)
from walkcomplement.complement import build_complement_operator

H1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def controlled_hh_oracle():
    """Direct matrix of H on qubits 2,3 controlled on qubits 0,1 being |11>."""
    p11 = np.diag([0.0, 0.0, 0.0, 1.0])
    hh = np.kron(H1, H1)
    return np.kron(hh, p11) + np.kron(np.eye(4), np.eye(4) - p11)


def test_controlled_u_identity_angles():
    np.testing.assert_allclose(controlled_u_matrix(0.0, 0.0, 0.0), np.eye(4), atol=1e-15)


def test_controlled_u_is_identity_on_control_zero_subspace():
    m = controlled_u_matrix(*cc.SQRT_H_ANGLES)
    assert m[0, 0] == 1.0 and m[2, 2] == 1.0
    assert m[0, 2] == 0.0 and m[2, 0] == 0.0
    assert linalg.is_unitary(m, 1e-10)


def test_sqrt_h_block_squares_to_hadamard():
    block = cc.u_target_block(*cc.SQRT_H_ANGLES)
    np.testing.assert_allclose(block @ block, H1, atol=1e-10)


def test_dagger_angles_give_conjugate_transpose():
    block = cc.u_target_block(*cc.SQRT_H_ANGLES)
    dagger = cc.u_target_block(*cc.SQRT_H_DAGGER_ANGLES)
    np.testing.assert_allclose(dagger, block.conj().T, atol=1e-12)
    np.testing.assert_allclose(dagger @ block, np.eye(2), atol=1e-12)


def test_decompose_two_control_two_target_counts():
    gate = MultiControlledHadamard(
        controls=(Control(0, Polarity.BLACK), Control(1, Polarity.BLACK)),
        targets=(2, 3),
    )
    lowered = decompose_mcmt_hadamard(gate)
    assert len(lowered) == 10
    assert sum(isinstance(g, ControlledUGate) for g in lowered) == 6
    assert sum(isinstance(g, CnotGate) for g in lowered) == 4


def test_decompose_reconstructs_controlled_hh():
    gate = MultiControlledHadamard(
        controls=(Control(0, Polarity.BLACK), Control(1, Polarity.BLACK)),
        targets=(2, 3),
    )
    lowered = Circuit(n_qubits=4, gates=tuple(decompose_mcmt_hadamard(gate)))
    reconstructed = cc.circuit_to_unitary(lowered)
    assert deviation_up_to_global_phase(reconstructed, controlled_hh_oracle()) < 1e-8


def test_decompose_rejects_other_control_counts():
    three = MultiControlledHadamard(
        controls=(Control(0, Polarity.BLACK), Control(1, Polarity.BLACK),
                  Control(2, Polarity.BLACK)),
        targets=(3,),
    )
    with pytest.raises(ValueError, match="two-control"):
        decompose_mcmt_hadamard(three)
    one = MultiControlledHadamard(controls=(Control(0, Polarity.BLACK),), targets=(1,))
    with pytest.raises(ValueError, match="two-control"):
        decompose_mcmt_hadamard(one)


def test_decompose_white_controls_add_x_conjugation():
    gate = MultiControlledHadamard(
        controls=(Control(0, Polarity.WHITE), Control(1, Polarity.BLACK)),
        targets=(2,),
    )
    lowered = decompose_mcmt_hadamard(gate)
    assert isinstance(lowered[0], XGate) and lowered[0].qubit == 0
    assert isinstance(lowered[-1], XGate) and lowered[-1].qubit == 0


def test_white_control_equals_x_conjugated_black_control():
    white = MultiControlledHadamard(
        controls=(Control(0, Polarity.BLACK), Control(1, Polarity.WHITE)),
        targets=(2, 3),
    )
    black = MultiControlledHadamard(
        controls=(Control(0, Polarity.BLACK), Control(1, Polarity.BLACK)),
        targets=(2, 3),
    )
    direct = cc.circuit_to_unitary(Circuit(4, (white,)))
    conjugated = cc.circuit_to_unitary(Circuit(4, (XGate(1), black, XGate(1))))
    np.testing.assert_array_equal(direct, conjugated)


def test_split_targets():
    gate = MultiControlledHadamard(
        controls=(Control(0, Polarity.BLACK), Control(1, Polarity.BLACK)),
        targets=(2, 3),
    )
    singles = cc.split_targets(gate)
    assert [g.targets for g in singles] == [(2,), (3,)]
    product = cc.circuit_to_unitary(Circuit(4, tuple(singles)))
    whole = cc.circuit_to_unitary(Circuit(4, (gate,)))
    np.testing.assert_allclose(product, whole, atol=1e-14)


def test_synthesize_gate_sequence_for_target_one():
    # binary 01: black control on position bit 0, white on position bit 1
    circ = synthesize_complement_circuit(2, 1, decompose=False)
    kinds = [type(g).__name__ for g in circ.gates]
    assert kinds == ["HGate", "HGate", "XGate", "MultiControlledHadamard",
                     "XGate", "CnotGate", "CnotGate"]
    x_qubits = [g.qubit for g in circ.gates if isinstance(g, XGate)]
    assert x_qubits == [1, 1]
    oracle = circ.gates[3]
    assert oracle.controls == (Control(0, Polarity.BLACK), Control(1, Polarity.BLACK))
    assert oracle.targets == (2, 3)
    cnots = [g for g in circ.gates if isinstance(g, CnotGate)]
    assert [(g.control, g.target) for g in cnots] == [(2, 0), (3, 1)]


def test_synthesize_gate_count_all_black_target():
    # binary 11 has no zero bits, so no X pairs
    circ = synthesize_complement_circuit(2, 3, decompose=False)
    kinds = [type(g).__name__ for g in circ.gates]
    assert kinds == ["HGate", "HGate", "MultiControlledHadamard", "CnotGate", "CnotGate"]


def test_synthesize_target_zero_conjugates_both_controls():
    circ = synthesize_complement_circuit(2, 0, decompose=False)
    x_qubits = sorted(g.qubit for g in circ.gates if isinstance(g, XGate))
    assert x_qubits == [0, 0, 1, 1]


def test_synthesize_effective_control_pattern_matches_target():
    # X conjugation on the zero bits makes the all-black oracle fire on |t>
    for t in range(4):
        circ = synthesize_complement_circuit(2, t, decompose=False)
        white = MultiControlledHadamard(
            controls=tuple(Control(q, Polarity.BLACK if (t >> q) & 1 else Polarity.WHITE)
                           for q in range(2)),
            targets=(2, 3),
        )
        polarized = Circuit(4, (HGate(0), HGate(1), white, CnotGate(2, 0), CnotGate(3, 1)))
        np.testing.assert_allclose(cc.circuit_to_unitary(circ),
                                   cc.circuit_to_unitary(polarized), atol=1e-14)


def test_synthesize_decomposed_matches_lowering_pattern():
    circ = synthesize_complement_circuit(2, 3, decompose=True)
    cu = [g for g in circ.gates if isinstance(g, ControlledUGate)]
    assert len(cu) == 6
    assert (cu[0].theta, cu[0].phi, cu[0].lam) == cc.SQRT_H_ANGLES
    assert (cu[1].theta, cu[1].phi, cu[1].lam) == cc.SQRT_H_DAGGER_ANGLES
    assert not any(isinstance(g, MultiControlledHadamard) for g in circ.gates)


def test_synthesize_decompose_limited_to_two_position_qubits():
    with pytest.raises(ValueError, match="n = 2"):
        synthesize_complement_circuit(3, 1, decompose=True)


def test_synthesize_range_checks():
    with pytest.raises(ValueError, match="target"):
        synthesize_complement_circuit(2, 4)


@pytest.mark.parametrize("target", range(4))
def test_round_trip_undecomposed(target):
    circ = synthesize_complement_circuit(2, target, decompose=False)
    u = cc.circuit_to_unitary(circ)
    direct = build_complement_operator(2, target).matrix
    assert deviation_up_to_global_phase(u, direct) < 1e-10


@pytest.mark.parametrize("target", range(4))
def test_round_trip_fully_decomposed(target):
    circ = synthesize_complement_circuit(2, target, decompose=True)
    u = cc.circuit_to_unitary(circ)
    direct = build_complement_operator(2, target).matrix
    assert deviation_up_to_global_phase(u, direct) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_round_trip_undecomposed_larger_registers(n):
    target = 2**n - 2
    circ = synthesize_complement_circuit(n, target, decompose=False)
    u = cc.circuit_to_unitary(circ)
    direct = build_complement_operator(n, target).matrix
    assert deviation_up_to_global_phase(u, direct) < 1e-10


def test_circuit_to_unitary_empty_is_identity():
    np.testing.assert_array_equal(cc.circuit_to_unitary(Circuit(2, ())), np.eye(4))


def test_circuit_to_unitary_qubit_order_convention():
    # qubit 0 is the least significant bit: H there is kron(I, H)
    u = cc.circuit_to_unitary(Circuit(2, (HGate(0),)))
    np.testing.assert_allclose(u, np.kron(np.eye(2), H1), atol=1e-15)
    u = cc.circuit_to_unitary(Circuit(2, (HGate(1),)))
    np.testing.assert_allclose(u, np.kron(H1, np.eye(2)), atol=1e-15)


def test_circuit_to_unitary_cnot_convention():
    u = cc.circuit_to_unitary(Circuit(2, (CnotGate(control=0, target=1),)))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[2, 2] = 1  # control bit 0 clear
    expected[3, 1] = expected[1, 3] = 1  # control set: flip bit 1
    np.testing.assert_array_equal(u.real, expected)


def test_circuit_to_unitary_size_cap():
    with pytest.raises(ValueError, match="capped"):
        cc.circuit_to_unitary(Circuit(14, ()))


def test_circuit_validates_qubit_indices():
    with pytest.raises(ValueError, match="outside"):
        Circuit(2, (HGate(5),))
    with pytest.raises(ValueError, match="distinct"):
        CnotGate(1, 1)


def test_deviation_up_to_global_phase():
    a = np.eye(2, dtype=complex)
    assert deviation_up_to_global_phase(a, 1j * a) < 1e-15
    assert deviation_up_to_global_phase(a, 2 * a) > 0.5


def test_export_qasm_empty_circuit():
    text = export_qasm(Circuit(2, ()))
    lines = [ln for ln in text.splitlines() if not ln.startswith("//")]
    assert lines == ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];", "creg c[1];"]


def test_export_qasm_reparses_and_measures_position_register():
    circ = synthesize_complement_circuit(2, 3, decompose=True)
    prog = parse_qasm(export_qasm(circ))
    assert prog.n_qubits == 4 and prog.n_clbits == 2
    assert prog.measurements == [(0, 0), (1, 1)]


def test_export_qasm_contains_verbatim_sqrt_h_line():
    text = export_qasm(synthesize_complement_circuit(2, 3, decompose=True))
    assert "cu3(1.0471975511965976,-0.9553166181245089,2.186276035465284)" in text
    assert "cu3(1.0471975511965976,0.9553166181245089,-2.186276035465284)" in text


def test_export_qasm_rejects_unlowered_oracle():
    circ = synthesize_complement_circuit(2, 1, decompose=False)
    with pytest.raises(ValueError, match="unlowered"):
        export_qasm(circ)


@pytest.mark.parametrize("target", range(4))
def test_export_qasm_x_conjugation_count(target):
    circ = synthesize_complement_circuit(2, target, decompose=True)
    prog = parse_qasm(export_qasm(circ))
    zero_bits = sum(1 for q in range(2) if not (target >> q) & 1)
    assert sum(1 for g in prog.gates if g[0] == "x") == 2 * zero_bits


def test_circuit_json_dump():
    import json

    circ = synthesize_complement_circuit(2, 1, decompose=False)
    payload = json.loads(cc.circuit_to_json(circ))
    assert payload["n_qubits"] == 4
    kinds = [g["kind"] for g in payload["gates"]]
    assert kinds == ["h", "h", "x", "mcmt_h", "x", "cx", "cx"]
    oracle = payload["gates"][3]
    assert oracle["controls"] == [{"qubit": 0, "polarity": "black"},
                                  {"qubit": 1, "polarity": "black"}]
