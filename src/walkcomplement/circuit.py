"""Gate-level circuits: complement synthesis, lowering and OpenQASM export.

Circuits act on 2n qubits.  Qubit 0 is the least significant bit of the
position index; qubits 0..n-1 form the position register and n..2n-1 the coin
register.  In matrices, basis index bit q corresponds to qubit q, so a lone H
on qubit 0 of a two-qubit circuit is ``kron(I, H)``.

The multi-controlled multi-target Hadamard oracle can be lowered (for two
controls) into CNOTs and general controlled-U gates whose target block is a
square root of H, using the Euler angle triple shipped as
:data:`SQRT_H_ANGLES`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import linalg

_X1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)

# Euler angles whose controlled-U target block is the principal square root of
# the Hadamard gate, and the matching triple for its inverse.
SQRT_H_ANGLES = (1.0471975511965976, -0.9553166181245089, 2.186276035465284)
SQRT_H_DAGGER_ANGLES = (1.0471975511965976, 0.9553166181245089, -2.186276035465284)


class Polarity(enum.Enum):
    BLACK = "black"  # control fires on |1>
    WHITE = "white"  # control fires on |0>


class Control(NamedTuple):
    qubit: int
    polarity: Polarity


def _check_distinct(qubits) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate qubits must be distinct, got {qubits}")


@dataclass(frozen=True)
class HGate:
    qubit: int


@dataclass(frozen=True)
class XGate:
    qubit: int


@dataclass(frozen=True)
class CnotGate:
    control: int
    target: int

    def __post_init__(self):
        _check_distinct((self.control, self.target))


@dataclass(frozen=True)
class ControlledUGate:
    """Single-control gate applying :func:`u_target_block` when the control is |1>."""

    control: int
    target: int
    theta: float
    phi: float
    lam: float

    def __post_init__(self):
        _check_distinct((self.control, self.target))


@dataclass(frozen=True)
class MultiControlledHadamard:
    """H on every target qubit, applied when all controls match their polarity."""

    controls: tuple[Control, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        _check_distinct(tuple(c.qubit for c in self.controls) + tuple(self.targets))


Gate = Union[HGate, XGate, CnotGate, ControlledUGate, MultiControlledHadamard]


def _gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, (HGate, XGate)):
        return (gate.qubit,)
    if isinstance(gate, (CnotGate, ControlledUGate)):
        return (gate.control, gate.target)
    return tuple(c.qubit for c in gate.controls) + tuple(gate.targets)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over 2n qubits (position register low, coin register high)."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 2 or self.n_qubits % 2 != 0:
            raise ValueError("circuits act on 2n qubits for some register size n")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            bad = [q for q in _gate_qubits(gate) if not 0 <= q < self.n_qubits]
            if bad:
                raise ValueError(f"gate {gate} uses qubits {bad} outside 0..{self.n_qubits - 1}")

    @property
    def register_size(self) -> int:
        return self.n_qubits // 2

    @property
    def position_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.register_size))

    @property
    def coin_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.register_size, self.n_qubits))


def u_target_block(theta: float, phi: float, lam: float) -> np.ndarray:
    """2x2 target block of the general controlled gate.

    Z-Y-Z rotation with the global phase fixed to exp(i(lam - phi)/4).  Under
    this convention the shipped square-root-of-H angle triples are exact: the
    block for :data:`SQRT_H_ANGLES` squares to H, and the dagger triple gives
    its exact inverse, so lowered circuits reconstruct without phase residue.
    """
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    rz_phi = np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]])
    ry = np.array([[c, -s], [s, c]], dtype=np.complex128)
    rz_lam = np.array([[np.exp(-0.5j * lam), 0], [0, np.exp(0.5j * lam)]])
    return np.exp(0.25j * (lam - phi)) * (rz_phi @ ry @ rz_lam)


def controlled_u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """4x4 matrix of the general single-control single-target gate.

    Basis index is (target_bit << 1) | control_bit: identity on the control-0
    subspace, :func:`u_target_block` on the control-1 subspace.
    """
    return circuit_to_unitary(Circuit(2, (ControlledUGate(0, 1, theta, phi, lam),)))


MAX_UNITARY_QUBITS = 12


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the gates in place on ``state`` (columns of 2^n_qubits amplitudes) and return it.

    X gates are deferred: an ``XGate`` only toggles its qubit in a set of
    flipped qubits, and a control on a flipped qubit fires on the opposite
    bit.  A pending X is applied as one real pass just before a gate other
    than a CNOT targets its qubit (X commutes with a CNOT on its target), and
    the X gates still pending after the last gate are applied at the end, so
    an X pair around controls costs no pass.
    """
    k = c.n_qubits
    flipped: set[int] = set()

    def unflip(*targets):
        for q in flipped.intersection(targets):
            linalg.apply_gate(state, k, _X1, q)
            flipped.remove(q)

    def control(qubit, bit=1):
        return qubit, bit ^ (qubit in flipped)

    for gate in c.gates:
        if isinstance(gate, XGate):
            flipped ^= {gate.qubit}
        elif isinstance(gate, HGate):
            unflip(gate.qubit)
            linalg.apply_hadamard(state, k, (gate.qubit,))
        elif isinstance(gate, CnotGate):  # commutes with an X on its target
            linalg.apply_gate(state, k, _X1, gate.target, (control(gate.control),))
        elif isinstance(gate, ControlledUGate):
            unflip(gate.target)
            linalg.apply_gate(state, k, u_target_block(gate.theta, gate.phi, gate.lam),
                              gate.target, (control(gate.control),))
        else:
            unflip(*gate.targets)
            controls = tuple(control(ctl.qubit, int(ctl.polarity is Polarity.BLACK))
                             for ctl in gate.controls)
            linalg.apply_hadamard(state, k, gate.targets, controls)
    unflip(*flipped)
    return state


def circuit_to_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit under the package's qubit ordering."""
    if c.n_qubits > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary reconstruction capped at {MAX_UNITARY_QUBITS} qubits, "
                         f"got {c.n_qubits}")
    return apply_circuit(c, np.eye(2**c.n_qubits, dtype=np.complex128))


def split_targets(gate: MultiControlledHadamard) -> list[MultiControlledHadamard]:
    """Split a multi-target controlled-H into one single-target gate per target."""
    return [MultiControlledHadamard(controls=gate.controls, targets=(t,))
            for t in gate.targets]


def decompose_mcmt_hadamard(gate: MultiControlledHadamard) -> list[Gate]:
    """Lower a two-control multi-target Hadamard into CNOTs and controlled-U gates.

    Per target: controlled-sqrt(H) from the second control, a CNOT between the
    controls, controlled-sqrt(H)-dagger, the CNOT again, and controlled-sqrt(H)
    from the first control.  White controls are realized by X gates on both
    sides of the sequence.
    """
    if len(gate.controls) != 2:
        raise ValueError(f"only two-control gates can be lowered, got "
                         f"{len(gate.controls)} controls")
    c1, c2 = gate.controls
    white = [ctl.qubit for ctl in gate.controls if ctl.polarity is Polarity.WHITE]
    lowered: list[Gate] = [XGate(q) for q in white]
    for single in split_targets(gate):
        target = single.targets[0]
        lowered += [
            ControlledUGate(c2.qubit, target, *SQRT_H_ANGLES),
            CnotGate(c1.qubit, c2.qubit),
            ControlledUGate(c2.qubit, target, *SQRT_H_DAGGER_ANGLES),
            CnotGate(c1.qubit, c2.qubit),
            ControlledUGate(c1.qubit, target, *SQRT_H_ANGLES),
        ]
    lowered += [XGate(q) for q in white]
    return lowered


def synthesize_complement_circuit(n: int, target: int, decompose: bool = False) -> Circuit:
    """Circuit for the one-step search complement of ``target`` on 2^n nodes.

    H on every position qubit; the position-controlled Hadamard oracle on the
    coin register, with X conjugation on every position qubit whose bit of the
    target is 0 (white controls); then the coin-to-position CNOT cascade.
    With ``decompose`` the oracle is lowered to two-qubit gates, which the
    two-control identity supports only for n = 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_nodes = 2**n
    if not 0 <= target < n_nodes:
        raise ValueError(f"target {target} out of range for {n_nodes} nodes")
    if decompose and n != 2:
        raise ValueError("oracle lowering uses the two-control identity; "
                         "only n = 2 is supported")
    position = list(range(n))
    coin = [n + q for q in range(n)]
    white = [q for q in position if not (target >> q) & 1]
    oracle = MultiControlledHadamard(
        controls=tuple(Control(q, Polarity.BLACK) for q in position),
        targets=tuple(coin),
    )
    oracle_gates: list[Gate] = decompose_mcmt_hadamard(oracle) if decompose else [oracle]
    gates: list[Gate] = [HGate(q) for q in position]
    gates += [XGate(q) for q in white]
    gates += oracle_gates
    gates += [XGate(q) for q in white]
    gates += [CnotGate(control=coin[q], target=position[q]) for q in range(n)]
    return Circuit(n_qubits=2 * n, gates=tuple(gates))


def deviation_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs deviation between two matrices after aligning one global phase."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) == 0.0:
        return float(np.abs(a - b).max())
    phase = a[idx] / b[idx]
    mag = abs(phase)
    if mag == 0.0:
        return float(np.abs(a - b).max())
    phase /= mag
    return float(np.abs(a - phase * b).max())


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text for a fully lowered circuit.

    Only the position register is measured.  Angles are printed as
    shortest-round-trip decimals (up to 17 significant digits).  Circuits that
    still contain a multi-controlled multi-target gate cannot be exported.
    """
    n = c.register_size
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"// position register q[0..{n - 1}]; q[0] is the least significant bit "
        "of the node index",
        f"// coin register q[{n}..{2 * n - 1}]",
        f"qreg q[{c.n_qubits}];",
        f"creg c[{n}];",
    ]
    for gate in c.gates:
        if isinstance(gate, HGate):
            lines.append(f"h q[{gate.qubit}];")
        elif isinstance(gate, XGate):
            lines.append(f"x q[{gate.qubit}];")
        elif isinstance(gate, CnotGate):
            lines.append(f"cx q[{gate.control}],q[{gate.target}];")
        elif isinstance(gate, ControlledUGate):
            lines.append(f"cu3({gate.theta!r},{gate.phi!r},{gate.lam!r}) "
                         f"q[{gate.control}],q[{gate.target}];")
        else:
            raise ValueError("circuit contains an unlowered multi-controlled gate; "
                             "synthesize with decompose=True first")
    if c.gates:
        for q in range(n):
            lines.append(f"measure q[{q}] -> c[{q}];")
    return "\n".join(lines) + "\n"


def circuit_to_json(c: Circuit) -> str:
    """JSON dump of the gate list for external tooling."""
    gates = []
    for gate in c.gates:
        if isinstance(gate, HGate):
            gates.append({"kind": "h", "qubit": gate.qubit})
        elif isinstance(gate, XGate):
            gates.append({"kind": "x", "qubit": gate.qubit})
        elif isinstance(gate, CnotGate):
            gates.append({"kind": "cx", "control": gate.control, "target": gate.target})
        elif isinstance(gate, ControlledUGate):
            gates.append({"kind": "cu3", "control": gate.control, "target": gate.target,
                          "theta": gate.theta, "phi": gate.phi, "lambda": gate.lam})
        else:
            gates.append({
                "kind": "mcmt_h",
                "controls": [{"qubit": ctl.qubit, "polarity": ctl.polarity.value}
                             for ctl in gate.controls],
                "targets": list(gate.targets),
            })
    return json.dumps({"n_qubits": c.n_qubits, "gates": gates}, indent=2) + "\n"
