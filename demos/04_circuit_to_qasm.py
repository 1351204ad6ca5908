#!/usr/bin/env python3
"""From operator to gates: synthesis, lowering and OpenQASM export.

The complement circuit is H on the position register, a position-controlled
Hadamard layer on the coin register, and a coin-to-position CNOT cascade.
Zero bits of the target are handled by X conjugation around the oracle.
For two position qubits the oracle lowers to CNOTs plus controlled gates
whose target block is a square root of H.
"""

import os
import tempfile

from walkcomplement.circuit import (
    circuit_to_unitary,
    deviation_up_to_global_phase,
    export_qasm,
    synthesize_complement_circuit,
)
from walkcomplement.complement import build_complement_operator

# --- structure ---------------------------------------------------------------
for target in (3, 1):
    circ = synthesize_complement_circuit(2, target, decompose=False)
    names = [type(g).__name__ for g in circ.gates]
    print(f"target {target} ({target:02b}): {len(circ.gates)} gates: {names}")
print("target 3 needs no X gates (both bits set); target 1 conjugates qubit 1")
print()

# --- reconstruction check ----------------------------------------------------
for target in range(4):
    lowered = synthesize_complement_circuit(2, target, decompose=True)
    u = circuit_to_unitary(lowered)
    direct = build_complement_operator(2, target).matrix
    dev = deviation_up_to_global_phase(u, direct)
    print(f"target {target}: lowered circuit has {len(lowered.gates)} gates, "
          f"reconstruction deviation {dev:.2e}")
print()

# --- export ------------------------------------------------------------------
qasm = export_qasm(synthesize_complement_circuit(2, 3, decompose=True))
print(qasm)
qasm_path = os.path.join(tempfile.gettempdir(), "walk_complement_t3.qasm")
with open(qasm_path, "w") as fh:
    fh.write(qasm)
print(f"wrote {qasm_path}")
