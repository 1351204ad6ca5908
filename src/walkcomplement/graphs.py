"""Adjacency matrices of complete graphs and their shift-operator decompositions.

A shift operator for a walk on a graph is a block matrix whose blocks, summed,
reproduce the graph's adjacency matrix, and whose block rows and block columns
each form a set of Kraus operators.  Two decompositions of the all-ones
adjacency matrix of the complete graph with self-loops are supported:

* ``SWAP`` model: one single-entry block per (i, j) arc; the assembled operator
  exchanges the coin and position registers.
* ``CNOT`` model: one XOR-permutation block per coin value, placed on the block
  diagonal; the assembled operator maps ``|i>|j> -> |i>|j XOR i>``.

Both assembled operators are permutations of the coin (x) position basis, so a
:class:`ShiftOperator` stores the index array ``perm`` with
``S|k> = |perm[k]>`` rather than a 4^n x 4^n matrix.  For blocks of 0s and 1s
the Kraus conditions, and unitarity, say exactly that every row and every
column of S holds a single 1; assembly and the file loader check that one fact
in O(dim^2) and reject anything else.

Only complete graphs with self-loops are constructible through this API.
Decomposing an arbitrary adjacency matrix admits many valid solutions and is
deliberately not attempted; unsupported inputs are rejected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg


class ShiftModel(enum.Enum):
    SWAP = "swap"
    CNOT = "cnot"


MAX_QUBITS = 12


def complete_adjacency(n: int) -> np.ndarray:
    """All-ones adjacency matrix of the complete graph on 2^n nodes with self-loops."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    return np.ones((2**n, 2**n), dtype=np.int64)


@dataclass(frozen=True)
class ShiftDecomposition:
    """A decomposition of an adjacency matrix into shift-operator blocks.

    For the SWAP model, ``blocks`` maps ``(i, j)`` to the 0/1 block with a
    single 1 at entry ``(i, j)``.  For the CNOT model it maps ``i`` to the
    permutation block sending ``j`` to ``j XOR i``.
    """

    model: ShiftModel
    n: int
    blocks: dict

    def block_sum(self) -> np.ndarray:
        """Sum of all blocks; equals the decomposed adjacency matrix."""
        return sum(self.blocks.values())


@dataclass(frozen=True)
class ShiftOperator:
    """An assembled, validated shift operator over coin (x) position.

    ``perm`` is the permutation the operator performs on basis states:
    ``S|k> = |perm[k]>``.  The dense 0/1 matrix is built on demand by
    :attr:`matrix`.
    """

    perm: np.ndarray
    model: ShiftModel | None
    n: int

    @property
    def matrix(self) -> np.ndarray:
        """The dense complex 0/1 matrix with a 1 at ``(perm[k], k)`` for every k."""
        dim = self.perm.size
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[self.perm, np.arange(dim)] = 1.0
        return m


def _xor_permutation(n_nodes: int, i: int) -> np.ndarray:
    block = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    for k in range(n_nodes):
        block[k ^ i, k] = 1
    return block


def decompose(adj: np.ndarray, model: ShiftModel) -> ShiftDecomposition:
    """Decompose a complete-graph adjacency matrix into shift blocks."""
    adj = np.asarray(adj)
    n_nodes = adj.shape[0]
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency matrix must be square")
    n = int(n_nodes).bit_length() - 1
    if 2**n != n_nodes or not np.all(adj == 1):
        raise ValueError(
            "only the all-ones adjacency of a complete graph with self-loops "
            "on a power-of-two number of nodes is supported"
        )
    if model is ShiftModel.SWAP:
        blocks = {}
        for i in range(n_nodes):
            for j in range(n_nodes):
                b = np.zeros((n_nodes, n_nodes), dtype=np.int64)
                b[i, j] = 1
                blocks[(i, j)] = b
    else:
        blocks = {i: _xor_permutation(n_nodes, i) for i in range(n_nodes)}
    return ShiftDecomposition(model=model, n=n, blocks=blocks)


def _permutation_of_blocks(placed, dim: int, what: str) -> np.ndarray:
    """``perm`` of the dim x dim matrix S that holds each ``(row, col, block)`` of
    ``placed`` as ``block.T`` at offset ``(row, col)`` and 0 elsewhere.

    Every block entry must lie within DEFAULT_ATOL of 0 or 1, and the 1s must
    hit every row and every column of S exactly once: for 0/1 blocks, both
    Kraus conditions and unitarity.  S itself is never formed.
    """
    rows, cols = [], []
    for row, col, block in placed:
        ones = np.abs(block - 1) < linalg.DEFAULT_ATOL
        if not np.all(ones | (np.abs(block) < linalg.DEFAULT_ATOL)):
            raise ValueError(f"{what} fails the Kraus conditions: an entry is neither 0 nor 1")
        # a 1 at block[y, x] is a 1 at S[row + x, col + y]
        y, x = np.nonzero(ones)
        rows.append(row + x)
        cols.append(col + y)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    once = np.ones(dim, dtype=np.intp)
    if not (np.array_equal(np.bincount(rows, minlength=dim), once)
            and np.array_equal(np.bincount(cols, minlength=dim), once)):
        raise ValueError(f"{what} fails the Kraus conditions: not a 0/1 permutation matrix")
    perm = np.empty(dim, dtype=np.intp)
    perm[cols] = rows
    return perm


def _permutation_of(matrix: np.ndarray, what: str) -> np.ndarray:
    """``perm`` of a matrix of 0s and 1s (within DEFAULT_ATOL) with exactly one 1
    in every row and column: for 0/1 blocks, both Kraus conditions and unitarity."""
    return _permutation_of_blocks([(0, 0, matrix.T)], matrix.shape[0], what)


def assemble_shift(dec: ShiftDecomposition) -> ShiftOperator:
    """Assemble a shift operator from the transposed blocks of a decomposition.

    SWAP-model block (i, j) of S is ``B_ij^T``; CNOT-model blocks go on the
    block diagonal.  S must be a 0/1 permutation matrix, which for 0/1 blocks
    is both Kraus conditions and unitarity, otherwise the decomposition is
    rejected.  The check runs on the blocks; no dense S is filled.
    """
    n_nodes = 2**dec.n
    if dec.model is ShiftModel.SWAP:
        placed = [(i * n_nodes, j * n_nodes, b) for (i, j), b in dec.blocks.items()]
    else:
        placed = [(i * n_nodes, i * n_nodes, b) for i, b in dec.blocks.items()]
    for _, _, block in placed:
        if np.shape(block) != (n_nodes, n_nodes):
            raise ValueError(f"block of shape {np.shape(block)} in a decomposition "
                             f"for {n_nodes} nodes")
    perm = _permutation_of_blocks(placed, n_nodes * n_nodes, "assembled matrix")
    return ShiftOperator(perm=perm, model=dec.model, n=dec.n)


def shift_operator(n: int, model: ShiftModel) -> ShiftOperator:
    """Shift operator for the complete graph on 2^n nodes, in the given model."""
    return assemble_shift(decompose(complete_adjacency(n), model))


def kraus_conditions_hold(matrix: np.ndarray, n_blocks: int,
                          tol: float = linalg.DEFAULT_ATOL) -> bool:
    """Check both Kraus conditions on a block matrix with ``n_blocks`` block rows.

    Block columns must satisfy sum_i B_ik^dag B_il = delta_kl I, which is
    S^dag S = I; block rows sum_i B_ki B_li^dag = delta_kl I, which is
    S S^dag = I.  For a square S the two are the same fact, so this is one
    unitarity check.  Works on any square matrix whose dimension divides into
    n_blocks.
    """
    matrix = linalg.as_complex_matrix(matrix)
    dim = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1] or dim % n_blocks != 0:
        raise ValueError(f"matrix of shape {matrix.shape} does not split into "
                         f"{n_blocks} square blocks")
    return linalg.is_unitary(matrix, tol)


def verify_kraus(s: ShiftOperator, tol: float = linalg.DEFAULT_ATOL) -> bool:
    """True iff both Kraus conditions hold for the operator's block structure."""
    return kraus_conditions_hold(s.matrix, 2**s.n, tol)


def load_shift_operator(path) -> ShiftOperator:
    """Load a user-supplied shift operator from a linalg CSV matrix file.

    The matrix dimension must be a perfect square 4^n, and the matrix must be
    a permutation: every entry within ``linalg.DEFAULT_ATOL`` of 0 or 1, and
    exactly one 1 in every row and column.  Unitaries that are not 0/1
    permutations are rejected.
    """
    matrix = linalg.load_matrix_csv(path)
    dim = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{path}: shift operator must be square, got {matrix.shape}")
    n_nodes = int(round(dim**0.5))
    n = n_nodes.bit_length() - 1
    if n_nodes * n_nodes != dim or 2**n != n_nodes:
        raise ValueError(f"{path}: dimension {dim} is not 4^n for integer n")
    return ShiftOperator(perm=_permutation_of(matrix, f"{path}: matrix"), model=None, n=n)
