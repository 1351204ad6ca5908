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
column of S holds a single 1; assembly checks that one fact on the coordinates
of the blocks' 1s, the file loader on its matrix, and both reject anything
else.

Only complete graphs with self-loops are constructible through this API.
Decomposing an arbitrary adjacency matrix admits many valid solutions and is
deliberately not attempted; unsupported inputs are rejected.
"""

from __future__ import annotations

import enum
import numbers
from collections.abc import Mapping
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


class IndexBlocks(Mapping):
    """Shift blocks stored as the coordinates of their 1s, read as a mapping.

    ``ys`` and ``xs`` (broadcast together) have one leading axis per key part
    and a last axis over the block's 1s: block ``key`` holds its 1s at
    ``(ys[key], xs[key])``.  Keys are ``0..n_nodes-1`` with one leading axis
    (CNOT) and pairs ``(i, j)`` with two (SWAP).  Looking a key up builds that
    one dense int64 block; nothing else builds one.
    """

    def __init__(self, n_nodes: int, ys: np.ndarray, xs: np.ndarray):
        self.n_nodes = n_nodes
        self.ys, self.xs = np.broadcast_arrays(ys, xs)

    @property
    def key_ndim(self) -> int:
        return self.ys.ndim - 1

    def __getitem__(self, key) -> np.ndarray:
        index = (key,) if self.key_ndim == 1 else key
        if not (isinstance(index, tuple) and len(index) == self.key_ndim and all(
                isinstance(k, numbers.Integral) and 0 <= k < self.n_nodes for k in index)):
            raise KeyError(key)
        block = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        block[self.ys[index], self.xs[index]] = 1
        return block

    def __iter__(self):
        keys = np.ndindex(self.ys.shape[:-1])
        return keys if self.key_ndim > 1 else (k for (k,) in keys)

    def __len__(self) -> int:
        return self.n_nodes**self.key_ndim

    def total(self) -> np.ndarray:
        """Sum of all blocks: one bincount of the 1s' coordinates."""
        ones = (self.ys * self.n_nodes + self.xs).ravel()
        return np.bincount(ones, minlength=self.n_nodes**2).reshape(self.n_nodes, self.n_nodes)


@dataclass(frozen=True)
class ShiftDecomposition:
    """A decomposition of an adjacency matrix into shift-operator blocks.

    For the SWAP model, ``blocks`` maps ``(i, j)`` to the 0/1 block with a
    single 1 at entry ``(i, j)``.  For the CNOT model it maps ``i`` to the
    permutation block sending ``j`` to ``j XOR i``.  :func:`decompose` gives
    an :class:`IndexBlocks`; a hand-built ``dict`` of dense blocks is checked
    entry by entry on assembly.
    """

    model: ShiftModel
    n: int
    blocks: Mapping

    def block_sum(self) -> np.ndarray:
        """Sum of all blocks; equals the decomposed adjacency matrix."""
        if isinstance(self.blocks, IndexBlocks):
            return self.blocks.total()
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


def decompose(adj: np.ndarray, model: ShiftModel) -> ShiftDecomposition:
    """Decompose a complete-graph adjacency matrix into shift blocks.

    CNOT block i has its 1s at ``(arange(N) ^ i, arange(N))``; SWAP block
    (i, j) has its one 1 at ``(i, j)``.  Both are stored as those coordinates.
    """
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
    nodes = np.arange(n_nodes)
    if model is ShiftModel.SWAP:
        blocks = IndexBlocks(n_nodes, nodes[:, None, None], nodes[None, :, None])
    else:
        blocks = IndexBlocks(n_nodes, nodes[:, None] ^ nodes, nodes)
    return ShiftDecomposition(model=model, n=n, blocks=blocks)


def _ones(matrix: np.ndarray, what: str) -> np.ndarray:
    """Mask of the 1s of a matrix whose every entry is within DEFAULT_ATOL of 0 or 1."""
    ones = np.abs(matrix - 1) < linalg.DEFAULT_ATOL
    if not np.all(ones | (np.abs(matrix) < linalg.DEFAULT_ATOL)):
        raise ValueError(f"{what} fails the Kraus conditions: an entry is neither 0 nor 1")
    return ones


def _permutation_of_ones(rows: np.ndarray, cols: np.ndarray, dim: int,
                         what: str) -> np.ndarray:
    """``perm`` of the dim x dim 0/1 matrix S with its 1s at ``(rows, cols)``.

    The 1s must hit every row and every column of S exactly once: for 0/1
    blocks, both Kraus conditions and unitarity.  S itself is never formed.
    """
    for hits in (rows, cols):
        counts = np.bincount(hits, minlength=dim)
        if counts.size != dim or not np.all(counts == 1):
            raise ValueError(f"{what} fails the Kraus conditions: not a 0/1 permutation matrix")
    perm = np.empty(dim, dtype=np.intp)
    perm[cols] = rows
    return perm


def _permutation_of(matrix: np.ndarray, what: str) -> np.ndarray:
    """``perm`` of a matrix of 0s and 1s (within DEFAULT_ATOL) with exactly one 1
    in every row and column: for 0/1 blocks, both Kraus conditions and unitarity."""
    rows, cols = np.nonzero(_ones(matrix, what))
    return _permutation_of_ones(rows, cols, matrix.shape[0], what)


def _ones_of_dense_blocks(dec: ShiftDecomposition, n_nodes: int):
    """Rows and columns in S of the 1s of a hand-built dict of dense blocks."""
    rows, cols = [], []
    for key, block in dec.blocks.items():
        if np.shape(block) != (n_nodes, n_nodes):
            raise ValueError(f"block of shape {np.shape(block)} in a decomposition "
                             f"for {n_nodes} nodes")
        i, j = key if dec.model is ShiftModel.SWAP else (key, key)
        # a 1 at block[y, x] is a 1 at S[i * n_nodes + x, j * n_nodes + y]
        y, x = np.nonzero(_ones(np.asarray(block), "assembled matrix"))
        rows.append(i * n_nodes + x)
        cols.append(j * n_nodes + y)
    return np.concatenate(rows), np.concatenate(cols)


def assemble_shift(dec: ShiftDecomposition) -> ShiftOperator:
    """Assemble a shift operator from the transposed blocks of a decomposition.

    SWAP-model block (i, j) of S is ``B_ij^T``; CNOT-model blocks go on the
    block diagonal.  S must be a 0/1 permutation matrix, which for 0/1 blocks
    is both Kraus conditions and unitarity, otherwise the decomposition is
    rejected.  The check runs on the coordinates of the blocks' 1s; no dense
    S is filled, and index blocks are never made dense.
    """
    n_nodes = 2**dec.n
    blocks = dec.blocks
    if isinstance(blocks, IndexBlocks):
        key_ndim = 2 if dec.model is ShiftModel.SWAP else 1
        if (blocks.n_nodes, blocks.key_ndim) != (n_nodes, key_ndim):
            raise ValueError(f"index blocks for {blocks.n_nodes} nodes and {blocks.key_ndim}-part "
                             f"keys in a {dec.model.value} decomposition for {n_nodes} nodes")
        # SWAP block (i, j) starts at S[i * n_nodes, j * n_nodes], CNOT block i at
        # S[i * n_nodes, i * n_nodes]
        offsets = np.arange(n_nodes) * n_nodes
        if key_ndim == 2:
            row_off, col_off = offsets[:, None, None], offsets[:, None]
        else:
            row_off = col_off = offsets[:, None]
        # a 1 at block[y, x] is a 1 at S[row_off + x, col_off + y]
        rows, cols = (row_off + blocks.xs).ravel(), (col_off + blocks.ys).ravel()
    else:
        rows, cols = _ones_of_dense_blocks(dec, n_nodes)
    perm = _permutation_of_ones(rows, cols, n_nodes * n_nodes, "assembled matrix")
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
