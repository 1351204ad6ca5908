"""Coin operators, evolution operators and walker states.

A walker state lives on two n-qubit registers, coin (x) position, stored as a
single amplitude vector of length 4^n with composite index
``coin_index * 2^n + position_index`` (coin blocks outermost).  Every module in
the package shares this layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import linalg
from .graphs import ShiftModel, ShiftOperator

NORM_ATOL = 1e-10


def hadamard_coin(n: int) -> np.ndarray:
    """n-qubit Hadamard operator H^(x)n: H applied to every qubit of the identity.

    Entry (a, b) equals (-1)^(a.b) / sqrt(2^n), where a.b counts the 1-bits
    the two indices share.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.eye(2**n, dtype=np.complex128)
    linalg.apply_hadamard(out, n)
    return out


def grover_coin(n: int) -> np.ndarray:
    """Grover reflection operator (2/2^n) J - I, with J the all-ones matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2**n
    return (2.0 / dim) * np.ones((dim, dim), dtype=np.complex128) - np.eye(dim)


def _check_coin(c: np.ndarray, what: str) -> np.ndarray:
    c = linalg.as_complex_matrix(c)
    if not linalg.is_unitary(c):
        raise ValueError(f"{what} coin matrix is not unitary")
    return c


@dataclass(frozen=True)
class UniformCoin:
    """The same coin applied at every node: C (x) I."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_coin(self.matrix, "uniform"))


@dataclass(frozen=True)
class PositionDependentCoin:
    """One coin per node: sum_k C_k (x) |v_k><v_k|.  Every node needs a coin."""

    coins: dict[int, np.ndarray]

    def __post_init__(self):
        checked = {k: _check_coin(c, f"position {k}") for k, c in self.coins.items()}
        object.__setattr__(self, "coins", checked)


@dataclass(frozen=True)
class PerturbedCoin:
    """C0 everywhere except the target node, where C1 acts instead.

    This is the walk's oracle: C0 (x) I + (C1 - C0) (x) |v_t><v_t|.
    """

    original: np.ndarray
    perturbation: np.ndarray
    target: int

    def __post_init__(self):
        object.__setattr__(self, "original", _check_coin(self.original, "original"))
        object.__setattr__(self, "perturbation", _check_coin(self.perturbation, "perturbation"))


CoinSpec = Union[UniformCoin, PositionDependentCoin, PerturbedCoin]


def coin_operator(spec: CoinSpec, n: int) -> np.ndarray:
    """Full coin operator on the composite space for a 2^n-node walk."""
    n_nodes = 2**n

    def check_dim(c: np.ndarray) -> np.ndarray:
        if c.shape != (n_nodes, n_nodes):
            raise ValueError(f"coin must be {n_nodes}x{n_nodes}, got {c.shape}")
        return c

    if isinstance(spec, UniformCoin):
        return np.kron(check_dim(spec.matrix), np.eye(n_nodes))
    if isinstance(spec, PositionDependentCoin):
        missing = [k for k in range(n_nodes) if k not in spec.coins]
        if missing:
            raise ValueError(f"no coin given for positions {missing}")
        op = np.zeros((n_nodes**2, n_nodes**2), dtype=np.complex128)
        for k in range(n_nodes):
            proj = np.zeros((n_nodes, n_nodes))
            proj[k, k] = 1.0
            op += np.kron(check_dim(spec.coins[k]), proj)
        return op
    if isinstance(spec, PerturbedCoin):
        if not 0 <= spec.target < n_nodes:
            raise ValueError(f"target {spec.target} out of range for {n_nodes} nodes")
        c0 = check_dim(spec.original)
        c1 = check_dim(spec.perturbation)
        proj = np.zeros((n_nodes, n_nodes))
        proj[spec.target, spec.target] = 1.0
        return np.kron(c0, np.eye(n_nodes)) + np.kron(c1 - c0, proj)
    raise TypeError(f"unknown coin spec {type(spec).__name__}")


@dataclass(frozen=True)
class EvolutionOperator:
    """A one-step evolution operator together with how it was built."""

    matrix: np.ndarray
    n: int
    shift_model: ShiftModel | None = None
    coin: CoinSpec | str | None = None
    init_layer: bool = False

    @property
    def n_nodes(self) -> int:
        return 2**self.n


def evolution_operator(shift: ShiftOperator, coin: CoinSpec,
                       with_init_layer: bool = False) -> EvolutionOperator:
    """Compose shift and coin into U = S C, optionally right-multiplied by H^(x)2n.

    The init layer realizes starting every qubit of both registers in an equal
    superposition, folded into the operator so single-step analysis can treat
    it as one matrix.
    """
    n = shift.n
    cop = coin_operator(coin, n)
    dim = shift.perm.size
    if cop.shape != (dim, dim):
        raise ValueError(f"coin operator {cop.shape} does not match shift {(dim, dim)}")
    if with_init_layer:
        # C H^(x)2n = (H^(x)2n C^T)^T, since H^(x)2n is symmetric
        cop_t = np.ascontiguousarray(cop.T)
        linalg.apply_hadamard(cop_t, 2 * n)
        cop = cop_t.T
    # S|k> = |perm[k]>, so row k of C becomes row perm[k] of S C
    u = np.empty((dim, dim), dtype=np.complex128)
    u[shift.perm] = cop
    return EvolutionOperator(matrix=u, n=n, shift_model=shift.model,
                             coin=coin, init_layer=with_init_layer)


@dataclass(frozen=True)
class WalkerState:
    """Normalized amplitude vector over the coin (x) position basis."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = linalg.as_complex_vector(self.amplitudes)
        if amps.shape[0] != 4**self.n:
            raise ValueError(f"state for n={self.n} needs 4^n = {4**self.n} amplitudes, "
                             f"got {amps.shape[0]}")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_ATOL:
            raise ValueError("walker state is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    def save_csv(self, path) -> None:
        linalg.save_vector_csv(self.amplitudes, path)

    @classmethod
    def load_csv(cls, n: int, path) -> "WalkerState":
        return cls(n=n, amplitudes=linalg.load_vector_csv(path))


def basis_state(n: int, coin: int, position: int) -> WalkerState:
    """Walker state |coin> (x) |position|> on two n-qubit registers."""
    n_nodes = 2**n
    if not 0 <= coin < n_nodes:
        raise ValueError(f"coin index {coin} out of range for {n_nodes} nodes")
    if not 0 <= position < n_nodes:
        raise ValueError(f"position index {position} out of range for {n_nodes} nodes")
    amps = np.zeros(n_nodes**2, dtype=np.complex128)
    amps[coin * n_nodes + position] = 1.0
    return WalkerState(n=n, amplitudes=amps)


def evolve(state: WalkerState, u: EvolutionOperator, steps: int) -> WalkerState:
    """Apply the evolution operator ``steps`` times."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if u.matrix.shape[1] != state.amplitudes.shape[0]:
        raise ValueError("operator and state dimensions do not match")
    amps = state.amplitudes
    for _ in range(steps):
        amps = u.matrix @ amps
    return WalkerState(n=state.n, amplitudes=amps)
