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


def _coin_stack(spec: CoinSpec, n: int) -> np.ndarray:
    """The coin as one 2^n x 2^n matrix per node: ``coins[p]`` is C_p in
    C = sum_p C_p (x) |p><p|; for a uniform coin, a read-only broadcast view."""
    n_nodes = 2**n

    def check_dim(c: np.ndarray) -> np.ndarray:
        if c.shape != (n_nodes, n_nodes):
            raise ValueError(f"coin must be {n_nodes}x{n_nodes}, got {c.shape}")
        return c

    if isinstance(spec, UniformCoin):
        return np.broadcast_to(check_dim(spec.matrix), (n_nodes, n_nodes, n_nodes))
    if isinstance(spec, PositionDependentCoin):
        missing = [k for k in range(n_nodes) if k not in spec.coins]
        if missing:
            raise ValueError(f"no coin given for positions {missing}")
        extra = [k for k in spec.coins if k not in range(n_nodes)]
        if extra:
            raise ValueError(f"coins given for positions {extra} outside 0..{n_nodes - 1}")
        return np.stack([check_dim(spec.coins[k]) for k in range(n_nodes)])
    if isinstance(spec, PerturbedCoin):
        if not 0 <= spec.target < n_nodes:
            raise ValueError(f"target {spec.target} out of range for {n_nodes} nodes")
        coins = np.repeat(check_dim(spec.original)[None], n_nodes, axis=0)
        coins[spec.target] = check_dim(spec.perturbation)
        return coins
    raise TypeError(f"unknown coin spec {type(spec).__name__}")


def coin_operator(spec: CoinSpec, n: int) -> np.ndarray:
    """Full coin operator sum_p C_p (x) |p><p| on the composite space of a 2^n-node walk."""
    coins = _coin_stack(spec, n)
    n_nodes = 2**n
    op = np.zeros((n_nodes,) * 4, dtype=np.complex128)
    # entry (a, p, c, r) is C_p[a, c] when r = p
    p = np.arange(n_nodes)
    op[:, p, :, p] = coins
    return op.reshape(n_nodes**2, n_nodes**2)


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
    it as one matrix.  With C = sum_p C_p (x) |p><p| it factors per node:
    (C H^(x)2n)[(a, p), (c, r)] = (C_p H_n)[a, c] * H_n[p, r], so only the
    2^n small products C_p H_n are formed.  Without it the factors are C_p
    and the identity.  S|k> = |perm[k]> moves row k of C H^(x)2n to row
    perm[k] of U, so each row of U is written once, as the outer product of
    its two factor rows.
    """
    n = shift.n
    coins = _coin_stack(coin, n)
    n_nodes = 2**n
    dim = shift.perm.size
    if dim != n_nodes * n_nodes:
        raise ValueError(f"coin for {n_nodes} nodes does not match shift of dimension {dim}")
    if with_init_layer:
        h = hadamard_coin(n)
        coins, position = coins @ h, h
    else:
        position = np.eye(n_nodes, dtype=np.complex128)
    # row j of U is row (a, p) = inv_perm[j] of C H^(x)2n
    inv_perm = np.empty_like(shift.perm)
    inv_perm[shift.perm] = np.arange(dim)
    a, p = np.divmod(inv_perm, n_nodes)
    u = np.empty((dim, dim), dtype=np.complex128)
    np.multiply(coins[p, a][:, :, None], position[p][:, None, :],
                out=u.reshape(dim, n_nodes, n_nodes))
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
