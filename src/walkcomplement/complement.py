"""The search-complement algorithm on complete graphs with self-loops.

One step of the walk with a position-controlled Hadamard oracle suppresses a
single node: starting from ``|r> (x) |s>`` with target t, measuring the
position register yields probability 1/4^n at node ``t XOR r`` and
1/4^n + 1/2^n everywhere else, independent of s.

Three routes compute that distribution and are cross-validated against each
other:

* ``DENSE`` materializes the full 4^n x 4^n operator (n <= 6),
* ``STATEVECTOR`` runs the synthesized circuit gate by gate on the amplitude
  vector with the in-place engine; holding about one state, 16 * 4^n bytes,
  it reaches n <= 14 (a 4.3 GB state) on an 8 GB machine (measured on 2 CPUs:
  n = 13 in 5-7 s at 1.1 GB peak RSS, n = 14 in 24-26 s at 4.2 GB),
* ``CLOSED_FORM`` evaluates the two-case analytic distribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import circuit, graphs, probability, walk
from .graphs import ShiftModel
from .walk import EvolutionOperator

MAX_DENSE_QUBITS = 6
MAX_STATEVECTOR_QUBITS = 14
CROSS_VALIDATION_ATOL = 1e-12
# Past this many nodes per register, cross-validation samples (r, s) pairs
# instead of sweeping all of them.
_EXHAUSTIVE_RS_LIMIT = 256


class Method(enum.Enum):
    DENSE = "dense"
    STATEVECTOR = "statevector"
    CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class ComplementSpec:
    """Problem instance: register size, target node and initial basis state."""

    n: int
    target: int
    coin_init: int = 0
    pos_init: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        n_nodes = 2**self.n
        for name in ("target", "coin_init", "pos_init"):
            value = getattr(self, name)
            if not 0 <= value < n_nodes:
                raise ValueError(f"{name} = {value} out of range for {n_nodes} nodes")


@dataclass(frozen=True)
class ComplementResult:
    distribution: np.ndarray
    suppressed_node: int
    method: Method


def build_complement_operator(n: int, target: int) -> EvolutionOperator:
    """Dense one-step operator: CNOT-model shift, position-controlled Hadamard
    oracle on the coin register, position registers pre-rotated into superposition.

    Before the shift the operator splits into two structural branches: block
    (i, i) carries the position-Hadamard with its target row removed, and row
    t of block (i, j) carries ``h[i, j]`` times that row.  The CNOT-model
    shift then just relabels row (i, a) as (i, a XOR i), so the matrix is
    filled in place with no large products.
    """
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"dense path supports n in 1..{MAX_DENSE_QUBITS}, got {n}")
    n_nodes = 2**n
    if not 0 <= target < n_nodes:
        raise ValueError(f"target {target} out of range for {n_nodes} nodes")
    h = walk.hadamard_coin(n)
    h_no_target = h.copy()
    h_no_target[target, :] = 0.0
    u = np.zeros((n_nodes**2, n_nodes**2), dtype=np.complex128)
    view = u.reshape(n_nodes, n_nodes, n_nodes, n_nodes)
    coin = np.arange(n_nodes)[:, None]
    pos = np.arange(n_nodes)[None, :]
    # identity branch: row (i, a) of block column i is h_no_target[a XOR i]
    view[coin, pos, coin, :] = h_no_target[pos ^ coin]
    # oracle branch: row (i, t XOR i) of block column j is h[i, j] * h[t]
    view[coin[:, 0], coin[:, 0] ^ target, :, :] += h[:, :, None] * h[target][None, None, :]
    return EvolutionOperator(matrix=u, n=n, shift_model=ShiftModel.CNOT,
                             coin="complement-oracle", init_layer=True)


def closed_form_distribution(spec: ComplementSpec) -> ComplementResult:
    """Analytic distribution: 1/4^n at node target XOR coin_init, 1/4^n + 1/2^n elsewhere."""
    n_nodes = 2**spec.n
    suppressed = spec.target ^ spec.coin_init
    dist = np.full(n_nodes, 1.0 / 4**spec.n + 1.0 / 2**spec.n)
    dist[suppressed] = 1.0 / 4**spec.n
    return ComplementResult(distribution=dist, suppressed_node=suppressed,
                            method=Method.CLOSED_FORM)


def _generic_operator(n: int, target: int) -> EvolutionOperator:
    """The same operator assembled through the shift/coin machinery.

    Unlike :func:`build_complement_operator`, which fills the XOR structure
    of this one operator directly, this route goes through the general
    :func:`walk.evolution_operator`: the perturbed coin as one 2^n x 2^n
    matrix per node (Hadamard everywhere, identity at the target), the init
    layer folded in as the per-node products C_p H_n times the rows of H_n,
    and the CNOT-model shift assembled from its decomposition blocks, so a
    defect in any of those shows up in the result.
    """
    shift = graphs.shift_operator(n, ShiftModel.CNOT)
    coin = walk.PerturbedCoin(original=walk.hadamard_coin(n),
                              perturbation=np.eye(2**n), target=target)
    return walk.evolution_operator(shift, coin, with_init_layer=True)


def run_complement_dense(spec: ComplementSpec) -> ComplementResult:
    """Apply the dense generic-machinery operator to the initial state and measure."""
    if spec.n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense path supports n in 1..{MAX_DENSE_QUBITS}, got {spec.n}")
    op = _generic_operator(spec.n, spec.target)
    state = walk.evolve(walk.basis_state(spec.n, spec.coin_init, spec.pos_init), op, 1)
    dist = probability.node_probabilities(state)
    return ComplementResult(distribution=dist,
                            suppressed_node=spec.target ^ spec.coin_init,
                            method=Method.DENSE)


def _run_circuit(n: int, target: int, starts) -> tuple[np.ndarray, np.ndarray]:
    """Final states and position distributions, one column per basis state in
    ``starts`` (indices ``coin * 2^n + pos``), from the synthesized circuit."""
    states = np.zeros((4**n, len(starts)), dtype=np.complex128)
    states[starts, np.arange(len(starts))] = 1.0
    circuit.apply_circuit(circuit.synthesize_complement_circuit(n, target), states)
    return states, probability.position_distributions(states, n)


def run_complement_statevector(spec: ComplementSpec) -> ComplementResult:
    """Run the synthesized circuit gate by gate, in place, on the initial basis state."""
    if spec.n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"statevector path supports n <= {MAX_STATEVECTOR_QUBITS}, got {spec.n}")
    _, dist = _run_circuit(spec.n, spec.target, [spec.coin_init * 2**spec.n + spec.pos_init])
    return ComplementResult(distribution=dist[:, 0],
                            suppressed_node=spec.target ^ spec.coin_init,
                            method=Method.STATEVECTOR)


class CrossValidationError(ValueError):
    """Raised when the three computation routes disagree on some case."""

    def __init__(self, n: int, target: int, coin_init: int, pos_init: int, deviation: float):
        self.n = n
        self.target = target
        self.coin_init = coin_init
        self.pos_init = pos_init
        self.deviation = deviation
        super().__init__(
            f"methods disagree by {deviation:.3e} on n={n}, target={target}, "
            f"coin_init={coin_init}, pos_init={pos_init}"
        )


@dataclass(frozen=True)
class CrossValidationReport:
    n_max: int
    cases: int
    max_deviation: float


def cross_validate(n_max: int, tol: float = CROSS_VALIDATION_ATOL,
                   rs_limit: int | None = None) -> CrossValidationReport:
    """Check all three routes against each other for every register size and target.

    Initial (coin, position) pairs are swept exhaustively up to 256 pairs per
    target (n <= 4) and sampled deterministically beyond that; ``rs_limit``
    overrides the cap.  The dense route goes through the shift/coin machinery
    (:func:`_generic_operator`) where exhaustive (n <= 4) and through the
    direct fill construction beyond, where the operators get large.  The dense and circuit
    states must also agree amplitude by amplitude.  Raises
    :class:`CrossValidationError` naming the first disagreeing case.
    """
    if not 1 <= n_max <= MAX_DENSE_QUBITS:
        raise ValueError(f"n_max must be in 1..{MAX_DENSE_QUBITS}, got {n_max}")
    cases = 0
    worst = 0.0
    for n in range(1, n_max + 1):
        n_nodes = 2**n
        all_pairs = n_nodes * n_nodes
        limit = rs_limit if rs_limit is not None else \
            (all_pairs if all_pairs <= _EXHAUSTIVE_RS_LIMIT else 16)
        if limit >= all_pairs:
            starts = np.arange(all_pairs)
        else:
            starts = np.random.default_rng(n).choice(all_pairs, size=limit, replace=False)
        # column r * 2^n + s of an operator is the evolved basis state |r>|s>
        coins = starts // n_nodes
        for target in range(n_nodes):
            op = _generic_operator(n, target) if all_pairs <= _EXHAUSTIVE_RS_LIMIT \
                else build_complement_operator(n, target)
            dense = op.matrix[:, starts]
            dense_dist = probability.position_distributions(dense, n)
            sv, sv_dist = _run_circuit(n, target, starts)
            closed = np.stack([closed_form_distribution(
                ComplementSpec(n=n, target=target, coin_init=r)).distribution
                for r in range(n_nodes)], axis=1)[:, coins]
            devs = np.max([np.abs(dense - sv).max(axis=0),
                           np.abs(dense_dist - sv_dist).max(axis=0),
                           np.abs(dense_dist - closed).max(axis=0),
                           np.abs(sv_dist - closed).max(axis=0)], axis=0)
            bad = np.flatnonzero(devs > tol)
            if bad.size:
                k = bad[0]
                raise CrossValidationError(n, target, int(coins[k]),
                                           int(starts[k] % n_nodes), float(devs[k]))
            worst = max(worst, float(devs.max()))
            cases += len(starts)
    return CrossValidationReport(n_max=n_max, cases=cases, max_deviation=worst)


def run(spec: ComplementSpec, method: Method = Method.STATEVECTOR) -> ComplementResult:
    """Run the complement algorithm with the requested computation route."""
    if method is Method.DENSE:
        return run_complement_dense(spec)
    if method is Method.STATEVECTOR:
        return run_complement_statevector(spec)
    return closed_form_distribution(spec)


def result_to_json(spec: ComplementSpec, result: ComplementResult) -> dict:
    """JSON-ready dict for a complement run."""
    return {
        "n": spec.n,
        "target": spec.target,
        "coin_init": spec.coin_init,
        "pos_init": spec.pos_init,
        "method": result.method.value,
        "distribution": [float(p) for p in result.distribution],
        "suppressed_node": result.suppressed_node,
    }
