"""Measurement probabilities, the probability matrix and the collapsed multigraph.

Measuring only the position register of a walker state gives a distribution
over nodes.  Doing this for every basis initial state at once produces the
probability matrix M_P: squared magnitudes of U^k, summed over block rows.
Column ``i * 2^n + j`` of M_P is the node distribution reached from the
initial state ``|c_i> (x) |v_j>`` after k steps.

The same data viewed as a graph is the collapsed multigraph: one weighted arc
``(coin block, source node, destination node)`` per transition probability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .walk import EvolutionOperator, WalkerState

PROB_ATOL = 1e-10
PRUNE_EPSILON = 1e-12

# Arc colors per coin block, cycling past four.
COIN_COLORS = ("red", "blue", "green", "black")


def position_distributions(states: np.ndarray, n: int) -> np.ndarray:
    """Per column of ``states`` (4^n rows), |amplitude|^2 summed over the coin
    register: shape (2^n, columns).  Works on the float view (coin, position,
    re/im parts of the columns), so no temporary of the states' size is made."""
    parts = np.ascontiguousarray(states).view(np.float64).reshape(2**n, 2**n, -1)
    dist = np.einsum("cpk,cpk->pk", parts, parts)
    return dist.reshape(2**n, -1, 2).sum(axis=2)


def node_probabilities(state: WalkerState) -> np.ndarray:
    """Distribution over nodes from measuring the position register.

    P[j] sums |amplitude|^2 over all coin values at position j.
    """
    return position_distributions(state.amplitudes[:, None], state.n)[:, 0]


def l1_distance(p, q) -> float:
    """Statistical distance (1/2) sum |P(i) - Q(i)| between two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distributions differ in length: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def _operator_power(u: EvolutionOperator, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return np.linalg.matrix_power(u.matrix, steps)


def squared_amplitudes(u: EvolutionOperator, steps: int = 1) -> np.ndarray:
    """Entrywise |U^steps|^2, i.e. conj(U^k) * U^k.  Debug view of M_P's raw data."""
    uk = _operator_power(u, steps)
    return (uk.conj() * uk).real


def probability_matrix(u: EvolutionOperator, steps: int = 1) -> np.ndarray:
    """Probability matrix M_P of the operator after ``steps`` steps.

    Shape (2^n, 2^n * m): the block rows of conj(U^k) * U^k summed together.
    Every column is a probability distribution.
    """
    return position_distributions(_operator_power(u, steps), u.n)


class Arc(NamedTuple):
    coin: int
    src: int
    dst: int
    weight: float


@dataclass(frozen=True)
class CollapsedMultigraph:
    """Weighted directed arcs of the collapsed walk multigraph."""

    n_nodes: int
    arcs: tuple[Arc, ...]


def collapse_multigraph(u: EvolutionOperator, steps: int = 1,
                        prune_epsilon: float = PRUNE_EPSILON) -> CollapsedMultigraph:
    """Collapse all same-endpoint arcs of U^steps into single probability-weighted arcs.

    Arc (i, q, r) carries M_P[r, i * 2^n + q]; arcs below ``prune_epsilon``
    are dropped.
    """
    n_nodes = 2**u.n
    mp = probability_matrix(u, steps)
    arcs = []
    for coin in range(n_nodes):
        for src in range(n_nodes):
            col = mp[:, coin * n_nodes + src]
            for dst in range(n_nodes):
                w = float(col[dst])
                if w >= prune_epsilon:
                    arcs.append(Arc(coin=coin, src=src, dst=dst, weight=w))
    return CollapsedMultigraph(n_nodes=n_nodes, arcs=tuple(arcs))


def multigraph_to_dot(g: CollapsedMultigraph, name: str = "collapsed_walk") -> str:
    """Graphviz DOT text for a collapsed multigraph.

    One color per coin block (red, blue, green, black, cycling); arc labels
    carry the weight to six significant digits.
    """
    lines = [f"digraph {name} {{"]
    for node in range(g.n_nodes):
        lines.append(f"  {node};")
    for arc in g.arcs:
        color = COIN_COLORS[arc.coin % len(COIN_COLORS)]
        lines.append(
            f'  {arc.src} -> {arc.dst} [color="{color}", label="{arc.weight:.6g}", coin={arc.coin}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_probability_matrix(mp: np.ndarray, path, sidecar_path=None) -> None:
    """Write M_P as CSV (one row per node) plus a JSON sidecar naming column blocks."""
    mp = np.asarray(mp, dtype=float)
    n_nodes = mp.shape[0]
    if mp.ndim != 2 or mp.shape[1] % n_nodes != 0:
        raise ValueError(f"not a probability matrix shape: {mp.shape}")
    np.savetxt(path, mp, delimiter=",", fmt="%.17g")
    if sidecar_path is None:
        sidecar_path = f"{path}.json"
    m = mp.shape[1] // n_nodes
    sidecar = {
        "n_nodes": n_nodes,
        "column_blocks": [
            {
                "coin": i,
                "columns": [i * n_nodes, (i + 1) * n_nodes - 1],
                "note": f"columns for initial states |c_{i}> (x) |v_j>, j = 0..{n_nodes - 1}",
            }
            for i in range(m)
        ],
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
