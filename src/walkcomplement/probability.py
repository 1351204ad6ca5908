"""Measurement probabilities, the probability matrix and the collapsed multigraph.

Measuring only the position register of a walker state gives a distribution
over nodes.  Doing this for every basis initial state at once produces the
probability matrix M_P: squared magnitudes of U^k, summed over block rows.
Column ``i * 2^n + j`` of M_P is the node distribution reached from the
initial state ``|c_i> (x) |v_j>`` after k steps.

The same data viewed as a graph is the collapsed multigraph: one weighted arc
``(coin block, source node, destination node)`` per transition probability,
held as four parallel arrays.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
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


class ArcView(Sequence):
    """Read-only sequence of :class:`Arc` over a multigraph's arc arrays; an Arc
    is made only when it is read, and the length costs nothing."""

    def __init__(self, g: CollapsedMultigraph):
        self._columns = (g.coin, g.src, g.dst, g.weight)

    def __len__(self) -> int:
        return len(self._columns[3])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        coin, src, dst, weight = (column[k] for column in self._columns)
        return Arc(int(coin), int(src), int(dst), float(weight))

    def __iter__(self):
        return map(Arc, *(column.tolist() for column in self._columns))


@dataclass(frozen=True)
class CollapsedMultigraph:
    """Weighted directed arcs of the collapsed walk multigraph, as parallel arrays.

    Arc k runs from node ``src[k]`` to node ``dst[k]`` in coin block
    ``coin[k]`` and carries probability ``weight[k]``; arcs are in
    (coin, src, dst) order.  :attr:`arcs` reads them as :class:`Arc` tuples.
    """

    n_nodes: int
    coin: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @property
    def arcs(self) -> ArcView:
        return ArcView(self)


def collapse_multigraph(u: EvolutionOperator, steps: int = 1,
                        prune_epsilon: float = PRUNE_EPSILON) -> CollapsedMultigraph:
    """Collapse all same-endpoint arcs of U^steps into single probability-weighted arcs.

    Arc (i, q, r) carries M_P[r, i * 2^n + q]; arcs below ``prune_epsilon``
    are dropped.
    """
    n_nodes = 2**u.n
    mp = probability_matrix(u, steps)
    weights = mp.reshape(n_nodes, n_nodes, n_nodes).transpose(1, 2, 0)  # (coin, src, dst)
    coin, src, dst = np.nonzero(weights >= prune_epsilon)
    return CollapsedMultigraph(n_nodes=n_nodes, coin=coin, src=src, dst=dst,
                               weight=weights[coin, src, dst])


def _labels(template: str, count: int) -> np.ndarray:
    """``template.format(k)`` for k = 0..count-1, as an object array."""
    return np.array([template.format(k) for k in range(count)], dtype=object)


def multigraph_to_dot(g: CollapsedMultigraph, name: str = "collapsed_walk") -> str:
    """Graphviz DOT text for a collapsed multigraph.

    One color per coin block (red, blue, green, black, cycling); arc labels
    carry the weight to six significant digits.
    """
    colors = np.array([f'{COIN_COLORS[c % len(COIN_COLORS)]}", label="'
                       for c in range(g.n_nodes)], dtype=object)
    arcs = linalg.join_columns(
        _labels("  {} -> ", g.n_nodes)[g.src], _labels('{} [color="', g.n_nodes)[g.dst],
        colors[g.coin], linalg.format_values(g.weight, "{:.6g}".format),
        _labels('", coin={}];\n', g.n_nodes)[g.coin])
    nodes = "".join(f"  {node};\n" for node in range(g.n_nodes))
    return f"digraph {name} {{\n{nodes}{arcs}}}\n"


def multigraph_to_json(g: CollapsedMultigraph) -> str:
    """JSON text of a collapsed multigraph: ``n_nodes`` and one
    ``{coin, src, dst, weight}`` object per arc, indented by two spaces."""
    arcs = "[]"
    if len(g.weight):
        body = linalg.join_columns(
            _labels('    {{\n      "coin": {},\n      "src": ', g.n_nodes)[g.coin],
            _labels('{},\n      "dst": ', g.n_nodes)[g.src],
            _labels('{},\n      "weight": ', g.n_nodes)[g.dst],
            linalg.format_values(g.weight, json.dumps), "\n    },\n")
        arcs = "[\n" + body[:-2] + "\n  ]"  # no comma after the last arc
    return linalg.json_with({"n_nodes": g.n_nodes, "arcs": None}, arcs=arcs)


def save_probability_matrix(mp: np.ndarray, path, sidecar_path=None) -> None:
    """Write M_P as CSV (one row per node) plus a JSON sidecar naming column blocks."""
    mp = np.asarray(mp, dtype=float)
    n_nodes = mp.shape[0]
    if mp.ndim != 2 or mp.shape[1] % n_nodes != 0:
        raise ValueError(f"not a probability matrix shape: {mp.shape}")
    linalg.save_csv(mp, path)
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
