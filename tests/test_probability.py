import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    K4_TARGET1_DISTRIBUTION,
    K4_TARGET1_PROBABILITY_MATRIX,
    K4_TARGET1_SQUARED_X16,
)
from readers import parse_dot
from walkcomplement import graphs, linalg, probability, walk
from walkcomplement.graphs import ShiftModel
from walkcomplement.walk import PerturbedCoin, UniformCoin


def k4_target1_operator():
    shift = graphs.shift_operator(2, ShiftModel.CNOT)
    coin = PerturbedCoin(walk.hadamard_coin(2), np.eye(4), 1)
    return walk.evolution_operator(shift, coin, with_init_layer=True)


def test_node_probabilities_after_one_step():
    state = walk.evolve(walk.basis_state(2, 0, 0), k4_target1_operator(), 1)
    np.testing.assert_allclose(probability.node_probabilities(state),
                               K4_TARGET1_DISTRIBUTION, atol=1e-12)


def test_node_probabilities_of_basis_state():
    for r in range(4):
        for s in range(4):
            p = probability.node_probabilities(walk.basis_state(2, r, s))
            expected = np.zeros(4)
            expected[s] = 1.0
            np.testing.assert_array_equal(p, expected)


def test_node_probabilities_of_uniform_state():
    state = walk.WalkerState(n=2, amplitudes=np.full(16, 0.25, dtype=complex))
    np.testing.assert_allclose(probability.node_probabilities(state),
                               np.full(4, 0.25), atol=1e-14)


def test_squared_amplitudes_matches_hadamard_product():
    u = k4_target1_operator().matrix
    via_linalg = linalg.hadamard_product(u.conj(), u).real
    np.testing.assert_allclose(via_linalg, K4_TARGET1_SQUARED_X16 / 16.0, atol=1e-12)
    np.testing.assert_allclose(probability.squared_amplitudes(k4_target1_operator(), 1),
                               via_linalg, atol=1e-14)


def test_probability_matrix_k4_target1():
    mp = probability.probability_matrix(k4_target1_operator(), 1)
    np.testing.assert_allclose(mp, K4_TARGET1_PROBABILITY_MATRIX, atol=1e-12)


def test_probability_matrix_of_identity():
    op = walk.EvolutionOperator(matrix=np.eye(16, dtype=complex), n=2)
    mp = probability.probability_matrix(op, 1)
    np.testing.assert_array_equal(mp, np.hstack([np.eye(4)] * 4))


def test_probability_matrix_of_cnot_shift_moves_walker():
    shift = graphs.shift_operator(2, ShiftModel.CNOT)
    op = walk.evolution_operator(shift, UniformCoin(np.eye(4)))
    mp = probability.probability_matrix(op, 1)
    # initial |c_1> (x) |v_0>: the walker lands on node 0 XOR 1 = 1
    expected = np.zeros(4)
    expected[1] = 1.0
    np.testing.assert_array_equal(mp[:, 1 * 4 + 0], expected)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("steps", [1, 3])
def test_probability_matrix_columns_are_stochastic(seed, steps):
    op = walk.EvolutionOperator(matrix=random_unitary(16, seed), n=2)
    mp = probability.probability_matrix(op, steps)
    assert mp.min() >= 0.0
    np.testing.assert_allclose(mp.sum(axis=0), np.ones(16), atol=1e-10)


def test_probability_matrix_consistent_with_evolve():
    op = k4_target1_operator()
    mp = probability.probability_matrix(op, 2)
    for i in range(4):
        for j in range(4):
            direct = probability.node_probabilities(
                walk.evolve(walk.basis_state(2, i, j), op, 2))
            np.testing.assert_allclose(mp[:, i * 4 + j], direct, atol=1e-12)


def test_probability_matrix_rejects_zero_steps():
    with pytest.raises(ValueError, match="steps"):
        probability.probability_matrix(k4_target1_operator(), 0)


def test_collapse_arc_weights():
    g = probability.collapse_multigraph(k4_target1_operator(), 1)
    weights = {(a.coin, a.src, a.dst): a.weight for a in g.arcs}
    assert weights[(0, 0, 1)] == pytest.approx(1 / 16, abs=1e-12)
    assert weights[(0, 0, 0)] == pytest.approx(5 / 16, abs=1e-12)
    assert len(g.arcs) == 64


def test_collapse_identity_has_only_self_loops():
    op = walk.EvolutionOperator(matrix=np.eye(16, dtype=complex), n=2)
    g = probability.collapse_multigraph(op, 1)
    assert len(g.arcs) == 16
    assert all(a.src == a.dst and a.weight == 1.0 for a in g.arcs)


def test_collapse_out_weights_sum_to_one():
    g = probability.collapse_multigraph(k4_target1_operator(), 1)
    totals = {}
    for a in g.arcs:
        totals[(a.coin, a.src)] = totals.get((a.coin, a.src), 0.0) + a.weight
    for total in totals.values():
        assert total == pytest.approx(1.0, abs=1e-10)


def test_collapse_prunes_small_arcs():
    op = walk.EvolutionOperator(matrix=np.eye(16, dtype=complex), n=2)
    g = probability.collapse_multigraph(op, 1, prune_epsilon=0.5)
    assert len(g.arcs) == 16
    g2 = probability.collapse_multigraph(op, 1, prune_epsilon=1.5)
    assert len(g2.arcs) == 0


def test_l1_distance_cases():
    assert probability.l1_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert probability.l1_distance([1, 0], [0, 1]) == 1.0
    # (1/2)(3 * 1/16 + 3/16) computed by hand
    assert probability.l1_distance(np.full(4, 0.25), K4_TARGET1_DISTRIBUTION) == \
        pytest.approx(3 / 16, abs=1e-15)


def test_l1_distance_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        probability.l1_distance([1.0], [0.5, 0.5])


def test_l1_is_a_metric_on_random_triples():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p, q, r = (v / v.sum() for v in rng.random((3, 8)))
        assert probability.l1_distance(p, q) == pytest.approx(
            probability.l1_distance(q, p), abs=1e-12)
        assert probability.l1_distance(p, r) <= \
            probability.l1_distance(p, q) + probability.l1_distance(q, r) + 1e-12


def test_dot_export_parses_and_colors_by_coin():
    g = probability.collapse_multigraph(k4_target1_operator(), 1)
    dot = probability.multigraph_to_dot(g)
    parsed = parse_dot(dot)
    assert parsed.nodes == [0, 1, 2, 3]
    assert len(parsed.arcs) == 64
    colors = {coin: color for _, _, color, _, coin in parsed.arcs}
    assert colors == {0: "red", 1: "blue", 2: "green", 3: "black"}


def test_dot_color_cycling_past_four_coins():
    assert probability.COIN_COLORS[5 % len(probability.COIN_COLORS)] == "blue"


def test_save_probability_matrix_with_sidecar(tmp_path):
    mp = probability.probability_matrix(k4_target1_operator(), 1)
    path = tmp_path / "mp.csv"
    probability.save_probability_matrix(mp, path)
    loaded = np.loadtxt(path, delimiter=",")
    np.testing.assert_allclose(loaded, mp, atol=0, rtol=0)
    sidecar = json.loads((tmp_path / "mp.csv.json").read_text())
    assert sidecar["n_nodes"] == 4
    assert sidecar["column_blocks"][1]["columns"] == [4, 7]


def test_position_distributions_match_squared_amplitudes():
    rng = np.random.default_rng(7)
    n = 3
    states = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    expected = (np.abs(states)**2).reshape(8, 8, 5).sum(axis=0)
    np.testing.assert_allclose(probability.position_distributions(states, n), expected,
                               rtol=1e-14, atol=0)
    # a non-contiguous column selection is measured the same way
    np.testing.assert_allclose(probability.position_distributions(states[:, ::2], n),
                               expected[:, ::2], rtol=1e-14, atol=0)


@pytest.mark.parametrize("steps", [1, 2])
def test_probability_matrix_sums_block_rows_of_squared_amplitudes(steps):
    shift = graphs.shift_operator(3, ShiftModel.SWAP)
    u = walk.evolution_operator(shift, walk.UniformCoin(walk.grover_coin(3)),
                                with_init_layer=True)
    expected = probability.squared_amplitudes(u, steps).reshape(8, 8, 64).sum(axis=0)
    np.testing.assert_allclose(probability.probability_matrix(u, steps), expected,
                               rtol=1e-14, atol=1e-16)


def _reference_arcs(mp, n_nodes, prune_epsilon):
    """The arcs as the per-entry loop over (coin, src, dst) gave them."""
    arcs = []
    for coin in range(n_nodes):
        for src in range(n_nodes):
            col = mp[:, coin * n_nodes + src]
            for dst in range(n_nodes):
                w = float(col[dst])
                if w >= prune_epsilon:
                    arcs.append((coin, src, dst, w))
    return arcs


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), steps=st.integers(1, 2), model=st.sampled_from(list(ShiftModel)),
       target_seed=st.integers(0, 2**16), init=st.booleans(),
       epsilon=st.one_of(st.sampled_from([0.0, probability.PRUNE_EPSILON, 1e-3, 0.05, 2.0]),
                         st.integers(0, 10**6)))
def test_collapse_arrays_equal_per_entry_reference(n, steps, model, target_seed, init, epsilon):
    n_nodes = 2**n
    coin = PerturbedCoin(walk.hadamard_coin(n), np.eye(n_nodes), target_seed % n_nodes)
    u = walk.evolution_operator(graphs.shift_operator(n, model), coin, with_init_layer=init)
    mp = probability.probability_matrix(u, steps)
    if isinstance(epsilon, int):  # an exact entry of M_P, to probe the >= boundary
        epsilon = float(mp.flat[epsilon % mp.size])
    g = probability.collapse_multigraph(u, steps, prune_epsilon=epsilon)
    want = _reference_arcs(mp, n_nodes, epsilon)
    for k, field in enumerate(("coin", "src", "dst")):
        np.testing.assert_array_equal(getattr(g, field), [a[k] for a in want])
    assert g.weight.dtype == np.float64 and g.weight.tolist() == [a[3] for a in want]
    assert list(g.arcs) == want and len(g.arcs) == len(want)


def test_arc_view_reads_the_arrays():
    g = probability.collapse_multigraph(k4_target1_operator(), 1, prune_epsilon=0.1)
    arcs = list(g.arcs)
    assert len(arcs) == len(g.arcs) == g.weight.size == 48
    assert g.arcs[0] == arcs[0] and g.arcs[-1] == arcs[-1]
    assert g.arcs[2:5] == tuple(arcs[2:5])
    assert isinstance(g.arcs[3], probability.Arc) and type(g.arcs[3].coin) is int
    assert type(arcs[3].weight) is float and type(arcs[3].dst) is int
    with pytest.raises(IndexError):
        g.arcs[48]
