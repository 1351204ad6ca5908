import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import K4_TARGET1_OPERATOR
from walkcomplement import graphs, linalg, walk
from walkcomplement.graphs import ShiftModel
from walkcomplement.walk import PerturbedCoin, PositionDependentCoin, UniformCoin


def popcount_hadamard(n):
    """Independent entrywise construction: (-1)^(a.b) / sqrt(2^n)."""
    dim = 2**n
    out = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            out[a, b] = (-1) ** bin(a & b).count("1")
    return out / np.sqrt(dim)


def test_hadamard_coin_single_qubit():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(walk.hadamard_coin(1), expected, atol=1e-15)


def test_hadamard_coin_entries():
    # 3.3 shares two 1-bits -> sign +1; 3.5 shares one -> sign -1
    assert walk.hadamard_coin(2)[3, 3] == pytest.approx(0.5, abs=1e-15)
    assert walk.hadamard_coin(3)[3, 5] == pytest.approx(-1 / np.sqrt(8), abs=1e-15)


@pytest.mark.parametrize("n", range(1, 7))
def test_hadamard_coin_matches_bitcount_formula(n):
    constructed = walk.hadamard_coin(n)
    formula = popcount_hadamard(n)
    assert np.array_equal(np.sign(constructed.real), np.sign(formula))
    np.testing.assert_allclose(np.abs(constructed), np.abs(formula), atol=1e-12)
    assert np.abs(constructed.imag).max() == 0.0


def test_grover_coin_values():
    np.testing.assert_allclose(walk.grover_coin(1), np.array([[0, 1], [1, 0]]), atol=1e-15)
    assert np.allclose(np.diag(walk.grover_coin(2)), -0.5)
    assert linalg.is_unitary(walk.grover_coin(3), 1e-10)


def test_uniform_identity_coin_is_identity():
    op = walk.coin_operator(UniformCoin(np.eye(4)), 2)
    np.testing.assert_array_equal(op, np.eye(16))


def test_uniform_coin_block_structure():
    c = walk.hadamard_coin(1)
    op = walk.coin_operator(UniformCoin(c), 1)
    np.testing.assert_allclose(op, np.kron(c, np.eye(2)), atol=1e-15)


def test_coin_spec_requires_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        UniformCoin(np.ones((2, 2)))


def test_position_dependent_requires_all_positions():
    spec = PositionDependentCoin({0: np.eye(2)})
    with pytest.raises(ValueError, match="no coin given for positions"):
        walk.coin_operator(spec, 1)


def test_position_dependent_matches_sum_of_projectors():
    coins = {0: walk.hadamard_coin(1), 1: np.eye(2)}
    op = walk.coin_operator(PositionDependentCoin(coins), 1)
    expected = np.kron(coins[0], np.diag([1.0, 0.0])) + np.kron(coins[1], np.diag([0.0, 1.0]))
    np.testing.assert_allclose(op, expected, atol=1e-15)


@pytest.mark.parametrize("n,t", [(1, 0), (2, 1), (2, 3)])
def test_perturbed_coin_action_on_target_and_rest(n, t):
    c0 = walk.hadamard_coin(n)
    op = walk.coin_operator(PerturbedCoin(c0, np.eye(2**n), t), n)
    n_nodes = 2**n
    for c in range(n_nodes):
        for j in range(n_nodes):
            state = np.zeros(n_nodes**2, dtype=complex)
            state[c * n_nodes + j] = 1.0
            out = op @ state
            if j == t:
                # perturbation is the identity: the state passes through
                np.testing.assert_allclose(out, state, atol=1e-12)
            else:
                expected = np.kron(c0[:, c], np.eye(n_nodes)[:, j])
                np.testing.assert_allclose(out, expected, atol=1e-12)


def test_perturbed_coin_with_equal_coins_reduces_to_uniform():
    c0 = walk.grover_coin(2)
    perturbed = walk.coin_operator(PerturbedCoin(c0, c0, 2), 2)
    uniform = walk.coin_operator(UniformCoin(c0), 2)
    np.testing.assert_array_equal(perturbed, uniform)


def test_evolution_operator_reproduces_k4_target1_matrix():
    shift = graphs.shift_operator(2, ShiftModel.CNOT)
    coin = PerturbedCoin(walk.hadamard_coin(2), np.eye(4), 1)
    op = walk.evolution_operator(shift, coin, with_init_layer=True)
    np.testing.assert_allclose(op.matrix, K4_TARGET1_OPERATOR, atol=1e-12)
    assert linalg.is_unitary(op.matrix, 1e-10)


def test_evolution_operator_identity_coin_is_shift():
    shift = graphs.shift_operator(2, ShiftModel.SWAP)
    op = walk.evolution_operator(shift, UniformCoin(np.eye(4)), with_init_layer=False)
    np.testing.assert_array_equal(op.matrix, shift.matrix)


@pytest.mark.parametrize("model", list(ShiftModel))
@pytest.mark.parametrize("with_init", [False, True])
def test_evolution_operator_always_unitary(model, with_init):
    shift = graphs.shift_operator(3, model)
    coin = PerturbedCoin(walk.grover_coin(3), np.eye(8), 5)
    op = walk.evolution_operator(shift, coin, with_init_layer=with_init)
    assert linalg.is_unitary(op.matrix, 1e-10)


def test_basis_state_indexing():
    assert walk.basis_state(2, 0, 0).amplitudes[0] == 1.0
    state = walk.basis_state(2, 1, 3)
    assert state.amplitudes[7] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)


def test_basis_state_range_errors():
    with pytest.raises(ValueError, match="coin index"):
        walk.basis_state(2, 4, 0)
    with pytest.raises(ValueError, match="position index"):
        walk.basis_state(2, 0, -1)


def test_evolve_zero_steps_is_identity():
    state = walk.basis_state(2, 2, 1)
    shift = graphs.shift_operator(2, ShiftModel.CNOT)
    op = walk.evolution_operator(shift, UniformCoin(walk.hadamard_coin(2)))
    out = walk.evolve(state, op, 0)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_evolve_extracts_operator_column():
    shift = graphs.shift_operator(2, ShiftModel.CNOT)
    coin = PerturbedCoin(walk.hadamard_coin(2), np.eye(4), 1)
    op = walk.evolution_operator(shift, coin, with_init_layer=True)
    out = walk.evolve(walk.basis_state(2, 0, 0), op, 1)
    np.testing.assert_allclose(out.amplitudes, K4_TARGET1_OPERATOR[:, 0], atol=1e-12)


def test_evolve_composes():
    shift = graphs.shift_operator(2, ShiftModel.CNOT)
    op = walk.evolution_operator(shift, UniformCoin(walk.hadamard_coin(2)))
    state = walk.basis_state(2, 0, 2)
    two = walk.evolve(state, op, 2)
    one_one = walk.evolve(walk.evolve(state, op, 1), op, 1)
    np.testing.assert_allclose(two.amplitudes, one_one.amplitudes, atol=1e-14)


@pytest.mark.parametrize("model", list(ShiftModel))
def test_norm_preserved_over_many_steps(model):
    rng = np.random.default_rng(5)
    shift = graphs.shift_operator(2, model)
    coin = PerturbedCoin(walk.hadamard_coin(2), np.eye(4), 3)
    op = walk.evolution_operator(shift, coin, with_init_layer=True)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = walk.WalkerState(n=2, amplitudes=amps / np.linalg.norm(amps))
    for k in (1, 4, 16):
        out = walk.evolve(state, op, k)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_multi_step_grover_search_run_stays_normalized(n):
    # classic search setup: perturbed Grover coin with a -I perturbation,
    # uniform start, ~(pi/2) sqrt(2^n) steps; only unitarity and norm are
    # guaranteed here, the step-by-step distribution is left unpinned
    shift = graphs.shift_operator(n, ShiftModel.CNOT)
    coin = PerturbedCoin(walk.grover_coin(n), -np.eye(2**n), 1)
    op = walk.evolution_operator(shift, coin, with_init_layer=False)
    assert linalg.is_unitary(op.matrix, 1e-10)
    dim = 4**n
    state = walk.WalkerState(n=n, amplitudes=np.full(dim, 1 / np.sqrt(dim), dtype=complex))
    steps = int(np.ceil(np.pi / 2 * np.sqrt(2**n)))
    out = walk.evolve(state, op, steps)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_minus_identity_perturbation_flips_target_phase():
    c0 = walk.hadamard_coin(2)
    plus = walk.coin_operator(PerturbedCoin(c0, np.eye(4), 1), 2)
    minus = walk.coin_operator(PerturbedCoin(c0, -np.eye(4), 1), 2)
    state = walk.basis_state(2, 2, 1).amplitudes
    np.testing.assert_allclose(minus @ state, -(plus @ state), atol=1e-14)


def test_walker_state_validates_norm():
    with pytest.raises(ValueError, match="not normalized"):
        walk.WalkerState(n=1, amplitudes=np.ones(4))


def test_walker_state_csv_round_trip(tmp_path):
    state = walk.basis_state(2, 1, 2)
    path = tmp_path / "state.csv"
    state.save_csv(path)
    loaded = walk.WalkerState.load_csv(2, path)
    np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)


def test_evolution_operator_applies_shift_permutation_direction():
    # a 4-cycle is not an involution, so S and S^-1 give different products
    shift = graphs.ShiftOperator(perm=np.array([1, 2, 3, 0]), model=None, n=1)
    coin = UniformCoin(walk.hadamard_coin(1))
    op = walk.evolution_operator(shift, coin)
    np.testing.assert_array_equal(op.matrix, shift.matrix @ walk.coin_operator(coin, 1))


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_coin_spec(kind, n, rng):
    dim = 2**n
    if kind == "uniform":
        return UniformCoin(_random_unitary(dim, rng))
    if kind == "position":
        return PositionDependentCoin({k: _random_unitary(dim, rng) for k in range(dim)})
    return PerturbedCoin(_random_unitary(dim, rng), _random_unitary(dim, rng),
                         int(rng.integers(dim)))


def _shift(kind, n, rng):
    if kind != "loaded":
        return graphs.shift_operator(n, ShiftModel(kind))
    m = np.zeros((4**n, 4**n))
    m[rng.permutation(4**n), np.arange(4**n)] = 1.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shift.csv")
        linalg.save_matrix_csv(m, path)
        shift = graphs.load_shift_operator(path)
    assert shift.model is None
    np.testing.assert_array_equal(shift.matrix, m)
    return shift


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["uniform", "position", "perturbed"]),
       st.sampled_from(["swap", "cnot", "loaded"]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_evolution_operator_matches_dense_product(n, coin_kind, shift_kind, with_init, seed):
    rng = np.random.default_rng(seed)
    coin = _random_coin_spec(coin_kind, n, rng)
    shift = _shift(shift_kind, n, rng)
    u = walk.evolution_operator(shift, coin, with_init_layer=with_init).matrix
    expected = shift.matrix @ walk.coin_operator(coin, n)
    if with_init:
        h = popcount_hadamard(n)
        np.testing.assert_allclose(u, expected @ np.kron(h, h), rtol=0, atol=1e-14)
    else:
        np.testing.assert_array_equal(u, expected)


@pytest.mark.parametrize("kind", ["uniform", "position", "perturbed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_coin_operator_matches_sum_of_krons(kind, n):
    rng = np.random.default_rng(31 * n + len(kind))
    spec = _random_coin_spec(kind, n, rng)
    dim = 2**n
    if kind == "uniform":
        per_node = [spec.matrix] * dim
    elif kind == "position":
        per_node = [spec.coins[k] for k in range(dim)]
    else:
        per_node = [spec.perturbation if k == spec.target else spec.original
                    for k in range(dim)]
    expected = sum(np.kron(c, np.diag(np.eye(dim)[k])) for k, c in enumerate(per_node))
    np.testing.assert_array_equal(walk.coin_operator(spec, n), expected)


def test_evolution_operator_memory_is_about_its_output():
    n = 5
    shift = graphs.shift_operator(n, ShiftModel.CNOT)
    coin = PerturbedCoin(walk.hadamard_coin(n), np.eye(2**n), 9)
    walk.evolution_operator(shift, coin, with_init_layer=True)  # warm lazy set-up
    tracemalloc.start()
    try:
        op = walk.evolution_operator(shift, coin, with_init_layer=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * op.matrix.nbytes


@pytest.mark.parametrize("build", [walk.coin_operator,
                                   lambda spec, n: walk.evolution_operator(
                                       graphs.shift_operator(n, ShiftModel.CNOT), spec)])
def test_position_dependent_rejects_positions_outside_the_graph(build):
    coins = {0: np.eye(2), 1: walk.hadamard_coin(1), 7: np.eye(2)}
    with pytest.raises(ValueError, match=r"positions \[7\] outside 0\.\.1"):
        build(PositionDependentCoin(coins), 1)
