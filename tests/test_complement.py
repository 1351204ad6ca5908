import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import K4_TARGET1_DISTRIBUTION
from walkcomplement import complement, graphs, linalg, probability, walk
from walkcomplement.complement import (
    ComplementSpec,
    CrossValidationError,
    Method,
    build_complement_operator,
    closed_form_distribution,
    cross_validate,
    run_complement_dense,
    run_complement_statevector,
)
from walkcomplement.graphs import ShiftModel
from walkcomplement.walk import PerturbedCoin


def expected_distribution(n, target, coin_init):
    dist = np.full(2**n, 1.0 / 4**n + 1.0 / 2**n)
    dist[target ^ coin_init] = 1.0 / 4**n
    return dist


def test_spec_validates_ranges():
    with pytest.raises(ValueError, match="target"):
        ComplementSpec(n=2, target=4)
    with pytest.raises(ValueError, match="coin_init"):
        ComplementSpec(n=2, target=0, coin_init=-1)


def test_closed_form_k4():
    result = closed_form_distribution(ComplementSpec(n=2, target=1))
    np.testing.assert_allclose(result.distribution, K4_TARGET1_DISTRIBUTION, atol=0)
    assert result.suppressed_node == 1


def test_closed_form_k8():
    result = closed_form_distribution(ComplementSpec(n=3, target=1))
    assert result.distribution[1] == 1 / 64
    assert all(p == 1 / 64 + 1 / 8 for k, p in enumerate(result.distribution) if k != 1)


def test_closed_form_nontrivial_coin_init():
    result = closed_form_distribution(ComplementSpec(n=2, target=1, coin_init=3, pos_init=2))
    assert result.suppressed_node == 2  # 1 XOR 3


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_sums_to_one(n):
    result = closed_form_distribution(ComplementSpec(n=n, target=1 % 2**n))
    assert result.distribution.sum() == pytest.approx(1.0, abs=1e-12)


def test_closed_form_independent_of_position_init():
    base = closed_form_distribution(ComplementSpec(n=3, target=5, coin_init=2, pos_init=0))
    for s in range(8):
        other = closed_form_distribution(ComplementSpec(n=3, target=5, coin_init=2, pos_init=s))
        np.testing.assert_array_equal(other.distribution, base.distribution)


def test_build_complement_operator_is_unitary():
    for n, t in [(1, 1), (2, 1), (3, 6)]:
        op = build_complement_operator(n, t)
        assert linalg.is_unitary(op.matrix, 1e-10)


def test_build_complement_operator_k2():
    op = build_complement_operator(1, 1)
    state = walk.evolve(walk.basis_state(1, 0, 0), op, 1)
    dist = probability.node_probabilities(state)
    np.testing.assert_allclose(dist, [3 / 4, 1 / 4], atol=1e-12)


@pytest.mark.parametrize("n", range(1, 5))
def test_synthesized_operator_matches_generic_construction(n):
    # the same operator assembled through the shift/coin machinery
    target = (2**n) - 1
    direct = build_complement_operator(n, target)
    shift = graphs.shift_operator(n, ShiftModel.CNOT)
    coin = PerturbedCoin(walk.hadamard_coin(n), np.eye(2**n), target)
    generic = walk.evolution_operator(shift, coin, with_init_layer=True)
    assert np.abs(direct.matrix - generic.matrix).max() < 1e-12
    for s in range(2**n):
        a = walk.evolve(walk.basis_state(n, 0, s), direct, 1)
        b = walk.evolve(walk.basis_state(n, 0, s), generic, 1)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12


def test_build_complement_operator_range_checks():
    with pytest.raises(ValueError, match="dense path"):
        build_complement_operator(7, 0)
    with pytest.raises(ValueError, match="target"):
        build_complement_operator(2, 4)


def test_statevector_k4():
    result = run_complement_statevector(ComplementSpec(n=2, target=1))
    np.testing.assert_allclose(result.distribution, K4_TARGET1_DISTRIBUTION, atol=1e-12)
    assert result.method is Method.STATEVECTOR


def test_statevector_k64():
    result = run_complement_statevector(ComplementSpec(n=6, target=1))
    np.testing.assert_allclose(result.distribution[1], 1 / 4096, atol=1e-12)
    others = np.delete(result.distribution, 1)
    np.testing.assert_allclose(others, np.full(63, 65 / 4096), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 5))
def test_statevector_independent_of_position_init(n):
    base = run_complement_statevector(ComplementSpec(n=n, target=1 % 2**n)).distribution
    for s in range(2**n):
        dist = run_complement_statevector(
            ComplementSpec(n=n, target=1 % 2**n, pos_init=s)).distribution
        assert np.abs(dist - base).max() < 1e-12


@st.composite
def specs(draw, n_max=10):
    n = draw(st.integers(1, n_max))
    node = st.integers(0, 2**n - 1)
    return ComplementSpec(n=n, target=draw(node), coin_init=draw(node), pos_init=draw(node))


@settings(max_examples=40, deadline=None)
@given(specs())
def test_statevector_matches_closed_form(spec):
    dist = run_complement_statevector(spec).distribution
    np.testing.assert_allclose(dist, closed_form_distribution(spec).distribution,
                               rtol=0, atol=1e-12)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert np.argmin(dist) == spec.target ^ spec.coin_init


def test_statevector_memory_is_about_one_state():
    spec = ComplementSpec(n=10, target=3, coin_init=5, pos_init=9)
    run_complement_statevector(spec)  # first call pays for lazy imports and caches
    tracemalloc.start()
    try:
        run_complement_statevector(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 16 * 4**spec.n


def test_statevector_size_cap():
    with pytest.raises(ValueError, match="statevector"):
        run_complement_statevector(ComplementSpec(n=15, target=0))


def test_dense_run_k4():
    result = run_complement_dense(ComplementSpec(n=2, target=1, coin_init=3, pos_init=2))
    np.testing.assert_allclose(result.distribution, expected_distribution(2, 1, 3), atol=1e-12)
    assert result.suppressed_node == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_suppression_ratio_law(n):
    # non-target over target probability is exactly 2^n + 1
    result = run_complement_statevector(ComplementSpec(n=n, target=0))
    p_low = result.distribution[result.suppressed_node]
    p_other = np.delete(result.distribution, result.suppressed_node)
    np.testing.assert_allclose(p_other / p_low, np.full(2**n - 1, 2**n + 1), atol=1e-9)


def test_cross_validate_exhaustive_small():
    report = cross_validate(1)
    assert report.cases == 2 * 4  # 2 targets, 4 (coin, position) pairs
    assert report.max_deviation < 1e-12

    report = cross_validate(2)
    assert report.cases >= 4 * 16
    assert report.max_deviation < 1e-12


def test_cross_validate_rejects_out_of_range():
    with pytest.raises(ValueError, match="n_max"):
        cross_validate(7)


def test_cross_validate_detects_injected_sign_flip(monkeypatch):
    true_coin = walk.hadamard_coin

    def flipped(n):
        # row-sign flip keeps the coin unitary but corrupts the walk
        h = true_coin(n).copy()
        h[0, :] = -h[0, :]
        return h

    monkeypatch.setattr(walk, "hadamard_coin", flipped)
    with pytest.raises(CrossValidationError) as excinfo:
        cross_validate(2)
    err = excinfo.value
    assert 1 <= err.n <= 2
    assert err.deviation > 1e-12


def test_run_dispatches_methods():
    spec = ComplementSpec(n=2, target=2)
    for method in Method:
        result = complement.run(spec, method)
        assert result.method is method
        np.testing.assert_allclose(result.distribution, expected_distribution(2, 2, 0),
                                   atol=1e-12)


def test_result_json_schema():
    spec = ComplementSpec(n=2, target=1, coin_init=1, pos_init=2)
    result = run_complement_statevector(spec)
    payload = complement.result_to_json(spec, result)
    assert payload == {
        "n": 2,
        "target": 1,
        "coin_init": 1,
        "pos_init": 2,
        "method": "statevector",
        "distribution": [float(p) for p in result.distribution],
        "suppressed_node": 0,
    }
