import tracemalloc

import numpy as np
import pytest

from walkcomplement import graphs, linalg
from walkcomplement.graphs import ShiftModel


def test_complete_adjacency_small():
    np.testing.assert_array_equal(graphs.complete_adjacency(1), np.ones((2, 2)))
    np.testing.assert_array_equal(graphs.complete_adjacency(2), np.ones((4, 4)))
    assert graphs.complete_adjacency(3).sum(axis=1).tolist() == [8] * 8


@pytest.mark.parametrize("n", [0, -1, 13])
def test_complete_adjacency_range(n):
    with pytest.raises(ValueError):
        graphs.complete_adjacency(n)


def test_decompose_cnot_k4_block_one():
    dec = graphs.decompose(graphs.complete_adjacency(2), ShiftModel.CNOT)
    expected = np.array([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    np.testing.assert_array_equal(dec.blocks[1], expected)


def test_decompose_swap_k4_block_00():
    dec = graphs.decompose(graphs.complete_adjacency(2), ShiftModel.SWAP)
    expected = np.zeros((4, 4), dtype=int)
    expected[0, 0] = 1
    np.testing.assert_array_equal(dec.blocks[(0, 0)], expected)


def test_decompose_k2_cnot_blocks():
    # the two permutations j -> j XOR 0 and j -> j XOR 1
    dec = graphs.decompose(graphs.complete_adjacency(1), ShiftModel.CNOT)
    np.testing.assert_array_equal(dec.blocks[0], np.eye(2))
    np.testing.assert_array_equal(dec.blocks[1], np.array([[0, 1], [1, 0]]))


def test_decompose_rejects_non_complete():
    adj = np.ones((4, 4))
    adj[0, 1] = 0
    with pytest.raises(ValueError, match="complete graph"):
        graphs.decompose(adj, ShiftModel.CNOT)
    with pytest.raises(ValueError, match="complete graph"):
        graphs.decompose(np.ones((3, 3)), ShiftModel.SWAP)


@pytest.mark.parametrize("model", list(ShiftModel))
@pytest.mark.parametrize("n", range(1, 6))
def test_block_sum_equals_adjacency_exactly(model, n):
    adj = graphs.complete_adjacency(n)
    dec = graphs.decompose(adj, model)
    np.testing.assert_array_equal(dec.block_sum(), adj)


@pytest.mark.parametrize("n", range(1, 6))
def test_cnot_blocks_are_involutive_permutations(n):
    dec = graphs.decompose(graphs.complete_adjacency(n), ShiftModel.CNOT)
    for block in dec.blocks.values():
        np.testing.assert_array_equal(block @ block, np.eye(2**n, dtype=int))


def test_assemble_k2_cnot_is_block_diagonal():
    op = graphs.shift_operator(1, ShiftModel.CNOT)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 1  # identity block for coin 0
    expected[2, 3] = expected[3, 2] = 1  # X block for coin 1
    np.testing.assert_array_equal(op.matrix.real, expected)


@pytest.mark.parametrize("n", range(1, 4))
def test_assemble_cnot_matches_xor_relabeling(n):
    # independent construction: S |i>|j> = |i>|j XOR i>, built entry by entry
    n_nodes = 2**n
    expected = np.zeros((n_nodes**2, n_nodes**2))
    for i in range(n_nodes):
        for j in range(n_nodes):
            expected[i * n_nodes + (j ^ i), i * n_nodes + j] = 1.0
    op = graphs.shift_operator(n, ShiftModel.CNOT)
    np.testing.assert_array_equal(op.matrix.real, expected)


@pytest.mark.parametrize("n", range(1, 4))
def test_assemble_swap_exchanges_registers(n):
    n_nodes = 2**n
    op = graphs.shift_operator(n, ShiftModel.SWAP)
    for i in range(n_nodes):
        for j in range(n_nodes):
            v = np.zeros(n_nodes**2)
            v[i * n_nodes + j] = 1.0
            out = op.matrix @ v
            assert out[j * n_nodes + i] == 1.0 and np.count_nonzero(out) == 1


@pytest.mark.parametrize("model", list(ShiftModel))
@pytest.mark.parametrize("n", range(1, 6))
def test_shift_operators_unitary_and_kraus(model, n):
    op = graphs.shift_operator(n, model)
    assert linalg.is_unitary(op.matrix, 1e-10)
    assert graphs.verify_kraus(op, 1e-10)


def test_kraus_rejects_rank_one_blocks():
    bad = np.ones((16, 16)) / 4.0
    assert not graphs.kraus_conditions_hold(bad, 4, 1e-10)


def test_kraus_block_shape_validation():
    with pytest.raises(ValueError, match="blocks"):
        graphs.kraus_conditions_hold(np.eye(6), 4)


def test_assemble_rejects_invalid_decomposition():
    dec = graphs.decompose(graphs.complete_adjacency(1), ShiftModel.CNOT)
    broken = graphs.ShiftDecomposition(model=ShiftModel.CNOT, n=1,
                                       blocks={0: np.eye(2), 1: np.ones((2, 2))})
    assert dec.blocks  # sanity: the valid one still assembles
    graphs.assemble_shift(dec)
    with pytest.raises(ValueError, match="Kraus"):
        graphs.assemble_shift(broken)


def test_load_shift_operator_round_trip(tmp_path):
    op = graphs.shift_operator(2, ShiftModel.SWAP)
    path = tmp_path / "shift.csv"
    linalg.save_matrix_csv(op.matrix, path)
    loaded = graphs.load_shift_operator(path)
    assert loaded.n == 2
    np.testing.assert_array_equal(loaded.matrix, op.matrix)


def test_load_shift_operator_keeps_a_random_permutation(tmp_path):
    # not an involution, so reading S|k> = |perm[k]> backwards would show
    m = _random_permutation_matrix(np.random.default_rng(11), 64)
    path = tmp_path / "shift.csv"
    linalg.save_matrix_csv(m, path)
    loaded = graphs.load_shift_operator(path)
    assert loaded.n == 3 and loaded.model is None
    np.testing.assert_array_equal(loaded.matrix, m)


def test_load_shift_operator_rejects_corrupted(tmp_path):
    path = tmp_path / "bad.csv"
    linalg.save_matrix_csv(np.ones((16, 16)) / 4.0, path)
    with pytest.raises(ValueError, match="Kraus"):
        graphs.load_shift_operator(path)


def _random_permutation_matrix(rng, dim):
    m = np.zeros((dim, dim))
    m[rng.permutation(dim), np.arange(dim)] = 1.0
    return m


def _structurally_valid(m):
    try:
        graphs._permutation_of(m, "test matrix")
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", [1, 2])
def test_structural_check_agrees_with_dense_kraus(n):
    n_blocks = 2**n
    dim = n_blocks**2
    rng = np.random.default_rng(20240527 + n)
    for _ in range(50):
        perm = _random_permutation_matrix(rng, dim)
        assert _structurally_valid(perm)
        assert graphs.kraus_conditions_hold(perm, n_blocks, 1e-10)

        # move the 1 of one column onto a row another column already uses
        moved = perm.copy()
        k, other = rng.choice(dim, size=2, replace=False)
        moved[:, k] = 0.0
        moved[np.argmax(perm[:, other]), k] = 1.0
        assert not _structurally_valid(moved)
        assert not graphs.kraus_conditions_hold(moved, n_blocks, 1e-10)

        duplicated = perm.copy()
        duplicated[:, k] = perm[:, other]
        assert not _structurally_valid(duplicated)
        assert not graphs.kraus_conditions_hold(duplicated, n_blocks, 1e-10)

        # arbitrary 0/1 matrices, about one 1 per column
        noise = (rng.random((dim, dim)) < 1.0 / dim).astype(float)
        assert _structurally_valid(noise) == graphs.kraus_conditions_hold(
            noise, n_blocks, 1e-10)


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _block_column_condition(m, n_blocks, tol):
    """sum_i B_ik^dag B_il == delta_kl I, written out block by block."""
    nn = m.shape[0] // n_blocks

    def block(i, k):
        return m[i * nn:(i + 1) * nn, k * nn:(k + 1) * nn]

    for k in range(n_blocks):
        for l in range(n_blocks):
            total = sum(block(i, k).conj().T @ block(i, l) for i in range(n_blocks))
            if np.abs(total - (k == l) * np.eye(nn)).max() >= tol:
                return False
    return True


@pytest.mark.parametrize("n_blocks,nn", [(2, 2), (4, 4), (2, 8)])
def test_kraus_conditions_agree_with_unitarity_and_block_sums(n_blocks, nn):
    rng = np.random.default_rng(97 * n_blocks + nn)
    dim = n_blocks * nn
    for _ in range(10):
        u = _random_unitary(dim, rng)
        for eps, expected in [(0.0, True), (1e-14, True), (1e-6, False), (1e-2, False)]:
            m = u + eps * rng.standard_normal((dim, dim))
            kraus = graphs.kraus_conditions_hold(m, n_blocks, 1e-10)
            assert kraus == expected
            assert kraus == linalg.is_unitary(m, 1e-10)
            assert kraus == _block_column_condition(m, n_blocks, 1e-10)


def test_load_shift_operator_rejects_unitary_that_is_not_a_permutation(tmp_path):
    # diag(sqrt X, sqrt X^dag) is unitary and its blocks satisfy the Kraus
    # conditions, but its entries are not 0/1, so it is not a shift
    sqrt_x = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = sqrt_x
    m[2:, 2:] = sqrt_x.conj().T
    assert graphs.kraus_conditions_hold(m, 2)
    path = tmp_path / "sqrtx.csv"
    linalg.save_matrix_csv(m, path)
    with pytest.raises(ValueError, match="Kraus"):
        graphs.load_shift_operator(path)


@pytest.mark.parametrize("model", list(ShiftModel))
@pytest.mark.parametrize("n", range(1, 4))
def test_shift_perm_matches_matrix(model, n):
    op = graphs.shift_operator(n, model)
    n_nodes = 2**n
    k = np.arange(n_nodes**2)
    coin, pos = np.divmod(k, n_nodes)
    expected = coin * n_nodes + (pos ^ coin) if model is ShiftModel.CNOT \
        else pos * n_nodes + coin
    np.testing.assert_array_equal(op.perm, expected)
    m = op.matrix
    assert np.all(m[op.perm, k] == 1) and m.sum() == n_nodes**2


def test_assemble_rejects_block_entry_between_zero_and_one():
    # the 1s still form a permutation; only the 0.5 beside them is wrong
    half = np.eye(2)
    half[0, 1] = 0.5
    dec = graphs.ShiftDecomposition(model=ShiftModel.CNOT, n=1,
                                    blocks={0: half, 1: np.array([[0, 1], [1, 0]])})
    with pytest.raises(ValueError, match="Kraus"):
        graphs.assemble_shift(dec)


def test_assemble_rejects_swap_blocks_hitting_one_row_twice():
    dec = graphs.decompose(graphs.complete_adjacency(1), ShiftModel.SWAP)
    blocks = dict(dec.blocks)
    # block (i, j) holds its 1 at (y, x), which lands at S[2i + x, 2j + y];
    # with both 1s at (0, 0), blocks (0, 0) and (0, 1) both hit row 0 of S
    moved = np.zeros((2, 2), dtype=np.int64)
    moved[0, 0] = 1
    blocks[(0, 1)] = moved
    broken = graphs.ShiftDecomposition(model=ShiftModel.SWAP, n=1, blocks=blocks)
    assert np.array_equal(broken.block_sum(), np.array([[2, 0], [1, 1]]))
    with pytest.raises(ValueError, match="Kraus"):
        graphs.assemble_shift(broken)


def test_assemble_rejects_block_of_wrong_shape():
    dec = graphs.ShiftDecomposition(model=ShiftModel.CNOT, n=1,
                                    blocks={0: np.eye(2), 1: np.eye(4)})
    with pytest.raises(ValueError, match="shape"):
        graphs.assemble_shift(dec)


def test_cnot_shift_assembly_fills_no_dense_matrix():
    n = 5
    graphs.shift_operator(n, ShiftModel.CNOT)  # warm lazy set-up
    tracemalloc.start()
    try:
        graphs.shift_operator(n, ShiftModel.CNOT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**n * 4**n / 4


def _reference_perm(n, model):
    """``perm`` by the construction used while every block was a dense array:
    each block's 1s set entry by entry, and a 1 at block[y, x] of the block
    placed at (row, col) landing at S[row + x, col + y]."""
    n_nodes = 2**n
    perm = np.full(n_nodes**2, -1, dtype=np.intp)
    row_hits = np.zeros(n_nodes**2, dtype=int)
    if model is ShiftModel.SWAP:
        placed = (((i * n_nodes, j * n_nodes), [(i, j)])
                  for i in range(n_nodes) for j in range(n_nodes))
    else:
        placed = (((i * n_nodes, i * n_nodes), [(k ^ i, k) for k in range(n_nodes)])
                  for i in range(n_nodes))
    for (row, col), ones in placed:
        for y, x in ones:
            assert perm[col + y] == -1
            perm[col + y] = row + x
            row_hits[row + x] += 1
    assert np.all(row_hits == 1)
    return perm


@pytest.mark.parametrize("model", list(ShiftModel))
@pytest.mark.parametrize("n", range(1, 9))
def test_index_block_perm_is_bit_identical_to_dense_block_construction(model, n):
    perm = graphs.shift_operator(n, model).perm
    assert perm.dtype == np.intp
    np.testing.assert_array_equal(perm, _reference_perm(n, model))


@pytest.mark.parametrize("model", list(ShiftModel))
@pytest.mark.parametrize("n", range(1, 4))
def test_dense_copy_of_index_blocks_assembles_to_the_same_perm(model, n):
    dec = graphs.decompose(graphs.complete_adjacency(n), model)
    dense = graphs.ShiftDecomposition(model=model, n=n, blocks=dict(dec.blocks))
    assert all(isinstance(b, np.ndarray) and b.dtype == np.int64 for b in dense.blocks.values())
    np.testing.assert_array_equal(graphs.assemble_shift(dense).perm,
                                  graphs.assemble_shift(dec).perm)
    np.testing.assert_array_equal(dense.block_sum(), dec.block_sum())


def test_index_blocks_read_as_a_mapping():
    cnot = graphs.decompose(graphs.complete_adjacency(2), ShiftModel.CNOT).blocks
    swap = graphs.decompose(graphs.complete_adjacency(2), ShiftModel.SWAP).blocks
    assert list(cnot) == [0, 1, 2, 3] and len(cnot) == 4
    assert list(swap) == [(i, j) for i in range(4) for j in range(4)] and len(swap) == 16
    assert all(type(k) is int for k in cnot)
    assert 3 in cnot and (3, 2) in swap and np.int64(2) in cnot
    for blocks, bad in ((cnot, 4), (cnot, -1), (cnot, (1,)), (cnot, 1.0), (swap, 0),
                        (swap, (0, 4)), (swap, (0, 1, 2))):
        assert bad not in blocks
        with pytest.raises(KeyError):
            blocks[bad]
    with pytest.raises(TypeError):
        cnot[0] = np.eye(4)


@pytest.mark.parametrize("model,other_model,other_n", [
    (ShiftModel.SWAP, ShiftModel.CNOT, 2), (ShiftModel.CNOT, ShiftModel.SWAP, 2),
    (ShiftModel.CNOT, ShiftModel.CNOT, 3)])
def test_assemble_rejects_index_blocks_of_another_decomposition(model, other_model, other_n):
    blocks = graphs.decompose(graphs.complete_adjacency(other_n), other_model).blocks
    with pytest.raises(ValueError, match="index blocks"):
        graphs.assemble_shift(graphs.ShiftDecomposition(model=model, n=2, blocks=blocks))


@pytest.mark.parametrize("model,n,limit_mb", [(ShiftModel.SWAP, 6, 10),
                                              (ShiftModel.CNOT, 10, 200)])
def test_shift_assembly_peak_stays_near_perm_size(model, n, limit_mb):
    graphs.shift_operator(2, model)  # warm lazy set-up
    tracemalloc.start()
    try:
        graphs.shift_operator(n, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


def test_index_blocks_total_equals_sum_of_dense_blocks():
    rng = np.random.default_rng(5)
    n_nodes = 8
    ys = np.array([rng.permutation(n_nodes) for _ in range(n_nodes)])
    blocks = graphs.IndexBlocks(n_nodes, ys, np.arange(n_nodes))
    total = blocks.total()
    np.testing.assert_array_equal(total, sum(blocks.values()))
    assert total.sum() == n_nodes**2 and total.max() > 1
