import random

import numpy as np
import pytest

from graphlink import gf2
from graphlink.errors import ResourceLimitError

from helpers import dense_adjacency, g7, naive_rank, random_graph


def bitmatrix_from_dense(dense):
    return gf2.BitMatrix.from_dense(dense)


def test_zero_matrix_rank():
    assert gf2.rank(gf2.BitMatrix.zero(3)) == 0


def test_permutation_matrix_rank():
    m = gf2.BitMatrix.from_dense([[0, 1], [1, 0]])
    assert gf2.rank(m) == 2


def test_empty_matrix_conventions():
    m = gf2.BitMatrix.zero(0)
    assert gf2.rank(m) == 0
    assert gf2.corank(m) == 0


def test_one_by_one_zero_corank():
    assert gf2.corank(gf2.BitMatrix.zero(1)) == 1


def test_g7_rank_values_match_naive_oracle():
    g = g7()
    dense = dense_adjacency(g)
    dense_ae = [
        [dense[i][j] ^ (1 if i == j else 0) for j in range(g.n)] for i in range(g.n)
    ]
    # independent elimination first, then the bit-packed kernel
    assert naive_rank(dense_ae) == 4
    m = gf2.add_identity(bitmatrix_from_dense(dense))
    assert gf2.rank(m) == 4
    assert gf2.corank(m) == 3


def test_principal_submatrix_empty_and_full():
    m = bitmatrix_from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert gf2.principal_submatrix(m, []) == gf2.BitMatrix.zero(0)
    assert gf2.principal_submatrix(m, range(3)) == m


def test_principal_submatrix_g7_odd_vertices_is_zero():
    g = g7()
    m = gf2.BitMatrix(g.n, g.adj)
    sub = gf2.principal_submatrix(m, [0, 2, 4, 6])  # 1-based odd vertices
    assert sub == gf2.BitMatrix.zero(4)
    assert gf2.corank(sub) == 4


def test_principal_submatrix_index_error():
    m = gf2.BitMatrix.zero(2)
    with pytest.raises(IndexError):
        gf2.principal_submatrix(m, [0, 5])


def test_add_identity_and_flip_diagonal():
    assert gf2.add_identity(gf2.BitMatrix.zero(1)) == gf2.BitMatrix.from_dense([[1]])
    assert gf2.flip_diagonal(gf2.BitMatrix.from_dense([[1]]), 0) == gf2.BitMatrix.zero(1)
    two = gf2.BitMatrix.from_dense([[0, 1], [1, 0]])
    assert gf2.add_identity(two) == gf2.BitMatrix.from_dense([[1, 1], [1, 1]])
    with pytest.raises(IndexError):
        gf2.flip_diagonal(two, 2)


def test_flip_diagonal_is_pure():
    m = gf2.BitMatrix.zero(2)
    gf2.flip_diagonal(m, 0)
    assert m == gf2.BitMatrix.zero(2)


def random_dense(rng, n, symmetric):
    m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                m[j][i] = m[i][j]
    return m


def test_corank_plus_rank_is_n():
    rng = random.Random(102)
    for _ in range(300):
        n = rng.randint(0, 16)
        m = bitmatrix_from_dense(random_dense(rng, n, False))
        assert gf2.rank(m) + gf2.corank(m) == n


def test_submatrix_rank_never_exceeds_rank():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(0, 12)
        m = bitmatrix_from_dense(random_dense(rng, n, True))
        subset = [v for v in range(n) if rng.random() < 0.5]
        assert gf2.rank(gf2.principal_submatrix(m, subset)) <= gf2.rank(m)


def test_bitpacked_rank_matches_naive_oracle_1000_matrices():
    rng = random.Random(104)
    for _ in range(1000):
        n = rng.randint(0, 32)
        dense = random_dense(rng, n, rng.random() < 0.5)
        assert gf2.rank(bitmatrix_from_dense(dense)) == naive_rank(dense)


def test_subset_coranks_matches_per_state_corank():
    rng = random.Random(105)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 9))
        coranks = gf2.subset_coranks(g.adj, g.n)
        m = gf2.BitMatrix(g.n, g.adj)
        for mask in range(1 << g.n):
            members = [v for v in range(g.n) if (mask >> v) & 1]
            assert coranks[mask] == gf2.corank(gf2.principal_submatrix(m, members))


def test_subset_coranks_thread_and_block_invariance(monkeypatch):
    rng = random.Random(106)
    g = random_graph(rng, 11)
    base = gf2.subset_coranks(g.adj, g.n)
    assert np.array_equal(base, gf2.subset_coranks(g.adj, g.n, threads=3))
    monkeypatch.setattr(gf2, "BLOCK_BITS", 4)
    assert np.array_equal(base, gf2.subset_coranks(g.adj, g.n))


def test_dimension_cap():
    with pytest.raises(ResourceLimitError):
        gf2.BitMatrix.zero(gf2.DIM_LIMIT + 1)


def test_row_width_validation():
    with pytest.raises(ValueError):
        gf2.BitMatrix(1, (2,))
    with pytest.raises(ValueError):
        gf2.BitMatrix(2, (0,))
