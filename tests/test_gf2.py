import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from graphlink import LabeledGraph, gf2
from graphlink.errors import ResourceLimitError
from graphlink.invariants import _a_plus_e

from helpers import dense_adjacency, dense_submatrix, force_cpus, g7, naive_rank, random_graph


def rows_from_dense(dense):
    return [sum(v << j for j, v in enumerate(row)) for row in dense]


def masked_rows(rows, mask):
    return [rows[v] & mask for v in range(len(rows)) if (mask >> v) & 1]


def test_zero_matrix_rank():
    assert gf2.rank([0, 0, 0]) == 0


def test_permutation_matrix_rank():
    assert gf2.rank(rows_from_dense([[0, 1], [1, 0]])) == 2


def test_empty_matrix_conventions():
    assert gf2.rank([]) == 0
    assert gf2.corank([]) == 0


def test_one_by_one_zero_corank():
    assert gf2.corank([0]) == 1


def test_g7_rank_values_match_naive_oracle():
    g = g7()
    dense = dense_adjacency(g)
    dense_ae = [
        [dense[i][j] ^ (1 if i == j else 0) for j in range(g.n)] for i in range(g.n)
    ]
    # independent elimination first, then the bit-packed kernel
    assert naive_rank(dense_ae) == 4
    rows = rows_from_dense(dense_ae)
    assert rows == _a_plus_e(g)
    assert gf2.rank(rows) == 4
    assert gf2.corank(rows) == 3


def test_principal_submatrix_empty_and_full():
    rows = rows_from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert masked_rows(rows, 0) == []
    assert masked_rows(rows, 0b111) == rows
    assert gf2.corank(masked_rows(rows, 0b101)) == 2


def test_principal_submatrix_g7_odd_vertices_is_zero():
    g = g7()
    sub = masked_rows(list(g.adj), 0b1010101)  # 1-based odd vertices
    assert sub == [0, 0, 0, 0]
    assert gf2.corank(sub) == 4


def test_add_identity_and_flip_diagonal():
    # the A+E rows and the single diagonal flips that writhe takes coranks of
    k1 = LabeledGraph.from_edges("+")
    k2 = LabeledGraph.from_edges("++", [(0, 1)])
    assert _a_plus_e(k1) == [0b1] and gf2.corank([0b1]) == 0
    assert gf2.corank([0b0]) == 1
    assert _a_plus_e(k2) == [0b11, 0b11] and gf2.corank([0b11, 0b11]) == 1
    assert gf2.corank([0b10, 0b11]) == 0


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
        rows = rows_from_dense(random_dense(rng, n, False))
        assert gf2.rank(rows) + gf2.corank(rows) == n


def test_submatrix_rank_never_exceeds_rank():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(0, 12)
        rows = rows_from_dense(random_dense(rng, n, True))
        mask = rng.getrandbits(n)
        assert gf2.rank(masked_rows(rows, mask)) <= gf2.rank(rows)


def test_bitpacked_rank_matches_naive_oracle_1000_matrices():
    rng = random.Random(104)
    for _ in range(1000):
        n = rng.randint(0, 32)
        dense = random_dense(rng, n, rng.random() < 0.5)
        assert gf2.rank(rows_from_dense(dense)) == naive_rank(dense)


def test_subset_coranks_matches_per_state_corank():
    rng = random.Random(105)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 9))
        coranks = gf2.subset_coranks(g.adj, g.n)
        for mask in range(1 << g.n):
            assert coranks[mask] == gf2.corank(masked_rows(g.adj, mask))


def test_masked_rows_corank_matches_naive_dense_submatrix():
    # masking rows to a state's columns keeps the rank of the compacted
    # principal submatrix, for the per-state and the all-states kernel alike
    rng = random.Random(107)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), rng.choice([0.2, 0.5, 0.8]))
        dense = dense_adjacency(g)
        coranks = gf2.subset_coranks(g.adj, g.n)
        for mask in range(1 << g.n):
            idx = [v for v in range(g.n) if (mask >> v) & 1]
            want = len(idx) - naive_rank(dense_submatrix(dense, idx))
            assert gf2.corank(masked_rows(g.adj, mask)) == want
            assert coranks[mask] == want


def test_subset_coranks_thread_and_block_invariance(monkeypatch):
    rng = random.Random(106)
    g = random_graph(rng, 11)
    base = gf2.subset_coranks(g.adj, g.n)
    monkeypatch.setattr(gf2, "BLOCK_BITS", 4)  # 128 blocks
    for cpus in (1, 4):
        force_cpus(monkeypatch, cpus)
        assert np.array_equal(base, gf2.subset_coranks(g.adj, g.n))


@pytest.mark.parametrize("cpus", [1, 3, 4])
def test_subset_coranks_pool_is_sized_by_blocks_and_cpus(monkeypatch, cpus):
    pools = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(gf2, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(gf2, "BLOCK_BITS", 4)
    force_cpus(monkeypatch, cpus)
    rng = random.Random(108)
    for n, blocks in ((0, 1), (4, 1), (5, 2), (6, 4), (9, 32)):
        g = random_graph(rng, n)
        pools.clear()
        coranks = gf2.subset_coranks(g.adj, n)
        workers = min(blocks, cpus)
        assert pools == ([workers] if workers > 1 else [])
        assert [int(c) for c in coranks] == [
            gf2.corank(masked_rows(g.adj, mask)) for mask in range(1 << n)
        ]


def test_dimension_cap():
    gf2.check_dim(gf2.DIM_LIMIT)
    with pytest.raises(ResourceLimitError, match=f"dimension {gf2.DIM_LIMIT + 1} "):
        gf2.check_dim(gf2.DIM_LIMIT + 1)
