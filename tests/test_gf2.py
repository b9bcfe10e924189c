import itertools
import random

import pytest

from graphlink import LabeledGraph, b_state, gf2
from graphlink.errors import ResourceLimitError
from graphlink.invariants import _a_plus_e

from helpers import dense_adjacency, dense_submatrix, g7, naive_rank, random_graph, tally_reference


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


def kernel_tally(g):
    return gf2.subset_coranks(g.adj, g.n, b_state(g))


def graph_tally(g):
    return tally_reference(g.adj, g.n, b_state(g))


def test_subset_coranks_matches_per_state_corank():
    # every edge set and every label vector on at most 4 vertices
    count = 0
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for edge_bits in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if edge_bits >> k & 1]
            for labels in itertools.product((1, -1), repeat=n):
                g = LabeledGraph.from_edges(labels, edges)
                assert kernel_tally(g) == graph_tally(g), g
                count += 1
    assert count == 1 + 2 + 8 + 64 + 1024


def test_subset_coranks_matches_tally_reference_on_seeded_graphs():
    rng = random.Random(105)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert kernel_tally(g) == graph_tally(g), g


def test_subset_coranks_matches_tally_reference_on_graph_families():
    rng = random.Random(109)
    for n in range(1, 11):
        labels = tuple(rng.choice((1, -1)) for _ in range(n))
        families = {
            "edgeless": [],
            "complete": list(itertools.combinations(range(n), 2)),
            "path": [(v, v + 1) for v in range(n - 1)],
            "star": [(0, v) for v in range(1, n)],
        }
        for name, edges in families.items():
            g = LabeledGraph.from_edges(labels, edges)
            assert kernel_tally(g) == graph_tally(g), (name, n)
    # closed forms with flip 0: an edgeless graph's corank is |s|, and a
    # subset s of K_n has corank 1 if |s| is odd, else 0 (J - I over GF(2)
    # is invertible iff its size is even; for odd size the kernel is 1...1)
    assert gf2.subset_coranks([0] * 5, 5, 0) == {(k, k): c for k, c in enumerate((1, 5, 10, 10, 5, 1))}
    k5 = [0b11111 ^ 1 << v for v in range(5)]
    assert gf2.subset_coranks(k5, 5, 0) == {
        (0, 0): 1, (1, 1): 5, (2, 0): 10, (3, 1): 10, (4, 0): 5, (5, 1): 1,
    }


def test_subset_coranks_with_diagonal_entries_matches_tally_reference():
    # a simple graph's diagonal is 0 and a 2x2 pivot keeps every diagonal,
    # so only a matrix with diagonal entries takes the 1x1 and settle pivots:
    # every symmetric matrix on at most 3 vertices, then seeded ones
    for n in range(4):
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for bits in range(1 << len(cells)):
            rows = [0] * n
            for k, (i, j) in enumerate(cells):
                if bits >> k & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            for flip in range(1 << n):
                assert gf2.subset_coranks(rows, n, flip) == tally_reference(rows, n, flip)
    rng = random.Random(112)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        rows = [r | rng.getrandbits(1) << v for v, r in enumerate(g.adj)]
        flip = rng.getrandbits(n)
        assert gf2.subset_coranks(rows, n, flip) == tally_reference(rows, n, flip), (rows, flip)


def test_subset_coranks_refuses_past_the_state_sum_limit():
    n = gf2.STATE_SUM_LIMIT + 1
    with pytest.raises(ResourceLimitError, match=f"2\\^{n} states"):
        gf2.subset_coranks([0] * n, n, 0)


def test_masked_rows_corank_matches_naive_dense_submatrix():
    # masking rows to a state's columns keeps the rank of the compacted
    # principal submatrix, state by state and in the all-states tally alike
    rng = random.Random(107)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 9), rng.choice([0.2, 0.5, 0.8]))
        dense = dense_adjacency(g)
        flip = rng.getrandbits(g.n) if g.n else 0
        want: dict[tuple[int, int], int] = {}
        for mask in range(1 << g.n):
            idx = [v for v in range(g.n) if (mask >> v) & 1]
            c = len(idx) - naive_rank(dense_submatrix(dense, idx))
            assert gf2.corank(masked_rows(g.adj, mask)) == c
            key = ((mask ^ flip).bit_count(), c)
            want[key] = want.get(key, 0) + 1
        assert gf2.subset_coranks(g.adj, g.n, flip) == want


def test_inverse_matches_naive_elimination():
    rng = random.Random(111)
    singular = 0
    for _ in range(400):
        n = rng.randint(0, 12)
        dense = random_dense(rng, n, rng.random() < 0.5)
        rows = rows_from_dense(dense)
        inv = gf2.inverse(rows)
        if naive_rank(dense) < n:
            assert inv is None
            singular += 1
            continue
        # M * M^-1 = I: row i of the product is the XOR of the inverse's rows
        # picked by the bits of row i of M
        for i, r in enumerate(rows):
            acc = 0
            for j in range(n):
                if r >> j & 1:
                    acc ^= inv[j]
            assert acc == 1 << i
    assert 0 < singular < 400


def test_dimension_cap():
    gf2.check_dim(gf2.DIM_LIMIT)
    with pytest.raises(ResourceLimitError, match=f"dimension {gf2.DIM_LIMIT + 1} "):
        gf2.check_dim(gf2.DIM_LIMIT + 1)
