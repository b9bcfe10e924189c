"""Acceptance suite: one test per criterion, exact integer equality
throughout, each printing a PASS line when its assertions hold.

Criteria and tolerances are pinned here; seeds are fixed so every run
checks the same instances.
"""

import random

from graphlink import (
    LabeledGraph,
    analyze,
    bfs_orbit,
    bracket_via_surgery,
    canonical_form,
    corank,
    intersection_graph,
    is_graph_knot,
    jones,
    kauffman_bracket,
    realizability_search,
    surgery_circle_count,
    writhe,
)
from graphlink.generate import (
    random_chord_diagram,
    random_labeled_graph,
    random_unknot_graph,
)
from graphlink.laurent import mono, one, span
from graphlink.moves import MoveKind, MoveSite, apply, enumerate_sites

from helpers import dense_adjacency, g7, naive_rank, shuffled

INVARIANT_KINDS = (
    MoveKind.R2_ADD,
    MoveKind.R2_REMOVE,
    MoveKind.R3_FWD,
    MoveKind.R3_INV,
    MoveKind.R4,
)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_unit_values():
    assert kauffman_bracket(LabeledGraph.empty()) == one()
    assert kauffman_bracket(LabeledGraph.from_edges("+")) == mono(-1, -3)
    assert kauffman_bracket(LabeledGraph.from_edges("-")) == mono(-1, 3)
    report("1 (unit bracket values)")


def test_criterion_2_bracket_invariance_500_graphs():
    rng = random.Random(20001)
    sites_checked = 0
    for _ in range(500):
        g = random_labeled_graph(rng, rng.randint(0, 10))
        before = kauffman_bracket(g)
        for kind in INVARIANT_KINDS:
            for site in enumerate_sites(g, {kind})[:5]:
                assert kauffman_bracket(apply(g, site)) == before
                sites_checked += 1
    assert sites_checked > 1000
    report(f"2 (bracket invariance, 500 graphs, {sites_checked} sites)")


def test_criterion_3_r1_unit_law_200_trials():
    rng = random.Random(20002)
    for _ in range(200):
        g = random_labeled_graph(rng, rng.randint(0, 9))
        before = kauffman_bracket(g)
        after_plus = kauffman_bracket(apply(g, MoveSite(MoveKind.R1_ADD, label=1)))
        after_minus = kauffman_bracket(apply(g, MoveSite(MoveKind.R1_ADD, label=-1)))
        assert after_plus == before * mono(-1, -3)
        assert after_minus == before * mono(-1, 3)
    report("3 (R1 unit law, 200 trials)")


def test_criterion_4_writhe_and_jones_laws_200_graph_knots():
    rng = random.Random(20003)
    for _ in range(200):
        g = random_unknot_graph(rng, rng.randint(0, 14), max_vertices=9)
        assert is_graph_knot(g)
        w = writhe(g)
        x = jones(g)
        assert x == one()  # the entire walk stays on the unknot orbit
        for kind in INVARIANT_KINDS:
            for site in enumerate_sites(g, {kind})[:3]:
                h = apply(g, site)
                assert writhe(h) == w
                assert jones(h) == x
        for label, delta in ((1, -1), (-1, 1)):
            h = apply(g, MoveSite(MoveKind.R1_ADD, label=label))
            assert writhe(h) == w + delta
            assert jones(h) == x
    report("4 (writhe/Jones laws, 200 graph-knots)")


def test_criterion_5_surgery_oracle():
    rng = random.Random(20004)
    for _ in range(200):
        d = random_chord_diagram(rng, rng.randint(0, 9))
        g = intersection_graph(d)
        for mask in range(1 << d.n):
            chords = [c + 1 for c in range(d.n) if (mask >> c) & 1]
            want = corank([g.adj[c - 1] & mask for c in chords]) + 1
            assert surgery_circle_count(d, chords) == want
    for _ in range(100):
        d = random_chord_diagram(rng, rng.randint(0, 9))
        assert bracket_via_surgery(d) == kauffman_bracket(intersection_graph(d))
    report("5 (surgery circle-count oracle, 200+100 diagrams)")


def test_criterion_6_span_bounds_500_graphs():
    rng = random.Random(20005)
    alternating_seen = 0
    adequate_seen = 0
    for _ in range(500):
        g = random_labeled_graph(rng, rng.randint(0, 10), rng.choice([0.15, 0.4, 0.7]))
        rep = analyze(g)
        assert rep.k + rep.l <= g.n + 2
        assert rep.span is not None
        assert rep.span <= 4 * g.n - 4 * rep.genus
        if rep.adequate:
            adequate_seen += 1
            assert rep.span == 4 * g.n - 4 * rep.genus
        if rep.alternating and rep.non_split:
            alternating_seen += 1
            assert rep.adequate
    assert adequate_seen > 0 and alternating_seen > 0
    report(
        f"6 (span bounds, 500 graphs, {adequate_seen} adequate, "
        f"{alternating_seen} alternating non-split)"
    )


def test_criterion_7_g7_golden_suite():
    g = g7()
    rep = analyze(g)
    assert rep.n == 7
    assert rep.k == 5 and rep.l == 4
    assert rep.genus == 0
    assert rep.alternating and rep.non_split and rep.adequate
    assert rep.span == 28
    assert rep.vertex_lower_bound == 7
    assert rep.minimal_certified
    # graph-knot status against an independent dense elimination
    dense = dense_adjacency(g)
    dense_ae = [
        [dense[i][j] ^ (1 if i == j else 0) for j in range(7)] for i in range(7)
    ]
    assert 7 - naive_rank(dense_ae) == 3
    assert not is_graph_knot(g)
    # exhaustive non-realizability over all pinned matchings
    res = realizability_search(g)
    assert res.diagram is None
    assert res.exhausted
    assert res.checked == 135135
    report("7 (G7 golden suite incl. 135135-matching non-realizability)")


def test_criterion_8_move_mechanics_200_each():
    rng = random.Random(20006)
    done = 0
    while done < 200:  # R4 involution
        g = random_labeled_graph(rng, rng.randint(2, 9))
        if not g.edges:
            continue
        site = MoveSite(MoveKind.R4, rng.choice(g.edges))
        assert apply(apply(g, site), site) == g
        done += 1
    done = 0
    while done < 200:  # R3 forward/inverse round trip on constructed sites
        base = random_labeled_graph(rng, rng.randint(2, 8))
        pairs = [
            (v, w)
            for v in range(base.n)
            for w in range(v + 1, base.n)
            if not base.has_edge(v, w)
        ]
        if not pairs:
            continue
        v, w = rng.choice(pairs)
        labels = list(base.labels) + [-1]
        labels[v] = labels[w] = -1
        g = LabeledGraph.from_edges(
            tuple(labels), list(base.edges) + [(v, base.n), (w, base.n)]
        )
        h = apply(g, MoveSite(MoveKind.R3_FWD, (base.n, v, w)))
        assert apply(h, MoveSite(MoveKind.R3_INV, (base.n, v, w))) == g
        done += 1
    for _ in range(200):  # R2 add/remove round trip
        g = random_labeled_graph(rng, rng.randint(0, 8))
        nb = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        h = apply(g, MoveSite(MoveKind.R2_ADD, neighborhood=nb))
        assert apply(h, MoveSite(MoveKind.R2_REMOVE, (g.n, g.n + 1))) == g
    report("8 (move mechanics, 200 instances each)")


def test_criterion_9_canonicalization_100_graphs_50_perms():
    rng = random.Random(20007)
    for _ in range(100):
        g = random_labeled_graph(rng, rng.randint(0, 9))
        key = canonical_form(g)
        for _ in range(50):
            assert canonical_form(shuffled(rng, g)) == key
    report("9 (canonical form, 100 graphs x 50 permutations)")


def test_criterion_10_orbit_consistency_from_g7():
    from graphlink.invariants import brackets_unit_equivalent

    base = kauffman_bracket(g7())
    rep = bfs_orbit(g7(), max_vertices=9, max_depth=4, max_states=10**6)
    assert rep.min_vertices >= 7
    spans = set()
    for node in rep.nodes.values():
        b = kauffman_bracket(node.graph)
        spans.add(span(b))
        assert brackets_unit_equivalent(base, b)
    assert spans == {28}
    report(
        f"10 (orbit evidence: {rep.visited} representatives, min 7 vertices, span 28)"
    )
