import hashlib
import random

import pytest

from graphlink import (
    LabeledGraph,
    are_equivalent_bounded,
    bfs_orbit,
    canonical_form,
    canonical_permutation,
    is_graph_knot,
    kauffman_bracket,
)
from graphlink import invariants, moves, orbit
from graphlink.invariants import brackets_unit_equivalent
from graphlink.laurent import span
from graphlink.moves import MoveKind, MoveSite, apply
from graphlink.orbit import DISTINCT, EQUIVALENT, UNKNOWN

from helpers import brute_force_isomorphic, g7, random_graph, shuffled


def test_canonical_form_invariant_under_permutations():
    rng = random.Random(51)
    g = g7()
    key = canonical_form(g)
    for _ in range(100):
        assert canonical_form(shuffled(rng, g)) == key


def test_canonical_form_simple_equalities():
    a = LabeledGraph.from_edges("+-")
    b = LabeledGraph.from_edges("-+")
    assert canonical_form(a) == canonical_form(b)
    k2 = LabeledGraph.from_edges("++", [(0, 1)])
    pair = LabeledGraph.from_edges("++")
    assert canonical_form(k2) != canonical_form(pair)


def test_canonical_form_agrees_with_brute_force_isomorphism():
    rng = random.Random(52)
    for _ in range(800):
        n = rng.randint(0, 5)
        g1 = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        g2 = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert (canonical_form(g1) == canonical_form(g2)) == brute_force_isomorphic(
            g1, g2
        )


def test_canonical_permutation_reconstructs_key():
    rng = random.Random(53)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8))
        key, perm = canonical_permutation(g)
        assert canonical_form(g.relabel(list(perm))) == key
        # two isomorphic copies canonicalize to the same relabeled graph
        h = shuffled(rng, g)
        hkey, hperm = canonical_permutation(h)
        assert hkey == key
        assert h.relabel(list(hperm)) == g.relabel(list(perm))


def test_canonical_form_handles_twin_heavy_graphs():
    # all-isolated and complete same-label graphs collapse via twin classes
    iso = LabeledGraph.from_edges("+" * 10)
    assert canonical_form(iso) == canonical_form(iso.relabel(list(reversed(range(10)))))
    comp = LabeledGraph.from_edges(
        "-" * 8, [(i, j) for i in range(8) for j in range(i + 1, 8)]
    )
    assert canonical_form(comp) == canonical_form(comp.relabel(list(reversed(range(8)))))


def test_bfs_orbit_from_empty_contains_both_single_vertices():
    rep = bfs_orbit(LabeledGraph.empty(), max_vertices=2, max_depth=4)
    keys = {canonical_form(LabeledGraph.from_edges(s)) for s in ("+", "-")}
    assert keys <= set(rep.nodes)
    assert rep.min_vertices == 0


def test_bfs_orbit_dedupes_by_canonical_key():
    rep = bfs_orbit(g7(), max_vertices=8, max_depth=2)
    # keys unique by construction; graphs behind distinct keys are non-isomorphic
    graphs = [node.graph for node in rep.nodes.values()]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if graphs[i].n == graphs[j].n and graphs[i].n <= 5:
                assert not brute_force_isomorphic(graphs[i], graphs[j])


def _grown_g7() -> LabeledGraph:
    g = apply(g7(), MoveSite(MoveKind.R2_ADD, neighborhood=frozenset({0, 3})))
    return apply(g, MoveSite(MoveKind.R1_ADD, label=-1))


@pytest.mark.parametrize(
    "start, max_vertices, max_depth, max_states, report, digest",
    [
        (g7, 9, 3, 10**6,
         '{"visited": 15, "min_vertices": 7, "truncated": false, "witness_path": ""}',
         "49950cb58f6eb11bed9f4bde890cffde"),
        (_grown_g7, 10, 3, 60,
         '{"visited": 60, "min_vertices": 7, "truncated": true, '
         '"witness_path": "R2_remove 8 9\\nR1_remove 8"}',
         "69028f12d34f1e140c455427ca3764c0"),
    ],
    ids=["g7", "grown-g7-truncated"],
)
def test_bfs_orbit_canonicalizes_each_raw_child_once(
    monkeypatch, start, max_vertices, max_depth, max_states, report, digest
):
    children: list[LabeledGraph] = []
    canonicalized: list[LabeledGraph] = []
    real_apply, real_canonical_form = moves.apply, orbit.canonical_form

    def spy_apply(g, site):
        child = real_apply(g, site)
        children.append(child)
        return child

    def spy_canonical_form(g):
        canonicalized.append(g)
        return real_canonical_form(g)

    monkeypatch.setattr(moves, "apply", spy_apply)
    monkeypatch.setattr(orbit, "canonical_form", spy_canonical_form)
    g = start()
    rep = bfs_orbit(g, max_vertices=max_vertices, max_depth=max_depth, max_states=max_states)

    in_bound = [c for c in children if c.n <= max_vertices]
    distinct = {(c.labels, c.adj) for c in in_bound} - {(g.labels, g.adj)}
    assert len(canonicalized) == 1 + len(distinct) < 1 + len(in_bound)
    # the visited set, depths, paths, truncation and witness are frozen
    # from the BFS that canonicalized every child
    assert rep.to_json() == report
    h = hashlib.sha256()
    for key in sorted(rep.nodes):
        node = rep.nodes[key]
        h.update(key + bytes([node.depth]) + moves.format_script(node.path).encode() + b"\0")
    assert h.hexdigest()[:32] == digest


def test_bfs_orbit_witness_path_replays():
    from graphlink.moves import apply_script

    g = LabeledGraph.from_edges("++", [])
    rep = bfs_orbit(g, max_vertices=4, max_depth=4)
    assert rep.min_vertices == 0
    target = apply_script(g, rep.witness_path)
    assert target.n == 0


def test_bfs_orbit_truncation_flag():
    rep = bfs_orbit(g7(), max_vertices=9, max_depth=4, max_states=3)
    assert rep.truncated
    assert rep.visited <= 4


def test_bfs_orbit_json_fields():
    rep = bfs_orbit(LabeledGraph.empty(), max_vertices=1, max_depth=1)
    obj = rep.to_json_obj()
    assert set(obj) == {"visited", "min_vertices", "truncated", "witness_path"}


def test_orbit_brackets_equal_up_to_units():
    base = LabeledGraph.from_edges("-+", [(0, 1)])
    rep = bfs_orbit(base, max_vertices=4, max_depth=3)
    reference = kauffman_bracket(base)
    for node in rep.nodes.values():
        b = kauffman_bracket(node.graph)
        assert brackets_unit_equivalent(reference, b)
        assert span(b) == span(reference)
        assert is_graph_knot(node.graph) == is_graph_knot(base)


def test_are_equivalent_single_vertex_labels():
    plus = LabeledGraph.from_edges("+")
    minus = LabeledGraph.from_edges("-")
    assert are_equivalent_bounded(plus, minus, max_depth=3) == EQUIVALENT
    assert are_equivalent_bounded(LabeledGraph.empty(), plus, max_depth=3) == EQUIVALENT


def test_are_equivalent_computes_each_bracket_once(monkeypatch):
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g)
        return kauffman_bracket(g, *args, **kwargs)

    monkeypatch.setattr(invariants, "kauffman_bracket", counted)
    monkeypatch.setattr(orbit, "kauffman_bracket", counted)
    plus = LabeledGraph.from_edges("+")
    minus = LabeledGraph.from_edges("-")
    # both graph-knots with unit-equivalent brackets, so Jones is compared too
    assert are_equivalent_bounded(plus, minus, max_depth=3) == EQUIVALENT
    assert calls == [plus, minus]


def test_are_equivalent_distinct_by_invariant():
    k2 = LabeledGraph.from_edges("++", [(0, 1)])
    assert are_equivalent_bounded(k2, LabeledGraph.empty(), max_depth=2) == DISTINCT


def test_are_equivalent_permuted_graph_is_depth_zero():
    rng = random.Random(54)
    g = random_graph(rng, 7)
    assert are_equivalent_bounded(g, shuffled(rng, g), max_depth=0) == EQUIVALENT


def test_are_equivalent_unknown_within_tiny_bounds():
    # same invariants (R2 padding preserves the bracket exactly), orbits
    # kept too small to meet
    g1 = g7()
    g2 = apply(g7(), MoveSite(MoveKind.R2_ADD, neighborhood=frozenset({0})))
    verdict = are_equivalent_bounded(g1, g2, max_depth=0)
    assert verdict == UNKNOWN
    # and with room to move, the same pair is recognized
    assert are_equivalent_bounded(g1, g2, max_depth=1) == EQUIVALENT


def test_graph_knot_status_constant_across_orbit():
    rng = random.Random(55)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 6))
        rep = bfs_orbit(g, max_vertices=g.n + 2, max_depth=2, max_states=200)
        statuses = {is_graph_knot(node.graph) for node in rep.nodes.values()}
        assert len(statuses) == 1
