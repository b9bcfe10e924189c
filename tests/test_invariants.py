import random

import pytest

from graphlink import (
    LabeledGraph,
    analyze,
    gf2,
    is_graph_knot,
    jones,
    kauffman_bracket,
    writhe,
)
from graphlink.errors import DomainError, ResourceLimitError
from graphlink.invariants import _reduced_components, _state_sum, brackets_unit_equivalent
from graphlink.laurent import LaurentPoly, mono, one, span
from graphlink.moves import MoveKind, MoveSite, apply, enumerate_sites

from helpers import as_dict, bracket_reference, g7, random_graph, shuffled, writhe_reference


def test_unit_brackets():
    assert kauffman_bracket(LabeledGraph.empty()) == one()
    assert kauffman_bracket(LabeledGraph.from_edges("+")) == mono(-1, -3)
    assert kauffman_bracket(LabeledGraph.from_edges("-")) == mono(-1, 3)


def test_k2_bracket_hand_sum():
    # states: {} -> a^2, two singletons -> loop factor each, both -> a^-2
    k2 = LabeledGraph.from_edges("++", [(0, 1)])
    assert kauffman_bracket(k2) == LaurentPoly(((2, -1), (-2, -1)))


def test_bracket_matches_reference_oracle():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 7), rng.choice([0.2, 0.5, 0.8]))
        assert as_dict(kauffman_bracket(g)) == bracket_reference(g)


def test_whole_graph_brackets_n12_to_16_match_reference():
    # connected graphs with no R2 pair: each is one state sum over all 2^n
    rng = random.Random(32)
    for n in range(12, 17):
        g = random_graph(rng, n, 0.5)
        while _reduced_components(g) != [g]:
            g = random_graph(rng, n, 0.5)
        assert as_dict(kauffman_bracket(g)) == bracket_reference(g), g


def _union(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    k = g.n
    edges = list(g.edges) + [(u + k, v + k) for u, v in h.edges]
    return LabeledGraph.from_edges(g.labels + h.labels, edges)


def _grown(rng: random.Random, g: LabeledGraph, extra: int) -> LabeledGraph:
    """g plus ``extra`` vertices: isolated ones and R2 pairs whose
    neighbourhoods may take in earlier pairs, in shuffled vertex order."""
    while extra > 0:
        if extra == 1 or rng.random() < 0.3:
            g = apply(g, MoveSite(MoveKind.R1_ADD, label=rng.choice((1, -1))))
            extra -= 1
        else:
            nb = frozenset(t for t in range(g.n) if rng.random() < 0.4)
            g = apply(g, MoveSite(MoveKind.R2_ADD, neighborhood=nb))
            extra -= 2
    return shuffled(rng, g)


def test_reduced_bracket_matches_reference_oracle():
    rng = random.Random(39)
    for trial in range(90):
        shape = trial % 3
        if shape == 0:
            base = random_graph(rng, rng.randint(0, 5))
            g = _grown(rng, base, rng.randint(0, 10 - base.n))
        elif shape == 1:
            k = rng.randint(0, 5)
            g = _union(random_graph(rng, k), random_graph(rng, rng.randint(0, 10 - k), 0.6))
        else:
            grown = _grown(rng, LabeledGraph.empty(), 6)
            g = shuffled(rng, _union(random_graph(rng, 4, 0.7), grown))
        assert as_dict(kauffman_bracket(g)) == bracket_reference(g)


def test_reduced_bracket_of_empty_and_edgeless_graphs():
    assert _reduced_components(LabeledGraph.empty()) == []
    for labels in ("+-+", "++++", "--+--", "+-" * 5):
        g = LabeledGraph.from_edges(labels)
        assert as_dict(kauffman_bracket(g)) == bracket_reference(g)
    # twins pair off; what is left is one isolated vertex per surplus label
    parts = _reduced_components(LabeledGraph.from_edges("--+--"))
    assert parts == [LabeledGraph.from_edges("-")] * 3


def test_r2_pair_chain_reduces_to_the_base():
    # the second pair hangs on one vertex of the first, so the first is a
    # pair only once the second is gone
    base = g7()
    g = apply(base, MoveSite(MoveKind.R2_ADD, neighborhood=frozenset({0, 3})))
    g = apply(g, MoveSite(MoveKind.R2_ADD, neighborhood=frozenset({7, 2})))
    assert [s.vertices for s in enumerate_sites(g, {MoveKind.R2_REMOVE})] == [(9, 10)]
    assert _reduced_components(g) == [base]
    assert as_dict(kauffman_bracket(g)) == bracket_reference(g)


def test_reduced_bracket_equals_whole_graph_sweep():
    rng = random.Random(40)
    for n in range(12, 17):
        for g in (
            _grown(rng, random_graph(rng, 6, 0.5), n - 6),
            _union(random_graph(rng, 5, 0.6), random_graph(rng, n - 5, 0.3)),
        ):
            assert [part.n for part in _reduced_components(g)] != [n]
            assert kauffman_bracket(g) == _state_sum(g)


def test_bracket_resource_limit():
    g = LabeledGraph.from_edges("+" * 12)
    with pytest.raises(ResourceLimitError):
        kauffman_bracket(g, max_n=10)


def test_bracket_invariant_under_moves():
    rng = random.Random(33)
    kinds = {
        MoveKind.R2_ADD,
        MoveKind.R2_REMOVE,
        MoveKind.R3_FWD,
        MoveKind.R3_INV,
        MoveKind.R4,
        MoveKind.R5_EXPAND,
        MoveKind.R5_CONTRACT,
    }
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 8))
        before = kauffman_bracket(g)
        for site in enumerate_sites(g, kinds)[:6]:
            assert kauffman_bracket(apply(g, site)) == before


def test_r1_unit_law():
    rng = random.Random(34)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8))
        before = kauffman_bracket(g)
        plus = apply(g, MoveSite(MoveKind.R1_ADD, label=1))
        minus = apply(g, MoveSite(MoveKind.R1_ADD, label=-1))
        assert kauffman_bracket(plus) == before * mono(-1, -3)
        assert kauffman_bracket(minus) == before * mono(-1, 3)


def test_is_graph_knot_examples():
    assert is_graph_knot(LabeledGraph.empty())
    assert not is_graph_knot(LabeledGraph.from_edges("++", [(0, 1)]))
    assert not is_graph_knot(g7())


def test_writhe_examples():
    assert writhe(LabeledGraph.empty()) == 0
    assert writhe(LabeledGraph.from_edges("+")) == -1
    assert writhe(LabeledGraph.from_edges("-")) == 1


def test_writhe_domain_error():
    with pytest.raises(DomainError):
        writhe(LabeledGraph.from_edges("++", [(0, 1)]))
    with pytest.raises(DomainError):
        jones(g7())


def test_writhe_matches_per_flip_reference():
    # one inverse against n + 1 coranks, on 1500 seeded graph-knots
    rng = random.Random(33)
    knots = 0
    while knots < 1500:
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        want = writhe_reference(g)
        if want is None:
            assert not is_graph_knot(g)
            with pytest.raises(DomainError, match="only for graph-knots"):
                writhe(g)
            continue
        assert writhe(g) == want, g
        knots += 1


def test_writhe_dimension_limit():
    # A + E of an edgeless graph is the identity, so every vertex counts -sign
    n = gf2.DIM_LIMIT
    g = LabeledGraph.from_edges("+-" * (n // 2))
    assert writhe(g) == 0 and writhe(LabeledGraph.from_edges("+" * n)) == -n
    with pytest.raises(ResourceLimitError, match=f"dimension {n + 1} "):
        writhe(LabeledGraph.from_edges("+" * (n + 1)))


def test_jones_examples():
    assert jones(LabeledGraph.empty()) == one()
    assert jones(LabeledGraph.from_edges("+")) == one()
    assert jones(LabeledGraph.from_edges("-")) == one()


def test_analyze_g7_golden():
    rep = analyze(g7())
    assert rep.n == 7
    assert (rep.k, rep.l) == (5, 4)
    assert rep.genus == 0
    assert rep.alternating and rep.non_split and rep.adequate
    assert not rep.graph_knot
    assert rep.span == 28
    assert rep.vertex_lower_bound == 7
    assert rep.minimal_certified


def test_analyze_empty_graph():
    rep = analyze(LabeledGraph.empty())
    assert (rep.k, rep.l) == (1, 1)
    assert rep.genus == 0
    assert rep.alternating and rep.non_split and rep.adequate
    assert rep.graph_knot
    assert rep.span == 0
    assert rep.minimal_certified


def test_analyze_isolated_vertex():
    rep = analyze(LabeledGraph.from_edges("+"))
    assert not rep.non_split
    assert not rep.minimal_certified


def test_analyze_oversized_graph_omits_span():
    g = LabeledGraph.from_edges("+" * 10)
    rep = analyze(g, max_n=6)
    assert rep.span is None and rep.vertex_lower_bound is None
    assert rep.n == 10  # the corank-only fields still computed


def test_analyze_report_json_field_names():
    obj = analyze(LabeledGraph.empty()).to_json_obj()
    assert list(obj) == [
        "n",
        "k",
        "l",
        "genus",
        "alternating",
        "adequate",
        "non_split",
        "graph_knot",
        "span",
        "vertex_lower_bound",
        "minimal_certified",
    ]


def test_span_bound_and_adequacy_relations():
    rng = random.Random(35)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9))
        rep = analyze(g)
        assert rep.k + rep.l <= g.n + 2
        assert rep.genus >= 0
        assert rep.span is not None
        assert rep.span <= 4 * g.n - 4 * rep.genus
        if rep.adequate:
            assert rep.span == 4 * g.n - 4 * rep.genus
        if rep.alternating and rep.non_split:
            assert rep.adequate
        assert rep.alternating == (rep.genus == 0)


def test_graph_knot_constant_along_move_orbits():
    rng = random.Random(36)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8))
        status = is_graph_knot(g)
        for site in enumerate_sites(g)[:8]:
            assert is_graph_knot(apply(g, site)) == status


def test_writhe_invariance_and_r1_shift():
    rng = random.Random(37)
    checked = 0
    while checked < 60:
        g = random_graph(rng, rng.randint(0, 8))
        if not is_graph_knot(g):
            continue
        checked += 1
        w = writhe(g)
        x = jones(g)
        for site in enumerate_sites(
            g,
            {
                MoveKind.R2_ADD,
                MoveKind.R2_REMOVE,
                MoveKind.R3_FWD,
                MoveKind.R3_INV,
                MoveKind.R4,
            },
        )[:6]:
            h = apply(g, site)
            assert writhe(h) == w
            assert jones(h) == x
        for label, delta in ((1, -1), (-1, 1)):
            h = apply(g, MoveSite(MoveKind.R1_ADD, label=label))
            assert writhe(h) == w + delta
            assert jones(h) == x


def test_brackets_unit_equivalent():
    p = kauffman_bracket(g7())
    assert brackets_unit_equivalent(p, p * mono(-1, 3))
    assert brackets_unit_equivalent(p, p * mono(1, 6))
    assert brackets_unit_equivalent(p, p * mono(-1, -9))
    assert not brackets_unit_equivalent(p, p * mono(1, 3))  # sign must track parity
    assert not brackets_unit_equivalent(p, p * mono(1, 2))
    assert not brackets_unit_equivalent(p, one())


def test_bracket_span_never_negative_and_even_genus_arithmetic():
    rng = random.Random(38)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8))
        rep = analyze(g)
        assert (rep.k + rep.l - g.n) % 2 == 0
        assert span(kauffman_bracket(g)) == rep.span
