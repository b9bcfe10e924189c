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
from graphlink.invariants import brackets_unit_equivalent
from graphlink.laurent import LaurentPoly, mono, one, span
from graphlink.moves import MoveKind, MoveSite, apply, enumerate_sites

from helpers import as_dict, bracket_reference, g7, random_graph


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


def test_bracket_thread_count_is_unobservable(monkeypatch):
    rng = random.Random(32)
    g = random_graph(rng, 9)
    base = kauffman_bracket(g)
    assert base == kauffman_bracket(g, threads=4)
    monkeypatch.setattr(gf2, "BLOCK_BITS", 4)  # 32 blocks in the sweep and the tally
    assert base == kauffman_bracket(g, threads=4)


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
