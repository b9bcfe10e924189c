import random

import pytest

from graphlink import (
    ChordDiagram,
    LabeledGraph,
    bracket_via_surgery,
    corank,
    intersection_graph,
    kauffman_bracket,
    linked,
    parse_diagram,
    realizability_search,
    serialize,
    serialize_diagram,
    surgery_circle_count,
)
from graphlink.errors import DomainError, ParseError, ResourceLimitError
from graphlink.generate import random_chord_diagram
from graphlink.laurent import LaurentPoly, mono, one

from helpers import g7


def diagram(text):
    return parse_diagram(text)


def test_parse_and_serialize():
    d = diagram("1 2 1 2;+-")
    assert d.word == (1, 2, 1, 2)
    assert d.signs == (1, -1)
    assert serialize_diagram(d) == "1 2 1 2;+-"
    assert parse_diagram(serialize_diagram(d)) == d


def test_parse_errors():
    with pytest.raises(ParseError, match="one ';'"):
        parse_diagram("1 2 1 2")
    with pytest.raises(ParseError, match="chord id"):
        parse_diagram("1 x 1 2;++")
    with pytest.raises(ParseError, match="sign"):
        parse_diagram("1 2 1 2;+०".replace("०", "0"))
    with pytest.raises(ParseError, match="exactly twice"):
        parse_diagram("1 1 1 2;++")


def test_linked_examples():
    assert linked(diagram("1 2 1 2;++"), 1, 2)
    assert not linked(diagram("1 1 2 2;++"), 1, 2)
    d = diagram("1 2 3 1 2 3;+++")
    assert linked(d, 1, 2) and linked(d, 1, 3) and linked(d, 2, 3)
    with pytest.raises(DomainError):
        linked(d, 1, 1)


def test_intersection_graph_examples():
    assert intersection_graph(diagram("1 2 1 2;++")) == LabeledGraph.from_edges(
        "++", [(0, 1)]
    )
    assert intersection_graph(diagram("1 1 2 2;+-")) == LabeledGraph.from_edges("+-")


def test_same_intersection_graph_different_diagrams():
    # two genuinely different diagrams realizing one labeled graph
    d1 = diagram("1 1 2 3 4 2 3 4;+-+-")
    d2 = diagram("1 2 3 4 2 3 4 1;+-+-")
    assert d1 != d2
    g1 = intersection_graph(d1)
    assert g1 == intersection_graph(d2)
    assert serialize(g1) == "4;+-+-;2-3,2-4,3-4"
    # mutation blindness: equal graphs force equal brackets
    assert bracket_via_surgery(d1) == bracket_via_surgery(d2)


def test_surgery_forced_small_cases():
    assert surgery_circle_count(diagram("1 1;+"), []) == 1
    assert surgery_circle_count(diagram("1 1;+"), [1]) == 2
    assert surgery_circle_count(diagram("1 2 1 2;++"), [1, 2]) == 1
    assert surgery_circle_count(diagram("1 1 2 2;++"), [1, 2]) == 3


def test_surgery_empty_diagram():
    d = ChordDiagram((), ())
    assert surgery_circle_count(d, []) == 1
    assert bracket_via_surgery(d) == one()


def test_surgery_successor_is_permutation():
    rng = random.Random(41)
    for _ in range(50):
        d = random_chord_diagram(rng, rng.randint(1, 8))
        mask = rng.getrandbits(d.n)
        chords = [c + 1 for c in range(d.n) if (mask >> c) & 1]
        match = list(range(2 * d.n))
        for c in chords:
            p, q = d.endpoints(c)
            match[p], match[q] = q, p
        nxt = [(match[x] + 1) % (2 * d.n) for x in range(2 * d.n)]
        assert sorted(nxt) == list(range(2 * d.n))


def test_circle_count_formula_on_substates():
    rng = random.Random(42)
    for _ in range(60):
        d = random_chord_diagram(rng, rng.randint(0, 8))
        g = intersection_graph(d)
        for mask in range(1 << d.n):
            chords = [c + 1 for c in range(d.n) if (mask >> c) & 1]
            want = corank([g.adj[c - 1] & mask for c in chords]) + 1
            assert surgery_circle_count(d, chords) == want


def test_bracket_via_surgery_examples():
    assert bracket_via_surgery(diagram("1 1;+")) == mono(-1, -3)
    assert bracket_via_surgery(diagram("1 1;-")) == mono(-1, 3)
    assert bracket_via_surgery(diagram("1 2 1 2;++")) == LaurentPoly(
        ((2, -1), (-2, -1))
    )


def test_bracket_via_surgery_matches_graph_bracket():
    rng = random.Random(43)
    for _ in range(60):
        d = random_chord_diagram(rng, rng.randint(0, 8))
        assert bracket_via_surgery(d) == kauffman_bracket(intersection_graph(d))


def test_bracket_via_surgery_resource_limit():
    rng = random.Random(44)
    d = random_chord_diagram(rng, 6)
    with pytest.raises(ResourceLimitError):
        bracket_via_surgery(d, max_n=5)


def test_realizability_k2():
    res = realizability_search(LabeledGraph.from_edges("++", [(0, 1)]))
    assert res.diagram is not None
    assert intersection_graph(res.diagram) == LabeledGraph.from_edges("++", [(0, 1)])


def test_realizability_p3():
    from graphlink import canonical_form

    p3 = LabeledGraph.from_edges("+++", [(0, 1), (1, 2)])
    res = realizability_search(p3)
    assert res.diagram is not None
    got = intersection_graph(res.diagram)
    assert canonical_form(got) == canonical_form(p3)


def test_realizability_round_trip_random_diagrams():
    from graphlink import canonical_form

    rng = random.Random(45)
    for _ in range(25):
        d = random_chord_diagram(rng, rng.randint(0, 5))
        g = intersection_graph(d)
        res = realizability_search(g)
        assert res.diagram is not None
        h = intersection_graph(res.diagram)
        # witness is label-preservingly isomorphic to the target
        assert canonical_form(h) == canonical_form(g)
        assert kauffman_bracket(h) == kauffman_bracket(g)


def test_realizability_budget_truncation():
    res = realizability_search(g7(), budget=100)
    assert res.diagram is None
    assert not res.exhausted
    assert res.checked == 100


def test_realizability_resource_limit():
    big = LabeledGraph.from_edges("+" * 9)
    with pytest.raises(ResourceLimitError):
        realizability_search(big)


def test_realizability_empty_graph():
    res = realizability_search(LabeledGraph.empty())
    assert res.diagram == ChordDiagram((), ())


def test_two_linked_chords_circle_count_matches_graph_side():
    # the 2-chord diagram behind the K2 circle-count golden value
    from graphlink import circle_count

    d = diagram("1 2 1 2;++")
    g = intersection_graph(d)
    assert circle_count(g, 0b11) == surgery_circle_count(d, [1, 2]) == 1
