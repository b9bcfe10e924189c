import json
import random

import pytest

from graphlink import (
    LabeledGraph,
    State,
    a_state,
    alpha,
    b_state,
    circle_count,
    opposite,
    parse,
    serialize,
    to_json,
)
from graphlink.errors import ParseError
from graphlink.graph import from_json, parse_compact

from helpers import G7_TEXT, g7, random_graph


def test_parse_g7():
    g = g7()
    assert g.n == 7
    assert g.labels == (-1, 1, -1, 1, -1, 1, -1)
    # vertex 7 is adjacent to 2, 4, 6 and nothing else
    assert g.neighbors(6) == (1, 3, 5)
    assert len(g.edges) == 9


def test_circle_count_examples():
    g = g7()
    assert circle_count(g, State(0)) == 1
    k2 = LabeledGraph.from_edges("++", [(0, 1)])
    assert circle_count(k2, State.of([0, 1])) == 1
    assert circle_count(g, a_state(g)) == 5
    assert circle_count(g, b_state(g)) == 4
    with pytest.raises(ValueError, match="outside the graph"):
        circle_count(g, State(1 << 7))


def test_alpha_examples():
    plus = LabeledGraph.from_edges("+")
    assert alpha(plus, State(0)) == 1
    assert alpha(plus, State.of([0])) == 0
    g = g7()
    assert alpha(g, a_state(g)) == 7


def test_states_of_g7():
    g = g7()
    assert a_state(g).members == (0, 2, 4, 6)
    assert b_state(g).members == (1, 3, 5)
    assert opposite(g, a_state(g)) == b_state(g)


def test_opposite_and_distance():
    g = random_graph(random.Random(1), 6)
    assert opposite(g, State(0)).members == tuple(range(6))
    s = State.of([1, 3])
    assert opposite(g, s).mask ^ s.mask == (1 << 6) - 1
    assert opposite(g, opposite(g, s)) == s


def test_alpha_splits_n_between_opposite_states():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10))
        mask = rng.getrandbits(g.n) if g.n else 0
        s = State(mask)
        assert alpha(g, s) + alpha(g, opposite(g, s)) == g.n


def test_circle_count_bounds():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10))
        s = State(rng.getrandbits(g.n) if g.n else 0)
        assert 1 <= circle_count(g, s) <= s.size() + 1


def test_a_b_state_circles_bounded_1000_random_graphs():
    rng = random.Random(4)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 12), rng.choice([0.2, 0.4, 0.7]))
        k = circle_count(g, a_state(g))
        l = circle_count(g, b_state(g))
        assert k + l <= g.n + 2


def test_parse_trivia():
    assert parse("0;;") == LabeledGraph.empty()
    assert parse("1;+;") == LabeledGraph.from_edges("+")


def test_serialize_round_trip_normalizes():
    g = parse(G7_TEXT)
    text = serialize(g)
    assert text == "7;-+-+-+-;1-2,1-6,2-3,2-7,3-4,4-5,4-7,5-6,6-7"
    assert parse(text) == g


def test_round_trip_random_graphs_both_formats():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12))
        assert parse(serialize(g)) == g
        assert parse(to_json(g)) == g


def test_json_format_fields():
    g = LabeledGraph.from_edges("+-", [(0, 1)])
    obj = json.loads(to_json(g))
    assert obj == {"n": 2, "labels": [1, -1], "edges": [[1, 2]]}
    assert from_json(to_json(g)) == g


def test_parse_errors_name_positions():
    with pytest.raises(ParseError, match="two ';'"):
        parse_compact("3;+++")
    with pytest.raises(ParseError, match="label"):
        parse_compact("2;+;")
    with pytest.raises(ParseError, match="loop"):
        parse_compact("2;++;1-1")
    with pytest.raises(ParseError, match="duplicate"):
        parse_compact("2;++;1-2,2-1")
    with pytest.raises(ParseError, match="out of range"):
        parse_compact("2;++;1-3")
    with pytest.raises(ParseError, match="not an integer"):
        parse_compact("x;+;")
    with pytest.raises(ParseError, match="malformed"):
        parse_compact("2;++;1+2")


def test_json_parse_errors():
    with pytest.raises(ParseError):
        from_json("{nope")
    with pytest.raises(ParseError, match="missing field"):
        from_json('{"n": 1, "labels": [1]}')
    with pytest.raises(ParseError, match="loop"):
        from_json('{"n": 1, "labels": [1], "edges": [[1, 1]]}')
    with pytest.raises(ParseError, match="labels"):
        from_json('{"n": 2, "labels": [1, 0], "edges": []}')


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        LabeledGraph.from_edges("++", [(0, 0)])
    with pytest.raises(ValueError):
        LabeledGraph(1, (2,), (0,))
    with pytest.raises(ValueError, match="symmetric"):
        LabeledGraph(2, (1, 1), (2, 0))


def test_degenerate_empty_graph_is_legal_everywhere():
    g = LabeledGraph.empty()
    assert serialize(g) == "0;;"
    assert circle_count(g, State(0)) == 1
    assert alpha(g, State(0)) == 0


def test_relabel_round_trip():
    rng = random.Random(6)
    g = random_graph(rng, 8)
    perm = list(range(8))
    rng.shuffle(perm)
    h = g.relabel(perm)
    inv = [0] * 8
    for i, p in enumerate(perm):
        inv[p] = i
    assert h.relabel(inv) == g
