import json
import random

import pytest

import graphlink
from graphlink import (
    LabeledGraph,
    a_state,
    alpha,
    b_state,
    circle_count,
    graph,
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
    assert circle_count(g, 0) == 1
    k2 = LabeledGraph.from_edges("++", [(0, 1)])
    assert circle_count(k2, 0b11) == 1
    assert circle_count(g, a_state(g)) == 5
    assert circle_count(g, b_state(g)) == 4
    with pytest.raises(ValueError, match="outside the graph"):
        circle_count(g, 1 << 7)
    with pytest.raises(ValueError, match="outside the graph"):
        circle_count(g, -1)


def test_alpha_examples():
    plus = LabeledGraph.from_edges("+")
    assert alpha(plus, 0) == 1
    assert alpha(plus, 0b1) == 0
    g = g7()
    assert alpha(g, a_state(g)) == 7


def test_states_of_g7():
    g = g7()
    assert a_state(g) == 0b1010101
    assert b_state(g) == 0b0101010


def test_alpha_splits_n_between_opposite_states():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10))
        s = rng.getrandbits(g.n) if g.n else 0
        assert alpha(g, s) + alpha(g, s ^ (1 << g.n) - 1) == g.n


def test_circle_count_bounds():
    rng = random.Random(3)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10))
        s = rng.getrandbits(g.n) if g.n else 0
        assert 1 <= circle_count(g, s) <= s.bit_count() + 1


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


def dense_accepts(n, labels, adj):
    """The constructor's conditions, checked entry by entry over the dense
    n x n matrix."""
    if len(labels) != n or len(adj) != n or any(s not in (1, -1) for s in labels):
        return False
    if any(row < 0 or row >= 1 << n for row in adj):
        return False
    entry = [[(adj[i] >> j) & 1 for j in range(n)] for i in range(n)]
    return all(entry[i][i] == 0 for i in range(n)) and all(
        entry[i][j] == entry[j][i] for i in range(n) for j in range(n)
    )


def test_constructor_accepts_exactly_what_a_dense_check_accepts():
    rng = random.Random(8)
    seen = {True: set(), False: set()}
    for _ in range(2000):
        n = rng.randint(1, 9)
        adj = list(random_graph(rng, n, rng.choice([0.2, 0.5, 0.8])).adj)
        labels = tuple(rng.choice((1, -1)) for _ in range(n))
        kind = rng.choice(["symmetric", "flip", "loop", "high", "negative"])
        v = rng.randrange(n)
        if kind == "flip":
            adj[v] ^= 1 << rng.randrange(n)
        elif kind == "loop":
            adj[v] |= 1 << v
        elif kind == "high":
            adj[v] |= 1 << rng.randint(n, n + 3)
        elif kind == "negative":
            adj[v] = ~adj[v]
        want = dense_accepts(n, labels, adj)
        try:
            LabeledGraph(n, labels, tuple(adj))
            got = True
        except ValueError:
            got = False
        assert got == want, (n, labels, adj)
        seen[want].add(kind)
    assert seen[True] == {"symmetric"}
    assert seen[False] == {"flip", "loop", "high", "negative"}


def test_star_import_binds_all_and_no_state_type():
    namespace: dict = {}
    exec("from graphlink import *", namespace)
    assert set(graphlink.__all__) <= namespace.keys()
    for name in ("State", "opposite"):
        assert name not in graphlink.__all__ and name not in namespace
        assert not hasattr(graphlink, name) and not hasattr(graph, name)


def test_degenerate_empty_graph_is_legal_everywhere():
    g = LabeledGraph.empty()
    assert serialize(g) == "0;;"
    assert circle_count(g, 0) == 1
    assert alpha(g, 0) == 0


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
