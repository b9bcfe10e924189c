"""Classical links as braid closures: the graph of a one-circle state's
chord diagram must carry the diagram's own bracket, knottedness, writhe and
Jones polynomial."""

import random

from graphlink import intersection_graph, is_graph_knot, jones, kauffman_bracket, writhe

from helpers import as_dict, braid_bracket, braid_diagram, braid_is_knot


def closure_graph(word, strands):
    return intersection_graph(braid_diagram(word, strands))


def test_right_handed_trefoil():
    g = closure_graph([1, 1, 1], 2)
    assert writhe(g) == 3
    assert as_dict(jones(g)) == {-4: 1, -12: 1, -16: -1}  # t + t^3 - t^4 at t = a^-4


def test_figure_eight_knot():
    g = closure_graph([1, -2, 1, -2], 3)
    assert writhe(g) == 0
    assert as_dict(jones(g)) == {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}


def test_braid_closures_match_their_diagrams():
    rng = random.Random(2008)
    knots = 0
    for _ in range(60):
        strands = rng.choice((2, 3))
        while True:  # a generator that never occurs would split the diagram
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(2, 8))]
            if {abs(x) for x in word} == set(range(1, strands)):
                break
        g = closure_graph(word, strands)
        assert g.n == len(word)
        assert as_dict(kauffman_bracket(g)) == braid_bracket(word, strands), word
        knot = braid_is_knot(word, strands)
        assert is_graph_knot(g) == knot, word
        if knot:
            knots += 1
            assert writhe(g) == sum(1 if x > 0 else -1 for x in word), word
    assert 10 <= knots <= 50
