import json
import random

import pytest

from graphlink import (
    ChordDiagram,
    LabeledGraph,
    RealizabilityResult,
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
from graphlink.cli import main
from graphlink.errors import DomainError, ParseError, ResourceLimitError
from graphlink.generate import random_chord_diagram
from graphlink.laurent import LaurentPoly, mono, one

from helpers import g7, realizability_reference, shuffled


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
    # budget 0 still examines one matching, and a budget equal to the whole
    # scan reports exhausted=false, as the leaf-by-leaf scan does
    assert realizability_search(g7(), budget=0) == realizability_reference(g7(), 0)
    assert realizability_search(g7(), budget=0).checked == 1
    assert realizability_search(g7(), budget=135135) == RealizabilityResult(None, False, 135135)
    assert realizability_search(g7(), budget=135136) == RealizabilityResult(None, True, 135135)


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


# Differential tests of the pruned realizability scan against the
# leaf-by-leaf reference in helpers.py, through the library and the CLI.

W5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]


def _local_complement(g, v):
    rows = list(g.adj)
    for u in range(g.n):
        if g.adj[v] >> u & 1:
            rows[u] ^= g.adj[v] & ~(1 << u)
    return LabeledGraph(g.n, g.labels, tuple(rows))


def _non_circle_graph(rng, n):
    # W5 is a vertex-minor, so no diagram realizes it (Bouchet)
    pairs = list(W5_EDGES) + [(u, v) for v in range(6, n) for u in range(v) if rng.random() < 0.5]
    g = LabeledGraph.from_edges(tuple(rng.choice((1, -1)) for _ in range(n)), pairs)
    for _ in range(rng.randrange(4)):
        g = _local_complement(g, rng.randrange(n))
    return shuffled(rng, g)


def _small_graphs():
    rng = random.Random(4601)
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            labels = tuple(rng.choice((1, -1)) for _ in range(n))
            yield LabeledGraph.from_edges(labels, [e for i, e in enumerate(pairs) if bits >> i & 1])


def _non_circle_graphs():
    rng = random.Random(4602)
    return [_non_circle_graph(rng, 6) for _ in range(4)] + [_non_circle_graph(rng, 7)]


def _chord_graphs():
    # this seed's witnesses come 1090, 10520 and 12535 matchings into the scan
    rng = random.Random(4605)
    return [shuffled(rng, intersection_graph(random_chord_diagram(rng, n))) for n in (6, 7, 8)]


def _budgets(g, total):
    budgets = [0, 1, total - 1, total, total + 1]
    if g.n >= 3 and all(g.adj):
        # with no isolated vertex, chord 1 at positions (0, 1) closes with
        # degree 0, so the first (2n-3)!! matchings are one pruned subtree
        first_block = 1
        for k in range(1, g.n):
            first_block *= 2 * k - 1
        budgets.append(first_block // 2 + 1)
    return budgets


def _check_against_reference(g, budget=None, capsys=None):
    """The scan's result equals the reference's and, given ``capsys``, so do
    the CLI's text and --json outputs.  Returns the reference result."""
    ref = realizability_reference(g, budget)
    got = realizability_search(g, budget)
    assert (got.diagram, got.exhausted, got.checked) == (ref.diagram, ref.exhausted, ref.checked)
    if capsys is None:
        return ref
    argv = ["realize", "-i", serialize(g)] + ([] if budget is None else ["--budget", str(budget)])
    if budget is not None and budget < 1:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"glk: parse error: --budget must be at least 1, got {budget}\n")
        return ref
    found = ref.diagram is not None
    diagram = serialize_diagram(ref.diagram) if found else None
    assert main(argv) == 0
    text = diagram if found else f"none (exhausted={str(ref.exhausted).lower()}, checked={ref.checked})"
    assert capsys.readouterr() == (text + "\n", "")
    assert main(argv + ["--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"found": found, "diagram": diagram, "exhausted": ref.exhausted, "checked": ref.checked}
    return ref


@pytest.mark.parametrize(
    "family, cli_budgets",
    [(_small_graphs, False), (_non_circle_graphs, True), (_chord_graphs, True)],
    ids=["n<=5", "non-circle", "chord"],
)
def test_pruned_scan_equals_leaf_by_leaf_reference(capsys, family, cli_budgets):
    # every full scan goes through the CLI too, and so do the budgeted scans
    # of the larger graphs; for the 1100 graphs with n <= 5 that would add ~3 s
    graphs = list(family())
    inside = 0
    for g in graphs:
        total = _check_against_reference(g, capsys=capsys).checked
        budgets = _budgets(g, total)
        inside += len(budgets) > 5
        for budget in budgets:
            _check_against_reference(g, budget, capsys if cli_budgets else None)
    assert inside >= len(graphs) // 4

