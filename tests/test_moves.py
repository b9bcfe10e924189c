import random

import pytest

from graphlink import LabeledGraph, serialize
from graphlink.errors import MoveError, ParseError
from graphlink.moves import (
    BASIC_KINDS,
    MoveKind,
    MoveSite,
    apply,
    apply_script,
    enumerate_sites,
    format_script,
    parse_script,
)

from helpers import g7, random_graph


def test_r1_add_to_empty():
    g = apply(LabeledGraph.empty(), MoveSite(MoveKind.R1_ADD, label=1))
    assert g == LabeledGraph.from_edges("+")


def test_r1_remove_requires_isolated():
    k2 = LabeledGraph.from_edges("++", [(0, 1)])
    with pytest.raises(MoveError, match="isolated"):
        apply(k2, MoveSite(MoveKind.R1_REMOVE, (0,)))


def test_r1_round_trip():
    g = LabeledGraph.from_edges("-")
    h = apply(g, MoveSite(MoveKind.R1_ADD, label=-1))
    assert h.n == 2
    assert apply(h, MoveSite(MoveKind.R1_REMOVE, (1,))) == g


def test_r2_add_structure():
    g = LabeledGraph.from_edges("++", [(0, 1)])
    h = apply(g, MoveSite(MoveKind.R2_ADD, neighborhood=frozenset({0})))
    assert h.n == 4
    assert h.labels == (1, 1, 1, -1)
    assert h.neighbors(2) == (0,)
    assert h.neighbors(3) == (0,)
    assert not h.has_edge(2, 3)


def test_r2_round_trip_200_random():
    rng = random.Random(21)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 8))
        nb = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        h = apply(g, MoveSite(MoveKind.R2_ADD, neighborhood=nb))
        assert h.n == g.n + 2
        back = apply(h, MoveSite(MoveKind.R2_REMOVE, (g.n, g.n + 1)))
        assert back == g


def test_r2_remove_preconditions():
    g = LabeledGraph.from_edges("+-", [(0, 1)])
    with pytest.raises(MoveError, match="non-adjacent"):
        apply(g, MoveSite(MoveKind.R2_REMOVE, (0, 1)))
    g2 = LabeledGraph.from_edges("++")
    with pytest.raises(MoveError, match="labels"):
        apply(g2, MoveSite(MoveKind.R2_REMOVE, (0, 1)))
    g3 = LabeledGraph.from_edges("+--", [(0, 2)])
    with pytest.raises(MoveError, match="same adjacency"):
        apply(g3, MoveSite(MoveKind.R2_REMOVE, (0, 1)))


def test_r3_on_path_all_minus():
    # u is the centre of a path, everything labeled '-'
    g = LabeledGraph.from_edges("---", [(0, 1), (0, 2)])
    h = apply(g, MoveSite(MoveKind.R3_FWD, (0, 1, 2)))
    assert h.labels == (-1, 1, 1)
    assert h.edges == ()  # symmetric difference of two leaf neighbourhoods is empty
    back = apply(h, MoveSite(MoveKind.R3_INV, (0, 1, 2)))
    assert back == g


def test_r3_round_trip_200_random():
    rng = random.Random(22)
    for _ in range(200):
        base = random_graph(rng, rng.randint(2, 8))
        # force an applicable site: pick non-adjacent v, w, relabel them '-',
        # then attach a fresh '-' vertex u to exactly those two
        pairs = [
            (v, w)
            for v in range(base.n)
            for w in range(v + 1, base.n)
            if not base.has_edge(v, w)
        ]
        if not pairs:
            continue
        v, w = rng.choice(pairs)
        labels = list(base.labels)
        labels[v] = labels[w] = -1
        labels.append(-1)
        edges = list(base.edges) + [(v, base.n), (w, base.n)]
        g = LabeledGraph.from_edges(tuple(labels), edges)
        u = base.n
        site = MoveSite(MoveKind.R3_FWD, (u, v, w))
        h = apply(g, site)
        assert h.labels[u] == -1 and h.labels[v] == 1 and h.labels[w] == 1
        assert apply(h, MoveSite(MoveKind.R3_INV, (u, v, w))) == g


def test_r3_preconditions():
    g = LabeledGraph.from_edges("---", [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(MoveError, match="non-adjacent"):
        apply(g, MoveSite(MoveKind.R3_FWD, (0, 1, 2)))
    g2 = LabeledGraph.from_edges("-+-", [(0, 1), (0, 2)])
    with pytest.raises(MoveError, match="labeled '-'"):
        apply(g2, MoveSite(MoveKind.R3_FWD, (0, 1, 2)))


def test_r4_involution_200_random():
    rng = random.Random(23)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randint(2, 9))
        if not g.edges:
            continue
        u, v = rng.choice(g.edges)
        site = MoveSite(MoveKind.R4, (u, v))
        assert apply(apply(g, site), site) == g
        done += 1


def test_r4_requires_edge():
    g = LabeledGraph.from_edges("++")
    with pytest.raises(MoveError, match="adjacent"):
        apply(g, MoveSite(MoveKind.R4, (0, 1)))


def test_r4_label_swap_negate():
    g = LabeledGraph.from_edges("+-", [(0, 1)])
    h = apply(g, MoveSite(MoveKind.R4, (0, 1)))
    assert h.labels == (1, -1)  # -b, -a
    g2 = LabeledGraph.from_edges("++", [(0, 1)])
    assert apply(g2, MoveSite(MoveKind.R4, (0, 1))).labels == (-1, -1)


def test_r5_expand_structure_and_round_trip():
    g = LabeledGraph.from_edges("-+", [(0, 1)])
    h = apply(g, MoveSite(MoveKind.R5_EXPAND, (0,)))
    assert h.n == 4
    assert h.labels == (1, 1, 1, 1)
    assert h.neighbors(2) == (0,) and h.neighbors(3) == (0,)
    assert not h.has_edge(2, 3)
    assert h.has_edge(0, 1)
    back = apply(h, MoveSite(MoveKind.R5_CONTRACT, (0, 2, 3)))
    assert back == g


def test_vertex_count_deltas():
    rng = random.Random(24)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        for site in enumerate_sites(g):
            h = apply(g, site)
            delta = h.n - g.n
            if site.kind in (MoveKind.R1_ADD, MoveKind.R1_REMOVE):
                assert abs(delta) == 1
            elif site.kind in (
                MoveKind.R2_ADD,
                MoveKind.R2_REMOVE,
                MoveKind.R5_EXPAND,
                MoveKind.R5_CONTRACT,
            ):
                assert abs(delta) == 2
            else:
                assert delta == 0


def test_enumerate_sites_trivia():
    assert enumerate_sites(LabeledGraph.empty(), {MoveKind.R1_REMOVE}) == []
    sites = enumerate_sites(LabeledGraph.from_edges("+"), {MoveKind.R1_REMOVE})
    assert sites == [MoveSite(MoveKind.R1_REMOVE, (0,))]


def test_enumerate_sites_g7_has_no_r3():
    assert enumerate_sites(g7(), {MoveKind.R3_FWD}) == []


def test_enumerate_sites_all_apply_cleanly():
    rng = random.Random(25)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8))
        sites = enumerate_sites(g)
        assert len(set(sites)) == len(sites)
        for site in sites:
            apply(g, site)


def test_enumerate_sites_is_complete():
    # every vertex tuple whose apply() succeeds must be enumerated
    import itertools

    rng = random.Random(26)
    fixed_arity = {
        MoveKind.R1_REMOVE: 1,
        MoveKind.R2_REMOVE: 2,
        MoveKind.R3_FWD: 3,
        MoveKind.R3_INV: 3,
        MoveKind.R4: 2,
        MoveKind.R5_EXPAND: 1,
        MoveKind.R5_CONTRACT: 3,
    }
    symmetric = {  # argument orders that name the same site
        MoveKind.R2_REMOVE: lambda vs: tuple(sorted(vs)),
        MoveKind.R4: lambda vs: tuple(sorted(vs)),
        MoveKind.R3_FWD: lambda vs: (vs[0],) + tuple(sorted(vs[1:])),
        MoveKind.R3_INV: lambda vs: (vs[0],) + tuple(sorted(vs[1:])),
        MoveKind.R5_CONTRACT: lambda vs: (vs[0],) + tuple(sorted(vs[1:])),
    }
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 6))
        for kind, arity in fixed_arity.items():
            listed = {s.vertices for s in enumerate_sites(g, {kind})}
            norm = symmetric.get(kind, lambda vs: vs)
            for vs in itertools.permutations(range(g.n), arity):
                try:
                    apply(g, MoveSite(kind, vs))
                except MoveError:
                    continue
                assert norm(vs) in listed, (kind, vs)


def test_enumerate_r2_add_policy():
    g = LabeledGraph.from_edges("+-", [(0, 1)])
    sites = enumerate_sites(g, {MoveKind.R2_ADD})
    hoods = {s.neighborhood for s in sites}
    assert hoods == {frozenset(), frozenset({0}), frozenset({1})}


def test_script_round_trip():
    text = "R1_add +\nR2_add 1,2\nR4 1 3\nR3_fwd 2 1 4\nR1_remove 2\nR2_add"
    sites = parse_script(text)
    assert format_script(sites) == text
    assert sites[0] == MoveSite(MoveKind.R1_ADD, label=1)
    assert sites[1] == MoveSite(MoveKind.R2_ADD, neighborhood=frozenset({0, 1}))
    assert sites[2] == MoveSite(MoveKind.R4, (0, 2))
    assert sites[-1] == MoveSite(MoveKind.R2_ADD)


def test_script_errors():
    with pytest.raises(ParseError, match="unknown move"):
        parse_script("R9 1")
    with pytest.raises(ParseError, match="line 2"):
        parse_script("R4 1 2\nR4 1")
    with pytest.raises(ParseError, match="bad arguments"):
        parse_script("R1_add x")


def test_apply_script_builds_graph():
    g = apply_script(LabeledGraph.empty(), parse_script("R1_add -\nR5_expand 1"))
    assert serialize(g) == "3;+++;1-2,1-3"


def test_basic_kinds_exclude_r5():
    assert MoveKind.R5_EXPAND not in BASIC_KINDS
    assert MoveKind.R4 in BASIC_KINDS


def test_site_vertex_validation():
    g = LabeledGraph.from_edges("++", [(0, 1)])
    with pytest.raises(MoveError, match="out of range"):
        apply(g, MoveSite(MoveKind.R4, (0, 5)))
    with pytest.raises(MoveError, match="distinct"):
        apply(g, MoveSite(MoveKind.R4, (0, 0)))
