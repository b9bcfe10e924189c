"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own kernels: rank is
textbook elimination on dense 2D lists, and the reference bracket is a
per-state loop over plain exponent->coefficient dicts.  Golden values are
only ever frozen after these agree with the fast paths.
"""

from __future__ import annotations

import itertools
import os
import random

from graphlink import ChordDiagram, LabeledGraph, RealizabilityResult, canonical_permutation, parse

G7_TEXT = "7;-+-+-+-;1-2,2-3,3-4,4-5,5-6,1-6,2-7,4-7,6-7"


def g7() -> LabeledGraph:
    return parse(G7_TEXT)


def naive_rank(dense: list[list[int]]) -> int:
    """GF(2) rank by plain row reduction on a dense 2D list."""
    m = [row[:] for row in dense]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def dense_adjacency(g: LabeledGraph) -> list[list[int]]:
    return [[1 if g.has_edge(i, j) else 0 for j in range(g.n)] for i in range(g.n)]


def dense_submatrix(dense: list[list[int]], idx: list[int]) -> list[list[int]]:
    return [[dense[i][j] for j in idx] for i in idx]


LOOP = {2: -1, -2: -1}


def poly_add(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def loop_pow(k: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(k):
        out = poly_mul(out, LOOP)
    return out


def bracket_reference(g: LabeledGraph) -> dict[int, int]:
    """State-sum bracket via the naive dense rank, as an exp->coef dict."""
    dense = dense_adjacency(g)
    total: dict[int, int] = {}
    for mask in range(1 << g.n):
        idx = [v for v in range(g.n) if (mask >> v) & 1]
        cork = len(idx) - naive_rank(dense_submatrix(dense, idx))
        al = sum(1 for v in idx if g.labels[v] == -1) + sum(
            1 for v in range(g.n) if not ((mask >> v) & 1) and g.labels[v] == 1
        )
        term = poly_mul({2 * al - g.n: 1}, loop_pow(cork))
        total = poly_add(total, term)
    return total


def as_dict(poly) -> dict[int, int]:
    return dict(poly.terms)


def brute_force_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    if g1.n != g2.n:
        return False
    for perm in itertools.permutations(range(g1.n)):
        if g1.relabel(list(perm)) == g2:
            return True
    return False


def force_cpus(monkeypatch, k: int) -> None:
    """Make this process look as if it may run on k CPUs, whichever of the
    two calls ``gf2.subset_coranks`` sizes its pool by."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: k)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> LabeledGraph:
    labels = tuple(rng.choice((1, -1)) for _ in range(n))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return LabeledGraph.from_edges(labels, edges)


def shuffled(rng: random.Random, g: LabeledGraph) -> LabeledGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def realizability_reference(g: LabeledGraph, budget: int | None = None) -> RealizabilityResult:
    """The leaf-by-leaf realizability scan: every one of the (2n-1)!!
    matchings, in the library's order, is built in full and counted, then
    filtered by sorted degrees and the canonical key.  The library's pruned
    scan must return the same diagram, ``exhausted`` and ``checked``."""
    n = g.n
    target_degrees = sorted(g.degree(v) for v in range(n))
    target_key, target_perm = canonical_permutation(LabeledGraph(n, (1,) * n, g.adj))
    m = 2 * n
    partner = [-1] * m
    chord_of = [-1] * m
    first_pos = [0] * (n + 1)
    rows = [0] * (n + 1)  # interlacement rows, 1-based chord ids
    checked = 0
    witness = None
    truncated = False

    def attempt() -> ChordDiagram | None:
        degs = sorted(rows[c].bit_count() for c in range(1, n + 1))
        if degs != target_degrees:
            return None
        cand = LabeledGraph(n, (1,) * n, tuple(r >> 1 for r in rows[1:]))
        key, perm = canonical_permutation(cand)
        if key != target_key:
            return None
        iso = [0] * n
        for pos in range(n):
            iso[perm[pos]] = target_perm[pos]
        return ChordDiagram(tuple(chord_of), tuple(g.labels[iso[c]] for c in range(n)))

    def place(pos: int, next_id: int) -> bool:
        nonlocal checked, witness, truncated
        while pos < m and partner[pos] != -1:
            pos += 1
        if pos == m:
            checked += 1
            witness = attempt()
            if witness is not None:
                return True
            if budget is not None and checked >= budget:
                truncated = True
                return True
            return False
        for q in range(pos + 1, m):
            if partner[q] != -1:
                continue
            partner[pos], partner[q] = q, pos
            chord_of[pos] = chord_of[q] = next_id
            first_pos[next_id] = pos
            added = []
            for c in range(1, next_id):
                p1, p2 = first_pos[c], partner[first_pos[c]]
                if (p1 < pos < p2 < q) or (pos < p1 < q < p2):
                    rows[c] |= 1 << next_id
                    rows[next_id] |= 1 << c
                    added.append(c)
            stop = place(pos + 1, next_id + 1)
            for c in added:
                rows[c] &= ~(1 << next_id)
            rows[next_id] = 0
            partner[pos] = partner[q] = -1
            chord_of[pos] = chord_of[q] = -1
            if stop:
                return True
        return False

    place(0, 1)
    return RealizabilityResult(witness, witness is None and not truncated, checked)


# ---------------------------------------------------------------------------
# Classical links as braid closures.  A braid word lists generators +-i
# (1-based): sigma_i^{+-1} crosses the strands at positions i and i+1, and
# every strand runs upward, so the writhe is the exponent sum.  Crossing t
# splits each position's strand into segments: segment (p, t) runs from
# crossing t-1 up to crossing t, and the closure joins the top of the last
# crossing to segment (p, 0).  Convention: the A-smoothing of a positive
# crossing is the oriented (vertical) one, of a negative crossing the
# horizontal one, so sigma_1^3 is the right-handed trefoil.


def _braid_circles(word: list[int], strands: int, a_mask: int) -> list[list[int]]:
    """The circles of the state that takes the A-smoothing at the crossings
    in ``a_mask``; each circle lists the crossings its arcs pass, in order."""
    c = len(word)

    def end(p: int, t: int, top: int) -> int:
        return 2 * ((t % c) * strands + p) + top

    join: dict[int, tuple[int, int]] = {}  # endpoint -> (endpoint, crossing or -1)

    def link(x: int, y: int, t: int) -> None:
        join[x], join[y] = (y, t), (x, t)

    for t, gen in enumerate(word):
        l, r = abs(gen) - 1, abs(gen)
        for p in range(strands):
            if p not in (l, r):
                link(end(p, t, 1), end(p, t + 1, 0), -1)
        if ((a_mask >> t) & 1) == (gen > 0):  # vertical: both strands go on up
            link(end(l, t, 1), end(l, t + 1, 0), t)
            link(end(r, t, 1), end(r, t + 1, 0), t)
        else:  # horizontal: a cap below the crossing and a cup above it
            link(end(l, t, 1), end(r, t, 1), t)
            link(end(l, t + 1, 0), end(r, t + 1, 0), t)
    circles, seen = [], set()
    for start in range(2 * c * strands):
        if start in seen:
            continue
        circle, e = [], start
        while e not in seen:
            seen.update((e, e ^ 1))
            e, t = join[e ^ 1]
            if t >= 0:
                circle.append(t)
        circles.append(circle)
    return circles


def braid_bracket(word: list[int], strands: int) -> dict[int, int]:
    """The closure's Kauffman bracket as its own sum over all 2^c states."""
    c = len(word)
    total: dict[int, int] = {}
    for a_mask in range(1 << c):
        loops = len(_braid_circles(word, strands, a_mask)) - 1
        total = poly_add(total, poly_mul({2 * a_mask.bit_count() - c: 1}, loop_pow(loops)))
    return total


def braid_is_knot(word: list[int], strands: int) -> bool:
    """Whether the closure has one component: the braid's permutation is a
    single cycle."""
    perm = list(range(strands))
    for gen in word:
        i = abs(gen)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    p, length = perm[0], 1
    while p != 0:
        p, length = perm[p], length + 1
    return length == strands


def braid_diagram(word: list[int], strands: int) -> ChordDiagram:
    """The chord diagram of a one-circle state of the closure.

    Start from the all-A state and switch a crossing whose two arcs lie on
    different circles, merging them, until one circle is left (a connected
    diagram always gets there).  Chord t + 1 is crossing t, its ends are
    where the circle passes the crossing's two arcs, and its sign is '+'
    where the state takes the A-smoothing."""
    a_mask = (1 << len(word)) - 1
    while True:
        circles = _braid_circles(word, strands, a_mask)
        if len(circles) == 1:
            break
        home = {t: k for k, circle in enumerate(circles) for t in circle}
        split = [t for k, circle in enumerate(circles) for t in circle if home[t] != k]
        if not split:
            raise ValueError("the closure is a split diagram")
        a_mask ^= 1 << split[0]
    signs = tuple(1 if (a_mask >> t) & 1 else -1 for t in range(len(word)))
    return ChordDiagram(tuple(t + 1 for t in circles[0]), signs)
