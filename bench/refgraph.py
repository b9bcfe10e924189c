"""Reference graph code for the benchmark, written without graphlink.

Inputs are generated with these routines and expected answers are derived
from them, so a change inside graphlink can neither move the inputs nor
hide a wrong answer.  A graph is a ``Graph(n, labels, adj)`` with labels
+1/-1 and bit-row adjacency, the same shape the ``glk`` formats describe.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple


class Graph(NamedTuple):
    n: int
    labels: tuple[int, ...]
    adj: tuple[int, ...]


def from_edges(labels, edges) -> Graph:
    rows = [0] * len(labels)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(len(labels), tuple(labels), tuple(rows))


def edges(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Vertex i of the result is vertex perm[i] of g."""
    inv = [0] * g.n
    for i, p in enumerate(perm):
        inv[p] = i
    rows = []
    for i in range(g.n):
        packed = 0
        for j in members(g.adj[perm[i]]):
            packed |= 1 << inv[j]
        rows.append(packed)
    return Graph(g.n, tuple(g.labels[p] for p in perm), tuple(rows))


def shuffled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    labels = [rng.choice((1, -1)) for _ in range(n)]
    return from_edges(labels, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# ---------------------------------------------------------------------------
# Text formats (the documented glk formats, written out independently).


def serialize(g: Graph) -> str:
    labels = "".join("+" if s == 1 else "-" for s in g.labels)
    return f"{g.n};{labels};" + ",".join(f"{u + 1}-{v + 1}" for u, v in edges(g))


def to_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.n, "labels": list(g.labels), "edges": [[u + 1, v + 1] for u, v in edges(g)]}
    )


def parse_compact(text: str) -> Graph:
    n_text, label_text, edge_text = text.strip().split(";")
    labels = [1 if ch == "+" else -1 for ch in label_text]
    if len(labels) != int(n_text):
        raise ValueError("label count does not match n")
    pairs = []
    for token in filter(None, edge_text.split(",")):
        i, j = token.split("-")
        pairs.append((int(i) - 1, int(j) - 1))
    return from_edges(labels, pairs)


# ---------------------------------------------------------------------------
# GF(2) rank with lowest-set-bit pivots (graphlink pivots on the highest bit).


def rank(rows) -> int:
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            b = basis.get(low)
            if b is None:
                basis[low] = r
                break
            r ^= b
    return len(basis)


def subset_corank(g: Graph, mask: int, diagonal: int = 0) -> int:
    """Corank of the principal submatrix on ``mask`` of A(g) + diag(diagonal)."""
    vs = members(mask)
    return len(vs) - rank([(g.adj[v] ^ (diagonal & (1 << v))) & mask for v in vs])


def is_graph_knot(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return subset_corank(g, full, full) == 0


# ---------------------------------------------------------------------------
# Reidemeister graph-moves, following the adjacency-matrix definitions.
# A site is (kind, vertices, label, neighbourhood mask); vertices are 0-based.


def sites(g: Graph) -> list[tuple]:
    """Every applicable move of the four basic kinds, both directions, in the
    order ``glk moves sites`` lists them."""
    n, lab, adj = g
    out: list[tuple] = [("R1_add", (), 1, 0), ("R1_add", (), -1, 0)]
    out += [("R1_remove", (v,), 0, 0) for v in range(n) if adj[v] == 0]
    out += [("R2_add", (), 0, m) for m in sorted({0, *adj})]
    for u in range(n):
        for v in range(u + 1, n):
            if lab[u] != lab[v] and not adj[u] >> v & 1 and adj[u] == adj[v]:
                out.append(("R2_remove", (u, v), 0, 0))
    for u in range(n):
        if lab[u] == -1 and adj[u].bit_count() == 2:
            v, w = members(adj[u])
            if lab[v] == lab[w] == -1 and not adj[v] >> w & 1:
                out.append(("R3_fwd", (u, v, w), 0, 0))
    for u in range(n):
        if lab[u] != -1:
            continue
        for v in range(n):
            if v == u or lab[v] != 1 or adj[u] >> v & 1:
                continue
            for w in range(v + 1, n):
                if w == u or lab[w] != 1 or adj[u] >> w & 1 or adj[v] >> w & 1:
                    continue
                keep = ~((1 << u) | (1 << v) | (1 << w))
                if adj[u] == (adj[v] ^ adj[w]) & keep:
                    out.append(("R3_inv", (u, v, w), 0, 0))
    out += [("R4", e, 0, 0) for e in edges(g)]
    return out


def all_sites(g: Graph) -> list[tuple]:
    """``sites`` plus the derived fifth move in both directions."""
    n, lab, adj = g
    out = sites(g) + [("R5_expand", (u,), 0, 0) for u in range(n) if lab[u] == -1]
    for u in range(n):
        if lab[u] == 1:
            pend = [p for p in range(n) if p != u and lab[p] == 1 and adj[p] == 1 << u]
            out += [("R5_contract", (u, p, q), 0, 0) for i, p in enumerate(pend) for q in pend[i + 1:]]
    return out


def induced(g: Graph, keep: list[int]) -> Graph:
    """Subgraph on ``keep``; vertex i of the result is keep[i]."""
    pos = {v: i for i, v in enumerate(keep)}
    rows = [sum(1 << pos[u] for u in members(g.adj[v]) if u in pos) for v in keep]
    return Graph(len(keep), tuple(g.labels[v] for v in keep), tuple(rows))


def _drop(g: Graph, dead: list[int]) -> Graph:
    return induced(g, [v for v in range(g.n) if v not in dead])


def _set_row(rows: list[int], u: int, nbrs: int) -> None:
    rows[u] = nbrs
    for t in range(len(rows)):
        if t != u:
            rows[t] = rows[t] | (1 << u) if nbrs >> t & 1 else rows[t] & ~(1 << u)


def apply(g: Graph, site: tuple) -> Graph:
    """Apply a site, raising ValueError when its precondition fails."""
    kind, vs, label, nb = site
    n, lab, adj = g
    if any(not 0 <= v < n for v in vs) or len(set(vs)) != len(vs):
        raise ValueError(f"{kind}: bad vertices {vs}")
    if kind == "R1_add":
        return Graph(n + 1, lab + (label,), adj + (0,))
    if kind == "R1_remove":
        if adj[vs[0]]:
            raise ValueError("R1_remove: vertex not isolated")
        return _drop(g, list(vs))
    if kind == "R2_add":
        if nb >> n:
            raise ValueError("R2_add: neighbourhood out of range")
        rows = [r | (0b11 << n if nb >> i & 1 else 0) for i, r in enumerate(adj)]
        return Graph(n + 2, lab + (1, -1), tuple(rows) + (nb, nb))
    if kind == "R2_remove":
        u, v = vs
        if lab[u] == lab[v] or adj[u] >> v & 1 or adj[u] != adj[v]:
            raise ValueError("R2_remove: not a removable pair")
        return _drop(g, [u, v])
    if kind == "R3_fwd":
        u, v, w = vs
        if not (lab[u] == lab[v] == lab[w] == -1 and adj[u] == (1 << v) | (1 << w)) or adj[v] >> w & 1:
            raise ValueError("R3_fwd: precondition fails")
        rows = list(adj)
        _set_row(rows, u, (adj[v] ^ adj[w]) & ~((1 << u) | (1 << v) | (1 << w)))
        labels = list(lab)
        labels[v] = labels[w] = 1
        return Graph(n, tuple(labels), tuple(rows))
    if kind == "R3_inv":
        u, v, w = vs
        keep = ~((1 << u) | (1 << v) | (1 << w))
        if not (lab[u] == -1 and lab[v] == lab[w] == 1) or adj[u] >> v & 1 or adj[u] >> w & 1 \
                or adj[v] >> w & 1 or adj[u] != (adj[v] ^ adj[w]) & keep:
            raise ValueError("R3_inv: precondition fails")
        rows = list(adj)
        _set_row(rows, u, (1 << v) | (1 << w))
        labels = list(lab)
        labels[v] = labels[w] = -1
        return Graph(n, tuple(labels), tuple(rows))
    if kind == "R4":
        u, v = vs
        if not adj[u] >> v & 1:
            raise ValueError("R4: not an edge")
        uv = (1 << u) | (1 << v)
        only_u, only_v, both = adj[u] & ~adj[v] & ~uv, adj[v] & ~adj[u] & ~uv, adj[u] & adj[v]
        rows = list(adj)
        for t in range(n):
            if only_u >> t & 1:
                rows[t] ^= only_v | both
            elif only_v >> t & 1:
                rows[t] ^= only_u | both
            elif both >> t & 1:
                rows[t] ^= only_u | only_v
        labels = list(lab)
        labels[u], labels[v] = -lab[v], -lab[u]
        return Graph(n, tuple(labels), tuple(rows))
    raise ValueError(f"unknown move kind {kind}")


def format_site(site: tuple) -> str:
    kind, vs, label, nb = site
    if kind == "R1_add":
        return "R1_add +" if label == 1 else "R1_add -"
    if kind == "R2_add":
        body = ",".join(str(t + 1) for t in members(nb))
        return f"R2_add {body}" if body else "R2_add"
    return " ".join([kind, *(str(v + 1) for v in vs)])


def parse_site(line: str) -> tuple:
    kind, *args = line.split()
    if kind == "R1_add":
        return (kind, (), 1 if args[0] == "+" else -1, 0)
    if kind == "R2_add":
        mask = 0
        for t in (args[0].split(",") if args else ()):
            mask |= 1 << (int(t) - 1)
        return (kind, (), 0, mask)
    return (kind, tuple(int(a) - 1 for a in args), 0, 0)


def random_site(rng: random.Random, g: Graph, max_vertices: int):
    """One random applicable move that stays within max_vertices; the
    add-pair move may take any neighbourhood, and in-place moves are
    weighted up so walks churn labels and edges."""
    options = []
    if g.n + 1 <= max_vertices:
        options.append(("R1_add", (), rng.choice((1, -1)), 0))
    if g.n + 2 <= max_vertices:
        options.append(("R2_add", (), 0, sum(1 << v for v in range(g.n) if rng.random() < 0.5)))
    found = sites(g)
    options += [s for s in found if s[0] in ("R1_remove", "R2_remove")]
    options += 2 * [s for s in found if s[0] in ("R3_fwd", "R3_inv", "R4")]
    return rng.choice(options)


def unknot_walk(rng: random.Random, steps: int, max_vertices: int) -> Graph:
    """Random move walk from the empty graph; every result is a graph-knot."""
    g = Graph(0, (), ())
    for _ in range(steps):
        g = apply(g, random_site(rng, g, max_vertices))
    return g


# ---------------------------------------------------------------------------
# Canonical form by individualization-refinement with twin pruning.


def _refine(g: Graph, colors: list[int]) -> list[int]:
    count = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in members(g.adj[v])))) for v in range(g.n)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [order[s] for s in sigs]
        if len(order) == count:
            return colors
        count = len(order)


def canonical_key(g: Graph) -> tuple:
    """Hashable key equal for two graphs iff they are label-preserving
    isomorphic: the least leaf encoding over the individualization tree."""
    n, lab, adj = g
    if n == 0:
        return (0, 0, 0)
    twin = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if twin[v] == v and lab[u] == lab[v] and (adj[u] ^ adj[v]) & ~((1 << u) | (1 << v)) == 0:
                twin[v] = twin[u]
    best = None

    def descend(colors: list[int]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        cell = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if cell is None:
            order = sorted(range(n), key=colors.__getitem__)
            pos = {v: i for i, v in enumerate(order)}
            code = 0
            for v in order:
                for u in members(adj[v]):
                    code |= 1 << (pos[v] * n + pos[u])
            key = (n, sum(1 << i for i, v in enumerate(order) if lab[v] == 1), code)
            if best is None or key < best:
                best = key
            return
        tried = set()
        for v in cell:
            if twin[v] not in tried:
                tried.add(twin[v])
                child = [2 * c for c in colors]
                child[v] -= 1
                descend(_refine(g, child))

    descend(_refine(g, _rank_pairs([(lab[v], adj[v].bit_count()) for v in range(n)])))
    return best


def _rank_pairs(items: list) -> list[int]:
    order = {x: i for i, x in enumerate(sorted(set(items)))}
    return [order[x] for x in items]


def invariant_key(g: Graph) -> tuple:
    """Isomorphism-invariant fingerprint: equal for isomorphic graphs."""
    colors = _refine(g, _rank_pairs([(g.labels[v], g.adj[v].bit_count()) for v in range(g.n)]))
    return (g.n, tuple(sorted((colors[v], g.labels[v]) for v in range(g.n))),
            tuple(sorted(tuple(sorted(colors[u] for u in members(g.adj[v]))) for v in range(g.n))))


def isomorphic(g: Graph, h: Graph) -> bool:
    """Label-preserving isomorphism by backtracking over vertex images."""
    if g.n != h.n or sorted(g.labels) != sorted(h.labels):
        return False
    n = g.n
    deg_g = [(g.labels[v], g.adj[v].bit_count()) for v in range(n)]
    deg_h = [(h.labels[v], h.adj[v].bit_count()) for v in range(n)]
    if sorted(deg_g) != sorted(deg_h):
        return False
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_h[w] != deg_g[v]:
                continue
            if all((g.adj[v] >> u & 1) == (h.adj[w] >> image[u] & 1) for u in range(v)):
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Chord diagrams.


def random_matching(rng: random.Random, n: int) -> list[int]:
    """Partner array of a uniformly random perfect matching on 2n points."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    partner = [0] * (2 * n)
    for i in range(0, 2 * n, 2):
        partner[slots[i]], partner[slots[i + 1]] = slots[i + 1], slots[i]
    return partner


def word_of(partner: list[int]) -> list[int]:
    """Cyclic word with chords numbered by first appearance."""
    word = [0] * len(partner)
    next_id = 1
    for p, q in enumerate(partner):
        if p < q:
            word[p] = word[q] = next_id
            next_id += 1
    return word


def interlacement(word: list[int], signs) -> Graph:
    """Labeled graph of a chord word: chords are vertices, linked pairs edges."""
    ends: dict[int, list[int]] = {}
    for pos, c in enumerate(word):
        ends.setdefault(c, []).append(pos)
    n = len(ends)
    pairs = []
    for i in range(1, n + 1):
        a1, a2 = ends[i]
        for j in range(i + 1, n + 1):
            b1, b2 = ends[j]
            if (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2):
                pairs.append((i - 1, j - 1))
    return from_edges(list(signs), pairs)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def scan_rank(partner: list[int]) -> int:
    """0-based index of a matching in the exhaustive scan order: the first
    free position takes each later free position as partner in turn."""
    free = list(range(len(partner)))
    index = 0
    while free:
        p = free[0]
        q = partner[p]
        rest = len(free) - 2
        index += (free.index(q) - 1) * double_factorial(rest - 1)
        free.remove(p)
        free.remove(q)
    return index


def best_scan_rank(partner: list[int]) -> int:
    """Least scan index over all rotations and reflections of the diagram;
    the scan meets a realizing diagram no later than this."""
    m = len(partner)
    best = None
    for shift in range(m):
        for flip in (False, True):
            move = (lambda p: (shift - p) % m) if flip else (lambda p: (p + shift) % m)
            moved = [0] * m
            for p in range(m):
                moved[move(p)] = move(partner[p])
            r = scan_rank(moved)
            best = r if best is None else min(best, r)
    return best


W5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]


def local_complement(g: Graph, v: int) -> Graph:
    """Complement the edges among the neighbours of v."""
    rows = list(g.adj)
    nb = g.adj[v]
    for u in members(nb):
        rows[u] ^= nb & ~(1 << u)
    return Graph(g.n, g.labels, tuple(rows))


def non_circle_graph(rng: random.Random, n: int) -> Graph:
    """A graph with the wheel W5 as a vertex-minor, hence not a circle graph
    (Bouchet): W5 plus random extra vertices, then local complementations,
    which circle graphs are closed under."""
    pairs = list(W5_EDGES)
    for v in range(6, n):
        pairs += [(u, v) for u in range(v) if rng.random() < 0.5]
    g = from_edges([rng.choice((1, -1)) for _ in range(n)], pairs)
    for _ in range(rng.randrange(4)):
        g = local_complement(g, rng.randrange(n))
    return shuffled(rng, g)
