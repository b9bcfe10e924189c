"""Reidemeister graph-moves as executable rewrites.

Move semantics follow the adjacency-matrix transformations (rather than the
looser prose descriptions): the second move adds or removes a non-adjacent
'+'/'-' pair with identical neighbourhoods; the third move rewires a
degree-2 '-' vertex, dropping its two incident edges and giving it the
symmetric difference of its neighbours' neighbourhoods while those two
neighbours turn '+'; the fourth move toggles adjacency between the three
neighbourhood classes of an edge and swap-negates the endpoint labels; the
fifth move is literally the composite of the second and fourth moves and
turns one '-' vertex into a '+' vertex with two new pendant '+' vertices
(not adjacent to each other).

Every apply() is a pure transformation returning a new graph.  Removed
vertices compact the index range downward; added vertices take the highest
indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import MoveError, ParseError
from .graph import LabeledGraph


class MoveKind(str, Enum):
    R1_ADD = "R1_add"
    R1_REMOVE = "R1_remove"
    R2_ADD = "R2_add"
    R2_REMOVE = "R2_remove"
    R3_FWD = "R3_fwd"
    R3_INV = "R3_inv"
    R4 = "R4"
    R5_EXPAND = "R5_expand"
    R5_CONTRACT = "R5_contract"


# The members as plain module names: looking one up on the enum class costs
# ~0.2 us, and _precondition() dispatches on the kind of every candidate site.
R1_ADD, R1_REMOVE, R2_ADD, R2_REMOVE, R3_FWD, R3_INV, R4, R5_EXPAND, R5_CONTRACT = MoveKind

#: The four defining moves in both directions; R5 is derived and excluded.
BASIC_KINDS = frozenset({R1_ADD, R1_REMOVE, R2_ADD, R2_REMOVE, R3_FWD, R3_INV, R4})

ALL_KINDS = frozenset(MoveKind)


@dataclass(frozen=True)
class MoveSite:
    """One applicable (or candidate) move: kind, involved vertices (0-based),
    and the extra data the kind needs (label for R1_add, neighbourhood for
    R2_add)."""

    kind: MoveKind
    vertices: tuple[int, ...] = ()
    label: int = 0
    neighborhood: frozenset[int] = field(default_factory=frozenset)


def _precondition(
    g: LabeledGraph,
    kind: MoveKind,
    vertices: tuple[int, ...],
    label: int = 0,
    neighborhood: frozenset[int] = frozenset(),
) -> str | None:
    """The first reason the move cannot be applied to ``g``, or None if it
    can.  Both apply() and enumerate_sites() decide applicability here."""
    if len(set(vertices)) != len(vertices):
        return "vertices must be distinct"
    for v in vertices:
        if not 0 <= v < g.n:
            return f"vertex {v + 1} out of range"
    labels, adj = g.labels, g.adj

    if kind == R1_ADD:
        if label not in (1, -1):
            return "label must be +1 or -1"

    elif kind == R1_REMOVE:
        (v,) = vertices
        if adj[v]:
            return f"vertex {v + 1} is not isolated"

    elif kind == R2_ADD:
        for t in neighborhood:
            if not 0 <= t < g.n:
                return f"neighbourhood vertex {t + 1} out of range"

    elif kind == R2_REMOVE:
        u, v = vertices
        if labels[u] == labels[v]:
            return "labels must differ"
        if (adj[u] >> v) & 1:
            return "vertices must be non-adjacent"
        if adj[u] != adj[v]:
            return "vertices must have the same adjacency with all others"

    elif kind == R3_FWD:
        u, v, w = vertices
        if not labels[u] == labels[v] == labels[w] == -1:
            return "u, v, w must all be labeled '-'"
        if adj[u] != (1 << v) | (1 << w):
            return "u must be adjacent exactly to v and w"
        if (adj[v] >> w) & 1:
            return "v and w must be non-adjacent"

    elif kind == R3_INV:
        u, v, w = vertices
        if labels[u] != -1:
            return "u must be labeled '-'"
        if not labels[v] == labels[w] == 1:
            return "v and w must be labeled '+'"
        if (adj[u] >> v) & 1:
            return "u and v must be non-adjacent"
        if (adj[u] >> w) & 1:
            return "u and w must be non-adjacent"
        if (adj[v] >> w) & 1:
            return "v and w must be non-adjacent"
        if adj[u] != (adj[v] ^ adj[w]) & ~((1 << u) | (1 << v) | (1 << w)):
            return "u's neighbourhood must be the symmetric difference of v's and w's"

    elif kind == R4:
        u, v = vertices
        if not (adj[u] >> v) & 1:
            return "u and v must be adjacent"

    elif kind == R5_EXPAND:
        (u,) = vertices
        if labels[u] != -1:
            return "u must be labeled '-'"

    elif kind == R5_CONTRACT:
        u, p, q = vertices
        if labels[u] != 1:
            return "u must be labeled '+'"
        if not (labels[p] == 1 and labels[q] == 1):
            return "the pendant pair must be labeled '+'"
        if not (adj[p] == 1 << u and adj[q] == 1 << u):
            return "p and q must be adjacent exactly to u"

    return None


def _delete_vertices(g: LabeledGraph, dead: Iterable[int]) -> LabeledGraph:
    doomed = sorted(set(dead), reverse=True)
    labels = list(g.labels)
    rows = list(g.adj)
    for v in doomed:
        del labels[v]
        del rows[v]
        low = (1 << v) - 1
        rows = [(r & low) | ((r >> (v + 1)) << v) for r in rows]
    return LabeledGraph(len(labels), tuple(labels), tuple(rows))


def _rewire_r3(
    g: LabeledGraph, u: int, v: int, w: int, new_nu: int, vw_label: int
) -> LabeledGraph:
    """The third move in either direction: u's neighbourhood becomes
    ``new_nu`` and v, w take ``vw_label``."""
    bit = 1 << u
    rows = [r | bit if (new_nu >> t) & 1 else r & ~bit for t, r in enumerate(g.adj)]
    rows[u] = new_nu
    labels = list(g.labels)
    labels[v] = labels[w] = vw_label
    return LabeledGraph(g.n, tuple(labels), tuple(rows))


def apply(g: LabeledGraph, site: MoveSite) -> LabeledGraph:
    """Apply one move site, checking its precondition first."""
    kind = site.kind
    reason = _precondition(g, kind, site.vertices, site.label, site.neighborhood)
    if reason is not None:
        raise MoveError(f"{kind.value}: {reason}")

    if kind == R1_ADD:
        return LabeledGraph(g.n + 1, g.labels + (site.label,), g.adj + (0,))

    if kind in (R1_REMOVE, R2_REMOVE):
        return _delete_vertices(g, site.vertices)

    if kind == R2_ADD:
        nb = sum(1 << t for t in site.neighborhood)
        labels = g.labels + (1, -1)
        rows = [r | (((nb >> i) & 1) * (0b11 << g.n)) for i, r in enumerate(g.adj)]
        rows += [nb, nb]
        return LabeledGraph(g.n + 2, labels, tuple(rows))

    if kind == R3_FWD:
        u, v, w = site.vertices
        keep = ~((1 << u) | (1 << v) | (1 << w))
        return _rewire_r3(g, u, v, w, (g.adj[v] ^ g.adj[w]) & keep, 1)

    if kind == R3_INV:
        u, v, w = site.vertices
        return _rewire_r3(g, u, v, w, (1 << v) | (1 << w), -1)

    if kind == R4:
        u, v = site.vertices
        uv = (1 << u) | (1 << v)
        p1 = g.adj[u] & ~g.adj[v] & ~uv
        p2 = g.adj[v] & ~g.adj[u] & ~uv
        p3 = g.adj[u] & g.adj[v]
        rows = list(g.adj)
        for t in range(g.n):
            bit = 1 << t
            if p1 & bit:
                rows[t] ^= p2 | p3
            elif p2 & bit:
                rows[t] ^= p1 | p3
            elif p3 & bit:
                rows[t] ^= p1 | p2
        labels = list(g.labels)
        labels[u], labels[v] = -g.labels[v], -g.labels[u]
        return LabeledGraph(g.n, tuple(labels), tuple(rows))

    if kind == R5_EXPAND:
        (u,) = site.vertices
        # R2_add of a pair seeing only u, then R4 along the edge to the
        # '-' partner; net effect: u turns '+' and gains two pendant '+'
        # vertices which are not adjacent to each other.
        g2 = apply(g, MoveSite(R2_ADD, neighborhood=frozenset({u})))
        return apply(g2, MoveSite(R4, (u, g.n + 1)))

    if kind == R5_CONTRACT:
        u, p, q = site.vertices
        g2 = apply(g, MoveSite(R4, (u, q)))
        return apply(g2, MoveSite(R2_REMOVE, (p, q)))

    raise MoveError(f"unknown move kind {kind!r}")


def _candidates(g: LabeledGraph, kind: MoveKind) -> Iterable[tuple[int, ...]]:
    """Vertex tuples worth checking for a vertex-indexed kind, in listing
    order and pruned by label only; _precondition() decides."""
    n, labels = g.n, g.labels
    if kind == R1_REMOVE:
        yield from ((v,) for v in range(n))
    elif kind == R2_REMOVE:
        for u in range(n):
            for v in range(u + 1, n):
                if labels[u] != labels[v]:
                    yield (u, v)
    elif kind == R3_FWD:
        for u in range(n):
            if labels[u] == -1 and g.degree(u) == 2:
                yield (u,) + g.neighbors(u)
    elif kind == R3_INV:
        plus = [v for v in range(n) if labels[v] == 1]
        for u in range(n):
            if labels[u] == -1:
                for i, v in enumerate(plus):
                    for w in plus[i + 1 :]:
                        yield (u, v, w)
    elif kind == R4:
        yield from g.edges
    elif kind == R5_EXPAND:
        yield from ((u,) for u in range(n) if labels[u] == -1)
    elif kind == R5_CONTRACT:
        plus = [v for v in range(n) if labels[v] == 1]
        for u in plus:
            pendants = [p for p in plus if g.adj[p] == 1 << u]
            for i, p in enumerate(pendants):
                for q in pendants[i + 1 :]:
                    yield (u, p, q)


def enumerate_sites(
    g: LabeledGraph, kinds: Iterable[MoveKind] | None = None
) -> list[MoveSite]:
    """All applicable sites of the requested kinds, duplicate-free, in
    MoveKind order.

    R1_add always yields its two label variants.  R2_add is an unbounded
    family, so it is enumerated over the neighbourhoods already present in
    the graph plus the empty set.
    """
    wanted = ALL_KINDS if kinds is None else frozenset(MoveKind(k) for k in kinds)
    sites: list[MoveSite] = []
    for kind in MoveKind:
        if kind not in wanted:
            continue
        if kind == R1_ADD:
            sites += [MoveSite(kind, label=1), MoveSite(kind, label=-1)]
        elif kind == R2_ADD:
            for mask in sorted({0, *g.adj}):
                hood = frozenset(t for t in range(g.n) if (mask >> t) & 1)
                sites.append(MoveSite(kind, neighborhood=hood))
        else:
            sites += [
                MoveSite(kind, vs)
                for vs in _candidates(g, kind)
                if _precondition(g, kind, vs) is None
            ]
    return sites


def apply_script(g: LabeledGraph, sites: Iterable[MoveSite]) -> LabeledGraph:
    for site in sites:
        g = apply(g, site)
    return g


# ---------------------------------------------------------------------------
# Move scripts: newline-separated "kind arg1 arg2 ..." lines, 1-based.


def format_site(site: MoveSite) -> str:
    kind = site.kind
    if kind == R1_ADD:
        return f"R1_add {'+' if site.label == 1 else '-'}"
    if kind == R2_ADD:
        body = ",".join(str(t + 1) for t in sorted(site.neighborhood))
        return f"R2_add {body}" if body else "R2_add"
    args = " ".join(str(v + 1) for v in site.vertices)
    return f"{kind.value} {args}" if args else kind.value


def parse_script(text: str) -> list[MoveSite]:
    sites = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name, args = tokens[0], tokens[1:]
        try:
            kind = MoveKind(name)
        except ValueError:
            raise ParseError(f"line {lineno}: unknown move kind {name!r}")
        try:
            if kind == R1_ADD:
                if len(args) != 1 or args[0] not in ("+", "-"):
                    raise ValueError
                sites.append(MoveSite(kind, label=1 if args[0] == "+" else -1))
            elif kind == R2_ADD:
                if len(args) > 1:
                    raise ValueError
                members = frozenset(
                    int(t) - 1 for t in args[0].split(",") if t
                ) if args else frozenset()
                if any(v < 0 for v in members):
                    raise ValueError
                sites.append(MoveSite(kind, neighborhood=members))
            else:
                arity = {
                    R1_REMOVE: 1,
                    R2_REMOVE: 2,
                    R3_FWD: 3,
                    R3_INV: 3,
                    R4: 2,
                    R5_EXPAND: 1,
                    R5_CONTRACT: 3,
                }[kind]
                if len(args) != arity:
                    raise ValueError
                vs = tuple(int(a) - 1 for a in args)
                if any(v < 0 for v in vs):
                    raise ValueError
                sites.append(MoveSite(kind, vs))
        except ValueError:
            raise ParseError(f"line {lineno}: bad arguments for {name}: {args!r}")
    return sites


def format_script(sites: Iterable[MoveSite]) -> str:
    return "\n".join(format_site(s) for s in sites)
