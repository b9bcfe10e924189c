"""Labeled-graph canonical forms and bounded exploration of the move graph.

Canonicalization is individualization-refinement: vertices are coloured by
(label, degree), colours are refined by neighbour-colour multisets until
stable, and non-singleton cells are split by individualizing one candidate
per twin class (two vertices are twins when swapping them is an
automorphism, which is exactly what repeated R1/R2 moves mass-produce).
The canonical key is the lexicographically least encoding over all leaves,
so it is identical for every vertex ordering of the same labeled graph.

BFS over the move graph is bounded by vertex count, depth, and state
count; non-reachability inside those bounds is never evidence of
inequivalence, which is why the equivalence test returns a tri-state.
Moves often rebuild a graph already generated, row for row, so the BFS
canonicalizes each distinct raw ``(labels, adj)`` once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import gf2, moves
from .errors import ResourceLimitError
from .graph import LabeledGraph
from .invariants import brackets_unit_equivalent, is_graph_knot, kauffman_bracket, writhe
from .laurent import unit_normalize

#: Safety valve for pathological symmetry the twin pruning cannot collapse.
LEAF_LIMIT = 200_000

EQUIVALENT = "equivalent"
DISTINCT = "distinct_by_invariant"
UNKNOWN = "unknown"


def _refine(g: LabeledGraph, colors: list[int]) -> list[int]:
    n = g.n
    while True:
        sigs = []
        for v in range(n):
            nbr = []
            row = g.adj[v]
            while row:
                u = (row & -row).bit_length() - 1
                nbr.append(colors[u])
                row &= row - 1
            nbr.sort()
            sigs.append((colors[v], tuple(nbr)))
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _initial_colors(g: LabeledGraph) -> list[int]:
    base = [(g.labels[v], g.degree(v)) for v in range(g.n)]
    order = {sig: i for i, sig in enumerate(sorted(set(base)))}
    return _refine(g, [order[b] for b in base])


def _twin_classes(g: LabeledGraph) -> list[int]:
    """Partition id per vertex; twins have equal labels and equal
    neighbourhoods once the mutual pair bits are masked off."""
    n = g.n
    rep = list(range(n))
    for u in range(n):
        if rep[u] != u:
            continue
        for v in range(u + 1, n):
            if rep[v] != v or g.labels[u] != g.labels[v]:
                continue
            mask = ~((1 << u) | (1 << v))
            if (g.adj[u] ^ g.adj[v]) & mask == 0:
                rep[v] = u
    return rep


def _encode(g: LabeledGraph, order: list[int]) -> bytes:
    n = g.n
    bits = bytearray()
    bits.append(n)
    bits.extend(1 if g.labels[v] == 1 else 0 for v in order)
    acc = 0
    count = 0
    for i in range(n):
        ri = g.adj[order[i]]
        for j in range(i + 1, n):
            acc = (acc << 1) | ((ri >> order[j]) & 1)
            count += 1
            if count == 8:
                bits.append(acc)
                acc = count = 0
    if count:
        bits.append(acc << (8 - count))
    return bytes(bits)


def canonical_permutation(g: LabeledGraph) -> tuple[bytes, tuple[int, ...]]:
    """Canonical key plus a vertex order realizing it (position -> vertex)."""
    n = g.n
    if n == 0:
        return b"\x00", ()
    twins = _twin_classes(g)
    best: list[bytes | None] = [None]
    best_order: list[tuple[int, ...]] = [()]
    leaves = [0]

    def descend(colors: list[int]) -> None:
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            leaves[0] += 1
            if leaves[0] > LEAF_LIMIT:
                raise ResourceLimitError(
                    "canonical form search exceeded the leaf limit"
                )
            order = sorted(range(n), key=colors.__getitem__)
            enc = _encode(g, order)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best_order[0] = tuple(order)
            return
        tried = set()
        for v in target:
            if twins[v] in tried:
                continue
            tried.add(twins[v])
            child = [2 * c for c in colors]
            child[v] -= 1
            descend(_refine(g, child))

    descend(_initial_colors(g))
    assert best[0] is not None
    return best[0], best_order[0]


def canonical_form(g: LabeledGraph) -> bytes:
    """Byte string identifying g up to label-preserving isomorphism."""
    return canonical_permutation(g)[0]


@dataclass(frozen=True)
class OrbitNode:
    graph: LabeledGraph
    depth: int
    path: tuple[moves.MoveSite, ...]


@dataclass(frozen=True)
class OrbitReport:
    start_key: bytes
    nodes: dict[bytes, OrbitNode]
    min_vertices: int
    truncated: bool
    witness_path: tuple[moves.MoveSite, ...]

    @property
    def visited(self) -> int:
        return len(self.nodes)

    def to_json_obj(self) -> dict:
        return {
            "visited": self.visited,
            "min_vertices": self.min_vertices,
            "truncated": self.truncated,
            "witness_path": moves.format_script(self.witness_path),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def bfs_orbit(
    g: LabeledGraph,
    max_vertices: int | None = None,
    max_depth: int = 6,
    max_states: int = 10**6,
) -> OrbitReport:
    """Breadth-first exploration of the move graph from g.

    Applies the four moves in both directions, with the add-pair move
    restricted to neighbourhoods already present in the current graph.
    Deduplication is by canonical key; within each level newly found keys
    are merged in byte order, so the visited set is reproducible.  A child
    whose raw ``(labels, adj)`` was already generated in this BFS has a key
    already found, so it is skipped without being canonicalized.
    """
    gf2.check_dim(g.n)  # a level lists O(n^3) sites, one canonical form each
    if max_vertices is None:
        max_vertices = g.n + 2
    start_key = canonical_form(g)
    nodes: dict[bytes, OrbitNode] = {start_key: OrbitNode(g, 0, ())}
    seen = {(g.labels, g.adj)}
    frontier = [start_key]
    truncated = False
    for depth in range(1, max_depth + 1):
        if not frontier or truncated:
            break
        found: dict[bytes, OrbitNode] = {}
        for key in frontier:
            parent = nodes[key]
            for site in moves.enumerate_sites(parent.graph, moves.BASIC_KINDS):
                child = moves.apply(parent.graph, site)
                raw = (child.labels, child.adj)
                if child.n > max_vertices or raw in seen:
                    continue
                seen.add(raw)
                ckey = canonical_form(child)
                if ckey in nodes or ckey in found:
                    continue
                found[ckey] = OrbitNode(child, depth, parent.path + (site,))
        new_keys = sorted(found)
        frontier = []
        for ckey in new_keys:
            if len(nodes) >= max_states:
                truncated = True
                break
            nodes[ckey] = found[ckey]
            frontier.append(ckey)
        if truncated:
            break
    else:
        if frontier:
            truncated = True

    min_vertices = min(node.graph.n for node in nodes.values())
    witness: tuple[moves.MoveSite, ...] = ()
    for ckey in sorted(nodes):
        node = nodes[ckey]
        if node.graph.n == min_vertices:
            witness = node.path
            break
    return OrbitReport(start_key, nodes, min_vertices, truncated, witness)


def are_equivalent_bounded(
    g1: LabeledGraph,
    g2: LabeledGraph,
    max_vertices: int | None = None,
    max_depth: int = 6,
    max_states: int = 10**6,
    max_n: int = 24,
) -> str:
    """Tri-state bounded equivalence test.

    "equivalent" when the bounded orbits meet, "distinct_by_invariant"
    when the bracket (up to unit), graph-knot status, or Jones polynomial
    separate the two, otherwise "unknown".
    """
    key2 = canonical_form(g2)
    if canonical_form(g1) == key2:
        return EQUIVALENT
    k1, k2 = is_graph_knot(g1), is_graph_knot(g2)
    if k1 != k2:
        return DISTINCT
    if g1.n <= max_n and g2.n <= max_n:
        b1 = kauffman_bracket(g1, max_n=max_n)
        b2 = kauffman_bracket(g2, max_n=max_n)
        if not brackets_unit_equivalent(b1, b2):
            return DISTINCT
        if k1 and unit_normalize(b1, writhe(g1)) != unit_normalize(b2, writhe(g2)):
            return DISTINCT
    if max_vertices is None:
        max_vertices = max(g1.n, g2.n) + 2
    r1 = bfs_orbit(g1, max_vertices, max_depth, max_states)
    if key2 in r1.nodes:
        return EQUIVALENT
    r2 = bfs_orbit(g2, max_vertices, max_depth, max_states)
    if r1.nodes.keys() & r2.nodes.keys():
        return EQUIVALENT
    return UNKNOWN
