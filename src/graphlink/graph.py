"""Labeled graphs, their states, and serialization.

A labeled graph is a simple graph (no loops, no multiple edges) whose
vertices carry a sign +1 or -1.  Vertices are 0-based positional indices
internally; both file formats are 1-based.  Adjacency is one bit row per
vertex, and a state (a vertex subset) is a plain int mask with bit v set
when v is in it.  Graphs are immutable after construction and all queries
are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import gf2
from .errors import ParseError

LABEL_CHARS = {1: "+", -1: "-"}


@dataclass(frozen=True)
class LabeledGraph:
    """Simple graph with +-1 vertex labels; adjacency stored as bit rows."""

    n: int
    labels: tuple[int, ...]
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.labels) != self.n or len(self.adj) != self.n:
            raise ValueError("labels and adjacency rows must have length n")
        for s in self.labels:
            if s not in (1, -1):
                raise ValueError("labels must be +1 or -1")
        for i, row in enumerate(self.adj):
            if row < 0 or row >> self.n:
                raise ValueError("adjacency row out of range")
            if (row >> i) & 1:
                raise ValueError(f"loop at vertex {i} is not allowed")
        # symmetric iff every set bit (i, j) has its mirror (j, i); walking
        # the set bits costs O(n + edges), where testing every pair of the
        # n vertices would be quadratic even in an edgeless graph
        for i, row in enumerate(self.adj):
            while row:
                j = (row & -row).bit_length() - 1
                if not (self.adj[j] >> i) & 1:
                    raise ValueError("adjacency must be symmetric")
                row &= row - 1

    @classmethod
    def from_edges(
        cls, labels: Sequence[int] | str, edges: Iterable[tuple[int, int]] = ()
    ) -> "LabeledGraph":
        """Build from a label sequence ('+-' string or +-1 ints) and 0-based
        edge pairs."""
        if isinstance(labels, str):
            lab = tuple(1 if ch == "+" else -1 for ch in labels)
            if any(ch not in "+-" for ch in labels):
                raise ValueError("label string must contain only '+' and '-'")
        else:
            lab = tuple(labels)
        n = len(lab)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, lab, tuple(rows))

    @classmethod
    def empty(cls) -> "LabeledGraph":
        return cls(0, (), ())

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted 0-based edge pairs (u, v) with u < v."""
        out = []
        for u in range(self.n):
            r = self.adj[u] >> (u + 1)
            v = u + 1
            while r:
                if r & 1:
                    out.append((u, v))
                r >>= 1
                v += 1
        return tuple(out)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u in range(self.n) if (self.adj[v] >> u) & 1)

    def relabel(self, perm: Sequence[int]) -> "LabeledGraph":
        """Apply a permutation: vertex i of the result is vertex perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        inv = [0] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        labels = tuple(self.labels[perm[i]] for i in range(self.n))
        rows = []
        for i in range(self.n):
            src = self.adj[perm[i]]
            packed = 0
            while src:
                j = (src & -src).bit_length() - 1
                packed |= 1 << inv[j]
                src &= src - 1
            rows.append(packed)
        return LabeledGraph(self.n, labels, tuple(rows))


def check_state(g: LabeledGraph, s: int) -> None:
    if s < 0 or s >> g.n:
        raise ValueError(f"state {bin(s)} has vertices outside the graph")


def circle_count(g: LabeledGraph, s: int) -> int:
    """Number of circles of state s: corank of the induced adjacency plus 1."""
    check_state(g, s)
    gf2.check_dim(g.n)
    return gf2.corank([g.adj[v] & s for v in range(g.n) if s >> v & 1]) + 1


def alpha(g: LabeledGraph, s: int) -> int:
    """Count of '-' vertices inside s plus '+' vertices outside s, i.e. the
    number of vertices in which s differs from the B-state."""
    check_state(g, s)
    return (s ^ b_state(g)).bit_count()


def a_state(g: LabeledGraph) -> int:
    """The state holding exactly the '-' vertices."""
    # one base-2 parse is linear in n; summing 1 << v would copy a growing int per vertex
    return int("0" + "".join("1" if sign == -1 else "0" for sign in reversed(g.labels)), 2)


def b_state(g: LabeledGraph) -> int:
    """The state holding exactly the '+' vertices."""
    return a_state(g) ^ (1 << g.n) - 1


# ---------------------------------------------------------------------------
# Serialization.  Compact one-liner: "<n>;<label-string>;<edge-list>" with
# 1-based i-j edges; or JSON {"n":..,"labels":[+-1..],"edges":[[i,j]..]}.


def parse(text: str) -> LabeledGraph:
    """Parse either graph format, auto-detected by the first non-space byte."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return parse_compact(text)


def parse_compact(text: str) -> LabeledGraph:
    line = text.strip()
    parts = line.split(";")
    if len(parts) != 3:
        raise ParseError(
            f"line 1: expected '<n>;<labels>;<edges>' with two ';', got {len(parts) - 1}"
        )
    n_text, label_text, edge_text = (p.strip() for p in parts)
    try:
        n = int(n_text)
    except ValueError:
        raise ParseError(f"line 1, offset 0: vertex count {n_text!r} is not an integer")
    if n < 0:
        raise ParseError("line 1: vertex count must be non-negative")
    if len(label_text) != n:
        raise ParseError(
            f"line 1: expected {n} label characters, got {len(label_text)}"
        )
    for off, ch in enumerate(label_text):
        if ch not in "+-":
            raise ParseError(f"line 1, label {off + 1}: invalid character {ch!r}")
    labels = tuple(1 if ch == "+" else -1 for ch in label_text)
    rows = [0] * n
    if edge_text:
        for off, token in enumerate(edge_text.split(",")):
            token = token.strip()
            pieces = token.split("-")
            if len(pieces) != 2:
                raise ParseError(f"line 1, edge {off + 1}: malformed pair {token!r}")
            try:
                i, j = int(pieces[0]), int(pieces[1])
            except ValueError:
                raise ParseError(f"line 1, edge {off + 1}: malformed pair {token!r}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(
                    f"line 1, edge {off + 1}: vertex out of range in {token!r}"
                )
            if i == j:
                raise ParseError(f"line 1, edge {off + 1}: loop {token!r} not allowed")
            i, j = i - 1, j - 1
            if (rows[i] >> j) & 1:
                raise ParseError(f"line 1, edge {off + 1}: duplicate edge {token!r}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return LabeledGraph(n, labels, tuple(rows))


def from_json(text: str) -> LabeledGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, offset {exc.colno}: {exc.msg}")
    except ValueError:
        # the only other ValueError: an integer literal past int's digit limit
        raise ParseError("JSON graph has an integer literal with too many digits")
    except RecursionError:
        raise ParseError("JSON graph is nested too deeply")
    if not isinstance(obj, dict):
        raise ParseError("JSON graph must be an object")
    try:
        n = obj["n"]
        labels = obj["labels"]
        edges = obj["edges"]
    except KeyError as exc:
        raise ParseError(f"JSON graph missing field {exc.args[0]!r}")
    # type() rather than isinstance(): JSON true/false decode to bool, an int
    # subclass equal to 1/0, and must not pass as a count, label or vertex.
    if type(n) is not int or n < 0:
        raise ParseError("field 'n' must be a non-negative integer")
    if not isinstance(labels, list):
        raise ParseError("field 'labels' must be an array")
    if len(labels) != n or any(type(s) is not int or s not in (1, -1) for s in labels):
        raise ParseError("field 'labels' must be n entries of +1/-1")
    if not isinstance(edges, list):
        raise ParseError("field 'edges' must be an array")
    rows = [0] * n
    for off, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise ParseError(f"edge {off + 1}: must be a 2-element array")
        i, j = e
        if type(i) is not int or type(j) is not int:
            raise ParseError(f"edge {off + 1}: vertices must be integers")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"edge {off + 1}: vertex out of range")
        if i == j:
            raise ParseError(f"edge {off + 1}: loop not allowed")
        i, j = i - 1, j - 1
        if (rows[i] >> j) & 1:
            raise ParseError(f"edge {off + 1}: duplicate edge")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return LabeledGraph(n, tuple(labels), tuple(rows))


def serialize(g: LabeledGraph) -> str:
    """Canonical compact form: labels in order, edges sorted, 1-based."""
    label_text = "".join(LABEL_CHARS[s] for s in g.labels)
    edge_text = ",".join(f"{u + 1}-{v + 1}" for u, v in g.edges)
    return f"{g.n};{label_text};{edge_text}"


def to_json_obj(g: LabeledGraph) -> dict:
    return {
        "n": g.n,
        "labels": list(g.labels),
        "edges": [[u + 1, v + 1] for u, v in g.edges],
    }


def to_json(g: LabeledGraph) -> str:
    return json.dumps(to_json_obj(g))
