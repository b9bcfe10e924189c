"""Chord diagrams: interlacement graphs, the surgery circle-count oracle,
an independent bracket, and brute-force realizability search.

A diagram is a cyclic word on 2n positions in which each chord id 1..n
appears exactly twice, plus a sign per chord.  Surgery along a subset of
chords reroutes the circle: the successor permutation of the 2n positions
is composed with the transposition of each selected chord's endpoints, and
the number of circles is the cycle count of the result.  This gives a
count of actual circles that the GF(2) corank formula must reproduce,
which is what makes the diagram side a genuinely independent oracle for
the graph-side bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, ParseError, ResourceLimitError
from .graph import LabeledGraph
from .laurent import LaurentPoly, loop_factor_pow
from . import gf2, orbit

#: Default cap for the exhaustive realizability scan; (2n-1)!! matchings.
REALIZE_MAX_N = 8


@dataclass(frozen=True)
class ChordDiagram:
    """Signed perfect matching on 2n cyclically ordered points."""

    word: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.signs)
        if len(self.word) != 2 * n:
            raise ValueError("word must have exactly two positions per chord")
        seen: dict[int, int] = {}
        for c in self.word:
            seen[c] = seen.get(c, 0) + 1
        if seen and (set(seen) != set(range(1, n + 1)) or any(v != 2 for v in seen.values())):
            raise ValueError("chord ids must be 1..n, each appearing exactly twice")
        for s in self.signs:
            if s not in (1, -1):
                raise ValueError("signs must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.signs)

    def endpoints(self, c: int) -> tuple[int, int]:
        """The two positions of chord c, in increasing order."""
        hits = [i for i, x in enumerate(self.word) if x == c]
        if len(hits) != 2:
            raise DomainError(f"unknown chord id {c}")
        return hits[0], hits[1]


def parse_diagram(text: str) -> ChordDiagram:
    """Parse '<word>;<signs>', e.g. '1 2 1 2;++'."""
    line = text.strip()
    parts = line.split(";")
    if len(parts) != 2:
        raise ParseError("line 1: expected '<word>;<signs>' with one ';'")
    word_text, sign_text = parts[0].strip(), parts[1].strip()
    word: list[int] = []
    for off, token in enumerate(word_text.split()):
        try:
            word.append(int(token))
        except ValueError:
            raise ParseError(f"line 1, token {off + 1}: {token!r} is not a chord id")
    for off, ch in enumerate(sign_text):
        if ch not in "+-":
            raise ParseError(f"line 1, sign {off + 1}: invalid character {ch!r}")
    signs = tuple(1 if ch == "+" else -1 for ch in sign_text)
    try:
        return ChordDiagram(tuple(word), signs)
    except ValueError as exc:
        raise ParseError(f"line 1: {exc}")


def serialize_diagram(d: ChordDiagram) -> str:
    word = " ".join(str(c) for c in d.word)
    signs = "".join("+" if s == 1 else "-" for s in d.signs)
    return f"{word};{signs}"


def linked(d: ChordDiagram, c1: int, c2: int) -> bool:
    """True iff the two chords interleave (c1 c2 c1 c2 around the circle)."""
    if c1 == c2:
        raise DomainError("linkedness needs two distinct chords")
    a1, a2 = d.endpoints(c1)
    b1, b2 = d.endpoints(c2)
    return (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2)


def intersection_graph(d: ChordDiagram) -> LabeledGraph:
    """Labeled graph on the chords; edges join linked pairs, vertex i gets
    the sign of chord i+1."""
    n = d.n
    ends = [d.endpoints(c) for c in range(1, n + 1)]
    edges = []
    for i in range(n):
        a1, a2 = ends[i]
        for j in range(i + 1, n):
            b1, b2 = ends[j]
            if (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2):
                edges.append((i, j))
    return LabeledGraph.from_edges(d.signs, edges)


def surgery_circle_count(d: ChordDiagram, chords: Iterable[int]) -> int:
    """Number of circles after banding the circle along the given chords.

    The successor of position x becomes the successor of x's partner for
    endpoints of selected chords; unselected endpoints keep their own
    successor.  The count is the number of cycles of that permutation.
    """
    m = 2 * d.n
    if m == 0:
        return 1
    match = list(range(m))
    for c in set(chords):
        p, q = d.endpoints(c)
        match[p], match[q] = q, p
    seen = [False] * m
    cycles = 0
    for start in range(m):
        if seen[start]:
            continue
        cycles += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = (match[x] + 1) % m
    return cycles


def bracket_via_surgery(d: ChordDiagram, max_n: int = 24) -> LaurentPoly:
    """State-sum bracket computed purely from surgery circle counts.

    Refused like the graph-side sum: n > ``max_n`` or n >
    gf2.STATE_SUM_LIMIT raises ResourceLimitError before the loop.
    """
    n = d.n
    if n > max_n:
        raise ResourceLimitError(
            f"diagram bracket of {n} chords needs 2^{n} states (limit max_n={max_n})"
        )
    gf2.check_state_sum(n)
    total = LaurentPoly()
    for mask in range(1 << n):
        selected = [c for c in range(1, n + 1) if (mask >> (c - 1)) & 1]
        gamma = surgery_circle_count(d, selected)
        al = sum(1 for c in selected if d.signs[c - 1] == -1) + sum(
            1
            for c in range(1, n + 1)
            if not ((mask >> (c - 1)) & 1) and d.signs[c - 1] == 1
        )
        total = total + loop_factor_pow(gamma - 1).scale(1, 2 * al - n)
    return total


@dataclass(frozen=True)
class RealizabilityResult:
    diagram: ChordDiagram | None
    exhausted: bool
    checked: int


def realizability_search(
    g: LabeledGraph, budget: int | None = None, max_n: int = REALIZE_MAX_N
) -> RealizabilityResult:
    """Exhaustively search chord diagrams whose intersection graph is
    isomorphic to g (label-preserving).

    All perfect matchings of 2n circle positions are enumerated with the
    chord at position 0 pinned as chord 1, so rotations are quotiented;
    that leaves (2n-1)!! candidate diagrams.  Returns the first witness
    found, or None with exhausted=True after a complete scan (or
    exhausted=False if ``budget`` truncated it).
    """
    n = g.n
    if n > max_n:
        raise ResourceLimitError(
            f"realizability search over (2n-1)!! matchings refused for n={n} > {max_n}"
        )

    target_degrees = sorted(g.degree(v) for v in range(n))
    plain = LabeledGraph(n, (1,) * n, g.adj)
    target_key, target_perm = orbit.canonical_permutation(plain)

    m = 2 * n
    partner = [-1] * m
    chord_of = [-1] * m
    first_pos = [0] * (n + 1)
    rows = [0] * (n + 1)  # interlacement rows, 1-based chord ids
    checked = 0
    witness: ChordDiagram | None = None
    truncated = False

    def attempt() -> ChordDiagram | None:
        # full matching placed; cheap filters, then isomorphism
        degs = sorted(rows[c].bit_count() for c in range(1, n + 1))
        if degs != target_degrees:
            return None
        cand = LabeledGraph(n, (1,) * n, tuple(r >> 1 for r in rows[1:]))
        key, perm = orbit.canonical_permutation(cand)
        if key != target_key:
            return None
        # perm maps canonical position -> vertex; compose to map cand -> g
        iso = [0] * n
        for pos in range(n):
            iso[perm[pos]] = target_perm[pos]
        signs = tuple(g.labels[iso[c]] for c in range(n))
        return ChordDiagram(tuple(chord_of), signs)

    def place(pos: int, next_id: int) -> bool:
        # returns True when the scan should stop (witness or budget)
        nonlocal checked, witness, truncated
        while pos < m and partner[pos] != -1:
            pos += 1
        if pos == m:
            checked += 1
            found = attempt()
            if found is not None:
                witness = found
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
                a1, a2 = (p1, p2) if p1 < p2 else (p2, p1)
                if (a1 < pos < a2 < q) or (pos < a1 < q < a2):
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
    exhausted = witness is None and not truncated
    return RealizabilityResult(witness, exhausted, checked)
