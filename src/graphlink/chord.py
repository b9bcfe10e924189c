"""Chord diagrams: interlacement graphs, the surgery circle-count oracle,
an independent bracket, and an exhaustive realizability scan that prunes
subtrees by degree but counts every matching in them.

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
    """Search chord diagrams whose intersection graph is isomorphic to g
    (label-preserving), in a fixed order over all (2n-1)!! matchings.

    Positions 0..2n-1 are paired depth-first: the first free position p gets
    the next chord id and is paired with each later free q in turn, so the
    chord at position 0 is chord 1 and rotations are quotiented.  A placed
    chord crosses exactly the earlier chords whose second endpoint lies
    between its own endpoints (every earlier first endpoint is before p), and
    its degree is final once the first free position passes its second
    endpoint.  A subtree is pruned when some chord's degree exceeds g's
    maximum degree, or when the closed chords of one degree outnumber g's
    vertices of that degree: none of its leaves has g's degree sequence.
    Each surviving leaf is compared with g by canonical key.

    ``checked`` counts matchings in scan order, a pruned subtree of k
    unplaced chords counting all its (2k-1)!! leaves, so it equals the
    count of a scan that builds every matching.  Returns the first witness;
    or None with exhausted=True after the whole scan, or exhausted=False
    when the leaf that reaches ``budget`` is not a witness.
    """
    n = g.n
    if n > max_n:
        raise ResourceLimitError(
            f"realizability search over (2n-1)!! matchings refused for n={n} > {max_n}"
        )

    target_key, target_perm = orbit.canonical_permutation(LabeledGraph(n, (1,) * n, g.adj))
    degrees = [g.degree(v) for v in range(n)]
    want = [degrees.count(d) for d in range(n + 1)]  # vertices of g per degree
    max_deg = max(degrees, default=0)
    leaves = [1] * (n + 1)  # leaves[k] = (2k-1)!!, the matchings of k chords
    for k in range(1, n + 1):
        leaves[k] = leaves[k - 1] * (2 * k - 1)

    m = 2 * n
    chord_of = [0] * m  # chord id at each position, 0 while free
    deg = [0] * (n + 1)  # crossings of each placed chord so far
    closed = [0] * (n + 1)  # closed chords per degree
    checked = 0
    witness: ChordDiagram | None = None
    truncated = False

    def skip(count: int) -> bool:
        # count leaves that hold no witness; True when the budget ends the scan
        nonlocal checked, truncated
        if budget is not None and checked + count >= budget:
            checked = max(checked + 1, budget)  # the first leaf at or past the budget
            truncated = True
            return True
        checked += count
        return False

    def leaf() -> bool:
        # the degree multisets agree: n chords are closed, none beyond want
        nonlocal checked, witness
        cand = intersection_graph(ChordDiagram(tuple(chord_of), (1,) * n))
        key, perm = orbit.canonical_permutation(cand)
        if key != target_key:
            return skip(1)
        checked += 1
        # perm maps canonical position -> vertex; compose to map cand -> g
        iso = [0] * n
        for pos in range(n):
            iso[perm[pos]] = target_perm[pos]
        witness = ChordDiagram(tuple(chord_of), tuple(g.labels[iso[c]] for c in range(n)))
        return True

    def place(pos: int, next_id: int) -> bool:
        # chords 1..next_id-1 are placed; close the chords whose second
        # endpoint the first free position passes, then branch or stop
        start = pos
        while pos < m and chord_of[pos]:
            d = deg[chord_of[pos]]
            closed[d] += 1
            pos += 1
            if closed[d] > want[d]:
                stop = skip(leaves[n + 1 - next_id])
                break
        else:
            stop = leaf() if pos == m else branch(pos, next_id)
        for p in range(start, pos):
            closed[deg[chord_of[p]]] -= 1
        return stop

    def branch(pos: int, next_id: int) -> bool:
        # pair the first free position with each later free q in turn
        each = leaves[n - next_id]  # leaves below one choice of q
        left = 2 * (n - next_id) + 1  # choices of q not yet scanned
        stop = False
        for q in range(pos + 1, m):
            c = chord_of[q]
            if c:
                # c ends here, so (pos, q') crosses it for every later q'
                deg[c] += 1
                deg[next_id] += 1
                if deg[c] > max_deg or deg[next_id] > max_deg:
                    stop = skip(left * each)
                    break
            else:
                chord_of[pos] = chord_of[q] = next_id
                stop = place(pos + 1, next_id + 1)
                chord_of[pos] = chord_of[q] = 0
                if stop:
                    break
                left -= 1
        for p in range(pos + 1, q + 1):
            if chord_of[p]:
                deg[chord_of[p]] -= 1
        deg[next_id] = 0
        return stop

    place(0, 1)
    exhausted = witness is None and not truncated
    return RealizabilityResult(witness, exhausted, checked)
