"""Graph-link invariants: Kauffman bracket, writhe, Jones polynomial, and
the minimality/adequacy report.

The bracket of a graph on n vertices is an exact sum over all 2**n states;
the contribution of a state s is a^(2*alpha(s) - n) times the loop factor
(-a^2 - a^-2) raised to the corank of the induced adjacency matrix.  The
sum is taken per reduced component: R2 pairs are deleted first (the second
move leaves the bracket unchanged), and the rest factors over connected
components, because alpha and the corank both add up across a disjoint
union.  Every component, whatever its size, is tallied by (alpha, corank)
in one ``gf2.subset_coranks`` pivot tree, and the merge is an exact
commutative sum.  Whether a sum is refused depends on the input's n, not
on the reduced size.  The writhe takes one GF(2) inverse instead of a
corank per vertex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

from . import gf2
from .errors import DomainError, ResourceLimitError
from .graph import LabeledGraph, a_state, b_state, circle_count
from .laurent import LaurentPoly, loop_factor_pow, one, span, unit_normalize
from .moves import R2_REMOVE, _delete_vertices, _precondition

#: Default cap on the state-sum size (2**n states).
DEFAULT_MAX_N = 24


@lru_cache(maxsize=None)
def _loop_pow(k: int) -> LaurentPoly:
    return loop_factor_pow(k)


def _reduced_components(g: LabeledGraph) -> list[LabeledGraph]:
    """The connected components of g once R2 pairs (a '+' and a '-' vertex
    with equal rows) are deleted until none is left.  Deleting one pair can
    make a new one, so deletion repeats until a round finds nothing."""
    while True:
        groups: dict[int, list[int]] = {}
        pairs: list[int] = []
        for v in range(g.n):
            group = groups.setdefault(g.adj[v], [])
            # a group keeps one label: a vertex of the other label pairs off
            if group and _precondition(g, R2_REMOVE, (group[-1], v)) is None:
                pairs += (group.pop(), v)
            else:
                group.append(v)
        if not pairs:
            break
        g = _delete_vertices(g, pairs)
    parts = []
    unseen = (1 << g.n) - 1
    while unseen:
        comp = todo = unseen & -unseen
        while todo:
            v = todo.bit_length() - 1
            todo ^= 1 << v
            new = g.adj[v] & ~comp
            comp |= new
            todo |= new
        unseen &= ~comp
        parts.append(_delete_vertices(g, [v for v in range(g.n) if not (comp >> v) & 1]))
    return parts


def _state_sum(g: LabeledGraph) -> LaurentPoly:
    """The bracket of g as one sum over all 2**g.n states, with
    alpha(s) = popcount(s XOR B-state)."""
    n = g.n
    total = LaurentPoly()
    for (al, c), weight in gf2.subset_coranks(g.adj, n, b_state(g)).items():
        total = total + _loop_pow(c).scale(weight, 2 * al - n)
    return total


def kauffman_bracket(g: LabeledGraph, max_n: int = DEFAULT_MAX_N) -> LaurentPoly:
    """Exact Kauffman bracket of a labeled graph.

    The product of one state sum per reduced component (see
    ``_reduced_components``); the empty graph gives 1.  A graph with more
    than ``max_n`` or gf2.STATE_SUM_LIMIT vertices is refused before any
    work, however far it would reduce.
    """
    n = g.n
    if n > max_n:
        raise ResourceLimitError(
            f"bracket of {n} vertices needs 2^{n} states (limit max_n={max_n})"
        )
    gf2.check_state_sum(n)
    total = one()
    for part in _reduced_components(g):
        total = total * _state_sum(part)
    return total


def _a_plus_e(g: LabeledGraph) -> list[int]:
    """The rows of A(G) + E, the adjacency matrix with a full diagonal."""
    gf2.check_dim(g.n)
    return [r | 1 << i for i, r in enumerate(g.adj)]


def is_graph_knot(g: LabeledGraph) -> bool:
    """True iff corank(A(G) + E) = 0, i.e. the graph represents a one-
    component object.  Constant across a move orbit, so one representative
    decides."""
    return gf2.corank(_a_plus_e(g)) == 0


def writhe(g: LabeledGraph) -> int:
    """Writhe number: sum over vertices of (-1)^corank(B_i) * sign(v_i),
    with B_i = A + E + E_ii.  Defined only for graph-knots.

    For a graph-knot M = A + E is invertible, and B_i = M + E_ii is a
    rank-one update of it with det(B_i) = 1 + (M^-1)_ii over GF(2).  So
    corank(B_i) is 1 where the inverse's diagonal bit is 1, and 0 elsewhere.
    """
    inv = gf2.inverse(_a_plus_e(g))
    if inv is None:
        raise DomainError("writhe is defined only for graph-knots (corank(A+E)=0)")
    return sum(-s if inv[i] >> i & 1 else s for i, s in enumerate(g.labels))


def jones(g: LabeledGraph, max_n: int = DEFAULT_MAX_N) -> LaurentPoly:
    """Jones polynomial (-a)^(-3w) * <G> of a graph-knot."""
    w = writhe(g)
    return unit_normalize(kauffman_bracket(g, max_n=max_n), w)


@dataclass(frozen=True)
class PropertyReport:
    """Everything the minimality machinery derives from one graph.

    ``span`` and ``vertex_lower_bound`` are None when the graph is too big
    for the state sum; all other fields need only a handful of coranks.
    """

    n: int
    k: int
    l: int
    genus: int
    alternating: bool
    adequate: bool
    non_split: bool
    graph_knot: bool
    span: int | None
    vertex_lower_bound: int | None
    minimal_certified: bool

    def to_json_obj(self) -> dict:
        return asdict(self)


def _locally_minimal(g: LabeledGraph, s: int, circles: int) -> bool:
    # adequate at one state: no single-vertex flip gains a circle
    for v in range(g.n):
        if circle_count(g, s ^ 1 << v) == circles + 1:
            return False
    return True


def analyze(g: LabeledGraph, max_n: int = DEFAULT_MAX_N) -> PropertyReport:
    """Compute the full property report for one representative."""
    n = g.n
    sa = a_state(g)
    sb = b_state(g)
    k = circle_count(g, sa)
    l = circle_count(g, sb)
    genus = 1 - (k + l - n) // 2
    alternating = k + l == n + 2
    adequate = _locally_minimal(g, sa, k) and _locally_minimal(g, sb, l)
    non_split = all(g.adj[v] != 0 for v in range(n))
    knot = is_graph_knot(g)
    if n <= max_n:
        br = kauffman_bracket(g, max_n=max_n)
        sp = span(br) if not br.is_zero() else None
    else:
        sp = None
    lower = None if sp is None else -(-sp // 4)
    return PropertyReport(
        n=n,
        k=k,
        l=l,
        genus=genus,
        alternating=alternating,
        adequate=adequate,
        non_split=non_split,
        graph_knot=knot,
        span=sp,
        vertex_lower_bound=lower,
        minimal_certified=alternating and non_split,
    )


def brackets_unit_equivalent(p: LaurentPoly, q: LaurentPoly) -> bool:
    """Whether q = (-a)^(3k) * p for some integer k (the R1 ambiguity)."""
    if p.is_zero() or q.is_zero():
        return p == q
    shift = q.min_exp - p.min_exp
    if shift % 3:
        return False
    k = shift // 3
    return q == p.scale(-1 if k % 2 else 1, 3 * k)
