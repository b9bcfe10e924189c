"""Graph-link invariants: Kauffman bracket, writhe, Jones polynomial, and
the minimality/adequacy report.

The bracket of a graph on n vertices is an exact sum over all 2**n states;
the contribution of a state s is a^(2*alpha(s) - n) times the loop factor
(-a^2 - a^-2) raised to the corank of the induced adjacency matrix.  The
sum is taken per reduced component: R2 pairs are deleted first (the second
move leaves the bracket unchanged), and the rest factors over connected
components, because alpha and the corank both add up across a disjoint
union.  A component of at most ``_PYTHON_SWEEP_MAX_N`` vertices is swept
state by state in pure Python; a larger one by ``gf2.subset_coranks``,
which sizes its own worker pool.  Either way the states are tallied by
(alpha, corank) and the merge is an exact commutative sum, so the result
is bit-identical for any path or worker count.  Whether a sum is refused
depends on the input's n, not on the reduced size.
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

#: Largest component swept in pure Python.  Past it the per-state loop
#: costs more than the numpy sweep's fixed cost per call (the two are
#: level at 9 vertices).
_PYTHON_SWEEP_MAX_N = 8


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


def _tally_per_state(g: LabeledGraph) -> dict[tuple[int, int], int]:
    """Count of states by (alpha, corank), one ``circle_count`` per state."""
    b = b_state(g)
    tally: dict[tuple[int, int], int] = {}
    for s in range(1 << g.n):
        key = ((s ^ b).bit_count(), circle_count(g, s) - 1)
        tally[key] = tally.get(key, 0) + 1
    return tally


def _tally_vectorized(g: LabeledGraph) -> dict[tuple[int, int], int]:
    """Count of states by (alpha, corank) from ``gf2.subset_coranks``, one
    block of 2**gf2.BLOCK_BITS masks at a time, so the only array over all
    2**n states is the uint8 corank vector."""
    import numpy as np

    n = g.n
    coranks = gf2.subset_coranks(g.adj, n)
    b = np.uint32(b_state(g))
    width = n + 1
    counts = np.zeros(width * width, dtype=np.int64)
    step = 1 << gf2.BLOCK_BITS
    for start in range(0, 1 << n, step):
        masks = np.arange(start, min(start + step, 1 << n), dtype=np.uint32)
        alphas = np.bitwise_count(masks ^ b).astype(np.intp)
        keys = alphas * width + coranks[start : start + step]
        counts += np.bincount(keys, minlength=width * width)
    return {divmod(int(key), width): int(counts[key]) for key in np.flatnonzero(counts)}


def _state_sum(g: LabeledGraph) -> LaurentPoly:
    """The bracket of g as one sweep over all 2**g.n states, with
    alpha(s) = popcount(s XOR B-state)."""
    n = g.n
    if n <= _PYTHON_SWEEP_MAX_N:
        tally = _tally_per_state(g)
    else:
        tally = _tally_vectorized(g)
    total = LaurentPoly()
    for (al, c), weight in tally.items():
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
    with B_i = A + E + E_ii.  Defined only for graph-knots."""
    rows = _a_plus_e(g)
    if gf2.corank(rows):
        raise DomainError("writhe is defined only for graph-knots (corank(A+E)=0)")
    total = 0
    for i in range(g.n):
        rows[i] ^= 1 << i
        c = gf2.corank(rows)
        rows[i] ^= 1 << i
        total += -g.labels[i] if c % 2 else g.labels[i]
    return total


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
