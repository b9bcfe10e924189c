"""Graph-link invariants: Kauffman bracket, writhe, Jones polynomial, and
the minimality/adequacy report.

The bracket of a graph on n vertices is an exact sum over all 2**n states;
the contribution of a state s is a^(2*alpha(s) - n) times the loop factor
(-a^2 - a^-2) raised to the corank of the induced adjacency matrix.  States
are enumerated in bitmask order and may be partitioned across threads; the
merge is an exact commutative sum, so the result is bit-identical for any
worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .errors import DomainError, ResourceLimitError
from .graph import LabeledGraph, State, a_state, adjacency_matrix, b_state, circle_count
from .laurent import LaurentPoly, loop_factor_pow, span, unit_normalize

#: Default cap on the state-sum size (2**n states).
DEFAULT_MAX_N = 24


@lru_cache(maxsize=None)
def _loop_pow(k: int) -> LaurentPoly:
    return loop_factor_pow(k)


def kauffman_bracket(
    g: LabeledGraph, max_n: int = DEFAULT_MAX_N, threads: int = 1
) -> LaurentPoly:
    """Exact Kauffman bracket of a labeled graph.

    States are tallied by (alpha, corank), with alpha(s) = popcount(s XOR
    B-state), one block of 2**gf2.BLOCK_BITS masks at a time, so the only
    array over all 2**n states is the uint8 corank vector.  Above
    gf2.STATE_SUM_LIMIT the sweep is refused before it allocates, whatever
    ``max_n`` says.
    """
    n = g.n
    if n > max_n:
        raise ResourceLimitError(
            f"bracket of {n} vertices needs 2^{n} states (limit max_n={max_n})"
        )
    coranks = gf2.subset_coranks(g.adj, n, threads=threads)
    b = np.uint32(b_state(g).mask)
    width = n + 1
    counts = np.zeros(width * width, dtype=np.int64)
    step = 1 << gf2.BLOCK_BITS
    for start in range(0, 1 << n, step):
        masks = np.arange(start, min(start + step, 1 << n), dtype=np.uint32)
        alphas = np.bitwise_count(masks ^ b).astype(np.intp)
        keys = alphas * width + coranks[start : start + step]
        counts += np.bincount(keys, minlength=width * width)
    total = LaurentPoly()
    for key in np.flatnonzero(counts):
        al, c = divmod(int(key), width)
        weight = int(counts[key])
        total = total + _loop_pow(c).scale(weight, 2 * al - n)
    return total


def is_graph_knot(g: LabeledGraph) -> bool:
    """True iff corank(A(G) + E) = 0, i.e. the graph represents a one-
    component object.  Constant across a move orbit, so one representative
    decides."""
    return gf2.corank(gf2.add_identity(adjacency_matrix(g))) == 0


def writhe(g: LabeledGraph) -> int:
    """Writhe number: sum over vertices of (-1)^corank(B_i) * sign(v_i),
    with B_i = A + E + E_ii.  Defined only for graph-knots."""
    if not is_graph_knot(g):
        raise DomainError("writhe is defined only for graph-knots (corank(A+E)=0)")
    base = gf2.add_identity(adjacency_matrix(g))
    total = 0
    for i in range(g.n):
        c = gf2.corank(gf2.flip_diagonal(base, i))
        total += -g.labels[i] if c % 2 else g.labels[i]
    return total


def jones(g: LabeledGraph, max_n: int = DEFAULT_MAX_N, threads: int = 1) -> LaurentPoly:
    """Jones polynomial (-a)^(-3w) * <G> of a graph-knot."""
    w = writhe(g)
    return unit_normalize(kauffman_bracket(g, max_n=max_n, threads=threads), w)


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


def _locally_minimal(g: LabeledGraph, s: State, circles: int) -> bool:
    # adequate at one state: no single-vertex flip gains a circle
    for v in range(g.n):
        if circle_count(g, State(s.mask ^ (1 << v))) == circles + 1:
            return False
    return True


def analyze(
    g: LabeledGraph, max_n: int = DEFAULT_MAX_N, threads: int = 1
) -> PropertyReport:
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
        br = kauffman_bracket(g, max_n=max_n, threads=threads)
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
