"""Expected answers for benchmark requests, computed without graphlink.

Every request is checked after the timed loop against these answers:

* state sums (``bracket``/``jones``/``props``): R2 pairs are stripped and
  each connected component is summed separately (the paper's move
  invariance and multiplicativity), with all coranks from a batched
  Gauss-Jordan elimination over columns (graphlink inserts rows into a
  highest-bit basis instead) and a closed-form binomial expansion of the
  loop factor; small coranks use lowest-bit pivoting;
* ``moves sites``/``moves apply``: the moves written out in ``refgraph``;
* ``orbit``: a separate BFS deduplicating by ``refgraph.canonical_key``
  decides ``visited`` and ``truncated`` exactly, bounds ``min_vertices``
  when the state cap cuts a level, and the witness path is replayed;
* ``realize``: a witness's interlacement graph must be isomorphic to the
  input by backtracking search; graphs with a W5 vertex-minor are not
  circle graphs, so the scan must exhaust (2n-1)!! matchings or the budget.

Stdout is compared byte for byte wherever the output is determined by the
input alone; the orbit witness path and the realize witness diagram depend
on graphlink's search order, so those are checked for validity instead.
"""

from __future__ import annotations

import json
from math import comb

import numpy as np

import refgraph as rg

BLOCK = 1 << 15


def subset_coranks(g: rg.Graph) -> np.ndarray:
    """Corank of every principal submatrix of A(g), indexed by vertex mask."""
    n = g.n
    total = 1 << n
    out = np.empty(total, dtype=np.uint8)
    rows = np.array(g.adj, dtype=np.uint32).reshape(n, 1)
    shifts = np.arange(n, dtype=np.uint32).reshape(n, 1)
    for start in range(0, total, BLOCK):
        masks = np.arange(start, min(start + BLOCK, total), dtype=np.uint32)
        cols = np.arange(masks.size)
        inside = ((masks >> shifts) & 1).astype(bool)
        mat = np.where(inside, rows & masks, np.uint32(0))
        rank = np.zeros(masks.size, dtype=np.uint8)
        for c in range(n):
            bit = ((mat >> np.uint32(c)) & 1).astype(bool)
            has = bit.any(axis=0)
            pivot = bit.argmax(axis=0)
            prow = mat[pivot, cols]
            bit[pivot, cols] = False
            np.bitwise_xor(mat, prow, out=mat, where=bit)
            mat[pivot[has], cols[has]] = 0
            rank += has
        out[start:start + masks.size] = np.bitwise_count(masks).astype(np.uint8) - rank
    return out


def _state_sum(g: rg.Graph) -> dict[int, int]:
    """Sum over states S of a^(2 alpha(S) - n) (-a^2 - a^-2)^corank(A[S])."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.uint32)
    neg = sum(1 << v for v in range(n) if g.labels[v] == -1)
    pos = ((1 << n) - 1) ^ neg
    alphas = np.bitwise_count(masks & np.uint32(neg)).astype(np.int64) + (
        pos.bit_count() - np.bitwise_count(masks & np.uint32(pos)).astype(np.int64))
    counts = np.bincount(alphas * (n + 1) + subset_coranks(g), minlength=(n + 1) ** 2)
    poly: dict[int, int] = {}
    for key in np.flatnonzero(counts):
        alpha, c = divmod(int(key), n + 1)
        weight = int(counts[key]) * (-1) ** c
        for j in range(c + 1):
            e = 2 * alpha - n + 2 * c - 4 * j
            poly[e] = poly.get(e, 0) + weight * comb(c, j)
    return {e: c for e, c in poly.items() if c}


def _strip_twins(g: rg.Graph) -> rg.Graph:
    """Remove R2 pairs (opposite labels, non-adjacent, equal neighbourhoods)
    until none is left; the second move leaves the bracket unchanged."""
    while True:
        pair = next(((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if g.labels[u] != g.labels[v] and g.adj[u] == g.adj[v]
                     and not g.adj[u] >> v & 1), None)
        if pair is None:
            return g
        g = rg.apply(g, ("R2_remove", pair, 0, 0))


def _components(g: rg.Graph) -> list[rg.Graph]:
    left, parts = (1 << g.n) - 1, []
    while left:
        comp = grow = left & -left
        while grow:
            nbrs = 0
            for v in rg.members(grow):
                nbrs |= g.adj[v]
            grow = nbrs & ~comp
            comp |= grow
        left &= ~comp
        parts.append(rg.induced(g, rg.members(comp)))
    return parts


def bracket(g: rg.Graph) -> dict[int, int]:
    """Kauffman bracket as {exponent: coefficient}.  R2 pairs are stripped
    and the state sum is taken per connected component, since the bracket
    is multiplicative over disjoint union."""
    poly = {0: 1}
    for part in _components(_strip_twins(g)):
        factor, product = _state_sum(part), {}
        for e1, c1 in poly.items():
            for e2, c2 in factor.items():
                product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
        poly = {e: c for e, c in product.items() if c}
    return poly


def render(poly: dict[int, int]) -> str:
    if not poly:
        return "0"
    parts = []
    for i, e in enumerate(sorted(poly, reverse=True)):
        c = poly[e]
        body = str(abs(c)) if e == 0 else ("" if abs(c) == 1 else str(abs(c))) + ("a" if e == 1 else f"a^{e}")
        parts.append(("-" if c < 0 else "") + body if i == 0 else (" - " if c < 0 else " + ") + body)
    return "".join(parts)


def poly_json(poly: dict[int, int]) -> str:
    return json.dumps([{"exp": e, "coef": poly[e]} for e in sorted(poly, reverse=True)])


def writhe(g: rg.Graph) -> int:
    full = (1 << g.n) - 1
    total = 0
    for i in range(g.n):
        c = rg.subset_corank(g, full, full ^ (1 << i))
        total += -g.labels[i] if c % 2 else g.labels[i]
    return total


def jones(g: rg.Graph) -> dict[int, int]:
    w = writhe(g)
    sign = -1 if w % 2 else 1
    return {e - 3 * w: sign * c for e, c in bracket(g).items()}


def props(g: rg.Graph) -> dict:
    n = g.n
    full = (1 << n) - 1
    a_mask = sum(1 << v for v in range(n) if g.labels[v] == -1)
    b_mask = full ^ a_mask

    def circles(mask: int) -> int:
        return rg.subset_corank(g, mask) + 1

    def adequate_at(mask: int) -> bool:
        here = circles(mask)
        return all(circles(mask ^ (1 << v)) != here + 1 for v in range(n))

    k, l = circles(a_mask), circles(b_mask)
    poly = bracket(g)
    span = max(poly) - min(poly) if poly else None
    alternating = k + l == n + 2
    non_split = all(g.adj)
    return {
        "n": n,
        "k": k,
        "l": l,
        "genus": 1 - (k + l - n) // 2,
        "alternating": alternating,
        "adequate": adequate_at(a_mask) and adequate_at(b_mask),
        "non_split": non_split,
        "graph_knot": rg.is_graph_knot(g),
        "span": span,
        "vertex_lower_bound": None if span is None else -(-span // 4),
        "minimal_certified": alternating and non_split,
    }


def _lines(text: str) -> str:
    return text + "\n"


def expected_state_sum(command: str, g: rg.Graph, as_json: bool) -> str:
    if command == "props":
        report = props(g)
        if as_json:
            return _lines(json.dumps(report))
        return "".join(f"{k} = {v}\n" for k, v in report.items())
    poly = bracket(g) if command == "bracket" else jones(g)
    return _lines(poly_json(poly) if as_json else render(poly))


def expected_sites(g: rg.Graph, as_json: bool) -> str:
    lines = [rg.format_site(s) for s in rg.all_sites(g)]
    return _lines(json.dumps(lines)) if as_json else "".join(f"{x}\n" for x in lines)


def expected_apply(g: rg.Graph, script: list[tuple], as_json: bool) -> str:
    for site in script:
        g = rg.apply(g, site)
    return _lines(rg.to_json(g) if as_json else rg.serialize(g))


# ---------------------------------------------------------------------------
# orbit


def orbit_summary(g: rg.Graph, max_vertices: int, max_depth: int, max_states: int) -> dict:
    """Level-by-level BFS over isomorphism classes with the documented bounds.

    Returns visited, truncated, and the range min_vertices may take: exact
    unless the state cap admits only part of a level, in which case the
    admitted subset (and so the minimum) depends on the key order."""
    seen = {rg.canonical_key(g)}
    frontier = [g]
    low = high = g.n
    truncated = False
    for _ in range(max_depth):
        if not frontier:
            break
        found: dict[tuple, rg.Graph] = {}
        for parent in frontier:
            for site in rg.sites(parent):
                child = rg.apply(parent, site)
                if child.n > max_vertices:
                    continue
                key = rg.canonical_key(child)
                if key not in seen and key not in found:
                    found[key] = child
        room = max_states - len(seen)
        level_min = min((h.n for h in found.values()), default=high)
        if len(found) > room:
            seen.update(list(found)[:max(room, 0)])
            truncated = True
            if room > 0:
                low = min(low, level_min)
            break
        seen.update(found)
        frontier = list(found.values())
        low = high = min(high, level_min)
    else:
        truncated = bool(frontier)
    return {"visited": len(seen), "truncated": truncated, "min_low": low, "min_high": high}


def render_orbit(visited: int, min_v: int, truncated: bool, path: str, as_json: bool) -> str:
    if as_json:
        return _lines(json.dumps({"visited": visited, "min_vertices": min_v,
                                  "truncated": truncated, "witness_path": path}))
    text = f"visited = {visited}\nmin_vertices = {min_v}\ntruncated = {truncated}\n"
    if path:
        text += "witness_path:\n" + "".join(f"  {x}\n" for x in path.splitlines())
    return text


def check_orbit(g: rg.Graph, params: tuple[int, int, int], as_json: bool, stdout: str) -> bool:
    max_vertices, max_depth, max_states = params
    if as_json:
        obj = json.loads(stdout)
        visited, min_v, truncated, path = (obj["visited"], obj["min_vertices"],
                                           obj["truncated"], obj["witness_path"])
    else:
        lines = stdout.splitlines()
        visited = int(lines[0].removeprefix("visited = "))
        min_v = int(lines[1].removeprefix("min_vertices = "))
        truncated = lines[2] == "truncated = True"
        path = "\n".join(x.strip() for x in lines[4:])
    if stdout != render_orbit(visited, min_v, truncated, path, as_json):
        return False
    ref = orbit_summary(g, max_vertices, max_depth, max_states)
    if (visited, truncated) != (ref["visited"], ref["truncated"]):
        return False
    if not ref["min_low"] <= min_v <= ref["min_high"]:
        return False
    steps = [rg.parse_site(x) for x in path.splitlines()]
    if len(steps) > max_depth:
        return False
    h = g
    for site in steps:
        h = rg.apply(h, site)
        if h.n > max_vertices:
            return False
    return h.n == min_v


# ---------------------------------------------------------------------------
# realize


def check_witness(g: rg.Graph, diagram: str) -> bool:
    word_text, sign_text = diagram.split(";")
    word = [int(t) for t in word_text.split()]
    if sorted(word) != sorted(2 * list(range(1, g.n + 1))) or len(sign_text) != g.n:
        return False
    signs = [1 if ch == "+" else -1 for ch in sign_text]
    return rg.isomorphic(rg.interlacement(word, signs), g)


def check_realize(g: rg.Graph, realizable: bool, budget: int | None, as_json: bool,
                  stdout: str) -> bool:
    scan = rg.double_factorial(2 * g.n - 1)
    if not realizable:
        exhausted = budget is None or budget > scan
        checked = scan if exhausted else budget
        if as_json:
            want = json.dumps({"found": False, "diagram": None, "exhausted": exhausted,
                               "checked": checked})
        else:
            want = f"none (exhausted={str(exhausted).lower()}, checked={checked})"
        return stdout == _lines(want)
    if as_json:
        obj = json.loads(stdout)
        return (stdout == _lines(json.dumps(obj)) and obj["found"] is True
                and obj["exhausted"] is False and 1 <= obj["checked"] <= scan
                and check_witness(g, obj["diagram"]))
    return stdout.endswith("\n") and stdout.count("\n") == 1 and check_witness(g, stdout[:-1])
