"""Span tracing of graphlink's public functions, applied from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
graphlink module namespace that holds it (so ``from x import f`` bindings
are covered) and on ``LaurentPoly`` for the ring operations.  A span is
[name, start, end, parent index, request id, detail]; spans stay in memory
until the run ends and are then reduced to the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

NAME, START, END, PARENT, REQ, DETAIL = range(6)

# (module, attribute, span name, detail taken from (args, result) or None)
TARGETS = [
    ("graphlink.cli", "main", "cli.main", None),
    ("graphlink.graph", "parse", "graph.parse", None),
    ("graphlink.invariants", "kauffman_bracket", "invariants.kauffman_bracket", None),
    ("graphlink.invariants", "analyze", "invariants.analyze", None),
    ("graphlink.invariants", "jones", "invariants.jones", None),
    ("graphlink.invariants", "writhe", "invariants.writhe", None),
    ("graphlink.gf2", "subset_coranks", "gf2.subset_coranks", lambda a, r: 1 << a[1]),
    ("graphlink.gf2", "corank", "gf2.corank", None),
    ("graphlink.moves", "enumerate_sites", "moves.enumerate_sites", lambda a, r: len(r)),
    ("graphlink.moves", "apply", "moves.apply", None),
    ("graphlink.moves", "apply_script", "moves.apply_script", None),
    ("graphlink.orbit", "bfs_orbit", "orbit.bfs_orbit", lambda a, r: r.visited),
    ("graphlink.orbit", "canonical_permutation", "orbit.canonical_permutation", None),
    ("graphlink.chord", "realizability_search", "chord.realizability_search",
     lambda a, r: (r.checked, r.diagram is not None)),
]
LAURENT_OPS = ("__add__", "__mul__", "scale")

# (metric, unit) in report order; every name is listed in BENCHMARK.json.
LAYER_METRICS = [
    ("cli.main.self_s", "s"),
    ("graph.parse.busy_s", "s"),
    ("gf2.subset_coranks.calls", "count"),
    ("gf2.subset_coranks.busy_s", "s"),
    ("gf2.states", "count"),
    ("gf2.states_per_s", "1/s"),
    ("gf2.corank.calls", "count"),
    ("gf2.corank.busy_s", "s"),
    ("gf2.thread_speedup", "ratio"),
    ("gf2.pool_wait_s", "s"),
    ("invariants.kauffman_bracket.self_s", "s"),
    ("invariants.analyze.self_s", "s"),
    ("invariants.jones.self_s", "s"),
    ("laurent.ops.calls", "count"),
    ("laurent.ops.busy_s", "s"),
    ("moves.enumerate_sites.calls", "count"),
    ("moves.enumerate_sites.busy_s", "s"),
    ("moves.sites", "count"),
    ("moves.apply.calls", "count"),
    ("moves.apply.busy_s", "s"),
    ("orbit.bfs_orbit.self_s", "s"),
    ("orbit.canonical_permutation.calls", "count"),
    ("orbit.canonical_permutation.busy_s", "s"),
    ("orbit.nodes_visited", "count"),
    ("orbit.dedup_ratio", "ratio"),
    ("chord.realizability_search.self_s", "s"),
    ("chord.matchings_checked", "count"),
    ("chord.matchings_per_s", "1/s"),
    ("chord.leaf_canon_ratio", "ratio"),
    ("chord.witness_ratio", "ratio"),
    ("trace.overhead", "ratio"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if detail is not None:
                    span[DETAIL] = detail(args, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _replace(self, holder, attr: str, new) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "graphlink" or k.startswith("graphlink.")]
        for module, attr, name, detail in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, detail)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
        poly = sys.modules["graphlink.laurent"].LaurentPoly
        for op in LAURENT_OPS:
            self._replace(poly, op, self._wrap("laurent.ops", getattr(poly, op), None))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def timed_pool(tasks: list, request_id) -> type:
    """A ThreadPoolExecutor subclass that appends (request id, queued,
    started, finished) to ``tasks`` for every task; substituted for the pool
    graphlink.gf2 creates.  ``request_id()`` names the request in flight."""
    lock = threading.Lock()

    class TimedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            req, queued = request_id(), time.perf_counter()

            def timed():
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    with lock:
                        tasks.append((req, queued, start, time.perf_counter()))

            return super().submit(timed)

    return TimedPool


def span_stats(spans: list[list]) -> dict[str, dict]:
    """calls, busy (time under outermost spans of the name) and self time
    (span time minus time in direct child spans) per span name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    stats: dict[str, dict] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[NAME], {"calls": 0, "busy": 0.0, "self": 0.0, "detail": []})
        dur = s[END] - s[START]
        st["calls"] += 1
        st["self"] += dur - child_time[i]
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != s[NAME]:
            st["busy"] += dur
        if s[DETAIL] is not None:
            st["detail"].append(s[DETAIL])
    return stats


def _under(spans: list[list], name: str, ancestor: str) -> int:
    """Spans called ``name`` that have an ancestor called ``ancestor``."""
    count = 0
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor:
            p = spans[p][PARENT]
        count += p >= 0
    return count


def busy_in(spans: list[list], name: str, requests: set[int]) -> float:
    """Time under spans called ``name`` that belong to the given requests."""
    return sum(s[END] - s[START] for s in spans if s[NAME] == name and s[REQ] in requests)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce spans to the per-layer metrics; layers a workload never calls
    read 0."""
    st = span_stats(spans)

    def get(name: str, field: str) -> float:
        return st.get(name, {}).get(field, 0)

    def detail(name: str) -> list:
        return st.get(name, {}).get("detail", [])

    states = sum(detail("gf2.subset_coranks"))
    visited = sum(detail("orbit.bfs_orbit"))
    searches = detail("chord.realizability_search")
    checked = sum(c for c, _ in searches)
    out = {
        "cli.main.self_s": get("cli.main", "self"),
        "graph.parse.busy_s": get("graph.parse", "busy"),
        "gf2.subset_coranks.calls": get("gf2.subset_coranks", "calls"),
        "gf2.subset_coranks.busy_s": get("gf2.subset_coranks", "busy"),
        "gf2.states": states,
        "gf2.states_per_s": _ratio(states, get("gf2.subset_coranks", "busy")),
        "gf2.corank.calls": get("gf2.corank", "calls"),
        "gf2.corank.busy_s": get("gf2.corank", "busy"),
        "invariants.kauffman_bracket.self_s": get("invariants.kauffman_bracket", "self"),
        "invariants.analyze.self_s": get("invariants.analyze", "self"),
        "invariants.jones.self_s": get("invariants.jones", "self"),
        "laurent.ops.calls": get("laurent.ops", "calls"),
        "laurent.ops.busy_s": get("laurent.ops", "busy"),
        "moves.enumerate_sites.calls": get("moves.enumerate_sites", "calls"),
        "moves.enumerate_sites.busy_s": get("moves.enumerate_sites", "busy"),
        "moves.sites": sum(detail("moves.enumerate_sites")),
        "moves.apply.calls": get("moves.apply", "calls"),
        "moves.apply.busy_s": get("moves.apply", "busy"),
        "orbit.bfs_orbit.self_s": get("orbit.bfs_orbit", "self"),
        "orbit.canonical_permutation.calls": get("orbit.canonical_permutation", "calls"),
        "orbit.canonical_permutation.busy_s": get("orbit.canonical_permutation", "busy"),
        "orbit.nodes_visited": visited,
        "orbit.dedup_ratio": _ratio(visited, _under(spans, "orbit.canonical_permutation", "orbit.bfs_orbit")),
        "chord.realizability_search.self_s": get("chord.realizability_search", "self"),
        "chord.matchings_checked": checked,
        "chord.matchings_per_s": _ratio(checked, get("chord.realizability_search", "busy")),
        "chord.leaf_canon_ratio": _ratio(
            _under(spans, "orbit.canonical_permutation", "chord.realizability_search"), checked),
        "chord.witness_ratio": _ratio(sum(found for _, found in searches), len(searches)),
    }
    return {k: float(v) for k, v in out.items()}
