"""Seeded request streams for the three workloads.

A workload is an endless sequence of cycles.  Every cycle has the same
composition (input class and size per slot); only the graph contents,
labels, output formats and statesum's command per slot (bracket, props or
jones, drawn 5:3:2) depend on the seed, so a run that measures whole cycles
sees the same cost mix whatever the seed.  Inputs are built with
``refgraph`` alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

import oracle
import refgraph as rg

G7 = rg.parse_compact("7;-+-+-+-;1-2,2-3,3-4,4-5,5-6,1-6,2-7,4-7,6-7")

# statesum: (n, input class) per slot.  n >= 18 carries ~85% of the states.
# Sizes are spaced so that p50 falls inside the n = 14 block and p90 inside
# the n = 18 block, away from the gaps between sizes; n = 21 is left out
# because one such request alone takes ~3 s.
STATESUM_SLOTS = (
    [(14, kind) for kind in ("dense", "sparse", "grown") for _ in range(5)]
    + [(16, "dense"), (16, "sparse"), (16, "grown")]
    + [(18, "dense"), (18, "dense"), (18, "sparse"), (18, "grown"), (18, "grown")]
    + [(20, "grown")]
)
EDGE_PROB = {"dense": 0.5, "sparse": 0.15, "grown": 0.35}

# explore: two bounded orbits, one site listing, one move script and eight
# small state sums per cycle.
EXPLORE_SLOTS = ["orbit"] * 2 + ["sites", "apply"] + ["props"] * 3 + ["bracket"] * 3 + ["jones"] * 2
ORBIT_MAX_STATES = 60

# realize: the g7 scan, W5-based non-circle graphs (full scans at n = 6, 7,
# budgeted scans at n = 8) and chord-derived graphs whose realizing diagram
# the scan meets within CHORD_SCAN_LIMIT matchings.  Sorted by cost the
# classes are chord (30% of requests) < n = 6 full scans (55%) < budgeted
# scans (10%) < the two 135135-matching scans (5%), so p50 falls inside the
# n = 6 block and p90 in the middle of the budgeted block.
REALIZE_SLOTS = (
    [("g7", 7), ("noncircle", 7)] + [("budget", 8)] * 4 + [("noncircle", 6)] * 22
    + [("chord", n) for n in (5, 6, 7, 8) for _ in range(3)]
)
BUDGET = 20000
CHORD_SCAN_LIMIT = 5000


@dataclass(frozen=True)
class Request:
    """One glk invocation plus what the oracle needs to check it."""

    command: str
    argv: tuple[str, ...]
    graph: rg.Graph
    as_json: bool
    tag: str
    extra: tuple = ()

    @property
    def states(self) -> int:
        return 1 << self.graph.n if self.command in ("bracket", "props", "jones") else 0


def _graph_text(rng: random.Random, g: rg.Graph) -> str:
    return rg.to_json(g) if rng.random() < 0.3 else rg.serialize(g)


def _state_sum_request(rng: random.Random, command: str, g: rg.Graph, tag: str) -> Request:
    as_json = rng.random() < 0.5
    argv = [command, "-i", _graph_text(rng, g)] + (["--json"] if as_json else [])
    return Request(command, tuple(argv), g, as_json, tag)


def _grown(rng: random.Random, n: int) -> rg.Graph:
    """Random base graph grown by isolated vertices (R1) and twin pairs (R2)."""
    pairs = rng.randint(1, 2)
    isolated = rng.randint(1, 2)
    g = rg.random_graph(rng, n - 2 * pairs - isolated, EDGE_PROB["grown"])
    for _ in range(pairs):
        g = rg.apply(g, ("R2_add", (), 0, sum(1 << v for v in range(g.n) if rng.random() < 0.4)))
    for _ in range(isolated):
        g = rg.apply(g, ("R1_add", (), rng.choice((1, -1)), 0))
    return rg.shuffled(rng, g)


def statesum(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(f"statesum/{seed}")
    seen: set = set()
    while True:
        cycle = []
        for n, kind in STATESUM_SLOTS:
            command = rng.choices(("bracket", "props", "jones"), (5, 3, 2))[0]
            while True:
                g = _grown(rng, n) if kind == "grown" else rg.random_graph(rng, n, EDGE_PROB[kind])
                key = rg.invariant_key(g)
                if key not in seen and (command != "jones" or rg.is_graph_knot(g)):
                    break
            seen.add(key)
            cycle.append(_state_sum_request(rng, command, g, f"{kind} n={n}"))
        rng.shuffle(cycle)
        yield cycle


def _orbit_request(rng: random.Random) -> Request:
    n = rng.randint(4, 7)
    g = rg.random_graph(rng, n, 0.4)
    params = (n + rng.randint(2, 4), rng.randint(3, 4), ORBIT_MAX_STATES)
    as_json = rng.random() < 0.5
    argv = ["orbit", "-i", _graph_text(rng, g), "--max-vertices", str(params[0]),
            "--max-depth", str(params[1]), "--max-states", str(params[2])]
    return Request("orbit", tuple(argv + (["--json"] if as_json else [])), g, as_json,
                   f"orbit n={n}", params)


def explore(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(f"explore/{seed}")
    while True:
        cycle = []
        for slot in EXPLORE_SLOTS:
            if slot == "orbit":
                cycle.append(_orbit_request(rng))
                continue
            g = rg.unknot_walk(rng, rng.randint(8, 40), 10)
            if slot == "sites":
                as_json = rng.random() < 0.5
                argv = ["moves", "sites", "-i", _graph_text(rng, g)] + (["--json"] if as_json else [])
                cycle.append(Request("sites", tuple(argv), g, as_json, "walk"))
            elif slot == "apply":
                script, h = [], g
                for _ in range(rng.randint(1, 4)):
                    site = rg.random_site(rng, h, 12)
                    script.append(site)
                    h = rg.apply(h, site)
                as_json = rng.random() < 0.5
                argv = ["moves", "apply", "-i", _graph_text(rng, g),
                        "--moves", ";".join(rg.format_site(s) for s in script)]
                cycle.append(Request("apply", tuple(argv + (["--json"] if as_json else [])),
                                     g, as_json, "walk", tuple(script)))
            else:
                cycle.append(_state_sum_request(rng, slot, g, "walk"))
        rng.shuffle(cycle)
        yield cycle


def _chord_graph(rng: random.Random, n: int) -> rg.Graph:
    while True:
        partner = rg.random_matching(rng, n)
        if rg.best_scan_rank(partner) < CHORD_SCAN_LIMIT:
            signs = [rng.choice((1, -1)) for _ in range(n)]
            return rg.shuffled(rng, rg.interlacement(rg.word_of(partner), signs))


def realize(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(f"realize/{seed}")
    while True:
        cycle = []
        for kind, n in REALIZE_SLOTS:
            as_json = kind != "g7" and rng.random() < 0.5
            budget = BUDGET if kind == "budget" else None
            if kind == "g7":
                g = G7
            elif kind == "chord":
                g = _chord_graph(rng, n)
            else:
                g = rg.non_circle_graph(rng, n)
            argv = ["realize", "-i", rg.serialize(g) if kind == "g7" else _graph_text(rng, g)]
            argv += (["--budget", str(budget)] if budget else []) + (["--json"] if as_json else [])
            cycle.append(Request("realize", tuple(argv), g, as_json, f"{kind} n={n}",
                                 (kind == "chord", budget)))
        rng.shuffle(cycle)
        yield cycle


WORKLOADS = {"statesum": statesum, "explore": explore, "realize": realize}

# Warm-up requests, one per command a workload sends, run before timing.
WARMUP = {
    "statesum": [["bracket", "-i", "1;+;"], ["props", "-i", "2;+-;1-2"], ["jones", "-i", "1;-;"]],
    "explore": [["orbit", "-i", "2;+-;1-2", "--max-depth", "1"], ["moves", "sites", "-i", "1;+;"],
                ["moves", "apply", "-i", "1;+;", "--moves", "R1_add +"], ["props", "-i", "1;+;"]],
    "realize": [["realize", "-i", "3;+++;1-2,2-3"]],
}


class Oracle:
    """Checks a request's stdout.  Exact answers are memoized per input,
    because explore repeats small graphs."""

    def __init__(self) -> None:
        self._memo: dict[tuple, str] = {}

    def expected(self, req: Request) -> str:
        key = (req.command, req.graph, req.as_json, req.extra)
        if key not in self._memo:
            if req.command == "sites":
                self._memo[key] = oracle.expected_sites(req.graph, req.as_json)
            elif req.command == "apply":
                self._memo[key] = oracle.expected_apply(req.graph, list(req.extra), req.as_json)
            else:
                self._memo[key] = oracle.expected_state_sum(req.command, req.graph, req.as_json)
        return self._memo[key]

    def check(self, req: Request, code, stdout: str) -> bool:
        if code != 0:
            return False
        try:
            if req.command == "orbit":
                return oracle.check_orbit(req.graph, req.extra, req.as_json, stdout)
            if req.command == "realize":
                realizable, budget = req.extra
                return oracle.check_realize(req.graph, realizable, budget, req.as_json, stdout)
        except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError):
            return False
        return stdout == self.expected(req)
