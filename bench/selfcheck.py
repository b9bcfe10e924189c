"""Self-checks of the benchmark itself; prints one PASS/FAIL line each and
exits non-zero on any failure.

    python3 bench/selfcheck.py

* request generation is deterministic per seed and differs across seeds;
* one planted wrong expected answer makes a run report failed >= 1;
* the oracle agrees with graphlink's independent paths: the chord surgery
  bracket, per-state eliminations, the exhaustive realizability scan on the
  W5-based non-circle graphs, and orbit sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import oracle
import refgraph as rg
import run
import workloads as wl

sys.path.insert(0, str(run.SRC))
from graphlink import chord, graph, orbit  # noqa: E402

RESULTS: list[bool] = []


def report(name: str, ok: bool) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def argvs(workload: str, seed: int, cycles: int = 3) -> list[tuple]:
    gen = wl.WORKLOADS[workload](seed)
    return [req.argv for _ in range(cycles) for req in next(gen)]


def check_determinism() -> None:
    for name in wl.WORKLOADS:
        report(f"{name}: same seed, same requests; other seed, other requests",
               argvs(name, 7) == argvs(name, 7) and argvs(name, 7) != argvs(name, 8))


def check_planted_failure() -> None:
    class Planted(wl.Oracle):
        """Returns a wrong answer for the first state sum it is asked about."""

        planted = False

        def expected(self, req):
            answer = super().expected(req)
            if not Planted.planted:
                Planted.planted = True
                return answer + "wrong\n"
            return answer

    original, wl.Oracle = wl.Oracle, Planted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "explore", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    finally:
        wl.Oracle = original
    result = json.loads(out.getvalue().splitlines()[-1])
    report("planted wrong answer is counted as a failure",
           result["failed"] == 1 and not result["correct"])


def check_oracle() -> None:
    rng = random.Random(11)
    ok = True
    for n in range(1, 9):
        partner = rg.random_matching(rng, n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        word = rg.word_of(partner)
        d = chord.ChordDiagram(tuple(word), tuple(signs))
        ok &= oracle.bracket(rg.interlacement(word, signs)) == dict(chord.bracket_via_surgery(d).terms)
    report("oracle bracket equals the chord surgery bracket (n = 1..8)", ok)

    ok = True
    for n in range(0, 11):
        g = rg.random_graph(rng, n, 0.4)
        fast = oracle.subset_coranks(g) if n else [0]
        ok &= all(int(fast[m]) == rg.subset_corank(g, m) for m in range(1 << n))
    report("batched coranks equal per-state elimination (n = 0..10)", ok)

    ok = True
    for n in (6, 6, 7):
        g = rg.non_circle_graph(rng, n)
        result = chord.realizability_search(graph.parse(rg.serialize(g)))
        ok &= result.diagram is None and result.exhausted
    report("W5-based graphs have no realizing diagram (exhaustive scan)", ok)

    ok = True
    for n in (4, 5, 6):
        g = rg.random_graph(rng, n, 0.4)
        lib = orbit.bfs_orbit(graph.parse(rg.serialize(g)), n + 2, 3, 10**6)
        ref = oracle.orbit_summary(g, n + 2, 3, 10**6)
        ok &= (lib.visited, lib.truncated, lib.min_vertices) == (
            ref["visited"], ref["truncated"], ref["min_low"])
        h = rg.shuffled(rng, g)
        ok &= rg.canonical_key(h) == rg.canonical_key(g) and rg.isomorphic(g, h)
    report("reference BFS matches bfs_orbit; canonical keys are relabeling-invariant", ok)


if __name__ == "__main__":
    check_determinism()
    check_planted_failure()
    check_oracle()
    sys.exit(0 if all(RESULTS) else 1)
