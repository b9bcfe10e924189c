"""Reduced-scale property suites runnable from the command line.

Each suite replays the library's defining identities on seeded random
inputs: bracket behaviour under every move, the surgery oracle against the
corank formula, and the span/adequacy bounds.  ``trials`` scales the work;
zero trials is a vacuous pass (reported with a warning by the CLI).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import moves
from .chord import bracket_via_surgery, intersection_graph, surgery_circle_count
from .generate import random_chord_diagram, random_labeled_graph, random_unknot_graph
from .graph import a_state, b_state, circle_count
from .invariants import analyze, is_graph_knot, jones, kauffman_bracket, writhe
from .laurent import mono, one


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def suite_move_invariance(seed: int, trials: int) -> SuiteResult:
    """Bracket is unchanged by moves 2-5 and scaled by -a^(-+3) by move 1."""
    rng = random.Random(seed)
    result = SuiteResult("move-invariance", trials)
    for t in range(trials):
        g = random_labeled_graph(rng, rng.randint(0, 8))
        before = kauffman_bracket(g)
        sites = moves.enumerate_sites(
            g,
            {
                moves.MoveKind.R2_ADD,
                moves.MoveKind.R2_REMOVE,
                moves.MoveKind.R3_FWD,
                moves.MoveKind.R3_INV,
                moves.MoveKind.R4,
                moves.MoveKind.R5_EXPAND,
                moves.MoveKind.R5_CONTRACT,
            },
        )
        for site in sites[:6]:
            after = kauffman_bracket(moves.apply(g, site))
            if after != before:
                result.failures.append(
                    f"trial {t}: bracket changed under {moves.format_site(site)}"
                )
        for label, exp in ((1, -3), (-1, 3)):
            site = moves.MoveSite(moves.MoveKind.R1_ADD, label=label)
            after = kauffman_bracket(moves.apply(g, site))
            if after != before * mono(-1, exp):
                result.failures.append(f"trial {t}: R1 unit law broke (label {label})")
    return result


def suite_oracle_equivalence(seed: int, trials: int) -> SuiteResult:
    """Surgery circle counts match corank+1 on every sub-state, and the
    diagram bracket matches the graph bracket of the intersection graph."""
    rng = random.Random(seed)
    result = SuiteResult("oracle-equivalence", trials)
    for t in range(trials):
        d = random_chord_diagram(rng, rng.randint(0, 7))
        g = intersection_graph(d)
        for mask in range(1 << d.n):
            chords = [c + 1 for c in range(d.n) if (mask >> c) & 1]
            got = surgery_circle_count(d, chords)
            want = circle_count(g, mask)
            if got != want:
                result.failures.append(
                    f"trial {t}: circle count {got} != corank+1 {want} at {chords}"
                )
                break
        if bracket_via_surgery(d) != kauffman_bracket(g):
            result.failures.append(f"trial {t}: surgery bracket mismatch")
    return result


def suite_bounds(seed: int, trials: int) -> SuiteResult:
    """Span and state-count bounds from the minimality machinery."""
    rng = random.Random(seed)
    result = SuiteResult("bounds", trials)
    for t in range(trials):
        g = random_labeled_graph(rng, rng.randint(0, 9))
        rep = analyze(g)
        k = circle_count(g, a_state(g))
        l = circle_count(g, b_state(g))
        if k + l > g.n + 2:
            result.failures.append(f"trial {t}: k+l exceeded n+2")
        if rep.span is not None and rep.span > 4 * g.n - 4 * rep.genus:
            result.failures.append(f"trial {t}: span bound violated")
        if rep.adequate and rep.span is not None and rep.span != 4 * g.n - 4 * rep.genus:
            result.failures.append(f"trial {t}: adequate span equality violated")
        if rep.alternating and rep.non_split and not rep.adequate:
            result.failures.append(f"trial {t}: alternating non-split but inadequate")
    return result


def suite_writhe_jones(seed: int, trials: int) -> SuiteResult:
    """Writhe laws and triviality of the Jones polynomial on the unknot
    orbit."""
    rng = random.Random(seed)
    result = SuiteResult("writhe-jones", trials)
    for t in range(trials):
        g = random_unknot_graph(rng, rng.randint(0, 12), max_vertices=8)
        if not is_graph_knot(g):
            result.failures.append(f"trial {t}: walk left the graph-knot class")
            continue
        w = writhe(g)
        if jones(g) != one():
            result.failures.append(f"trial {t}: Jones != 1 on the unknot orbit")
        sites = moves.enumerate_sites(
            g, {moves.MoveKind.R2_ADD, moves.MoveKind.R2_REMOVE, moves.MoveKind.R4}
        )
        for site in sites[:4]:
            if writhe(moves.apply(g, site)) != w:
                result.failures.append(
                    f"trial {t}: writhe changed under {moves.format_site(site)}"
                )
        for label, delta in ((1, -1), (-1, 1)):
            site = moves.MoveSite(moves.MoveKind.R1_ADD, label=label)
            if writhe(moves.apply(g, site)) != w + delta:
                result.failures.append(f"trial {t}: R1 writhe shift broke ({label})")
    return result


def run_all(seed: int = 20120521, trials: int = 25) -> list[SuiteResult]:
    return [
        suite_move_invariance(seed, trials),
        suite_oracle_equivalence(seed + 1, trials),
        suite_bounds(seed + 2, trials * 4),
        suite_writhe_jones(seed + 3, trials * 2),
    ]
