"""Invariants of graph-links.

A graph-link is an equivalence class of labeled simple graphs under four
Reidemeister graph-moves.  This package computes the Kauffman bracket,
writhe, and Jones polynomial of such classes, certifies minimal
representatives, and cross-checks everything against a chord-diagram
surgery oracle.
"""

from .chord import (
    ChordDiagram,
    RealizabilityResult,
    bracket_via_surgery,
    intersection_graph,
    linked,
    parse_diagram,
    realizability_search,
    serialize_diagram,
    surgery_circle_count,
)
from .errors import (
    DomainError,
    GraphLinkError,
    MoveError,
    ParseError,
    ResourceLimitError,
)
from .gf2 import corank, rank
from .graph import (
    LabeledGraph,
    a_state,
    alpha,
    b_state,
    circle_count,
    parse,
    serialize,
    to_json,
)
from .invariants import (
    PropertyReport,
    analyze,
    is_graph_knot,
    jones,
    kauffman_bracket,
    writhe,
)
from .laurent import LaurentPoly, loop_factor_pow, mono, span, unit_normalize
from .moves import MoveKind, MoveSite, apply, apply_script, enumerate_sites
from .orbit import (
    OrbitReport,
    are_equivalent_bounded,
    bfs_orbit,
    canonical_form,
    canonical_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "ChordDiagram",
    "DomainError",
    "GraphLinkError",
    "LabeledGraph",
    "LaurentPoly",
    "MoveError",
    "MoveKind",
    "MoveSite",
    "OrbitReport",
    "ParseError",
    "PropertyReport",
    "RealizabilityResult",
    "ResourceLimitError",
    "a_state",
    "alpha",
    "analyze",
    "apply",
    "apply_script",
    "are_equivalent_bounded",
    "b_state",
    "bfs_orbit",
    "bracket_via_surgery",
    "canonical_form",
    "canonical_permutation",
    "circle_count",
    "corank",
    "enumerate_sites",
    "intersection_graph",
    "is_graph_knot",
    "jones",
    "kauffman_bracket",
    "linked",
    "loop_factor_pow",
    "mono",
    "parse",
    "parse_diagram",
    "rank",
    "realizability_search",
    "serialize",
    "serialize_diagram",
    "span",
    "surgery_circle_count",
    "to_json",
    "unit_normalize",
    "writhe",
]
