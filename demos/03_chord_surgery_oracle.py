"""The chord-diagram side: surgery as an independent circle counter.

For graphs that do come from chord diagrams, the number of circles in a
state can be counted two unrelated ways: trace the actual curves after
banding the circle along the selected chords, or take corank of the
induced adjacency matrix plus one.  This script shows them agreeing on
every sub-state, and uses that to cross-check the bracket itself.
"""

import random

from graphlink import (
    bracket_via_surgery,
    corank,
    intersection_graph,
    kauffman_bracket,
    parse_diagram,
    realizability_search,
    serialize,
    serialize_diagram,
    surgery_circle_count,
)
from graphlink.generate import random_chord_diagram

d = parse_diagram("1 2 3 1 2 3;++-")
g = intersection_graph(d)
print(f"diagram: {serialize_diagram(d)}")
print(f"intersection graph: {serialize(g)}")

print()
print("== circles per chord subset: surgery vs corank ==")
for mask in range(1 << d.n):
    chords = [c + 1 for c in range(d.n) if (mask >> c) & 1]
    by_surgery = surgery_circle_count(d, chords)
    # the rows of the chosen chords, masked to their columns
    by_corank = corank([g.adj[c - 1] & mask for c in chords]) + 1
    mark = "ok" if by_surgery == by_corank else "MISMATCH"
    print(f"  chords {str(chords):12s} surgery {by_surgery}  corank+1 {by_corank}  {mark}")

print()
print("== the two brackets agree ==")
print(f"via surgery:            {bracket_via_surgery(d)}")
print(f"via the graph state sum: {kauffman_bracket(g)}")

print()
print("== mutation blindness ==")
d1 = parse_diagram("1 1 2 3 4 2 3 4;+-+-")
d2 = parse_diagram("1 2 3 4 2 3 4 1;+-+-")
print(f"two different diagrams: {serialize_diagram(d1)}  /  {serialize_diagram(d2)}")
print(f"same intersection graph: {intersection_graph(d1) == intersection_graph(d2)}")
print(f"same bracket: {bracket_via_surgery(d1) == bracket_via_surgery(d2)}")

print()
print("== realizability round trips ==")
rng = random.Random(7)
for _ in range(3):
    d = random_chord_diagram(rng, 5)
    g = intersection_graph(d)
    res = realizability_search(g)
    print(f"  {serialize(g):32s} witness: {serialize_diagram(res.diagram)}")
