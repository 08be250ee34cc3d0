"""
Neighbor differences on a small collaboration network
======================================================

A 12-person network where each person carries skill keywords. The query
asks for a five-person team (ml, backend, systems, frontend, data) wired
as two triangles sharing an edge. We score the natural candidate team and
then let the exhaustive search enumerate everything within a threshold.
"""

from s3and import (
    AggregateKind,
    aggregated_neighbor_difference,
    format_answers,
    neighbor_difference,
    oracle_search,
    parse_graph,
    parse_query,
)

GRAPH = """t 12 13
v 0 ml
v 1 backend
v 2 systems
v 3 frontend
v 4 data
v 5 ml,data
v 6 sales
v 7 backend
v 8 frontend,data
v 9 legal
v 10 systems
v 11 design
e 0 1
e 0 3
e 0 11
e 1 2
e 1 3
e 2 3
e 3 4
e 4 5
e 5 6
e 6 7
e 7 8
e 8 9
e 9 10
"""

QUERY = """t 5 6
v 0 ml
v 1 backend
v 2 systems
v 3 frontend
v 4 data
e 0 1
e 0 2
e 1 3
e 2 3
e 2 4
e 3 4
"""

g = parse_graph(GRAPH)
q = parse_query(QUERY, g)

print(f"data graph: {g.vertex_count} vertices, {g.edge_count} edges")
print(f"query:      {q.vertex_count} vertices, {q.edge_count} edges")

# Vertices 0..4 carry exactly the requested skills, so map query vertex j
# to data vertex j. The mapping is valid (keywords contained, image
# connected) but not a perfect embedding: some query edges are missing.
mapping = (0, 1, 2, 3, 4)
print("\nper-vertex neighbor differences for the identity mapping:")
for qj in range(5):
    nd = neighbor_difference(g, q, mapping, qj)
    print(f"  query vertex {qj}: {nd} of its neighbors have non-adjacent images")

for kind in (AggregateKind.MAX, AggregateKind.SUM):
    score = aggregated_neighbor_difference(g, q, mapping, kind)
    print(f"aggregated score under {kind.value}: {score}")

# The exhaustive search enumerates every injective, keyword-compatible,
# connected mapping within the threshold. At max <= 2 the identity team is
# in; tightening to max <= 1 empties the result because query vertex 2
# (systems) is missing two of its three edges.
for sigma in (2, 1):
    answers = oracle_search(g, q, AggregateKind.MAX, sigma)
    print(f"\nanswers at max <= {sigma}: {len(answers)}")
    print(format_answers(answers), end="")
