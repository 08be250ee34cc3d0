"""
Bit-vector signatures and the candidate pruning bounds
======================================================

Every vertex gets a grouped bit vector of its keywords plus the OR of its
neighbors' vectors. Superset tests on these vectors have no false
negatives, so they can discard candidate pairs before any exact work. Two
cheap lower bounds on the neighbor difference stack on top.

The predicates are the batch functions the tree traversal runs on data
vertices: each takes many (vertex, query vertex) pairs as two index
arrays, over the index's complemented, word-major signature arrays, read
by vertex id. Tree nodes get the keyword check all at once instead, from
the index's bit-sliced table of node aggregates (``nodes_containing``).
Here every call asks about a whole row of data vertices against one query
vertex.
"""

import numpy as np

from s3and import (
    SignatureConfig,
    build_aux,
    build_index,
    build_query_side,
    degree_shortfall,
    keyword_contained,
    parse_graph,
    parse_query,
    uncovered_neighbors,
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

cfg = SignatureConfig()  # 5 groups of 64 bits, seed 0
aux = build_aux(g, cfg)
index = build_index(g, aux=aux)
side = build_query_side(q, cfg)
vertices = np.arange(g.vertex_count)

words = f"{cfg.group_count} groups of {cfg.words_per_group}"
print(f"signature per vertex: {aux.bv.shape[1]} packed 64-bit words ({words})")
print(f"vertex 0 (ml) bit vector:   {[hex(int(w)) for w in aux.bv[0]]}")
print(f"vertex 0 neighborhood bits: {[hex(int(w)) for w in aux.nbv[0]]}")

# Keyword containment: sales and legal share no keyword with any query
# vertex, so the bit test alone removes them from every candidate set.
print("\nvertices pruned by the keyword bits alone, per query vertex:")
for qj in range(q.vertex_count):
    qv = np.full_like(vertices, qj)
    kept = keyword_contained(index.bv_neg, vertices, side.bits, qv)
    print(f"  query vertex {qj}: {vertices[~kept].tolist()}")

# The degree bound: a data vertex with fewer neighbors than the query
# vertex must miss at least the shortfall.
print("\ndegree bound for query vertex 2 (degree 3):")
vs = np.array([2, 10, 11])
shortfall = degree_shortfall(g.degree_vector, vs, side.degrees, np.full_like(vs, 2))
for vi, lb in zip(vs.tolist(), shortfall.tolist()):
    print(f"  against vertex {vi} (degree {len(g.adjacency[vi])}): lower bound {lb}")

# The neighborhood bound: each query neighbor whose bits are not covered
# by the data vertex's neighborhood bits must contribute a difference.
print("\nneighborhood bound for query vertex 0 (neighbors: backend, systems):")
vs = np.array([0, 5, 11])
uncovered = uncovered_neighbors(
    index.nbv_neg, vs, side.neighbor_bits, np.full_like(vs, 0)
)
for vi, lb in zip(vs.tolist(), uncovered.tolist()):
    names = ",".join(g.keyword_names[k] for k in g.keywords[vi])
    print(f"  against vertex {vi} ({names}): lower bound {lb}")

# Both bounds never exceed the true difference, so pruning at threshold
# sigma keeps every real answer: a pair is dropped only when even the
# lower bound is already above sigma. Vertex 5 carries ml and passes the
# keyword test for query vertex 0; its bound of 2 prunes it at sigma = 1
# (where no answers exist) yet keeps it at sigma = 2, where it really does
# appear in an answer mapping.
print("\nvertex 5 for query vertex 0: pruned at sigma = 1, kept at sigma = 2,")
print("and the sigma = 2 run maps query vertex 0 to it in a reported answer.")
