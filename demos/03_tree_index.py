"""
Building and persisting the balanced signature tree
===================================================

Vertices are recursively split into balanced parts by signature
similarity; each tree node stores the OR of its descendants' bit vectors.
A query can then discard whole subtrees whose aggregates already fail a
check. This script builds a tree over a synthetic graph, inspects its
shape, and round-trips it through the binary file format.
"""

import collections
import tempfile
from pathlib import Path

from s3and import (
    IndexConfig,
    SyntheticSpec,
    build_index,
    generate_graph,
    load_index,
    save_index,
)

spec = SyntheticSpec(
    vertex_count=2_000,
    keyword_domain_size=30,
    keywords_per_vertex=3,
    seed=7,
)
g = generate_graph(spec)
print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges, "
      f"{len(g.keyword_names)} keywords")

index = build_index(g, index_config=IndexConfig(fanout=8))
print(f"tree:  {index.node_count()} nodes, {index.leaf_count()} leaves, "
      f"depth {index.depth()}")

# Leaves hold at most `fanout` vertices each; the balance constraint keeps
# sibling subtrees within a small factor of each other.
sizes = collections.Counter(index.leaf_sizes.tolist())
print("leaf size histogram:", dict(sorted(sizes.items())))

# Nodes are numbered breadth-first, so each depth is one run of node ids,
# and the next depth has as many nodes as this one has children.
by_depth = []
lo, hi = 0, 1
while lo < hi:
    by_depth.append(hi - lo)
    lo, hi = hi, hi + int(index.child_counts[lo:hi].sum())
print("nodes per depth:    ", dict(enumerate(by_depth)))

# Persistence: one little-endian binary file, deterministic bytes. It holds
# the tree's shape but no node aggregates; loading derives them again.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.idx"
    save_index(index, path)
    print(f"\nsaved {path.stat().st_size} bytes")
    loaded = load_index(path)
    again = Path(tmp) / "again.idx"
    save_index(loaded, again)
    print("resave is byte-identical:", again.read_bytes() == path.read_bytes())
    print(f"loaded tree: {loaded.node_count()} nodes, depth {loaded.depth()}")
