"""
Index-backed queries against the exhaustive baseline
====================================================

The engine answers through the signature tree: traverse, collect
candidates per query vertex, recheck exact keywords, then backtrack. The
baseline skips the tree and scans every vertex. Both must return exactly
the same answers; the tree only buys time. This script measures both on a
10,000-vertex graph and shows what each pruning stage contributes.
"""

import numpy as np

from s3and import (
    Ablation,
    AggregateKind,
    QuerySpec,
    SyntheticSpec,
    WorkloadSpec,
    build_index,
    generate_graph,
    generate_workload,
    run_baseline,
    run_query,
)

g = generate_graph(SyntheticSpec(vertex_count=10_000))
index = build_index(g)
queries = generate_workload(g, WorkloadSpec(query_count=20, query_size=5))
print(f"graph: {g.vertex_count} vertices; workload: {len(queries)} five-vertex queries")

engine_ms, baseline_ms, powers = [], [], []
for q in queries:
    spec = QuerySpec(query=q, aggregate=AggregateKind.MAX, sigma=1)
    engine = run_query(index, g, spec)
    baseline = run_baseline(g, spec)
    assert [a.mapping for a in engine.answers] == [a.mapping for a in baseline.answers]
    engine_ms.append(engine.stats.wall_ms)
    baseline_ms.append(baseline.stats.wall_ms)
    powers.append(engine.stats.pruning_power)

print(f"\nanswer sets agree on all {len(queries)} queries")
print(f"mean engine wall:   {np.mean(engine_ms):8.3f} ms")
print(f"mean baseline wall: {np.mean(baseline_ms):8.3f} ms")
print(f"speedup:            {np.mean(baseline_ms) / np.mean(engine_ms):8.1f}x")
print(f"mean pruning power: {np.mean(powers):8.4f}")

# Ablation: keyword bits alone already prune most pairs; the degree bound
# and the neighborhood bound shave off most of the rest.
print("\npruning power by predicate stack (one query):")
spec = QuerySpec(query=queries[0], aggregate=AggregateKind.MAX, sigma=1)
for level in Ablation:
    res = run_query(index, g, spec, ablation=level)
    print(
        f"  {level.value:<12} power {res.stats.pruning_power:.4f}   "
        f"nodes visited {res.stats.nodes_visited:4d}   "
        f"candidates {res.stats.candidates_per_qvertex}"
    )
