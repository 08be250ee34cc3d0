"""Shared fixtures: a small hand-built collaboration network and helpers.

The 12-vertex graph below is the worked example used across the suite. Its
query asks for a five-person team (ml, backend, systems, frontend, data)
wired as two triangles sharing an edge. Mapping query vertex j to data
vertex j gives per-vertex neighbor differences (1, 0, 2, 0, 1), so the team
matches at threshold 2 under max and 4 under sum. Vertices 6 and 9 (sales,
legal) share no keyword with the query, vertex 11 (design) is the low-degree
neighbor of vertex 0, and vertices 5..10 form a chain that offers near-miss
teams; those corners pin the pruning-bound tests.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from s3and import (
    Ablation,
    AggregateKind,
    DataGraph,
    IndexConfig,
    QueryGraph,
    SignatureConfig,
    SyntheticSpec,
    WorkloadSpec,
    build_aux,
    build_index,
    degree_shortfall,
    generate_graph,
    generate_workload,
    is_answer,
    keyword_contained,
    nodes_containing,
    parse_graph,
    parse_query,
    uncovered_neighbors,
)
from s3and.index import _cost
from s3and.pruning import QuerySideData
from s3and.signatures import build_bit_vectors

TEAM_GRAPH_TEXT = """t 12 13
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

TEAM_QUERY_TEXT = """t 5 6
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

# Identity mapping of the query into vertices 0..4.
TEAM_MAPPING = (0, 1, 2, 3, 4)
TEAM_NDS = (1, 0, 2, 0, 1)


@pytest.fixture(scope="session")
def team_graph() -> DataGraph:
    return parse_graph(TEAM_GRAPH_TEXT)


@pytest.fixture(scope="session")
def team_query(team_graph) -> QueryGraph:
    return parse_query(TEAM_QUERY_TEXT, team_graph)


@pytest.fixture(scope="session")
def team_index(team_graph):
    return build_index(team_graph)


def naive_answers(
    g: DataGraph, q: QueryGraph, aggregate: AggregateKind, sigma: int
) -> list[tuple[int, ...]]:
    """Definition-only enumeration over all injective mappings.

    Deliberately has no pruning at all, so it is only usable on tiny
    instances; it validates the backtracking oracle, which validates the
    engine.
    """
    return sorted(
        m
        for m in itertools.permutations(range(g.vertex_count), q.vertex_count)
        if is_answer(g, q, m, aggregate, sigma)
    )


def edge_list(g: DataGraph) -> list[tuple[int, int]]:
    """Every edge of ``g`` once, as ``(u, v)`` with ``u < v``, in file order."""
    return [(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v]


def mapping_set(answers) -> list[tuple[int, ...]]:
    return sorted(a.mapping for a in answers)


def random_instance(
    rng: np.random.Generator,
    max_vertices: int = 60,
    max_query: int = 5,
    min_vertices: int = 10,
) -> tuple[DataGraph, QueryGraph]:
    """One randomized small instance: synthetic graph plus a sampled query."""
    domain = int(rng.integers(4, 21))
    low = min(min_vertices, max_vertices)
    spec = SyntheticSpec(
        vertex_count=int(rng.integers(low, max_vertices + 1)),
        ring_neighbors=int(rng.integers(1, 3)),
        keyword_domain_size=domain,
        keywords_per_vertex=int(rng.integers(1, min(3, domain) + 1)),
        distribution=("uniform", "gaussian", "zipf")[int(rng.integers(0, 3))],
        seed=int(rng.integers(0, 2**31)),
    )
    g = generate_graph(spec)
    nq = int(rng.integers(2, max_query + 1))
    wspec = WorkloadSpec(
        query_count=1, query_size=min(nq, g.vertex_count), seed=int(rng.integers(0, 2**31))
    )
    q = generate_workload(g, wspec)[0]
    return g, q


def reference_query_plan(q: QueryGraph, candidates) -> list[int]:
    """The plan rule with the frontier rebuilt from the whole plan each step.

    The oracle for ``make_query_plan``, which grows its frontier as it goes.
    """
    nq = q.vertex_count
    sizes = [len(c) for c in candidates]
    first = min(range(nq), key=lambda j: (sizes[j], j))
    plan = [first]
    chosen = {first}
    while len(plan) < nq:
        frontier = {ql for j in plan for ql in q.adjacency[j]} - chosen
        if not frontier:
            raise ValueError("query graph is not connected")
        nxt = min(frontier, key=lambda j: (sizes[j], j))
        plan.append(nxt)
        chosen.add(nxt)
    return plan


def alternative_plan(q: QueryGraph, plan_a: list[int]) -> list[int]:
    """A connected order of ``q`` that starts elsewhere than ``plan_a``.

    It starts at the lowest id other than ``plan_a[0]``, so ``q`` needs two
    vertices or more, and grows from whichever frontier vertex has the
    highest id. Any connected order yields the same answers, so refining
    over both checks that the answers do not depend on the plan.
    """
    start = next(j for j in range(q.vertex_count) if j != plan_a[0])
    plan = [start]
    chosen = {start}
    while len(plan) < q.vertex_count:
        frontier = {ql for j in plan for ql in q.adjacency[j]} - chosen
        if not frontier:
            raise AssertionError("query not connected")
        nxt = max(frontier)
        plan.append(nxt)
        chosen.add(nxt)
    return plan


def reference_support_filter(
    g: DataGraph, q: QueryGraph, candidates, aggregate: AggregateKind, sigma: int
) -> tuple[list[list[int]], int]:
    """The neighbor-support rule by whole sweeps, straight from its statement.

    Each sweep recomputes every query vertex's survivors from the previous
    sweep's sets, scanning every candidate of every query neighbor, until a
    sweep changes nothing. A pair may lack support from ``sigma`` query
    neighbors under MAX and ``sigma // 2`` under SUM. Returns the survivors
    per query vertex, sorted, and the number of pairs dropped.
    """
    limit = sigma if aggregate is AggregateKind.MAX else sigma // 2
    current = [sorted(int(v) for v in c) for c in candidates]
    while True:
        swept = [
            [
                v
                for v in current[qj]
                if sum(
                    not any(u in g.adjacency_sets[v] for u in current[ql])
                    for ql in q.adjacency[qj]
                )
                <= limit
            ]
            for qj in range(q.vertex_count)
        ]
        if swept == current:
            break
        current = swept
    dropped = sum(len(c) for c in candidates) - sum(len(c) for c in current)
    return current, dropped


def random_index_config(rng: np.random.Generator) -> IndexConfig:
    return IndexConfig(
        fanout=int(rng.choice([4, 8, 16])),
        gamma=float(rng.choice([0.0, 0.1, 0.2])),
        seed=int(rng.integers(0, 2**31)),
    )


def small_signature_config() -> SignatureConfig:
    return SignatureConfig()


def partition_cost(parts, bits: np.ndarray) -> float:
    """The index's split cost, ``intra / (inter + 1)``, of explicit parts.

    Centroids are recomputed from the parts' membership. ``bits`` is the
    unpacked 0/1 signature matrix indexed by vertex id. Empty parts
    contribute nothing to either sum. Tests compare it with a cost taken
    straight from the definition.
    """
    idx = [np.asarray(part, dtype=np.int64) for part in parts]
    sums = np.array([bits[i].sum(axis=0, dtype=np.float64) for i in idx])
    return _cost(np.array([i.size for i in idx]), sums.reshape(len(idx), bits.shape[1]))


def reference_assign_capacitated(dist: np.ndarray, cap: int) -> np.ndarray:
    """Capacity-bounded assignment straight from its definition.

    Rows are visited in order; each takes the first part in its stable
    ascending order of distance (ties to the lowest part index) that holds
    fewer than ``cap`` rows so far.
    """
    order = np.argsort(dist, axis=1, kind="stable")
    counts = np.zeros(dist.shape[1], dtype=np.int64)
    out = np.empty(dist.shape[0], dtype=np.int64)
    for i, prefs in enumerate(order):
        for p in prefs:
            if counts[p] < cap:
                out[i] = p
                counts[p] += 1
                break
    return out


# --- the tree, read off its shape -------------------------------------------
#
# These helpers read a built index's shape arrays (child counts, leaf sizes,
# permutation) and nothing the index derives from them, so the tests that
# compare against them check the index's own derivation.


def tree_walk(index) -> tuple[list[list[int]], list[list[int]]]:
    """Per node: its children and its descendant members, from the shape alone.

    Nodes are numbered breadth-first, so node ``u``'s children are the
    ``child_counts[u]`` nodes that follow the children of nodes ``0..u-1``,
    and each leaf's members are the next ``leaf_sizes`` entry's worth of the
    permutation.
    """
    permutation = index.permutation.tolist()
    leaf_sizes = iter(index.leaf_sizes.tolist())
    children: list[list[int]] = []
    members: list[list[int]] = []
    next_child, next_member = 1, 0
    for count in index.child_counts.tolist():
        children.append(list(range(next_child, next_child + count)))
        next_child += count
        size = 0 if count else next(leaf_sizes)
        members.append(permutation[next_member : next_member + size])
        next_member += size
    # a child's id is above its parent's, so children are complete first
    for u in reversed(range(len(children))):
        if children[u]:
            members[u] = [v for c in children[u] for v in members[c]]
    return children, members


def node_aggregates(index, rows: np.ndarray) -> np.ndarray:
    """Per node, the OR of its descendant members' ``rows``, ``(nodes, words)``.

    ORed from the members read off the shape, not from anything the index
    derives.
    """
    members = tree_walk(index)[1]
    return np.array([np.bitwise_or.reduce(rows[m], axis=0) for m in members])


def node_nbv_neg(index, g: DataGraph) -> np.ndarray:
    """Complemented node aggregates of ``g``'s neighborhood signatures, word-major.

    The index keeps the neighborhood signatures of vertices only; the
    node-bound soundness checks read this by node id.
    """
    return complemented(node_aggregates(index, build_aux(g, index.sig_config).nbv))


def bit_slices(agg: np.ndarray) -> np.ndarray:
    """Signature rows ``(n, words)`` transposed to one 0/1 row per bit position.

    Row ``64 * w + b`` flags the rows that have bit ``b`` of word ``w``.
    """
    pos = np.arange(64 * agg.shape[1])
    shifted = agg[:, pos // 64] >> (pos % 64).astype(np.uint64)
    return (shifted & np.uint64(1)).T.astype(np.uint8)


def node_sets(packed: np.ndarray, width: int) -> np.ndarray:
    """The index's packed node sets as 0/1 flags, ``width`` per set."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=width, bitorder="little")


def node_contained(index, qside: QuerySideData) -> np.ndarray:
    """0/1 flags ``(nq, nodes)``: the nodes the traversal keeps for each query vertex."""
    return node_sets(nodes_containing(index.node_bits, qside), index.node_count())


def derived_arrays(index) -> dict[str, np.ndarray]:
    """The arrays an index derives on construction, by name.

    ``sig_config`` is derived too, but it is a config, not an array.
    """
    return {
        f.name: getattr(index, f.name)
        for f in dataclasses.fields(index)
        if not f.init and f.name != "sig_config"
    }


# --- the traversal's predicates, one pair at a time --------------------------


def complemented(rows: np.ndarray) -> np.ndarray:
    """Signature rows ``(n, groups * words)`` as the predicates read them.

    That is complemented and word-major, ``(groups * words, n)``, the layout
    of ``SubgraphIndex.bv_neg`` and ``nbv_neg``.
    """
    return np.ascontiguousarray(~rows.T)


def pair_contained(neg: np.ndarray, col: int, qside: QuerySideData, qj: int) -> bool:
    """:func:`keyword_contained` for the one pair (column ``col``, ``qj``)."""
    return bool(keyword_contained(neg, [col], qside.bits, [qj])[0])


def pair_uncovered(nbv_neg: np.ndarray, col: int, qside: QuerySideData, qj: int) -> int:
    """:func:`uncovered_neighbors` for the one pair (column ``col``, ``qj``)."""
    return int(uncovered_neighbors(nbv_neg, [col], qside.neighbor_bits, [qj])[0])


def pair_shortfall(degrees: np.ndarray, v: int, qside: QuerySideData, qj: int) -> int:
    """:func:`degree_shortfall` for the one pair (``v``, ``qj``)."""
    return int(degree_shortfall(degrees, [v], qside.degrees, [qj])[0])


def split_capacity(cfg: IndexConfig, size: int) -> int:
    """The most members a child of a ``size``-member split may hold."""
    return min(math.ceil((1 + cfg.gamma) * size / cfg.fanout), size - 1)


def depth_bound(cfg: IndexConfig, size: int) -> int:
    """The deepest a tree over ``size`` vertices can be: full children all the way."""
    depth = 0
    while size > cfg.fanout:
        size = split_capacity(cfg, size)
        depth += 1
    return depth


def audit_structure(index, g) -> None:
    """The shape is a balanced tree over ``g`` and every derived array agrees."""
    cfg = index.index_config
    aux = build_aux(g, index.sig_config)
    children, members = tree_walk(index)
    # leaves partition the vertex set
    assert sorted(members[0]) == list(range(g.vertex_count))
    assert index.depth() <= depth_bound(cfg, g.vertex_count)
    n = index.node_count()
    assert np.array_equal(index.bv_neg, complemented(aux.bv))
    assert np.array_equal(index.nbv_neg, complemented(aux.nbv))
    # one set per bit position, then every node; no bit past the last node
    sets = np.unpackbits(index.node_bits.view(np.uint8), axis=-1, bitorder="little")
    assert sets.shape[0] == 64 * aux.bv.shape[1] + 1
    assert not sets[:, n:].any()
    assert np.array_equal(sets[:-1, :n], bit_slices(node_aggregates(index, aux.bv)))
    assert sets[-1, :n].all()
    leaves = [u for u, kids in enumerate(children) if not kids]
    assert node_sets(index.leaf_mask, n).tolist() == [int(not kids) for kids in children]
    assert index.leaf_nodes.tolist() == leaves
    assert index.leaf_members.shape[0] == len(leaves)
    for u, row in zip(leaves, index.leaf_members):
        entries = row[row >= 0].tolist()
        # a row is its members, then only padding
        assert (row[len(entries) :] < 0).all()
        assert entries == members[u]
        assert len(entries) <= cfg.fanout
    for kids, idx in zip(children, members):
        cap = split_capacity(cfg, len(idx))
        for child in kids:
            assert len(members[child]) <= cap


# --- reference traversal ----------------------------------------------------
#
# A per-node walk, one (node, live query vertices) entry at a time, kept as
# the oracle that the engine's one-pass, bit-sliced traversal must reproduce:
# the same candidates and the same number of visited nodes. It ORs each
# node's keyword aggregate from the node's descendant members itself. A
# node gets the keyword check only; a leaf's members get every check.


def _query_rows(
    q: QueryGraph, cfg: SignatureConfig
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The query's own signature rows, its neighbors' rows and its degrees.

    Built from the query graph itself, not from a :class:`QuerySideData`
    batch layout, so the reference shares no query-side data with the
    engine.
    """
    bv = build_bit_vectors(q.keywords, cfg, q.keyword_domain_size)
    nbr_rows = [bv[list(a)] for a in q.adjacency]
    degrees = np.array([len(a) for a in q.adjacency], dtype=np.int64)
    return bv, nbr_rows, degrees


def _node_live(agg_bv: np.ndarray, q_bv: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Subset of ``live`` query vertices whose bits the node's aggregate holds.

    Nodes get the keyword check only; both bounds run on the members.
    """
    qv = q_bv[live]
    return live[np.all((agg_bv[None, :] & qv) == qv, axis=1)]


def _leaf_survivors(
    members_bv: np.ndarray,
    members_nbv: np.ndarray,
    members_deg: np.ndarray,
    query_rows: tuple[np.ndarray, list[np.ndarray], np.ndarray],
    live: np.ndarray,
    sigma: int,
    ablation: Ablation,
) -> np.ndarray:
    """Boolean matrix (member, live query vertex) of pairs surviving all checks."""
    q_bv, nbr_rows, q_deg = query_rows
    qv = q_bv[live]
    keep = np.all(
        (members_bv[:, None, :] & qv[None, :, :]) == qv[None, :, :], axis=2
    )
    if ablation.lb_basic:
        keep &= (q_deg[live][None, :] - members_deg[:, None]) <= sigma
    if ablation.lb_tight:
        for pos, qj in enumerate(live):
            if not keep[:, pos].any():
                continue
            rows = nbr_rows[qj]
            if rows.shape[0] == 0:
                continue
            cov = np.all(
                (members_nbv[:, None, :] & rows[None, :, :]) == rows[None, :, :],
                axis=2,
            )
            lb = int(q_deg[qj]) - cov.sum(axis=1)
            keep[:, pos] &= lb <= sigma
    return keep


def reference_candidates(
    index,
    g: DataGraph,
    q: QueryGraph,
    sigma: int,
    ablation: Ablation = Ablation.KS_LB_TIGHT,
) -> tuple[list[np.ndarray], int]:
    """Per-node reference traversal: the oracle for ``collect_candidates``.

    Pops one (node, live query vertices) entry at a time from a stack,
    tests each child against the live set, and runs the member checks at
    leaves. It shares no traversal code with the engine and builds its own
    signatures over ``g`` and ``q``, so equal candidates and visit counts
    check the vectorized traversal.
    """
    query_rows = _query_rows(q, index.sig_config)
    nq = len(query_rows[1])
    aux = build_aux(g, index.sig_config)
    bv, nbv, degrees = aux.bv, aux.nbv, g.degree_vector
    children, members = tree_walk(index)
    buckets: list[list[np.ndarray]] = [[] for _ in range(nq)]
    stack = [(0, np.arange(nq, dtype=np.int64))]
    visited = 0
    while stack:
        node, live = stack.pop()
        visited += 1
        if not children[node]:
            idx = np.array(members[node], dtype=np.int64)
            keep = _leaf_survivors(
                bv[idx],
                nbv[idx],
                degrees[idx],
                query_rows,
                live,
                sigma,
                ablation,
            )
            for pos, qj in enumerate(live):
                hits = idx[keep[:, pos]]
                if hits.size:
                    buckets[int(qj)].append(hits)
        else:
            for child in children[node]:
                idx = members[child]
                child_live = _node_live(
                    np.bitwise_or.reduce(bv[idx], axis=0), query_rows[0], live
                )
                if child_live.size:
                    stack.append((child, child_live))
    candidates = [
        np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.int64)
        for b in buckets
    ]
    return candidates, visited
