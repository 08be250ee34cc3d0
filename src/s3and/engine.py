"""Index-backed query execution.

The pipeline is: traverse the signature tree collecting per-query-vertex
candidate vertices (everything the pruning predicates cannot rule out), then
recheck candidates against exact keyword sets, drop candidates that lack
neighbor support, order query vertices into a connected plan, and backtrack
over the plan to enumerate answer mappings.

The recheck is needed only where signature bits can collide. A vertex
signature has a bit only if the vertex carries a domain keyword that hashes
to it, so when no other domain keyword shares a query keyword's bit,
containing the bit means carrying the keyword. A query vertex all of whose
keywords are such exact keywords (:func:`~s3and.signatures.exact_keywords`)
keeps its traversal candidates as they are; the others, including any with
a keyword id past the graph's domain, are rechecked.

Neighbor support is the candidate-space refinement of GraphQL, CFL-Match
and DAF, relaxed by the ``sigma`` budget. In an answer every query vertex
maps to one of its candidates, so if no candidate of a query neighbor
``ql`` of ``qj`` is adjacent to ``v``, the pair ``(qj, v)`` takes a bump
from ``ql`` in every answer through it. Under MAX a pair's count is at most
``sigma``, so ``v`` is dropped once more than ``sigma`` neighbors lack
support. Under SUM the score is twice the number of unmatched query
edges, since each counts at both ends, so an answer has at most
``sigma // 2`` of them and a pair's bumps are among those. Dropping a
candidate only removes support from others, so the rule is applied until
nothing changes; since it only drops pairs no answer uses, the answers
stay the same. A query vertex that needs just one supported neighbor tests
each candidate once, against the union of its neighbors' candidates.

Backtracking keeps each pair's neighbor-difference count as the mapping
grows. A count can only grow as the mapping is extended, so the bound that
prunes the tree holds for partial mappings too: a partial mapping whose
partial aggregate already exceeds ``sigma`` is cut off, and for each query
vertex only the local pool is tried: the candidates adjacent to as many of
the earlier-mapped neighbors' images as the remaining budget requires. Both
skip only mappings that could never score within ``sigma``, so neither
loses an answer. Connectivity narrows the pool too, in the manner of the
per-query candidate spaces of CFL-Match and DAF: a candidate adjacent
neither to a mapped image nor to any candidate of a later plan position
would stay isolated, and the last query vertex must touch every connected
component of the partial image. So every complete mapping is connected
and within ``sigma`` before :func:`is_answer` checks it.

Traversal tests every tree node against every query vertex in one pass.
A node's aggregate signature is the OR of its children's, so a top-down
walk that drops a node lacking one of a query vertex's keyword bits
reaches exactly the nodes whose aggregate holds all of them. The index
keeps its aggregates bit-sliced, one packed set of nodes per signature bit
position, so those nodes are the AND of the sets of the vertex's bit
positions (:func:`~s3and.pruning.nodes_containing`), in the manner of
bit-sliced signature files (Faloutsos and Christodoulakis, 1984). The
contained leaves expand to their members, which get the vertex keyword
check. Nodes get this keyword check only. The two neighbor-difference
bounds run once, over the vertex hits: the degree bound first, as the
cheaper test, then the tight bound. A node's tight bound is at most each
member's, so running it on the members instead loses no candidate
pruning; on nodes it killed few pairs and its array work cost more than it
saved. The candidates do not depend on the tree: a node's aggregate holds
each member's bits, so no vertex that passes the keyword check is cut off
above it, and every vertex hit gets every vertex-level test.
``nodes_visited`` counts the nodes a walk would visit: the root, where
every walk starts, and each node contained for some query vertex. It
depends on the tree and the query's keyword bits, not on the ablation.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import DataGraph, QueryGraph
from .index import SubgraphIndex
from .pruning import (
    QuerySideData,
    build_query_side,
    degree_shortfall,
    keyword_contained,
    nodes_containing,
    uncovered_neighbors,
)
from .semantics import (
    AggregateKind,
    MatchAnswer,
    QuerySpec,
    is_answer,
    sort_answers,
)
from .signatures import exact_keywords

__all__ = [
    "Ablation",
    "QueryStats",
    "QueryResult",
    "collect_candidates",
    "exact_keyword_filter",
    "make_query_plan",
    "neighbor_support_filter",
    "refine",
    "run_query",
]


class Ablation(enum.Enum):
    """Which pruning predicates participate in candidate collection.

    Keyword pruning, the signature containment check at node and vertex
    level, is always on. ``KS_LB`` stacks the degree-shortfall bound on it
    and ``KS_LB_TIGHT`` also the neighborhood-signature bound. Both bounds
    run on vertex hits only, so the ablation changes the candidates but not
    the nodes visited.
    """

    KS = "ks"
    KS_LB = "ks+lb"
    KS_LB_TIGHT = "ks+lb+tight"

    @property
    def lb_basic(self) -> bool:
        return self is not Ablation.KS

    @property
    def lb_tight(self) -> bool:
        return self is Ablation.KS_LB_TIGHT


@dataclass
class QueryStats:
    """Measurements of one query run, serializable for the CLI's stats JSON."""

    pruning_power: float
    nodes_visited: int
    candidates_per_qvertex: list[int]
    wall_ms: float
    answers: int
    distinct_vertex_sets: int
    # (query vertex, candidate) pairs the neighbor-support filter removed
    support_killed: int = 0
    # traversal candidates the exact keyword recheck removed
    hash_false_positives: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class QueryResult:
    """One run's answers, its candidates per query vertex, and its stats.

    Every run builds its result with :meth:`measured`: the engine from the
    rechecked index candidates, the baseline from its keyword scan, and the
    oracle from every vertex, so all three report the same stats fields by
    the same formulas.
    """

    answers: list[MatchAnswer]
    stats: QueryStats
    candidates: list[np.ndarray]

    @classmethod
    def measured(
        cls,
        g: DataGraph,
        q: QueryGraph,
        started: float,
        candidates: list[np.ndarray],
        answers: list[MatchAnswer],
        nodes_visited: int = 0,
        **counters: int,
    ) -> QueryResult:
        """The result of a run that began at ``perf_counter()`` ``started``.

        The wall time ends here. Pruning power is the share of (query
        vertex, data vertex) pairs outside the candidates. ``counters`` set
        the optional counts of :class:`QueryStats`; unset ones are 0.
        """
        wall_ms = (time.perf_counter() - started) * 1000.0
        sizes = [len(c) for c in candidates]
        total_pairs = g.vertex_count * q.vertex_count
        stats = QueryStats(
            pruning_power=1.0 - sum(sizes) / total_pairs if total_pairs else 0.0,
            nodes_visited=nodes_visited,
            candidates_per_qvertex=sizes,
            wall_ms=wall_ms,
            answers=len(answers),
            distinct_vertex_sets=len({a.vertex_set for a in answers}),
            **counters,
        )
        return cls(answers, stats, candidates)


def collect_candidates(
    index: SubgraphIndex,
    qside: QuerySideData,
    sigma: int,
    degrees: np.ndarray,
    ablation: Ablation = Ablation.KS_LB_TIGHT,
) -> tuple[list[np.ndarray], int]:
    """Candidate vertex ids per query vertex, from one pass over the tree.

    One AND over the index's bit-sliced node table gives each query
    vertex's contained nodes, those whose aggregate holds all its bits.
    The contained leaves expand to (member, query vertex) pairs through the
    index's leaf member table, and the pairs get the keyword check over
    the vertex signatures, then the degree bound and then the tight bound.
    A node counts as visited when it is contained for some query vertex;
    the root always does.

    ``degrees`` is the data graph's degree vector, needed by the degree
    bound. Returns ``(candidates, nodes_visited)``; candidate arrays are
    sorted ascending. A negative ``sigma`` raises ``ValueError``, as it
    does in :class:`QuerySpec`.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    nq = qside.vertex_count
    contained = nodes_containing(index.node_bits, qside)
    reached = _node_flags(np.bitwise_or.reduce(contained, axis=0))
    reached[0] = True
    # (query vertex, leaf node) pairs from the flat bit index of each
    # contained leaf, row by row
    flat = np.flatnonzero(_node_flags(contained & index.leaf_mask))
    vq, node = np.divmod(flat, 64 * contained.shape[1])
    rows = index.leaf_members.take(index.leaf_nodes.searchsorted(node), axis=0)
    valid = rows >= 0
    v, vq = rows[valid], vq.repeat(rows.shape[1])[valid.ravel()]
    keep = keyword_contained(index.bv_neg, v, qside.bits, vq)
    v, vq = v[keep], vq[keep]
    if ablation.lb_basic:
        keep = degree_shortfall(degrees, v, qside.degrees, vq) <= sigma
        v, vq = v[keep], vq[keep]
    if ablation.lb_tight:
        keep = uncovered_neighbors(index.nbv_neg, v, qside.neighbor_bits, vq) <= sigma
        v, vq = v[keep], vq[keep]
    # one sort orders by query vertex, then by vertex id
    key = np.sort(vq * index.vertex_count + v) % index.vertex_count
    bounds = np.bincount(vq, minlength=nq).cumsum().tolist()
    candidates = [key[lo:hi] for lo, hi in zip([0] + bounds, bounds)]
    return candidates, int(np.count_nonzero(reached))


def _node_flags(sets: np.ndarray) -> np.ndarray:
    """Packed node sets as one flag per node, flattened in row order."""
    return np.unpackbits(sets.view(np.uint8), axis=None, bitorder="little").view(bool)


def _containing(g: DataGraph, need: frozenset[int], cand: np.ndarray) -> np.ndarray:
    keyword_sets = g.keyword_sets
    return np.array(
        [v for v in cand.tolist() if need <= keyword_sets[v]], dtype=np.int64
    )


def exact_keyword_filter(
    g: DataGraph, q: QueryGraph, candidates: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Drop hash-collision survivors: keep only exact keyword containment."""
    return [_containing(g, need, c) for need, c in zip(q.keyword_sets, candidates)]


def neighbor_support_filter(
    g: DataGraph,
    q: QueryGraph,
    candidates: Sequence[np.ndarray],
    aggregate: AggregateKind,
    sigma: int,
) -> tuple[list[list[int]], int]:
    """Drop candidates too many of whose query neighbors lack support.

    A query neighbor ``ql`` of ``qj`` supports candidate ``v`` when some
    candidate of ``ql`` is adjacent to ``v``; each unsupported neighbor is
    a bump to ``(qj, v)`` in every mapping through it. A pair can take
    ``sigma`` bumps under MAX and ``sigma // 2`` under SUM, so ``v`` is
    dropped past that many. Dropping a candidate can leave others without
    support, so the rule runs on a worklist until nothing changes. A query
    vertex with exactly one neighbor more than that needs one supported
    neighbor, so its candidates are tested against the union of the
    neighbors' candidates instead of one neighbor at a time. Returns the
    surviving candidates as lists, in their given order, and the number of
    pairs dropped.
    """
    slack = sigma if aggregate is AggregateKind.MAX else sigma // 2
    adjacency = g.adjacency_sets
    nbrs = q.adjacency
    cand_lists = [c.tolist() for c in candidates]
    cand_sets = [set(c) for c in cand_lists]
    # a vertex with no more neighbors than the slack can never be dropped
    pending = [qj for qj in range(q.vertex_count) if len(nbrs[qj]) > slack]
    queued = set(pending)
    killed = 0
    while pending:
        qj = pending.pop()
        queued.discard(qj)
        others = [cand_sets[ql] for ql in nbrs[qj]]
        if len(others) == slack + 1:
            union = set().union(*others)
            keep = [v for v in cand_lists[qj] if not adjacency[v].isdisjoint(union)]
        else:
            keep = [
                v
                for v in cand_lists[qj]
                if sum(map(adjacency[v].isdisjoint, others)) <= slack
            ]
        if len(keep) == len(cand_lists[qj]):
            continue
        killed += len(cand_lists[qj]) - len(keep)
        cand_lists[qj] = keep
        cand_sets[qj] = set(keep)
        for ql in nbrs[qj]:
            if ql not in queued and len(nbrs[ql]) > slack:
                queued.add(ql)
                pending.append(ql)
    return cand_lists, killed


def make_query_plan(q: QueryGraph, candidates: Sequence[Sequence[int]]) -> list[int]:
    """Order query vertices for backtracking.

    Starts from the vertex with the fewest candidates and repeatedly appends
    a neighbor of the plan so far, again favoring few candidates (ties to the
    lowest id), so every prefix of the plan is connected in the query.
    """
    nq = q.vertex_count
    sizes = [len(c) for c in candidates]

    def key(j: int) -> tuple[int, int]:
        return sizes[j], j

    plan = [min(range(nq), key=key)]
    chosen = set(plan)
    frontier = set(q.adjacency[plan[0]])
    while len(plan) < nq:
        if not frontier:
            raise ValueError("query graph is not connected")
        nxt = min(frontier, key=key)
        plan.append(nxt)
        chosen.add(nxt)
        frontier.discard(nxt)
        frontier.update(ql for ql in q.adjacency[nxt] if ql not in chosen)
    return plan


def refine(
    g: DataGraph,
    q: QueryGraph,
    plan: Sequence[int],
    candidates: Sequence[Sequence[int]],
    aggregate: AggregateKind,
    sigma: int,
) -> list[MatchAnswer]:
    """Backtrack over the plan and keep every mapping passing the full predicate.

    Neighbor-difference counts are kept per query vertex as the mapping
    grows: mapping ``plan[dep]`` to ``v`` bumps both ends of every edge to
    an earlier-mapped query neighbor whose image is not adjacent to ``v``.
    A count only grows as the mapping is extended, so a partial mapping
    whose partial aggregate exceeds ``sigma`` can never be completed into
    an answer, and it is cut off before the recursion. Under MAX that
    means more than ``sigma`` bumps, or a bump to a neighbor already at
    ``sigma``; under SUM, a running total plus two per bump above
    ``sigma``.

    The same budget narrows the candidates tried for ``plan[dep]``, the
    local pool. ``v`` must be adjacent to the image of every neighbor that
    cannot take another bump (under MAX one already at ``sigma``, under SUM
    every neighbor once no bump is left), so only the common neighborhood
    of those images is tried. Otherwise, when fewer bumps are left than
    there are earlier-mapped neighbors, ``v`` must be adjacent to at least
    one of their images, so only the union of their neighborhoods is tried.
    Either way every vertex skipped is one the cutoff would reject.

    Connectivity narrows the pool further. When the budget would allow
    every candidate, only the candidates adjacent to a mapped image and
    those in ``reach[dep]`` are tried; any other vertex would stay isolated
    in the induced image. ``reach[dep]`` holds the candidates of
    ``plan[dep]`` adjacent to some candidate of a later plan position. It
    is the whole pool at depth 0, and is built the first time a depth has
    a candidate not adjacent to the image. At the last plan position ``v``
    must be adjacent to every connected component of the partial image, or
    the full image is disconnected; the components are found by a search
    over the at most ``nq - 1`` mapped vertices, which is skipped when the
    plan prefix is connected in the query and no query edge in it is
    missing. With these rules every complete mapping is connected and
    within ``sigma``, and each still has to pass :func:`is_answer`.
    Candidates may come in any order, as lists or arrays; answers come out
    in :func:`sort_answers` order. The recursion's closure is released on
    return, so a query's search state is freed when it returns.
    """
    nq = q.vertex_count
    # the support filter hands over lists; the answer order comes from
    # sort_answers, so the candidate order does not matter
    cand_lists = [
        c if type(c) is list else np.asarray(c, dtype=np.int64).tolist()
        for c in candidates
    ]
    if any(not c for c in cand_lists):
        return []
    cand_sets = [set(c) for c in cand_lists]
    adjacency = g.adjacency_sets
    is_max = aggregate is AggregateKind.MAX
    last = nq - 1
    depth_of = {qj: dep for dep, qj in enumerate(plan)}
    # the query neighbors of plan[dep] that the plan maps before it
    earlier_of = [
        [ql for ql in q.adjacency[qj] if depth_of[ql] < dep]
        for dep, qj in enumerate(plan)
    ]
    # every plan prefix is connected in the query
    chained = all(earlier_of[1:last])
    reach: list[set[int] | None] = [None] * nq
    mapping = [-1] * nq
    used: set[int] = set()
    nd = [0] * nq  # neighbor-difference counts among the mapped pairs
    answers: list[MatchAnswer] = []

    def near(images, cands: set[int]) -> set[int]:
        return set().union(*(adjacency[m] & cands for m in images))

    def reach_of(dep: int) -> set[int]:
        got = reach[dep]
        if got is None:
            later = [cand_sets[qj] for qj in plan[dep + 1 :]]
            got = reach[dep] = {
                v
                for v in cand_lists[plan[dep]]
                if not all(map(adjacency[v].isdisjoint, later))
            }
        return got

    def components() -> list[set[int]]:
        # connected components of the image mapped so far
        rest = set(used)
        comps = []
        while rest:
            stack = [rest.pop()]
            comp = set(stack)
            while stack:
                step = adjacency[stack.pop()] & rest
                rest -= step
                comp |= step
                stack += step
            comps.append(comp)
        return comps

    def dfs(dep: int, total: int) -> None:
        if dep == nq:
            full = tuple(mapping)
            if is_answer(g, q, full, aggregate, sigma):
                score = max(nd) if is_max else total
                answers.append(MatchAnswer(full, frozenset(full), score))
            return
        qj = plan[dep]
        cands = cand_sets[qj]
        earlier = earlier_of[dep]
        images = [mapping[ql] for ql in earlier]
        # how many bumps v may cause
        budget = sigma if is_max else (sigma - total) // 2
        if is_max:
            saturated = [m for ql, m in zip(earlier, images) if nd[ql] == sigma]
        else:
            saturated = images if budget == 0 else []
        if saturated:
            pool = cands.intersection(*(adjacency[m] for m in saturated))
        elif budget < len(images):
            pool = near(images, cands)
        elif dep == 0:
            pool = reach_of(0) if nq > 1 else cand_lists[qj]
        else:
            # the candidates adjacent to the image, from the smaller side
            if len(cands) > len(used):
                pool = near(used, cands)
            else:
                pool = [v for v in cands if not adjacency[v].isdisjoint(used)]
            if dep < last and len(pool) < len(cands):
                pool = reach_of(dep).union(pool)
        # with no bump among the mapped pairs, a connected plan prefix maps
        # to a connected image
        if dep == last and dep > 1 and pool and (any(nd) or not chained):
            comps = components()
            if len(comps) > 1:
                pool = [
                    v
                    for v in pool
                    if not any(adjacency[v].isdisjoint(c) for c in comps)
                ]
        for v in pool:
            if v in used:
                continue
            adj = adjacency[v]
            bumps = [ql for ql, m in zip(earlier, images) if m not in adj]
            # a bump to a neighbor at sigma is ruled out by the pool
            if len(bumps) > budget:
                continue
            mapping[qj] = v
            used.add(v)
            nd[qj] = len(bumps)
            for ql in bumps:
                nd[ql] += 1
            dfs(dep + 1, total + 2 * len(bumps))
            for ql in bumps:
                nd[ql] -= 1
            nd[qj] = 0
            used.discard(v)
            mapping[qj] = -1

    try:
        dfs(0, 0)
    finally:
        # dfs reaches itself through its closure cell; dropping the name
        # breaks that cycle, so reference counting frees the search state
        # here instead of leaving it to the cyclic collector mid-query later
        del dfs
    return sort_answers(answers)


def run_query(
    index: SubgraphIndex,
    g: DataGraph,
    spec: QuerySpec,
    ablation: Ablation = Ablation.KS_LB_TIGHT,
) -> QueryResult:
    """Full pipeline: traverse, recheck keywords, filter, plan, refine, measure.

    The index must have been built over ``g``: a graph with another vertex
    count or fingerprint raises ``ValueError``. The fingerprint digests the
    keyword names too, so it also refuses a graph whose names differ. The
    result's ``candidates`` and the candidate stats are the rechecked index
    candidates; only the query vertices with a keyword outside
    :func:`~s3and.signatures.exact_keywords` are rechecked, and what the
    recheck drops is counted in ``stats.hash_false_positives``. What the
    neighbor-support filter drops from them is counted in
    ``stats.support_killed``.
    """
    if g.vertex_count != index.vertex_count:
        raise ValueError(
            f"index covers {index.vertex_count} vertices, graph has {g.vertex_count}"
        )
    if g.fingerprint != index.graph_fingerprint:
        raise ValueError("index was built for a different graph")
    degrees = g.degree_vector
    t0 = time.perf_counter()
    q = spec.query
    qside = build_query_side(q, index.sig_config)
    raw, visited = collect_candidates(index, qside, spec.sigma, degrees, ablation)
    exact = exact_keywords(index.sig_config, g.keyword_domain_size)
    candidates = [
        c if exact.issuperset(need) else _containing(g, need, c)
        for need, c in zip(q.keyword_sets, raw)
    ]
    supported, killed = neighbor_support_filter(
        g, q, candidates, spec.aggregate, spec.sigma
    )
    plan = make_query_plan(q, supported)
    if all(supported):
        answers = refine(g, q, plan, supported, spec.aggregate, spec.sigma)
    else:
        answers = []
    return QueryResult.measured(
        g,
        q,
        t0,
        candidates,
        answers,
        nodes_visited=visited,
        support_killed=killed,
        hash_false_positives=sum(map(len, raw)) - sum(map(len, candidates)),
    )
