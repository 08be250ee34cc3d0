"""Index-backed query execution.

The pipeline is: traverse the signature tree collecting per-query-vertex
candidate vertices (everything the pruning predicates cannot rule out), then
recheck candidates against exact keyword sets, order query vertices into a
connected plan, and backtrack over the plan to enumerate answer mappings.

Backtracking keeps each pair's neighbor-difference count as the mapping
grows. A count can only grow as the mapping is extended, so the bound that
prunes the tree holds for partial mappings too: a partial mapping whose
partial aggregate already exceeds ``sigma`` is cut off, and for each query
vertex only the local pool is tried: the candidates adjacent to as many of
the earlier-mapped neighbors' images as the remaining budget requires. Both
skip only mappings that could never score within ``sigma``, so neither
loses an answer.

Traversal keeps, per tree node, the subset of query vertices the node is
still live for. A child inherits its parent's live set minus the query
vertices its own aggregates rule out; a node with an empty live set is never
visited. The traversal is level-synchronous: one tree depth at a time, the
live (node, query vertex) pairs sit in two index arrays and every predicate
runs over all of them in a few numpy operations, in the frontier-at-a-time
style of linear-algebra graph traversal. Every live pair is tested exactly
once, so the candidate sets and ``nodes_visited`` are fixed by the tree and
the query alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import DataGraph, QueryGraph
from .index import SubgraphIndex
from .pruning import QuerySideData, build_query_side
from .semantics import (
    AggregateKind,
    MatchAnswer,
    QuerySpec,
    is_answer,
    keyword_feasible,
    sort_answers,
)

__all__ = [
    "Ablation",
    "QueryStats",
    "QueryResult",
    "collect_candidates",
    "exact_keyword_filter",
    "make_query_plan",
    "refine",
    "run_query",
]


@dataclass(frozen=True)
class Ablation:
    """Which pruning predicates participate in candidate collection.

    ``keyword`` is the signature containment check (vertex and node level),
    ``lb_basic`` the degree-shortfall bound, ``lb_tight`` the
    neighborhood-signature bound (vertex and node level). Keyword pruning is
    always on; the other two stack on top of it.
    """

    lb_basic: bool = True
    lb_tight: bool = True

    LEVELS = ("ks", "ks+lb", "ks+lb+tight")

    @classmethod
    def parse(cls, name: str) -> "Ablation":
        low = name.strip().lower()
        if low == "ks":
            return cls(lb_basic=False, lb_tight=False)
        if low == "ks+lb":
            return cls(lb_basic=True, lb_tight=False)
        if low == "ks+lb+tight":
            return cls(lb_basic=True, lb_tight=True)
        raise ValueError(f"unknown ablation {name!r}, expected one of {cls.LEVELS}")

    @property
    def name(self) -> str:
        if self.lb_tight:
            return "ks+lb+tight"
        return "ks+lb" if self.lb_basic else "ks"


@dataclass
class QueryStats:
    """Measurements of one query run, serializable for the CLI's stats JSON."""

    pruning_power: float
    nodes_visited: int
    candidates_per_qvertex: list[int]
    wall_ms: float
    answers: int
    distinct_vertex_sets: int

    def to_dict(self) -> dict:
        return {
            "pruning_power": self.pruning_power,
            "nodes_visited": self.nodes_visited,
            "candidates_per_qvertex": self.candidates_per_qvertex,
            "wall_ms": self.wall_ms,
            "answers": self.answers,
            "distinct_vertex_sets": self.distinct_vertex_sets,
        }


@dataclass
class QueryResult:
    answers: list[MatchAnswer]
    stats: QueryStats
    candidates: list[np.ndarray] = field(default_factory=list)


def _contained(
    neg: np.ndarray, ids: np.ndarray, q_bits: np.ndarray, qv: np.ndarray
) -> np.ndarray:
    """Pairs whose query vertex's bits all lie inside the entry's bits.

    ``neg`` holds complemented signatures word-major, ``(words, entries)``,
    and ``q_bits`` the query signatures as ``(words, nq)``: a pair passes
    when no query bit meets a complemented (that is, missing) entry bit.
    """
    missing = neg.take(ids, axis=1) & q_bits.take(qv, axis=1)
    return np.bitwise_or.reduce(missing, axis=0) == 0


def _within_tight(
    nbv_neg: np.ndarray,
    ids: np.ndarray,
    q_nbr: np.ndarray,
    qv: np.ndarray,
    sigma: int,
) -> np.ndarray:
    """Pairs whose neighborhood-signature bound stays within ``sigma``.

    ``nbv_neg`` holds complemented neighborhood bits word-major and
    ``q_nbr`` the zero-padded neighbor signatures as ``(slot, words, nq)``.
    A query neighbor is uncovered when one of its bits is missing from the
    entry's neighborhood bits; padding slots have no bits, so they are
    never uncovered. The bound is the number of uncovered neighbors.
    """
    missing = q_nbr.take(qv, axis=2) & nbv_neg.take(ids, axis=1)
    uncovered = np.bitwise_or.reduce(missing, axis=1) != 0
    return np.add.reduce(uncovered, axis=0) <= sigma


def _expand(table: np.ndarray, nodes: np.ndarray, qv: np.ndarray):
    """(entry, query vertex) pairs for every row entry of each (node, qv) pair."""
    rows = table.take(nodes, axis=0)
    valid = rows >= 0
    return rows[valid], qv.repeat(table.shape[1])[valid.ravel()]


def _traverse(
    index: SubgraphIndex,
    qside: QuerySideData,
    sigma: int,
    degrees: np.ndarray,
    ablation: Ablation,
) -> tuple[list[np.ndarray], int]:
    """Level-synchronous traversal over (node, live query vertex) pairs.

    Each level holds the live pairs of one tree depth as two index arrays.
    Leaf pairs expand to (member, query vertex) pairs that get the member
    checks; internal pairs expand to (child, query vertex) pairs that get
    the keyword check, and the survivors of that the node-level tight
    bound. What survives forms the next level. A node counts as visited
    when it holds at least one live pair; the root always does.
    """
    nq = qside.vertex_count
    q_bits = np.ascontiguousarray(qside.flat_bv.T)
    q_nbr = np.ascontiguousarray(qside.neighbor_table.transpose(1, 2, 0))
    # the degree bound keeps a member when its degree reaches this floor
    q_floor = qside.degrees - sigma
    seen = np.zeros(index.node_count(), dtype=bool)
    seen[0] = True
    nodes = np.zeros(nq, dtype=np.int64)
    qv = np.arange(nq, dtype=np.int64)
    hit_v: list[np.ndarray] = []
    hit_q: list[np.ndarray] = []
    for has_leaf, has_inner in index.levels:
        if not nodes.size:
            break
        if has_leaf:
            v, vq = _expand(index.member_table, nodes, qv)
            keep = _contained(index.bv_neg, v, q_bits, vq)
            if ablation.lb_basic:
                keep &= degrees.take(v) >= q_floor.take(vq)
            v, vq = v[keep], vq[keep]
            if ablation.lb_tight:
                keep = _within_tight(index.nbv_neg, v, q_nbr, vq, sigma)
                v, vq = v[keep], vq[keep]
            hit_v.append(v)
            hit_q.append(vq)
        if not has_inner:
            break
        c, cq = _expand(index.child_table, nodes, qv)
        keep = _contained(index.agg_bv_neg, c, q_bits, cq)
        c, cq = c[keep], cq[keep]
        if ablation.lb_tight:
            keep = _within_tight(index.agg_nbv_neg, c, q_nbr, cq, sigma)
            c, cq = c[keep], cq[keep]
        seen[c] = True
        nodes, qv = c, cq
    v = np.concatenate(hit_v) if hit_v else np.empty(0, dtype=np.int64)
    vq = np.concatenate(hit_q) if hit_q else np.empty(0, dtype=np.int64)
    # one sort orders by query vertex, then by vertex id
    key = np.sort(vq * index.vertex_count + v) % index.vertex_count
    bounds = np.bincount(vq, minlength=nq).cumsum().tolist()
    candidates = [key[lo:hi] for lo, hi in zip([0] + bounds, bounds)]
    return candidates, int(np.count_nonzero(seen))


def collect_candidates(
    index: SubgraphIndex,
    qside: QuerySideData,
    sigma: int,
    degrees: np.ndarray,
    ablation: Ablation = Ablation(),
) -> tuple[list[np.ndarray], int]:
    """Traverse the tree, returning candidate vertex ids per query vertex.

    ``degrees`` is the data graph's degree vector, needed by the degree
    bound. Returns ``(candidates, nodes_visited)``; candidate arrays are
    sorted ascending. A negative ``sigma`` raises ``ValueError``, as it
    does in :class:`QuerySpec`.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return _traverse(index, qside, sigma, degrees, ablation)


def exact_keyword_filter(
    g: DataGraph, q: QueryGraph, candidates: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Drop hash-collision survivors: keep only exact keyword containment."""
    out = []
    for qj, cand in enumerate(candidates):
        out.append(
            np.array(
                [v for v in cand.tolist() if keyword_feasible(g, q, qj, v)],
                dtype=np.int64,
            )
        )
    return out


def make_query_plan(
    q: QueryGraph, candidates: Sequence[Sequence[int]], prefer_small: bool = True
) -> list[int]:
    """Order query vertices for backtracking.

    Starts from the vertex with the fewest candidates and repeatedly appends
    a neighbor of the plan so far, again favoring few candidates (ties to the
    lowest id), so every prefix of the plan is connected in the query.
    ``prefer_small=False`` inverts the size preference; any connected order
    yields the same answers, so the flag exists for order-invariance checks.
    """
    nq = q.vertex_count
    sizes = [len(c) for c in candidates]
    sign = 1 if prefer_small else -1
    first = min(range(nq), key=lambda j: (sign * sizes[j], j))
    plan = [first]
    chosen = {first}
    while len(plan) < nq:
        frontier = {ql for j in plan for ql in q.adjacency[j]} - chosen
        if not frontier:
            raise ValueError("query graph is not connected")
        nxt = min(frontier, key=lambda j: (sign * sizes[j], j))
        plan.append(nxt)
        chosen.add(nxt)
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
    an answer, and it is cut off before the look-ahead and the recursion.
    Under MAX that means more than ``sigma`` bumps, or a bump to a neighbor
    already at ``sigma``; under SUM, a running total plus two per bump
    above ``sigma``.

    The same budget narrows the candidates tried for ``plan[dep]``, the
    local pool. ``v`` must be adjacent to the image of every neighbor that
    cannot take another bump (under MAX one already at ``sigma``, under SUM
    every neighbor once no bump is left), so only the common neighborhood
    of those images is tried. Otherwise, when fewer bumps are left than
    there are earlier-mapped neighbors, ``v`` must be adjacent to at least
    one of their images, so only the union of their neighborhoods is tried.
    Either way every vertex skipped is one the cutoff would reject.

    The look-ahead skips a candidate that is adjacent neither to an already
    mapped vertex nor to any candidate of a later plan position: such a
    vertex would end up isolated in the induced image, so skipping it can
    never lose an answer. Single-vertex queries skip the look-ahead since a
    lone vertex is trivially connected. Every complete mapping still has to
    pass :func:`is_answer`, which also checks that the image is connected.
    """
    nq = q.vertex_count
    cand_lists = [sorted(np.asarray(c, dtype=np.int64).tolist()) for c in candidates]
    cand_sets = [set(c) for c in cand_lists]
    if any(not c for c in cand_lists):
        return []
    adjacency = g.adjacency_sets
    is_max = aggregate is AggregateKind.MAX
    depth_of = {qj: dep for dep, qj in enumerate(plan)}
    # the query neighbors of plan[dep] that the plan maps before it
    earlier_of = [
        [ql for ql in q.adjacency[qj] if depth_of[ql] < dep]
        for dep, qj in enumerate(plan)
    ]
    # every candidate of a plan position after dep
    later_of: list[set[int]] = [set()]
    for qj in plan[:0:-1]:
        later_of.append(later_of[-1] | cand_sets[qj])
    later_of.reverse()
    mapping = [-1] * nq
    used: set[int] = set()
    nd = [0] * nq  # neighbor-difference counts among the mapped pairs
    answers: list[MatchAnswer] = []

    def dfs(dep: int, total: int) -> None:
        if dep == nq:
            full = tuple(mapping)
            if is_answer(g, q, full, aggregate, sigma):
                score = max(nd) if is_max else total
                answers.append(MatchAnswer(full, frozenset(full), score))
            return
        qj = plan[dep]
        earlier = earlier_of[dep]
        images = [mapping[ql] for ql in earlier]
        # how many bumps v may cause
        budget = sigma if is_max else (sigma - total) // 2
        if is_max:
            saturated = [m for ql, m in zip(earlier, images) if nd[ql] == sigma]
        else:
            saturated = images if budget == 0 else []
        if saturated:
            pool = cand_sets[qj].intersection(*(adjacency[m] for m in saturated))
        elif budget < len(images):
            pool = set().union(*(adjacency[m] & cand_sets[qj] for m in images))
        else:
            pool = cand_lists[qj]
        for v in pool:
            if v in used:
                continue
            adj = adjacency[v]
            bumps = [ql for ql, m in zip(earlier, images) if m not in adj]
            # a bump to a neighbor at sigma is ruled out by the pool
            if len(bumps) > budget:
                continue
            if nq > 1 and adj.isdisjoint(used) and adj.isdisjoint(later_of[dep]):
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

    dfs(0, 0)
    return sort_answers(answers)


def run_query(
    index: SubgraphIndex,
    g: DataGraph,
    spec: QuerySpec,
    ablation: Ablation = Ablation(),
    plan: Sequence[int] | None = None,
) -> QueryResult:
    """Full pipeline: traverse, recheck keywords, plan, refine, measure.

    The index must have been built over ``g``: a graph with another vertex
    count, keyword table or fingerprint raises ``ValueError``.
    """
    if g.vertex_count != index.vertex_count:
        raise ValueError(
            f"index covers {index.vertex_count} vertices, graph has {g.vertex_count}"
        )
    if tuple(g.keyword_names) != tuple(index.keyword_names):
        raise ValueError("index was built over a different keyword table")
    if g.fingerprint != index.graph_fingerprint:
        raise ValueError("index was built for a different graph")
    degrees = g.degree_vector
    t0 = time.perf_counter()
    q = spec.query
    qside = build_query_side(q, index.sig_config)
    raw, visited = collect_candidates(index, qside, spec.sigma, degrees, ablation)
    candidates = exact_keyword_filter(g, q, raw)
    sizes = [len(c) for c in candidates]
    total_pairs = g.vertex_count * q.vertex_count
    power = 1.0 - (sum(sizes) / total_pairs) if total_pairs else 0.0
    if plan is None:
        plan = make_query_plan(q, candidates)
    else:
        plan = list(plan)
        if sorted(plan) != list(range(q.vertex_count)):
            raise ValueError("plan must order every query vertex exactly once")
    if all(sizes):
        answers = refine(g, q, plan, candidates, spec.aggregate, spec.sigma)
    else:
        answers = []
    wall_ms = (time.perf_counter() - t0) * 1000.0
    stats = QueryStats(
        pruning_power=power,
        nodes_visited=visited,
        candidates_per_qvertex=sizes,
        wall_ms=wall_ms,
        answers=len(answers),
        distinct_vertex_sets=len({a.vertex_set for a in answers}),
    )
    return QueryResult(answers=answers, stats=stats, candidates=candidates)
