"""Matching semantics: neighbor difference, aggregation, and the oracle.

A candidate match maps every query vertex to a distinct data vertex whose
keyword set contains the query vertex's keywords. The quality of a match is
judged per pair: the neighbor difference of ``(q_j, v_i)`` counts how many of
``q_j``'s query neighbors were mapped to vertices that are not adjacent to
``v_i``, i.e. how many required collaboration edges the data side is missing
around ``v_i``. Pair scores are folded with MAX or SUM into one aggregated
score, and a mapping is an answer when its image is connected and the
aggregated score is within the threshold ``sigma``.

``oracle_search`` enumerates answers by exhaustive backtracking and serves as
ground truth for the index-based engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .graph import DataGraph, QueryGraph, is_connected

__all__ = [
    "AggregateKind",
    "QuerySpec",
    "MatchAnswer",
    "neighbor_difference",
    "aggregated_neighbor_difference",
    "keyword_feasible",
    "is_answer",
    "oracle_search",
    "sort_answers",
    "format_answers",
]

# mapping[j] is the data vertex assigned to query vertex j
Mapping = tuple[int, ...]


class AggregateKind(enum.Enum):
    """How per-pair neighbor differences fold into one score."""

    MAX = "max"
    SUM = "sum"

    @classmethod
    def parse(cls, name: str) -> "AggregateKind":
        low = name.strip().lower()
        if low == "avg":
            raise ValueError(
                "avg is not a separate aggregate: it ranks mappings exactly like "
                "sum, so run sum with sigma multiplied by the query vertex count"
            )
        try:
            return cls(low)
        except ValueError:
            raise ValueError(f"unknown aggregate {name!r}, expected max or sum") from None


@dataclass(frozen=True)
class QuerySpec:
    """A query graph plus the score fold and threshold to run it under."""

    query: QueryGraph
    aggregate: AggregateKind
    sigma: int

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.query.vertex_count < 1:
            raise ValueError("query graph must have at least one vertex")


@dataclass(frozen=True)
class MatchAnswer:
    """One answer: the mapping, its vertex set, and its aggregated score."""

    mapping: Mapping
    vertex_set: frozenset[int]
    and_score: int


def neighbor_difference(g: DataGraph, q: QueryGraph, mapping: Mapping, qj: int) -> int:
    """Count query neighbors of ``qj`` whose images are not adjacent to ``mapping[qj]``.

    Adjacency is taken in ``g``; since the matched subgraph is vertex-induced,
    an edge between two mapped vertices exists there iff it exists in ``g``.
    """
    vi_adj = g.adjacency_sets[mapping[qj]]
    return sum(1 for ql in q.adjacency[qj] if mapping[ql] not in vi_adj)


def aggregated_neighbor_difference(
    g: DataGraph, q: QueryGraph, mapping: Mapping, aggregate: AggregateKind
) -> int:
    """Fold all per-pair neighbor differences with MAX or SUM."""
    diffs = [neighbor_difference(g, q, mapping, qj) for qj in range(q.vertex_count)]
    return max(diffs) if aggregate is AggregateKind.MAX else sum(diffs)


def keyword_feasible(g: DataGraph, q: QueryGraph, qj: int, vi: int) -> bool:
    """Exact containment: does data vertex ``vi`` carry all keywords of ``qj``?"""
    return q.keyword_sets[qj] <= g.keyword_sets[vi]


def is_answer(
    g: DataGraph,
    q: QueryGraph,
    mapping: Mapping,
    aggregate: AggregateKind,
    sigma: int,
) -> bool:
    """Full answer predicate for one mapping.

    Requires: one distinct data vertex per query vertex, keyword containment
    on every pair, a connected induced image, and aggregated score <= sigma.
    """
    if len(mapping) != q.vertex_count:
        return False
    if len(set(mapping)) != len(mapping):
        return False
    if any(not keyword_feasible(g, q, qj, vi) for qj, vi in enumerate(mapping)):
        return False
    if not is_connected(g, mapping):
        return False
    return aggregated_neighbor_difference(g, q, mapping, aggregate) <= sigma


def _make_answer(g: DataGraph, q: QueryGraph, mapping: Mapping, aggregate: AggregateKind) -> MatchAnswer:
    return MatchAnswer(
        mapping=mapping,
        vertex_set=frozenset(mapping),
        and_score=aggregated_neighbor_difference(g, q, mapping, aggregate),
    )


def oracle_search(
    g: DataGraph,
    q: QueryGraph,
    aggregate: AggregateKind,
    sigma: int,
) -> list[MatchAnswer]:
    """Exhaustive reference search, independent of signatures and the index.

    Backtracks over per-query-vertex candidate lists, found by exact keyword
    containment scans. Partial mappings are cut off once their partial
    aggregate already exceeds ``sigma``; a pair's neighbor-difference count
    can only grow as more neighbors get mapped, so the cutoff never loses an
    answer. Full mappings are still accepted through :func:`is_answer`,
    keeping the final word with the definition itself.
    """
    nq = q.vertex_count
    candidates = [
        [vi for vi in range(g.vertex_count) if keyword_feasible(g, q, qj, vi)]
        for qj in range(nq)
    ]
    if any(not c for c in candidates):
        return []

    answers: list[MatchAnswer] = []
    mapping: list[int] = [-1] * nq
    used: set[int] = set()
    partial_nd = [0] * nq  # neighbor-difference counts among mapped pairs only

    def partial_aggregate() -> int:
        return max(partial_nd) if aggregate is AggregateKind.MAX else sum(partial_nd)

    def extend(qj: int) -> None:
        for vi in candidates[qj]:
            if vi in used:
                continue
            vi_adj = g.adjacency_sets[vi]
            bumps = [
                ql
                for ql in q.adjacency[qj]
                if mapping[ql] >= 0 and mapping[ql] not in vi_adj
            ]
            mapping[qj] = vi
            used.add(vi)
            partial_nd[qj] = len(bumps)
            for ql in bumps:
                partial_nd[ql] += 1
            if partial_aggregate() <= sigma:
                if qj + 1 == nq:
                    full = tuple(mapping)
                    if is_answer(g, q, full, aggregate, sigma):
                        answers.append(_make_answer(g, q, full, aggregate))
                else:
                    extend(qj + 1)
            for ql in bumps:
                partial_nd[ql] -= 1
            partial_nd[qj] = 0
            used.remove(vi)
            mapping[qj] = -1

    try:
        extend(0)
    finally:
        # extend reaches itself through its closure cell; dropping the name
        # breaks that cycle so the search state is freed on return
        del extend
    return sort_answers(answers)


def sort_answers(answers: Iterable[MatchAnswer]) -> list[MatchAnswer]:
    """Canonical answer order: ascending score, then lexicographic mapping."""
    return sorted(answers, key=lambda a: (a.and_score, a.mapping))


def format_answers(answers: Iterable[MatchAnswer]) -> str:
    """One ``a`` line per answer in canonical order, newline-terminated.

    A line is ``a <score> 0:<v0> 1:<v1> ...``, query vertex then its image.
    """
    lines = [
        f"a {a.and_score} " + " ".join(f"{j}:{v}" for j, v in enumerate(a.mapping))
        for a in sort_answers(answers)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
