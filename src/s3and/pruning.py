"""Candidate pruning predicates.

All predicates are one-sided: they may only discard pairs that provably
cannot appear in any answer under the current threshold. Two families exist:

* keyword pruning: a query vertex's signature bits must be contained in a
  data vertex's signature (or in a tree node's aggregated signature) for any
  exact keyword containment to be possible;
* neighbor-difference pruning: cheap lower bounds on the neighbor difference
  of a pair. Any single pair's difference lower-bounds both the MAX and the
  SUM aggregate, so a pair with bound above sigma can never occur in an
  answer mapping regardless of the fold.

The tight bound counts the query vertex's neighbors whose keyword bits are
not covered by the data vertex's neighborhood signature: an uncovered query
neighbor cannot be mapped to any neighbor of the data vertex, so it
contributes at least one to the difference. A tree node's aggregates cover
every member's, so the same functions over a node's aggregates give a
bound of at most every member's bound.

The vertex predicates run over many (vertex, query vertex) pairs at once,
given as two index arrays: ``ids`` into the columns of a word-major array
and ``qv`` into the query side. The traversal passes the index's arrays,
``SubgraphIndex.bv_neg`` for the keyword check and
``SubgraphIndex.nbv_neg`` for the tight bound, whose columns are the data
vertices; the degree shortfall takes vertex ids into the degree vector.
The bound functions return the bound itself; the caller compares it with
sigma.

Tree nodes get the keyword check only, and all of them at once:
:func:`nodes_containing` reads the index's bit-sliced node table, one
packed set of nodes per signature bit position, and ANDs the rows of a
query vertex's bit positions into the set of nodes whose aggregate holds
all of them. Both bounds run on vertex hits only: at nodes the tight bound
pruned too little to pay for itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import QueryGraph
from .signatures import SignatureConfig, _keyword_table, build_bit_vectors

__all__ = [
    "QuerySideData",
    "build_query_side",
    "nodes_containing",
    "keyword_contained",
    "uncovered_neighbors",
    "degree_shortfall",
]


@dataclass(frozen=True)
class QuerySideData:
    """Signatures and degrees of one query graph, laid out for batch checks.

    ``bits`` holds the query vertices' signatures word-major, ``(words,
    nq)``. ``neighbor_bits[s, :, j]`` is the signature of query vertex
    ``j``'s ``s``-th neighbor, zero-padded to the largest degree (and at
    least one slot); a padding slot has no bits, so it is always covered.

    ``bit_rows`` lists, vertex by vertex, -1, the last row of a bit-sliced
    node table, which holds every node, and then the bit position of each
    of the vertex's keywords; vertex ``j``'s run starts at its -1,
    ``row_starts[j]``. Every run holds the all-ones row, so a vertex
    without keywords needs no special case.
    """

    bits: np.ndarray  # (groups * words, nq)
    neighbor_bits: np.ndarray  # (max(1, max degree), groups * words, nq)
    degrees: np.ndarray  # (nq,)
    bit_rows: np.ndarray  # (total keywords + nq,)
    row_starts: np.ndarray  # (nq,)

    @property
    def vertex_count(self) -> int:
        return self.degrees.size


def build_query_side(q: QueryGraph, cfg: SignatureConfig) -> QuerySideData:
    nq = q.vertex_count
    if nq == 0:
        raise ValueError("query graph must have at least one vertex")
    # one extra keyword-free column: the zero signature that pads the slots
    words = build_bit_vectors([*q.keywords, ()], cfg, q.keyword_domain_size).T
    degrees = [len(a) for a in q.adjacency]
    width = max(1, max(degrees, default=0))
    slots = np.array([[*a, *[nq] * (width - len(a))] for a in q.adjacency]).T
    bit = _keyword_table(cfg, q.keyword_domain_size)[2].tolist()
    rows = np.array([b for ks in q.keywords for b in (-1, *map(bit.__getitem__, ks))])
    return QuerySideData(
        bits=np.ascontiguousarray(words[:, :nq]),
        neighbor_bits=np.ascontiguousarray(words[:, slots].transpose(1, 0, 2)),
        degrees=np.array(degrees, dtype=np.int64),
        bit_rows=rows,
        row_starts=np.flatnonzero(rows < 0),
    )


def nodes_containing(node_bits: np.ndarray, qside: QuerySideData) -> np.ndarray:
    """Per query vertex, the packed set of tree nodes whose aggregate holds its bits.

    ``node_bits`` is the index's bit-sliced node table,
    ``SubgraphIndex.node_bits``: row ``p`` is the set of nodes whose
    aggregate signature has bit ``p``, and the last row every node. A
    query vertex's set is the AND of the rows in its run of
    ``qside.bit_rows``, ``(nq, node words)``. A node outside it lacks one of
    the vertex's bits, and so does every member below it.
    """
    rows = node_bits.take(qside.bit_rows, axis=0)
    return np.bitwise_and.reduceat(rows, qside.row_starts, axis=0)


def keyword_contained(
    neg: np.ndarray, ids: np.ndarray, q_bits: np.ndarray, qv: np.ndarray
) -> np.ndarray:
    """Pairs whose query vertex's bits all lie inside the entry's bits.

    ``neg`` holds complemented signatures word-major, ``(words, entries)``,
    and ``q_bits`` the query signatures as ``(words, nq)``: a pair passes
    when no query bit meets a complemented (that is, missing) entry bit.
    False is definitive non-containment; True can be a hash collision.
    """
    missing = neg.take(ids, axis=1) & q_bits.take(qv, axis=1)
    return np.bitwise_or.reduce(missing, axis=0) == 0


def uncovered_neighbors(
    nbv_neg: np.ndarray, ids: np.ndarray, q_nbr: np.ndarray, qv: np.ndarray
) -> np.ndarray:
    """Per pair, the number of query neighbors the entry's bits do not cover.

    ``nbv_neg`` holds complemented neighborhood bits word-major and
    ``q_nbr`` the padded neighbor signatures as ``(slot, words, nq)``. A
    query neighbor is uncovered when one of its bits is missing from the
    entry's neighborhood bits. The count lower-bounds the pair's neighbor
    difference.
    """
    missing = q_nbr.take(qv, axis=2) & nbv_neg.take(ids, axis=1)
    uncovered = np.bitwise_or.reduce(missing, axis=1) != 0
    return np.add.reduce(uncovered, axis=0)


def degree_shortfall(
    degrees: np.ndarray, ids: np.ndarray, q_degrees: np.ndarray, qv: np.ndarray
) -> np.ndarray:
    """Per pair, the query vertex's degree minus the data vertex's.

    A data vertex with fewer neighbors than its query vertex must leave at
    least the shortfall unmatched, so this lower-bounds the pair's neighbor
    difference; it is negative when the data vertex has degree to spare.
    """
    return q_degrees.take(qv) - degrees.take(ids)
