"""Keyword-labeled undirected graphs and their text format.

A graph file looks like::

    t <|V|> <|E|>
    v <id> <kw1>,<kw2>,...
    e <u> <v>

Vertex ids are dense integers ``0..|V|-1``. Edges are undirected and must be
written with ``u < v``. Keyword tokens are arbitrary UTF-8 strings without
whitespace or commas; a vertex line with no tokens receives the dummy keyword
``"0"`` so every vertex carries at least one label.

Keywords are interned to dense integer ids. Interning is canonical: the
distinct tokens of a file are sorted lexicographically and numbered in that
order, so the intern table is a pure function of the file content and
``parse_graph(format_graph(parse_graph(text)))`` reproduces the exact same
structure.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DataGraph",
    "QueryGraph",
    "GraphParseError",
    "GraphValidationError",
    "make_graph",
    "parse_graph",
    "load_graph",
    "format_graph",
    "save_graph",
    "parse_query",
    "load_query",
    "induced_subgraph",
    "is_connected",
]

VertexId = int
KeywordId = int
Edge = tuple[int, int]

DUMMY_KEYWORD = "0"
FINGERPRINT_SIZE = 16


class GraphParseError(ValueError):
    """A line of a graph file does not match the grammar."""


class GraphValidationError(ValueError):
    """A structurally well-formed file describes an inconsistent graph."""


@dataclass(frozen=True)
class DataGraph:
    """Immutable undirected graph with per-vertex keyword sets.

    ``adjacency[i]`` and ``keywords[i]`` are sorted tuples. ``keyword_names``
    maps a keyword id back to its token; its length is the keyword domain
    size, and every keyword id is less than it. The set views are derived on
    first use, so a graph only pays for the ones its callers read.
    """

    adjacency: tuple[tuple[int, ...], ...]
    keywords: tuple[tuple[int, ...], ...]
    keyword_names: tuple[str, ...]

    @functools.cached_property
    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    @functools.cached_property
    def keyword_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(w) for w in self.keywords)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    @property
    def keyword_domain_size(self) -> int:
        return len(self.keyword_names)

    @functools.cached_property
    def degree_vector(self) -> np.ndarray:
        return np.fromiter(
            (len(a) for a in self.adjacency), dtype=np.int64, count=len(self.adjacency)
        )

    @functools.cached_property
    def fingerprint(self) -> bytes:
        """BLAKE2b digest of the adjacency, the keyword ids and the keyword names.

        An index stores the fingerprint of the graph it was built over, so
        that a query against any other graph is refused.
        """
        digest = hashlib.blake2b(digest_size=FINGERPRINT_SIZE)
        for ints in (
            self.degree_vector,
            itertools.chain.from_iterable(self.adjacency),
            (len(w) for w in self.keywords),
            itertools.chain.from_iterable(self.keywords),
        ):
            digest.update(np.fromiter(ints, dtype="<i8").tobytes())
        for name in self.keyword_names:
            data = name.encode("utf-8")
            digest.update(len(data).to_bytes(8, "little") + data)
        return digest.digest()


# A query graph is the same structure restricted to be non-empty and
# connected; loaders below enforce that.
QueryGraph = DataGraph


def make_graph(
    vertex_count: int,
    edges: Iterable[Edge],
    keywords: Sequence[Iterable[KeywordId]],
    keyword_names: Sequence[str],
) -> DataGraph:
    """Build a validated :class:`DataGraph` from plain collections."""
    if len(keywords) != vertex_count:
        raise GraphValidationError(
            f"expected {vertex_count} keyword sets, got {len(keywords)}"
        )
    adjacency: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if u == v:
            raise GraphValidationError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphValidationError(f"edge ({u}, {v}) references unknown vertex")
        if v in adjacency[u]:
            raise GraphValidationError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
        adjacency[u].add(v)
        adjacency[v].add(u)
    domain = len(keyword_names)
    kw_tuples: list[tuple[int, ...]] = []
    for i, ws in enumerate(keywords):
        wt = tuple(sorted(set(ws)))
        if wt and not (0 <= wt[0] and wt[-1] < domain):
            raise GraphValidationError(
                f"vertex {i} has keyword id outside [0, {domain})"
            )
        kw_tuples.append(wt)
    # one int object per vertex id, shared by every tuple that names it
    ids = list(range(vertex_count))
    return DataGraph(
        adjacency=tuple(tuple(map(ids.__getitem__, sorted(a))) for a in adjacency),
        keywords=tuple(kw_tuples),
        keyword_names=tuple(keyword_names),
    )


def _parse_records(text: str) -> tuple[tuple[int, int], dict[int, list[str]], list[Edge]]:
    """Split a graph file into header counts, vertex token lists, edge list."""
    header: tuple[int, int] | None = None
    vertex_tokens: dict[int, list[str]] = {}
    edge_list: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "t":
            if header is not None:
                raise GraphParseError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise GraphParseError(f"line {lineno}: header needs two counts")
            try:
                header = (int(fields[1]), int(fields[2]))
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer header count") from None
        elif kind == "v":
            if header is None:
                raise GraphParseError(f"line {lineno}: vertex before header")
            if len(fields) not in (2, 3):
                raise GraphParseError(f"line {lineno}: bad vertex line")
            try:
                vid = int(fields[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer vertex id") from None
            if vid in vertex_tokens:
                raise GraphValidationError(f"line {lineno}: duplicate vertex id {vid}")
            tokens: list[str] = []
            if len(fields) == 3 and fields[2]:
                tokens = fields[2].split(",")
                if any(not t for t in tokens):
                    raise GraphParseError(f"line {lineno}: empty keyword token")
            vertex_tokens[vid] = tokens
        elif kind == "e":
            if header is None:
                raise GraphParseError(f"line {lineno}: edge before header")
            if len(fields) != 3:
                raise GraphParseError(f"line {lineno}: bad edge line")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer edge endpoint") from None
            if u >= v:
                raise GraphParseError(
                    f"line {lineno}: edge must be written with u < v, got ({u}, {v})"
                )
            edge_list.append((u, v))
        else:
            raise GraphParseError(f"line {lineno}: unknown record type {kind!r}")
    if header is None:
        raise GraphParseError("missing header line")
    return header, vertex_tokens, edge_list


def _parse_checked(text: str) -> tuple[int, list[list[str]], list[Edge]]:
    """Parse a graph file and check its records against its header.

    Returns the vertex count, each vertex's keyword tokens in id order (the
    dummy keyword for a vertex with none) and the edge list.
    """
    (n_vertices, n_edges), vertex_tokens, edge_list = _parse_records(text)
    if len(vertex_tokens) != n_vertices:
        raise GraphValidationError(
            f"header declares {n_vertices} vertices, file has {len(vertex_tokens)}"
        )
    if len(edge_list) != n_edges:
        raise GraphValidationError(
            f"header declares {n_edges} edges, file has {len(edge_list)}"
        )
    for vid in vertex_tokens:
        if not (0 <= vid < n_vertices):
            raise GraphValidationError(f"vertex id {vid} outside [0, {n_vertices})")
    for u, v in edge_list:
        if v >= n_vertices:
            raise GraphValidationError(f"edge ({u}, {v}) references unknown vertex")
    token_lists = [
        vertex_tokens[i] if vertex_tokens[i] else [DUMMY_KEYWORD]
        for i in range(n_vertices)
    ]
    return n_vertices, token_lists, edge_list


def parse_graph(text: str) -> DataGraph:
    """Parse graph text into a :class:`DataGraph` with canonical interning."""
    n_vertices, token_lists, edge_list = _parse_checked(text)
    names = sorted({t for tokens in token_lists for t in tokens})
    intern = {name: i for i, name in enumerate(names)}
    keyword_ids = [[intern[t] for t in tokens] for tokens in token_lists]
    return make_graph(n_vertices, edge_list, keyword_ids, names)


def load_graph(path: str | Path) -> DataGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def format_graph(g: DataGraph) -> str:
    """Serialize a graph back to its text format."""
    lines = [f"t {g.vertex_count} {g.edge_count}"]
    for i in range(g.vertex_count):
        tokens = ",".join(g.keyword_names[k] for k in g.keywords[i])
        lines.append(f"v {i} {tokens}" if tokens else f"v {i}")
    for u, nbrs in enumerate(g.adjacency):
        lines.extend(f"e {u} {v}" for v in nbrs if u < v)
    return "\n".join(lines) + "\n"


def save_graph(g: DataGraph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")


def parse_query(text: str, base: DataGraph) -> QueryGraph:
    """Parse a query graph against ``base``'s keyword table.

    Query keyword ids must agree with the data graph's interning for
    containment checks to mean anything. Tokens unknown to ``base`` get fresh
    ids past its domain; they can never be contained in a data vertex, which
    is exactly the right semantics.
    """
    n_vertices, token_lists, edge_list = _parse_checked(text)
    if n_vertices < 1:
        raise GraphValidationError("query graph must have at least one vertex")
    intern = {name: i for i, name in enumerate(base.keyword_names)}
    unknown = sorted(
        {t for tokens in token_lists for t in tokens if t not in intern}
    )
    names = tuple(base.keyword_names) + tuple(unknown)
    for rank, token in enumerate(unknown):
        intern[token] = base.keyword_domain_size + rank
    keyword_ids = [[intern[t] for t in tokens] for tokens in token_lists]
    q = make_graph(n_vertices, edge_list, keyword_ids, names)
    if not is_connected(q):
        raise GraphValidationError("query graph must be connected")
    return q


def load_query(path: str | Path, base: DataGraph) -> QueryGraph:
    return parse_query(Path(path).read_text(encoding="utf-8"), base)


def induced_subgraph(g: DataGraph, vs: Iterable[VertexId]) -> frozenset[Edge]:
    """Edges of ``g`` with both endpoints in ``vs``, as (min, max) pairs."""
    vset = set(vs)
    return frozenset(
        (u, v) for u in vset for v in g.adjacency_sets[u] & vset if u < v
    )


def is_connected(g: DataGraph, vs: Iterable[VertexId] | None = None) -> bool:
    """Whether the subgraph induced by ``vs`` (default: all of ``g``) is connected.

    The empty vertex set counts as disconnected.
    """
    vset = set(vs) if vs is not None else set(range(g.vertex_count))
    if not vset:
        return False
    start = next(iter(vset))
    seen = {start}
    queue = collections.deque([start])
    while queue:
        u = queue.popleft()
        for w in g.adjacency_sets[u]:
            if w in vset and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vset)
