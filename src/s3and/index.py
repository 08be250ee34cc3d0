"""Balanced signature tree over the data graph.

Vertices are recursively partitioned by similarity of their keyword
signatures; each tree node aggregates the OR of its members' signatures and
the OR of their neighborhood signatures. Queries can then discard whole
subtrees whose aggregates cannot cover a query vertex's requirements. The
tree is kept as flat arrays: its shape, from which the aggregates and the
traversal tables are derived (see :class:`SubgraphIndex`).

Partitioning minimizes ``intra / (inter + 1)``: the sum of members' L1
distances to their part's centroid over the summed pairwise centroid
distances. Distances treat signatures as flat 0/1 vectors (one slot per group
bit position), so the L1 distance between two vertices is their Hamming
distance and a centroid holds per-position fractional means.

Both sums follow from a part's member count ``k`` and its column sums ``S``
(per position, how many members have the bit set). The centroid is
``S / k``, and a position's ``S`` ones and ``k - S`` zeros lie at total
distance ``S (1 - S/k) + (k - S) S/k = 2S - 2S²/k`` from it. So a split is
kept as one assignment vector, and each round gets every part's ``k`` and
``S`` from one one-hot matmul; the centroids and the cost both read them.

The optimizer restarts ``global_iter`` times from random member centers; each
restart runs up to ``local_iter`` rounds of (recompute centroids, reassign
members). Reassignment is capacity-bounded: members are visited in order and
each goes to the nearest part that still has room under
``ceil((1 + gamma) * |members| / fanout)``, ties to the lowest part index. A
round's strategy is kept only if its cost strictly improves, and the initial
assignment honors the same capacity so every returned strategy is balanced.
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import FINGERPRINT_SIZE, DataGraph
from .signatures import AuxData, SignatureConfig, build_aux, unpack_bits

__all__ = [
    "IndexConfig",
    "SubgraphIndex",
    "IndexFormatError",
    "IndexIntegrityError",
    "partition_cost",
    "cm_partitioning",
    "build_index",
    "save_index",
    "load_index",
]

INDEX_MAGIC = b"S3ANDIDX"
INDEX_VERSION = 3


class IndexFormatError(ValueError):
    """The file is not an index file of a supported version."""


class IndexIntegrityError(ValueError):
    """The file is a recognized index file but its payload is damaged."""


@dataclass(frozen=True)
class IndexConfig:
    """Tree and partitioning parameters."""

    fanout: int = 16
    gamma: float = 0.2
    global_iter: int = 5
    local_iter: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise ValueError("fanout must be at least 2")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.global_iter < 1 or self.local_iter < 1:
            raise ValueError("iteration counts must be at least 1")


@dataclass(eq=False)
class SubgraphIndex:
    """A built tree plus everything needed to answer queries against it.

    Nodes are numbered breadth-first from the root, node 0, so each node's
    children and each leaf's members are contiguous. Three arrays are the
    tree's shape: ``child_counts[u]`` is node ``u``'s number of children (0
    for a leaf), ``leaf_sizes[k]`` the member count of the ``k``-th leaf in
    node order, and ``permutation`` lists the vertex ids, the members of
    each leaf in turn. ``graph_fingerprint`` is the indexed graph's
    :attr:`DataGraph.fingerprint`.

    The remaining fields are derived from the shape and ``aux`` on
    construction, and are not saved to the index file:

    - ``child_table`` and ``member_table``: row ``u`` holds node ``u``'s
      children and members, padded with -1 (a leaf has no children, an
      internal node no members).
    - ``agg_bv_neg`` and ``agg_nbv_neg``: bitwise complements of each
      node's aggregates, the OR of its descendant members' signatures and
      neighborhood signatures; ``bv_neg`` and ``nbv_neg``: complements of
      the vertex signatures. All four are word-major, ``(words, nodes)``
      and ``(words, vertices)``, so that "query bits contained in s" reads
      ``q & ~s == 0`` and the OR over a signature's words is one reduction
      along the outer axis.
    - ``levels[d]``: whether depth ``d`` holds any leaf and any internal
      node.
    """

    index_config: IndexConfig
    aux: AuxData
    keyword_names: tuple[str, ...]
    vertex_count: int
    graph_fingerprint: bytes
    child_counts: np.ndarray
    leaf_sizes: np.ndarray
    permutation: np.ndarray
    child_table: np.ndarray = field(init=False, repr=False)
    member_table: np.ndarray = field(init=False, repr=False)
    agg_bv_neg: np.ndarray = field(init=False, repr=False)
    agg_nbv_neg: np.ndarray = field(init=False, repr=False)
    bv_neg: np.ndarray = field(init=False, repr=False)
    nbv_neg: np.ndarray = field(init=False, repr=False)
    levels: tuple[tuple[bool, bool], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cc = self.child_counts
        starts = _level_starts(cc)
        leaf = cc == 0
        sizes = np.zeros(cc.size, dtype=np.int64)
        sizes[leaf] = self.leaf_sizes
        first_child = np.cumsum(cc) - cc + 1
        first_member = np.cumsum(sizes) - sizes
        self.child_table = _padded(first_child, cc, np.arange(cc.size))
        self.member_table = _padded(first_member, sizes, self.permutation)

        def aggregate(sig: np.ndarray) -> np.ndarray:
            """Per node, the OR of ``sig`` over its descendant members."""
            agg = np.empty((cc.size, sig.shape[1]), dtype=sig.dtype)
            agg[leaf] = np.bitwise_or.reduceat(
                sig[self.permutation], first_member[leaf]
            )
            # bottom-up: depth d + 1, in [hi, end), holds the children of
            # the internal nodes of depth d, in [lo, hi), in order
            for d in range(len(starts) - 3, -1, -1):
                lo, hi, end = starts[d : d + 3]
                inner = lo + np.flatnonzero(cc[lo:hi])
                agg[inner] = np.bitwise_or.reduceat(
                    agg[hi:end], first_child[inner] - hi
                )
            return agg

        bv, nbv = self.aux.flat_bv(), self.aux.flat_nbv()
        self.agg_bv_neg = np.ascontiguousarray(~aggregate(bv).T)
        self.agg_nbv_neg = np.ascontiguousarray(~aggregate(nbv).T)
        self.bv_neg = np.ascontiguousarray(~bv.T)
        self.nbv_neg = np.ascontiguousarray(~nbv.T)
        self.levels = tuple(
            (bool(leaf[lo:hi].any()), bool(cc[lo:hi].any()))
            for lo, hi in zip(starts, starts[1:])
        )

    @property
    def sig_config(self) -> SignatureConfig:
        return self.aux.cfg

    def depth(self) -> int:
        return len(self.levels) - 1

    def node_count(self) -> int:
        return self.child_counts.size

    def leaf_count(self) -> int:
        return self.leaf_sizes.size


def _level_starts(child_counts: np.ndarray) -> list[int]:
    """First node id of each depth, then one past the last node reached.

    Breadth-first numbering puts depth ``d + 1`` right after depth ``d``,
    with as many nodes as depth ``d`` has children. The counts form one
    tree exactly when the last entry equals the node count.
    """
    starts = [0, 1]
    while starts[-1] <= child_counts.size:
        spawned = int(child_counts[starts[-2] : starts[-1]].sum())
        if not spawned:
            break
        starts.append(starts[-1] + spawned)
    return starts


def _padded(first: np.ndarray, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row ``u`` holds ``values[first[u] : first[u] + counts[u]]``, padded with -1."""
    cols = np.arange(max(int(counts.max()), 1))
    table = np.full((counts.size, cols.size), -1, dtype=np.int64)
    fill = cols < counts[:, None]
    table[fill] = values[(first[:, None] + cols)[fill]]
    return table


def _column_sums(
    rows: np.ndarray, assign: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-part member counts ``k`` and column sums ``S`` of a split's rows.

    ``S`` is one one-hot matmul, in float32 for float32 rows. Its entries
    are whole numbers, exact for 0/1 rows while a part has fewer than 2**24
    members.
    """
    onehot = (assign == np.arange(n)[:, None]).astype(np.float32)
    return np.bincount(assign, minlength=n), onehot @ rows


def _cost(counts: np.ndarray, sums: np.ndarray) -> float:
    """``intra / (inter + 1)`` of a split given as its counts and column sums.

    Empty parts contribute nothing to either sum.
    """
    filled = counts > 0
    k = counts[filled, None]
    s = sums[filled].astype(np.float64)
    centroids = s / k
    intra = float((2.0 * s - 2.0 * s * s / k).sum())
    # each unordered pair of centroids once
    inter = float(np.abs(centroids[:, None] - centroids[None]).sum()) / 2.0
    return intra / (inter + 1.0)


def partition_cost(parts: Sequence[np.ndarray], bits: np.ndarray) -> float:
    """``intra / (inter + 1)`` with centroids recomputed from current membership.

    ``bits`` is the unpacked 0/1 signature matrix indexed by vertex id. Empty
    parts contribute nothing to either sum.
    """
    idx = [np.asarray(part, dtype=np.int64) for part in parts]
    sums = np.array([bits[i].sum(axis=0, dtype=np.float64) for i in idx])
    return _cost(np.array([i.size for i in idx]), sums.reshape(len(idx), bits.shape[1]))


def _distance_matrix(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """L1 distances from 0/1 rows to fractional centroids.

    For x in {0,1}: |x - c| = x + c - 2xc, so the full matrix is a rank-one
    correction of a matmul, which is much faster than a direct abs-diff.
    """
    row_ones = rows.sum(axis=1)
    cent_sum = centroids.sum(axis=1)
    return row_ones[:, None] + cent_sum[None, :] - 2.0 * (rows @ centroids.T)


def _assign_capacitated(dist: np.ndarray, cap: int) -> np.ndarray:
    """Greedy in row order: nearest part with room, ties to lowest part index."""
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


def _cm_partitioning_detail(
    members: np.ndarray,
    n: int,
    cfg: IndexConfig,
    bits: np.ndarray,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], float, float]:
    """Returns (parts, best cost, initial cost of the winning restart)."""
    members = np.asarray(members, dtype=np.int64)
    if len(members) <= n:
        parts = [members[i : i + 1] for i in range(len(members))]
        cost = partition_cost(parts, bits)
        return parts, cost, cost
    cap = math.ceil((1.0 + cfg.gamma) * len(members) / n)
    rows = bits[members]
    best_assign: np.ndarray | None = None
    best_cost = math.inf
    best_init_cost = math.inf
    for _ in range(cfg.global_iter):
        centers = rng.choice(len(members), size=n, replace=False)
        centroids = rows[centers].astype(np.float32, copy=True)
        assign = _assign_capacitated(_distance_matrix(rows, centroids), cap)
        counts, sums = _column_sums(rows, assign, n)
        cost = init_cost = _cost(counts, sums)
        for _ in range(cfg.local_iter):
            # each part's mean row; an empty part keeps its previous centroid
            filled = counts > 0
            centroids[filled] = sums[filled].astype(np.float64) / counts[filled, None]
            new_assign = _assign_capacitated(_distance_matrix(rows, centroids), cap)
            new_counts, new_sums = _column_sums(rows, new_assign, n)
            new_cost = _cost(new_counts, new_sums)
            if new_cost < cost:
                assign, counts, sums, cost = new_assign, new_counts, new_sums, new_cost
            else:
                break
        if cost < best_cost:
            best_assign, best_cost, best_init_cost = assign, cost, init_cost
    parts = [members[best_assign == p] for p in range(n)]
    return parts, best_cost, best_init_cost


def cm_partitioning(
    members: np.ndarray,
    n: int,
    cfg: IndexConfig,
    bits: np.ndarray,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Split ``members`` into up to ``n`` balanced parts by signature similarity.

    With ``len(members) <= n`` every member gets its own part. Otherwise
    returns exactly ``n`` parts (some possibly empty), each within the
    ceiling capacity bound.
    """
    parts, _, _ = _cm_partitioning_detail(members, n, cfg, bits, rng)
    return parts


def build_index(
    g: DataGraph,
    sig_config: SignatureConfig | None = None,
    index_config: IndexConfig | None = None,
    aux: AuxData | None = None,
) -> SubgraphIndex:
    """Build the tree for ``g``; precomputed ``aux`` is reused when given."""
    if g.vertex_count == 0:
        raise ValueError("cannot index an empty graph")
    sig_config = sig_config or SignatureConfig()
    index_config = index_config or IndexConfig()
    if aux is None:
        aux = build_aux(g, sig_config)
    elif aux.cfg != sig_config:
        raise ValueError("aux data was built with a different signature config")
    bits = unpack_bits(aux.bv, sig_config).astype(np.float32)
    rng = np.random.default_rng(index_config.seed)

    def split(members: np.ndarray) -> np.ndarray | list:
        """A leaf's members, or the list of an internal node's children."""
        if len(members) <= index_config.fanout:
            return members
        parts = cm_partitioning(members, index_config.fanout, index_config, bits, rng)
        return [split(part) for part in parts if len(part) > 0]

    # The splits run depth-first, which fixes the order of the random draws;
    # the nodes are then numbered breadth-first.
    child_counts: list[int] = []
    leaves: list[np.ndarray] = []
    level = [split(np.arange(g.vertex_count, dtype=np.int64))]
    while level:
        child_counts += [len(n) if isinstance(n, list) else 0 for n in level]
        leaves += [n for n in level if not isinstance(n, list)]
        level = [c for n in level if isinstance(n, list) for c in n]
    return SubgraphIndex(
        index_config=index_config,
        aux=aux,
        keyword_names=tuple(g.keyword_names),
        vertex_count=g.vertex_count,
        graph_fingerprint=g.fingerprint,
        child_counts=np.array(child_counts, dtype=np.int64),
        leaf_sizes=np.array([len(m) for m in leaves], dtype=np.int64),
        permutation=np.concatenate(leaves),
    )


# --- persistence ---------------------------------------------------------

# magic+version, then: signature config, index config, vertex and node counts
_HEADER = struct.Struct("<IIqIdIIqQQ")
# the file ends with a BLAKE2b digest of every byte before it
DIGEST_SIZE = 16


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def save_index(index: SubgraphIndex, path: str | Path) -> None:
    """Write the index to a little-endian binary file.

    The file holds the configs, the keyword table, the graph fingerprint,
    the per-vertex signatures and the tree shape, sealed by a digest; what
    the shape and the signatures determine is derived again on load.
    """
    sig = index.sig_config
    idx = index.index_config
    chunks = [
        INDEX_MAGIC,
        bytes([INDEX_VERSION]),
        _HEADER.pack(
            sig.group_count,
            sig.bits_per_group,
            sig.seed,
            idx.fanout,
            idx.gamma,
            idx.global_iter,
            idx.local_iter,
            idx.seed,
            index.vertex_count,
            index.node_count(),
        ),
        # keyword intern table
        struct.pack("<I", len(index.keyword_names)),
    ]
    for name in index.keyword_names:
        data = name.encode("utf-8")
        chunks += [struct.pack("<H", len(data)), data]
    chunks.append(index.graph_fingerprint)
    chunks += [index.aux.bv.astype("<u8").tobytes(), index.aux.nbv.astype("<u8").tobytes()]
    chunks += [
        shape.astype("<u4").tobytes()
        for shape in (index.child_counts, index.leaf_sizes, index.permutation)
    ]
    payload = b"".join(chunks)
    Path(path).write_bytes(payload + _digest(payload))


def _check_shape(
    child_counts: np.ndarray,
    leaf_sizes: np.ndarray,
    permutation: np.ndarray,
    vertex_count: int,
) -> None:
    if _level_starts(child_counts)[-1] != child_counts.size:
        raise IndexIntegrityError("child counts do not form one tree")
    if (leaf_sizes < 1).any() or int(leaf_sizes.sum()) != vertex_count:
        raise IndexIntegrityError(
            f"leaf sizes are not all positive with sum {vertex_count}"
        )
    if not np.array_equal(np.sort(permutation), np.arange(vertex_count)):
        raise IndexIntegrityError("leaf members are not a permutation of the vertices")


def load_index(
    path: str | Path,
    requested_signature: SignatureConfig | None = None,
    requested_index_config: IndexConfig | None = None,
) -> SubgraphIndex:
    """Read an index file; the file's stored configs always win.

    If a requested config disagrees with the file, a warning is issued and
    the file's config is used, since the persisted signatures were computed
    under it. The checks run in file order before anything is used: the
    magic, then the version, then the trailing digest over every byte
    before it, and only then the counts, each against the bytes left. The
    tree shape is checked before the node aggregates and tables are derived
    from it: the child counts must form one tree with the header's node
    count, every leaf must have a member, and the leaves must partition the
    vertex ids.
    """
    data = Path(path).read_bytes()
    if data[: len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    if len(data) == len(INDEX_MAGIC):
        raise IndexIntegrityError("index file is truncated")
    version = data[len(INDEX_MAGIC)]
    if version != INDEX_VERSION:
        raise IndexFormatError(f"unsupported index version {version}")
    payload, digest = data[:-DIGEST_SIZE], data[-DIGEST_SIZE:]
    if _digest(payload) != digest:
        raise IndexIntegrityError("index file is damaged (digest mismatch)")
    pos = len(INDEX_MAGIC) + 1

    def take(count: int) -> bytes:
        nonlocal pos
        # slicing clamps, so a count larger than the file cannot overflow
        chunk = payload[pos : pos + count]
        if len(chunk) != count:
            raise IndexIntegrityError("index file is truncated")
        pos += count
        return chunk

    def u4(count: int) -> np.ndarray:
        return np.frombuffer(take(count * 4), dtype="<u4").astype(np.int64)

    (
        group_count,
        bits_per_group,
        sig_seed,
        fanout,
        gamma,
        global_iter,
        local_iter,
        idx_seed,
        vertex_count,
        node_count,
    ) = _HEADER.unpack(take(_HEADER.size))
    sig_config = SignatureConfig(
        group_count=group_count, bits_per_group=bits_per_group, seed=sig_seed
    )
    index_config = IndexConfig(
        fanout=fanout,
        gamma=gamma,
        global_iter=global_iter,
        local_iter=local_iter,
        seed=idx_seed,
    )
    for requested, stored, label in (
        (requested_signature, sig_config, "signature config"),
        (requested_index_config, index_config, "index config"),
    ):
        if requested is not None and requested != stored:
            warnings.warn(
                f"index file was built with a different {label}; "
                f"using the file's ({stored})",
                stacklevel=2,
            )
    (name_count,) = struct.unpack("<I", take(4))
    names = []
    for _ in range(name_count):
        (length,) = struct.unpack("<H", take(2))
        names.append(take(length).decode("utf-8"))
    fingerprint = take(FINGERPRINT_SIZE)
    sig_shape = (vertex_count, sig_config.group_count, sig_config.words_per_group)
    sig_bytes = math.prod(sig_shape) * 8
    bv, nbv = (
        np.frombuffer(take(sig_bytes), dtype="<u8").reshape(sig_shape).astype(np.uint64)
        for _ in range(2)
    )
    child_counts = u4(node_count)
    leaf_sizes = u4(int(np.count_nonzero(child_counts == 0)))
    permutation = u4(vertex_count)
    if pos != len(payload):
        raise IndexIntegrityError("trailing bytes after the tree shape")
    _check_shape(child_counts, leaf_sizes, permutation, vertex_count)
    return SubgraphIndex(
        index_config=index_config,
        aux=AuxData(sig_config, bv, nbv),
        keyword_names=tuple(names),
        vertex_count=vertex_count,
        graph_fingerprint=fingerprint,
        child_counts=child_counts,
        leaf_sizes=leaf_sizes,
        permutation=permutation,
    )
