"""Balanced signature tree over the data graph.

Vertices are recursively partitioned by similarity of their keyword
signatures; each tree node aggregates the OR of its members' signatures.
Queries can then discard whole subtrees whose aggregate signature lacks a
query vertex's keyword bits. The tree is kept as flat arrays: its shape,
from which the aggregates, bit-sliced by signature bit position, and the
leaves' member table are derived (see :class:`SubgraphIndex`).

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
The inter sum is taken per position from the ``m`` filled parts' centroid
values sorted ascending, ``x_(0) <= ... <= x_(m-1)``: in the sum of
``|x_a - x_b|`` over unordered pairs, ``x_(i)`` is the larger of ``i``
pairs and the smaller of ``m - 1 - i``, so the sum is
``Σ_i (2i - m + 1) x_(i)``, a sort in place of the ``m²`` broadcast.

The optimizer restarts ``global_iter`` times from random member centers; each
restart runs up to ``local_iter`` rounds of (recompute centroids, reassign
members). Reassignment is capacity-bounded: members are visited in order and
each goes to the nearest part that still has room under
``ceil((1 + gamma) * |members| / fanout)``, ties to the lowest part index.
The capacity is capped at ``|members| - 1``, so every part is smaller than
its split and the recursion ends for any finite ``gamma``. A round's
strategy is kept only if its cost strictly improves, and the initial
assignment honors the same capacity so every returned strategy is balanced.

The assignment takes each row's ``argmin``, which returns the first of the
row's smallest entries, so it is the first entry of the row's stable argsort.
Parts only fill up, so a pick taken while more parts had room stays the
nearest part with room for as long as it has room itself. Only when a row's
pick is full does that part go to ``inf`` for the rows left, which then pick
again. Each re-pick follows a part filling up, so a split has at most
``fanout`` of them per round.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import FINGERPRINT_SIZE, DataGraph
from .signatures import AuxData, SignatureConfig, build_aux

__all__ = [
    "IndexConfig",
    "SubgraphIndex",
    "IndexFormatError",
    "IndexIntegrityError",
    "build_index",
    "save_index",
    "load_index",
]

INDEX_MAGIC = b"S3ANDIDX"
INDEX_VERSION = 3
# the file stores each keyword name's UTF-8 length as a uint16
MAX_KEYWORD_BYTES = 0xFFFF


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
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be finite and non-negative")
        if self.global_iter < 1 or self.local_iter < 1:
            raise ValueError("iteration counts must be at least 1")
        # the index file stores the counts as uint32 and the seed as int64
        if max(self.fanout, self.global_iter, self.local_iter) >= 2**32:
            raise ValueError("fanout and iteration counts must be below 2**32")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must be in [0, 2**63)")


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

    - ``node_bits``: the node aggregates bit-sliced, where a node's
      aggregate is the OR of its descendant members' signatures. Row ``p``
      is the set of nodes whose aggregate has bit ``p`` (bit ``p % 64`` of
      word ``p // 64`` of a signature row), and the last row, ``64 *
      words``, holds every node. A set is packed eight nodes to a byte,
      lowest node in the lowest bit, in whole ``uint64`` words; sets are
      only ANDed and ORed, and ``np.unpackbits(..., bitorder="little")``
      over their bytes reads the nodes back.
    - ``leaf_mask``: the set of leaves, packed the same way.
    - ``leaf_nodes``: the leaves' node ids, ascending.
    - ``leaf_members``: row ``k`` holds the members of leaf
      ``leaf_nodes[k]``, padded with -1.
    - ``bv_neg`` and ``nbv_neg``: the bitwise complement of every vertex's
      signature and neighborhood signature, read by vertex id.

    ``bv_neg`` and ``nbv_neg`` are word-major, ``(words, vertices)``, so
    that "query bits contained in s" reads ``q & ~s == 0`` and the OR over
    a signature's words is one reduction along the outer axis.
    """

    index_config: IndexConfig
    aux: AuxData
    keyword_names: tuple[str, ...]
    vertex_count: int
    graph_fingerprint: bytes
    child_counts: np.ndarray
    leaf_sizes: np.ndarray
    permutation: np.ndarray
    node_bits: np.ndarray = field(init=False, repr=False)
    leaf_mask: np.ndarray = field(init=False, repr=False)
    leaf_nodes: np.ndarray = field(init=False, repr=False)
    leaf_members: np.ndarray = field(init=False, repr=False)
    bv_neg: np.ndarray = field(init=False, repr=False)
    nbv_neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cc = self.child_counts
        n = cc.size
        leaf = cc == 0
        self.leaf_nodes = np.flatnonzero(leaf)
        first_member = np.cumsum(self.leaf_sizes) - self.leaf_sizes
        self.leaf_members = _padded(first_member, self.leaf_sizes, self.permutation)
        bv = self.aux.bv
        agg = np.empty((n, bv.shape[1]), dtype=bv.dtype)
        agg[leaf] = np.bitwise_or.reduceat(bv[self.permutation], first_member)
        # bottom-up: depth d + 1, in [hi, end), holds the children of the
        # internal nodes of depth d, in [lo, hi), in order
        first_child = np.cumsum(cc) - cc + 1
        starts = _level_starts(cc)
        for d in range(len(starts) - 3, -1, -1):
            lo, hi, end = starts[d : d + 3]
            inner = lo + np.flatnonzero(cc[lo:hi])
            agg[inner] = np.bitwise_or.reduceat(agg[hi:end], first_child[inner] - hi)
        sets = _node_sets(agg, leaf)
        self.node_bits, self.leaf_mask = sets[:-1], sets[-1]
        self.bv_neg = np.ascontiguousarray(~bv.T)
        self.nbv_neg = np.ascontiguousarray(~self.aux.nbv.T)

    @property
    def sig_config(self) -> SignatureConfig:
        return self.aux.cfg

    def depth(self) -> int:
        return len(_level_starts(self.child_counts)) - 2

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


def _node_sets(agg: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """Packed node sets: one per aggregate bit position, then all nodes, then leaves.

    ``agg`` holds one aggregate row per node. Bit ``k`` of byte ``j`` of a
    little-endian row is bit position ``8 * j + k``, so the aggregates'
    bytes, transposed to one row per byte, shift out eight 0/1 rows each.
    The rows are padded to whole ``uint64`` words of nodes and packed, eight
    nodes to a byte, lowest node in the lowest bit.
    """
    n = len(agg)
    flags = np.zeros((64 * agg.shape[1] + 2, -(-n // 64) * 64), dtype=np.uint8)
    by_byte = np.ascontiguousarray(agg.astype("<u8").view(np.uint8).T)
    bits = flags[:-2].reshape(len(by_byte), 8, -1)[..., :n]
    np.right_shift(by_byte[:, None], np.arange(8, dtype=np.uint8)[:, None], out=bits)
    bits &= 1
    flags[-2, :n] = 1
    flags[-1, :n] = leaf
    return np.packbits(flags, axis=1, bitorder="little").view(np.uint64)


def _padded(first: np.ndarray, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row ``u`` holds ``values[first[u] : first[u] + counts[u]]``, padded with -1."""
    cols = np.arange(max(int(counts.max()), 1))
    table = np.full((counts.size, cols.size), -1, dtype=np.int64)
    fill = cols < counts[:, None]
    table[fill] = values[(first[:, None] + cols)[fill]]
    return table


def _unpack_bits(bv: np.ndarray, cfg: SignatureConfig) -> np.ndarray:
    """Expand packed signatures ``(n, groups * words)`` to one byte per bit.

    The output is ``(n, groups * bits)`` in group-major position order,
    dtype uint8 with values 0/1.
    """
    bits = np.unpackbits(bv.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
    bits = bits.reshape(len(bv), cfg.group_count, cfg.words_per_group * 64)
    return bits[..., : cfg.bits_per_group].reshape(len(bv), -1)


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
    intra = float((2.0 * s - 2.0 * s * s / k).sum())
    # each unordered pair of centroids once, per column from its sorted values
    m = len(k)
    inter = float(((2.0 * np.arange(m) - m + 1) @ np.sort(s / k, axis=0)).sum())
    return intra / (inter + 1.0)


def _distance_matrix(
    rows: np.ndarray, row_ones: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """L1 distances from 0/1 rows, with row sums ``row_ones``, to fractional centroids.

    For x in {0,1}: |x - c| = x + c - 2xc, so the full matrix is a rank-one
    correction of a matmul, which is much faster than a direct abs-diff.
    """
    cent_sum = centroids.sum(axis=1)
    return row_ones[:, None] + cent_sum[None, :] - 2.0 * (rows @ centroids.T)


def _assign_capacitated(dist: np.ndarray, cap: int) -> np.ndarray:
    """Greedy in row order: nearest part with room, ties to lowest part index.

    Each row takes its ``argmin``; a row whose pick is full sets that part
    to ``inf`` from its own row on and re-picks every row left.
    """
    dist = dist.copy()
    picks = dist.argmin(axis=1).tolist()
    counts = [0] * dist.shape[1]
    for i, p in enumerate(picks):
        while counts[p] == cap:
            dist[i:, p] = np.inf
            picks[i:] = dist[i:].argmin(axis=1).tolist()
            p = picks[i]
        counts[p] += 1
    return np.array(picks, dtype=np.int64)


def _cm_partitioning(
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
    members = np.asarray(members, dtype=np.int64)
    if len(members) <= n:
        return [members[i : i + 1] for i in range(len(members))]
    # below the member count, so every part is strictly smaller than the split
    cap = min(math.ceil((1.0 + cfg.gamma) * len(members) / n), len(members) - 1)
    rows = bits[members]
    row_ones = rows.sum(axis=1)

    def nearest(centroids: np.ndarray) -> np.ndarray:
        return _assign_capacitated(_distance_matrix(rows, row_ones, centroids), cap)

    best_assign: np.ndarray | None = None
    best_cost = math.inf
    for _ in range(cfg.global_iter):
        centers = rng.choice(len(members), size=n, replace=False)
        centroids = rows[centers].astype(np.float32, copy=True)
        assign = nearest(centroids)
        counts, sums = _column_sums(rows, assign, n)
        cost = _cost(counts, sums)
        for _ in range(cfg.local_iter):
            # each part's mean row; an empty part keeps its previous centroid
            filled = counts > 0
            centroids[filled] = sums[filled].astype(np.float64) / counts[filled, None]
            new_assign = nearest(centroids)
            new_counts, new_sums = _column_sums(rows, new_assign, n)
            new_cost = _cost(new_counts, new_sums)
            if new_cost < cost:
                assign, counts, sums, cost = new_assign, new_counts, new_sums, new_cost
            else:
                break
        if cost < best_cost:
            best_assign, best_cost = assign, cost
    return [members[best_assign == p] for p in range(n)]


def _split(
    members: np.ndarray, cfg: IndexConfig, bits: np.ndarray, rng: np.random.Generator
) -> np.ndarray | list:
    """A leaf's members, or the list of an internal node's children."""
    if len(members) <= cfg.fanout:
        return members
    parts = _cm_partitioning(members, cfg.fanout, cfg, bits, rng)
    return [_split(part, cfg, bits, rng) for part in parts if len(part) > 0]


def build_index(
    g: DataGraph,
    sig_config: SignatureConfig | None = None,
    index_config: IndexConfig | None = None,
    aux: AuxData | None = None,
) -> SubgraphIndex:
    """Build the tree for ``g``; precomputed ``aux`` is reused when given.

    Without ``sig_config`` the signatures follow ``aux``'s config, or the
    default one when there is no ``aux``.
    """
    if g.vertex_count == 0:
        raise ValueError("cannot index an empty graph")
    if sig_config is None:
        sig_config = aux.cfg if aux is not None else SignatureConfig()
    index_config = index_config or IndexConfig()
    if aux is None:
        aux = build_aux(g, sig_config)
    elif aux.cfg != sig_config:
        raise ValueError("aux data was built with a different signature config")
    bits = _unpack_bits(aux.bv, sig_config).astype(np.float32)
    rng = np.random.default_rng(index_config.seed)
    # The splits run depth-first, which fixes the order of the random draws;
    # the nodes are then numbered breadth-first.
    child_counts: list[int] = []
    leaves: list[np.ndarray] = []
    level = [_split(np.arange(g.vertex_count, dtype=np.int64), index_config, bits, rng)]
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


def check_keyword_names(names: Sequence[str]) -> None:
    """Refuse a keyword name longer than :data:`MAX_KEYWORD_BYTES` UTF-8 bytes.

    The index file cannot hold one, so ``s3and index`` calls this before it
    builds anything.
    """
    for name in names:
        size = len(name.encode("utf-8"))
        if size > MAX_KEYWORD_BYTES:
            raise ValueError(
                f"a keyword name has {size} UTF-8 bytes; an index file "
                f"holds at most {MAX_KEYWORD_BYTES}"
            )


def save_index(index: SubgraphIndex, path: str | Path) -> None:
    """Write the index to a little-endian binary file.

    The file holds the configs, the keyword table, the graph fingerprint,
    the per-vertex signatures and the tree shape, sealed by a digest; what
    the shape and the signatures determine is derived again on load. A
    keyword name too long for the file (see :func:`check_keyword_names`)
    raises ``ValueError`` before anything is written.
    """
    check_keyword_names(index.keyword_names)
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


def load_index(path: str | Path) -> SubgraphIndex:
    """Read an index file, with the signature and index configs it stores.

    The checks run in file order before anything is used: the magic, then
    the version, then the trailing digest over every byte before it, and
    only then the counts, each against the bytes left. The tree shape is
    checked before the node and leaf tables are derived from it: the
    child counts must form one tree with the header's node count, every
    leaf must have a member, and the leaves must partition the vertex ids.
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
    (name_count,) = struct.unpack("<I", take(4))
    names = []
    for _ in range(name_count):
        (length,) = struct.unpack("<H", take(2))
        names.append(take(length).decode("utf-8"))
    fingerprint = take(FINGERPRINT_SIZE)
    sig_shape = (vertex_count, sig_config.group_count * sig_config.words_per_group)
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
