"""Grouped bit-vector signatures for keyword sets.

Keywords are split round-robin into ``group_count`` groups (keyword id mod
group count) and each group is summarized by a ``bits_per_group``-wide bit
array; a keyword sets the bit at its 64-bit FNV-1a hash position within its
group's array. Containment of the query bits in a vertex's bits is necessary
for exact keyword containment but not sufficient (hash collisions), so these
signatures may only ever rule candidates out, never in.

Arrays are packed little-endian into ``uint64`` words: bit ``p`` of a group
lives in word ``p // 64`` at bit ``p % 64``. A vertex signature has shape
``(group_count, words_per_group)``; stacking all vertices gives the
``(n, group_count, words_per_group)`` arrays carried by :class:`AuxData`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graph import DataGraph

__all__ = [
    "SignatureConfig",
    "VertexAux",
    "AuxData",
    "keyword_group",
    "hash_keyword",
    "vertex_bit_vector",
    "build_bit_vectors",
    "containment_test",
    "containment_mask",
    "unpack_bits",
    "build_aux",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SignatureConfig:
    """Shape and seeding of the grouped bit vectors."""

    group_count: int = 5
    bits_per_group: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ValueError("group_count must be at least 1")
        if self.bits_per_group < 1:
            raise ValueError("bits_per_group must be at least 1")

    @property
    def words_per_group(self) -> int:
        return (self.bits_per_group + 63) // 64


class VertexAux(NamedTuple):
    """Per-vertex signature data: own bits and neighborhood bits."""

    bv: np.ndarray
    nbv: np.ndarray


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _U64
    return h


def keyword_group(keyword: int, cfg: SignatureConfig) -> int:
    """Group index of a keyword id (round-robin)."""
    if keyword < 0:
        raise ValueError(f"keyword id must be non-negative, got {keyword}")
    return keyword % cfg.group_count


def hash_keyword(keyword: int, cfg: SignatureConfig) -> int:
    """Bit position of a keyword within its group.

    FNV-1a over the 8-byte little-endian encoding of ``keyword XOR seed``,
    reduced mod ``bits_per_group``.
    """
    if keyword < 0:
        raise ValueError(f"keyword id must be non-negative, got {keyword}")
    x = (keyword ^ cfg.seed) & _U64
    return _fnv1a64(x.to_bytes(8, "little")) % cfg.bits_per_group


@functools.lru_cache(maxsize=8)
def _keyword_bits(cfg: SignatureConfig) -> dict[int, tuple[int, int]]:
    """Memo per config: keyword id -> (flat word index, word mask).

    The flat word index counts words across groups, as in a signature
    reshaped to ``(groups * words_per_group,)``. The memo grows to at most
    the keyword ids seen; without it every query hashes its keywords again.
    """
    return {}


def vertex_bit_vector(keywords: Iterable[int], cfg: SignatureConfig) -> np.ndarray:
    """Signature of one keyword set, shape ``(group_count, words_per_group)``."""
    return build_bit_vectors([keywords], cfg)[0]


def build_bit_vectors(
    keyword_sets: Sequence[Iterable[int]], cfg: SignatureConfig
) -> np.ndarray:
    """Stacked signatures for many keyword sets, shape ``(n, groups, words)``."""
    width = cfg.group_count * cfg.words_per_group
    known = _keyword_bits(cfg)
    rows = []
    for ws in keyword_sets:
        row = [0] * width
        for k in ws:
            bit = known.get(k)
            if bit is None:
                pos = hash_keyword(k, cfg)
                word = keyword_group(k, cfg) * cfg.words_per_group + pos // 64
                bit = known[k] = (word, 1 << (pos % 64))
            row[bit[0]] |= bit[1]
        rows.append(row)
    return np.array(rows, dtype=np.uint64).reshape(
        len(rows), cfg.group_count, cfg.words_per_group
    )


def containment_test(candidate: np.ndarray, query: np.ndarray) -> bool:
    """Whether every query bit is set in the candidate (per group).

    Safe precheck only: True can be a hash-collision artifact, False is
    definitive non-containment.
    """
    if candidate.shape != query.shape:
        raise ValueError(
            f"signature shape mismatch: {candidate.shape} vs {query.shape}"
        )
    return bool(np.all((candidate & query) == query))


def containment_mask(candidates: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Vectorized :func:`containment_test` over leading axes of ``candidates``."""
    if candidates.shape[-query.ndim:] != query.shape:
        raise ValueError(
            f"signature shape mismatch: {candidates.shape} vs {query.shape}"
        )
    reduce_axes = tuple(range(candidates.ndim - query.ndim, candidates.ndim))
    return np.all((candidates & query) == query, axis=reduce_axes)


def unpack_bits(bv: np.ndarray, cfg: SignatureConfig) -> np.ndarray:
    """Expand packed signatures to one byte per bit position.

    Input shape ``(..., groups, words)``; output ``(..., groups * bits)`` in
    group-major position order, dtype uint8 with values 0/1.
    """
    lead = bv.shape[:-2]
    as_bytes = bv.astype("<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    bits = bits.reshape(*lead, cfg.group_count, cfg.words_per_group * 64)
    bits = bits[..., : cfg.bits_per_group]
    return bits.reshape(*lead, cfg.group_count * cfg.bits_per_group)


@dataclass(eq=False, repr=False)
class AuxData:
    """Signature arrays for a whole graph.

    ``bv[i]`` is vertex ``i``'s own signature and ``nbv[i]`` the OR of its
    neighbors' signatures; an isolated vertex gets a zero ``nbv``. Indexing
    yields :class:`VertexAux` views.
    """

    cfg: SignatureConfig
    bv: np.ndarray
    nbv: np.ndarray

    def __len__(self) -> int:
        return self.bv.shape[0]

    def __getitem__(self, i: int) -> VertexAux:
        return VertexAux(self.bv[i], self.nbv[i])

    def flat_bv(self) -> np.ndarray:
        """Signatures flattened to ``(n, groups * words)`` for batch kernels."""
        return self.bv.reshape(len(self), -1)

    def flat_nbv(self) -> np.ndarray:
        return self.nbv.reshape(len(self), -1)


def build_aux(g: DataGraph, cfg: SignatureConfig) -> AuxData:
    """Compute all per-vertex signature data for ``g``."""
    bv = build_bit_vectors(g.keywords, cfg)
    nbv = np.zeros_like(bv)
    if g.edges:
        eu = np.fromiter((u for u, _ in g.edges), dtype=np.int64, count=g.edge_count)
        ev = np.fromiter((v for _, v in g.edges), dtype=np.int64, count=g.edge_count)
        np.bitwise_or.at(nbv, eu, bv[ev])
        np.bitwise_or.at(nbv, ev, bv[eu])
    return AuxData(cfg, bv, nbv)
