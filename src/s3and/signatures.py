"""Grouped bit-vector signatures for keyword sets.

Keywords are split round-robin into ``group_count`` groups (keyword id mod
group count) and each group is summarized by a ``bits_per_group``-wide bit
array; a keyword sets the bit at its 64-bit FNV-1a hash position within its
group's array. Containment of the query bits in a vertex's bits is necessary
for exact keyword containment but not sufficient (hash collisions), so these
signatures may only ever rule candidates out, never in. The exception is a
keyword whose bit no other keyword of the domain sets: :func:`exact_keywords`
lists those, and for them the bit alone decides containment.

Arrays are packed little-endian into ``uint64`` words: bit ``p`` of a group
lives in word ``p // 64`` at bit ``p % 64``. A vertex signature has shape
``(group_count, words_per_group)``; stacking all vertices gives the
``(n, group_count, words_per_group)`` arrays carried by :class:`AuxData`.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import DataGraph

__all__ = [
    "SignatureConfig",
    "AuxData",
    "keyword_group",
    "hash_keyword",
    "build_bit_vectors",
    "exact_keywords",
    "unpack_bits",
    "build_aux",
]

# the widest signature, in uint64 words over all groups: 65,536 bits, far
# more than any keyword domain needs to keep collisions rare, and small
# enough that a per-vertex row of it can be allocated
MAX_SIGNATURE_WORDS = 1024

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SignatureConfig:
    """Shape and seeding of the grouped bit vectors.

    A signature holds at most :data:`MAX_SIGNATURE_WORDS` words over all
    groups, so a config too wide to allocate is refused here, before any
    array is built.
    """

    group_count: int = 5
    bits_per_group: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ValueError("group_count must be at least 1")
        if self.bits_per_group < 1:
            raise ValueError("bits_per_group must be at least 1")
        # the index file stores the counts as uint32 and the seed as int64
        if max(self.group_count, self.bits_per_group) >= 2**32:
            raise ValueError("group_count and bits_per_group must be below 2**32")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must be in [-2**63, 2**63)")
        if self.group_count * self.words_per_group > MAX_SIGNATURE_WORDS:
            raise ValueError(
                "group_count * ceil(bits_per_group / 64) must be at most "
                f"{MAX_SIGNATURE_WORDS} words per signature"
            )

    @property
    def words_per_group(self) -> int:
        return (self.bits_per_group + 63) // 64


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


def _keyword_bit(keyword: int, cfg: SignatureConfig) -> tuple[int, int]:
    """A keyword's (flat word index, word mask), hashed once per config."""
    known = _keyword_bits(cfg)
    bit = known.get(keyword)
    if bit is None:
        pos = hash_keyword(keyword, cfg)
        word = keyword_group(keyword, cfg) * cfg.words_per_group + pos // 64
        bit = known[keyword] = (word, 1 << (pos % 64))
    return bit


@functools.lru_cache(maxsize=8)
def exact_keywords(cfg: SignatureConfig, domain: int) -> frozenset[int]:
    """The keyword ids below ``domain`` whose bit no other id below it sets.

    In a graph whose keyword ids all lie below ``domain``, a vertex
    signature has such a keyword's bit only if the vertex carries that
    keyword, so for these ids bit containment is exact containment.
    Memoized per config and domain size.
    """
    bits = [_keyword_bit(k, cfg) for k in range(domain)]
    owners = collections.Counter(bits)
    return frozenset(k for k, bit in enumerate(bits) if owners[bit] == 1)


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
            bit = known.get(k) or _keyword_bit(k, cfg)
            row[bit[0]] |= bit[1]
        rows.append(row)
    return np.array(rows, dtype=np.uint64).reshape(
        len(rows), cfg.group_count, cfg.words_per_group
    )


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
    neighbors' signatures; an isolated vertex gets a zero ``nbv``.
    """

    cfg: SignatureConfig
    bv: np.ndarray
    nbv: np.ndarray

    def __len__(self) -> int:
        return self.bv.shape[0]

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
