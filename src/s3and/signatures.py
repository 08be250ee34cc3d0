"""Grouped bit-vector signatures for keyword sets.

Keywords are split round-robin into ``group_count`` groups (keyword id mod
group count) and each group is summarized by a ``bits_per_group``-wide bit
array; a keyword sets the bit at its 64-bit FNV-1a hash position within its
group's array. Containment of the query bits in a vertex's bits is necessary
for exact keyword containment but not sufficient (hash collisions), so these
signatures may only ever rule candidates out, never in. The exception is a
keyword whose bit no other keyword of the domain sets: :func:`exact_keywords`
lists those, and for them the bit alone decides containment.

Arrays are packed little-endian into ``uint64`` words: bit ``p`` of group
``k`` lives in word ``k * words_per_group + p // 64`` of a signature, at bit
``p % 64``. A signature is one row of ``group_count * words_per_group``
words, and :class:`AuxData` stacks them to ``(n, groups * words)``.

Each keyword sets one bit, so a keyword domain is hashed once into a table
of each id's word index and mask, per config and domain size; building any
number of signatures is then one scatter of those masks.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import DataGraph

__all__ = [
    "SignatureConfig",
    "AuxData",
    "exact_keywords",
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


def _fnv1a64(ids: np.ndarray) -> np.ndarray:
    """FNV-1a over the 8 little-endian bytes of each ``uint64``.

    ``uint64`` arithmetic wraps, which is the hash's multiplication mod
    ``2**64``.
    """
    h = np.full(ids.shape, _FNV_OFFSET, dtype=np.uint64)
    for shift in range(0, 64, 8):
        h ^= (ids >> np.uint64(shift)) & np.uint64(0xFF)
        h *= np.uint64(_FNV_PRIME)
    return h


@functools.lru_cache(maxsize=8)
def _keyword_table(
    cfg: SignatureConfig, domain: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per keyword id below ``domain``: its flat word index, mask and bit position.

    Keyword ``k`` sets bit ``p``, the FNV-1a hash of ``k XOR seed`` mod
    ``bits_per_group``, in group ``k % group_count``: that is word
    ``(k % group_count) * words_per_group + p // 64`` of a signature row,
    under the ``uint64`` mask ``1 << (p % 64)``, and bit ``64 * word + p %
    64`` of the row read as one string of bits. Read-only, since every
    caller shares it.
    """
    ids = np.arange(domain, dtype=np.uint64)
    pos = _fnv1a64(ids ^ np.uint64(cfg.seed & _U64)) % np.uint64(cfg.bits_per_group)
    word = (ids % np.uint64(cfg.group_count)).astype(np.int64) * cfg.words_per_group
    word += (pos // np.uint64(64)).astype(np.int64)
    shift = pos % np.uint64(64)
    mask = np.uint64(1) << shift
    bit = 64 * word + shift.astype(np.int64)
    word.flags.writeable = mask.flags.writeable = bit.flags.writeable = False
    return word, mask, bit


@functools.lru_cache(maxsize=8)
def exact_keywords(cfg: SignatureConfig, domain: int) -> frozenset[int]:
    """The keyword ids below ``domain`` whose bit no other id below it sets.

    In a graph whose keyword ids all lie below ``domain``, a vertex
    signature has such a keyword's bit only if the vertex carries that
    keyword, so for these ids bit containment is exact containment.
    Memoized per config and domain size.
    """
    bits = _keyword_table(cfg, domain)[2].tolist()
    owners = collections.Counter(bits)
    return frozenset(k for k, bit in enumerate(bits) if owners[bit] == 1)


def build_bit_vectors(
    keyword_sets: Sequence[Iterable[int]], cfg: SignatureConfig, domain: int
) -> np.ndarray:
    """Signatures of many keyword sets, shape ``(n, groups * words)``.

    Every keyword id must lie in ``[0, domain)``, as
    :func:`~s3and.graph.make_graph` ensures for a graph's ids and its
    ``keyword_domain_size``; the ids are not checked again here. An id at
    or past ``domain`` raises ``IndexError``, but a negative id ``k`` would
    silently set the bit of ``k + domain``, so the function is kept out of
    the package's exports and takes only validated ids.
    """
    word, mask, _ = _keyword_table(cfg, domain)
    sizes = [len(ws) for ws in keyword_sets]
    ids = np.fromiter(itertools.chain.from_iterable(keyword_sets), np.int64, sum(sizes))
    bv = np.zeros((len(sizes), cfg.group_count * cfg.words_per_group), dtype=np.uint64)
    np.bitwise_or.at(bv, (np.arange(len(sizes)).repeat(sizes), word[ids]), mask[ids])
    return bv


@dataclass(eq=False, repr=False)
class AuxData:
    """Signature arrays for a whole graph, each ``(n, groups * words)``.

    ``bv[i]`` is vertex ``i``'s own signature and ``nbv[i]`` the OR of its
    neighbors' signatures; an isolated vertex gets a zero ``nbv``.
    """

    cfg: SignatureConfig
    bv: np.ndarray
    nbv: np.ndarray


def build_aux(g: DataGraph, cfg: SignatureConfig) -> AuxData:
    """Compute all per-vertex signature data for ``g``.

    ``nbv`` ORs ``bv`` over each vertex's run of the adjacency lists laid
    end to end; a vertex without neighbors has no run and keeps zeros.
    """
    bv = build_bit_vectors(g.keywords, cfg, g.keyword_domain_size)
    degrees = g.degree_vector
    nbrs = np.fromiter(
        itertools.chain.from_iterable(g.adjacency), np.int64, int(degrees.sum())
    )
    nbv = np.zeros_like(bv)
    if nbrs.size:
        linked = degrees > 0
        starts = np.cumsum(degrees) - degrees
        nbv[linked] = np.bitwise_or.reduceat(bv[nbrs], starts[linked])
    return AuxData(cfg, bv, nbv)
