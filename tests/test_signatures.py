"""Grouped bit-vector signatures: hashing, construction, containment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3and import (
    AuxData,
    SignatureConfig,
    build_aux,
    build_bit_vectors,
    exact_keywords,
    hash_keyword,
    keyword_contained,
    keyword_group,
    make_graph,
)
from s3and.signatures import MAX_SIGNATURE_WORDS, unpack_bits
from tests.conftest import complemented


def reference_fnv1a64(data: bytes) -> int:
    """Independent FNV-1a, written straight from the published constants."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) % 2**64
    return h


def test_keyword_group_single_group():
    cfg = SignatureConfig(group_count=1)
    assert all(keyword_group(k, cfg) == 0 for k in range(20))


def test_keyword_group_is_mod_m():
    cfg = SignatureConfig(group_count=5)
    for k in range(10):
        assert keyword_group(k, cfg) == k % 5


def test_hash_keyword_single_bit_group():
    cfg = SignatureConfig(bits_per_group=1)
    assert all(hash_keyword(k, cfg) == 0 for k in range(10))


def test_hash_keyword_matches_reference():
    cfg = SignatureConfig(seed=0, bits_per_group=64)
    assert hash_keyword(0, cfg) == reference_fnv1a64((0).to_bytes(8, "little")) % 64
    assert hash_keyword(0, cfg) == 5  # frozen from the reference above
    for k in (1, 7, 42, 512):
        expect = reference_fnv1a64(k.to_bytes(8, "little")) % 64
        assert hash_keyword(k, cfg) == expect
    seeded = SignatureConfig(seed=1, bits_per_group=64)
    assert hash_keyword(0, seeded) == reference_fnv1a64((1).to_bytes(8, "little")) % 64


def test_empty_keyword_set_is_zero():
    cfg = SignatureConfig()
    bv = build_bit_vectors([[]], cfg)[0]
    assert bv.shape == (cfg.group_count, cfg.words_per_group)
    assert not bv.any()


def test_vertex_bit_vector_positions_by_hand():
    cfg = SignatureConfig(group_count=2, bits_per_group=8)
    keywords = [3, 4, 6]
    bv = build_bit_vectors([keywords], cfg)[0]
    expect = np.zeros((2, 1), dtype=np.uint64)
    for k in keywords:
        grp = k % 2
        pos = reference_fnv1a64((k).to_bytes(8, "little")) % 8
        expect[grp, 0] |= np.uint64(1) << np.uint64(pos)
    assert np.array_equal(bv, expect)


def test_bit_vector_is_or_of_singletons():
    cfg = SignatureConfig()
    ks = [0, 5, 9, 13]
    combined = build_bit_vectors([ks], cfg)[0]
    ored = np.zeros_like(combined)
    for k in ks:
        ored |= build_bit_vectors([[k]], cfg)[0]
    assert np.array_equal(combined, ored)


def contains(candidate: np.ndarray, query: np.ndarray) -> bool:
    """:func:`keyword_contained` for one candidate and one query signature."""
    neg = complemented(candidate[None])
    return bool(keyword_contained(neg, [0], query.reshape(-1, 1), [0])[0])


def test_nbv_covers_neighbors(team_graph):
    cfg = SignatureConfig()
    aux = build_aux(team_graph, cfg)
    for nb in team_graph.adjacency[0]:  # vertices 1, 3, 11
        assert contains(aux.nbv[0], aux.bv[nb])


def test_isolated_vertex_aux():
    g = make_graph(3, [(0, 1)], [[0], [1], [2]], ["a", "b", "c"])
    aux = build_aux(g, SignatureConfig())
    assert not aux.nbv[2].any()


def test_containment_zero_query_always_true():
    cfg = SignatureConfig()
    q = np.zeros((cfg.group_count, cfg.words_per_group), dtype=np.uint64)
    rng = np.random.default_rng(0)
    for _ in range(5):
        cand = rng.integers(0, 2**63, q.shape).astype(np.uint64)
        assert contains(cand, q)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=40), min_size=0, max_size=8),
    st.data(),
)
def test_containment_has_no_false_negatives(big, data):
    sub = data.draw(st.sets(st.sampled_from(sorted(big)), max_size=len(big))) if big else set()
    cfg = SignatureConfig(group_count=3, bits_per_group=16)
    cand = build_bit_vectors([sorted(big)], cfg)[0]
    query = build_bit_vectors([sorted(sub)], cfg)[0]
    assert contains(cand, query)


def test_containment_detects_clear_miss():
    cfg = SignatureConfig()
    cand = build_bit_vectors([[0]], cfg)[0]
    query = build_bit_vectors([[7]], cfg)[0]  # different group under m=5
    assert not contains(cand, query)


def test_unpack_bits_matches_manual_extraction():
    cfg = SignatureConfig(group_count=2, bits_per_group=12)
    bv = build_bit_vectors([[0, 3, 7, 10]], cfg)[0]
    flat = unpack_bits(bv[None, ...], cfg)[0]
    assert flat.shape == (2 * 12,)
    for grp in range(2):
        for pos in range(12):
            bit = int(bv[grp, 0] >> np.uint64(pos)) & 1
            assert flat[grp * 12 + pos] == bit


def test_build_aux_nbv_matches_manual_or(team_graph):
    cfg = SignatureConfig()
    aux = build_aux(team_graph, cfg)
    for v in range(team_graph.vertex_count):
        manual = np.zeros((cfg.group_count, cfg.words_per_group), dtype=np.uint64)
        for nb in team_graph.adjacency[v]:
            manual |= aux.bv[nb]
        assert np.array_equal(aux.nbv[v], manual)


def test_aux_container_api(team_graph):
    aux = build_aux(team_graph, SignatureConfig())
    assert len(aux) == 12
    assert isinstance(aux, AuxData)
    assert aux.bv[3].shape == (5, 1)
    assert aux.flat_bv().shape == (12, 5)
    assert aux.flat_nbv().shape == (12, 5)


def test_signature_config_validation():
    with pytest.raises(ValueError):
        SignatureConfig(group_count=0)
    with pytest.raises(ValueError):
        SignatureConfig(bits_per_group=0)
    assert SignatureConfig(bits_per_group=100).words_per_group == 2
    # at most MAX_SIGNATURE_WORDS words over all groups
    widest = MAX_SIGNATURE_WORDS * 64 // 16
    SignatureConfig(group_count=MAX_SIGNATURE_WORDS)
    SignatureConfig(group_count=16, bits_per_group=widest)
    for wide in (
        dict(group_count=MAX_SIGNATURE_WORDS + 1),
        dict(group_count=16, bits_per_group=widest + 1),
        dict(bits_per_group=2**32 - 1),
    ):
        with pytest.raises(ValueError, match="words per signature"):
            SignatureConfig(**wide)


def brute_force_exact(cfg: SignatureConfig, domain: int) -> set[int]:
    """Ids below ``domain`` alone on their (group, position), from a bit map."""
    owners: dict[tuple[int, int], list[int]] = {}
    for k in range(domain):
        owners.setdefault((keyword_group(k, cfg), hash_keyword(k, cfg)), []).append(k)
    return {ks[0] for ks in owners.values() if len(ks) == 1}


@pytest.mark.parametrize("bits", range(2, 9))
def test_exact_keywords_match_bit_map_one_group(bits):
    cfg = SignatureConfig(group_count=1, bits_per_group=bits)
    for domain in range(0, 13):
        assert exact_keywords(cfg, domain) == brute_force_exact(cfg, domain)
    # more ids than bits: some must share
    assert len(exact_keywords(cfg, bits + 1)) < bits + 1


def test_exact_keywords_match_bit_map_default_config():
    cfg = SignatureConfig()
    for domain in (1, 10, 50, 1000):
        assert exact_keywords(cfg, domain) == brute_force_exact(cfg, domain)
    # the benchmark domains have no shared bit; 1,000 ids in 320 bits do
    assert exact_keywords(cfg, 50) == frozenset(range(50))
    assert len(exact_keywords(cfg, 1000)) < 320
