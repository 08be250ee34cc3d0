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
    containment_mask,
    containment_test,
    hash_keyword,
    keyword_group,
    make_graph,
    vertex_bit_vector,
)
from s3and.signatures import unpack_bits


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
    bv = vertex_bit_vector([], cfg)
    assert bv.shape == (cfg.group_count, cfg.words_per_group)
    assert not bv.any()


def test_vertex_bit_vector_positions_by_hand():
    cfg = SignatureConfig(group_count=2, bits_per_group=8)
    keywords = [3, 4, 6]
    bv = vertex_bit_vector(keywords, cfg)
    expect = np.zeros((2, 1), dtype=np.uint64)
    for k in keywords:
        grp = k % 2
        pos = reference_fnv1a64((k).to_bytes(8, "little")) % 8
        expect[grp, 0] |= np.uint64(1) << np.uint64(pos)
    assert np.array_equal(bv, expect)


def test_bit_vector_is_or_of_singletons():
    cfg = SignatureConfig()
    ks = [0, 5, 9, 13]
    combined = vertex_bit_vector(ks, cfg)
    ored = np.zeros_like(combined)
    for k in ks:
        ored |= vertex_bit_vector([k], cfg)
    assert np.array_equal(combined, ored)


def test_nbv_covers_neighbors(team_graph):
    cfg = SignatureConfig()
    aux = build_aux(team_graph, cfg)
    for nb in team_graph.adjacency[0]:  # vertices 1, 3, 11
        assert containment_test(aux[0].nbv, aux[nb].bv)


def test_isolated_vertex_aux():
    g = make_graph(3, [(0, 1)], [[0], [1], [2]], ["a", "b", "c"])
    aux = build_aux(g, SignatureConfig())
    assert not aux[2].nbv.any()


def test_containment_zero_query_always_true():
    cfg = SignatureConfig()
    q = np.zeros((cfg.group_count, cfg.words_per_group), dtype=np.uint64)
    rng = np.random.default_rng(0)
    for _ in range(5):
        cand = rng.integers(0, 2**63, q.shape).astype(np.uint64)
        assert containment_test(cand, q)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=40), min_size=0, max_size=8),
    st.data(),
)
def test_containment_has_no_false_negatives(big, data):
    sub = data.draw(st.sets(st.sampled_from(sorted(big)), max_size=len(big))) if big else set()
    cfg = SignatureConfig(group_count=3, bits_per_group=16)
    cand = vertex_bit_vector(sorted(big), cfg)
    query = vertex_bit_vector(sorted(sub), cfg)
    assert containment_test(cand, query)


def test_containment_detects_clear_miss():
    cfg = SignatureConfig()
    cand = vertex_bit_vector([0], cfg)
    query = vertex_bit_vector([7], cfg)  # different group under m=5
    assert not containment_test(cand, query)


def test_containment_mask_matches_scalar():
    cfg = SignatureConfig(group_count=2, bits_per_group=8)
    rng = np.random.default_rng(9)
    sets = [sorted(set(map(int, rng.integers(0, 12, rng.integers(0, 5))))) for _ in range(30)]
    stack = build_bit_vectors(sets, cfg)
    query = vertex_bit_vector([1, 4], cfg)
    mask = containment_mask(stack, query)
    assert mask.shape == (30,)
    for i in range(30):
        assert mask[i] == containment_test(stack[i], query)


def test_unpack_bits_matches_manual_extraction():
    cfg = SignatureConfig(group_count=2, bits_per_group=12)
    bv = vertex_bit_vector([0, 3, 7, 10], cfg)
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
            manual |= aux[nb].bv
        assert np.array_equal(aux[v].nbv, manual)


def test_aux_container_api(team_graph):
    aux = build_aux(team_graph, SignatureConfig())
    assert len(aux) == 12
    assert isinstance(aux, AuxData)
    entry = aux[3]
    assert entry.bv.shape == (5, 1)
    assert aux.flat_bv().shape == (12, 5)
    assert aux.flat_nbv().shape == (12, 5)


def test_signature_config_validation():
    with pytest.raises(ValueError):
        SignatureConfig(group_count=0)
    with pytest.raises(ValueError):
        SignatureConfig(bits_per_group=0)
    assert SignatureConfig(bits_per_group=100).words_per_group == 2
