"""Grouped bit-vector signatures: hashing, construction, containment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3and import (
    SignatureConfig,
    build_aux,
    build_query_side,
    exact_keywords,
    keyword_contained,
    make_graph,
    parse_graph,
    parse_query,
)
from s3and.index import _unpack_bits
from s3and.signatures import MAX_SIGNATURE_WORDS, build_bit_vectors
from tests.conftest import complemented


def reference_fnv1a64(data: bytes) -> int:
    """Independent FNV-1a, written straight from the published constants."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) % 2**64
    return h


def reference_bit(keyword: int, cfg: SignatureConfig) -> tuple[int, int]:
    """A keyword's (group, bit position): round-robin group, FNV-1a of id XOR seed."""
    data = ((keyword ^ cfg.seed) % 2**64).to_bytes(8, "little")
    return keyword % cfg.group_count, reference_fnv1a64(data) % cfg.bits_per_group


def reference_row(keywords, cfg: SignatureConfig) -> np.ndarray:
    """One flat signature row, ORed one keyword bit at a time."""
    row = np.zeros(cfg.group_count * cfg.words_per_group, dtype=np.uint64)
    for k in keywords:
        grp, pos = reference_bit(k, cfg)
        row[grp * cfg.words_per_group + pos // 64] |= np.uint64(1) << np.uint64(pos % 64)
    return row


def keyword_bit(keyword: int, cfg: SignatureConfig) -> tuple[int, int]:
    """The one (group, bit position) that ``build_bit_vectors`` sets for a keyword."""
    bits = _unpack_bits(build_bit_vectors([[keyword]], cfg, keyword + 1), cfg)[0]
    (flat,) = np.flatnonzero(bits).tolist()
    return divmod(flat, cfg.bits_per_group)


def test_keyword_group_single_group():
    cfg = SignatureConfig(group_count=1)
    for k in range(20):
        assert keyword_bit(k, cfg) == reference_bit(k, cfg)
        assert keyword_bit(k, cfg)[0] == 0


def test_keyword_group_is_mod_m():
    cfg = SignatureConfig(group_count=5)
    for k in range(10):
        assert keyword_bit(k, cfg)[0] == k % 5


def test_hash_keyword_single_bit_group():
    cfg = SignatureConfig(bits_per_group=1)
    assert all(keyword_bit(k, cfg) == (k % 5, 0) for k in range(10))


def test_hash_keyword_matches_reference():
    cfg = SignatureConfig(seed=0, bits_per_group=64)
    assert keyword_bit(0, cfg)[1] == reference_fnv1a64((0).to_bytes(8, "little")) % 64
    assert keyword_bit(0, cfg) == (0, 5)  # frozen from the reference above
    for k in (1, 7, 42, 512):
        expect = reference_fnv1a64(k.to_bytes(8, "little")) % 64
        assert keyword_bit(k, cfg) == (k % 5, expect)
    seeded = SignatureConfig(seed=1, bits_per_group=64)
    assert keyword_bit(0, seeded)[1] == reference_fnv1a64((1).to_bytes(8, "little")) % 64
    # a negative seed XORs in as its 64-bit two's complement
    negative = SignatureConfig(seed=-2, bits_per_group=1000)
    expect = reference_fnv1a64(((2**64 - 2) ^ 3).to_bytes(8, "little")) % 1000
    assert keyword_bit(3, negative) == (3, expect)


def test_empty_keyword_set_is_zero():
    cfg = SignatureConfig()
    bv = build_bit_vectors([[]], cfg, 0)
    assert bv.shape == (1, cfg.group_count * cfg.words_per_group)
    assert not bv.any()
    assert build_bit_vectors([], cfg, 3).shape == (0, cfg.group_count)


def test_vertex_bit_vector_positions_by_hand():
    cfg = SignatureConfig(group_count=2, bits_per_group=8)
    keywords = [3, 4, 6]
    bv = build_bit_vectors([keywords], cfg, 7)[0]
    expect = np.zeros(2, dtype=np.uint64)
    for k in keywords:
        grp = k % 2
        pos = reference_fnv1a64((k).to_bytes(8, "little")) % 8
        expect[grp] |= np.uint64(1) << np.uint64(pos)
    assert np.array_equal(bv, expect)


def test_bit_vector_is_or_of_singletons():
    cfg = SignatureConfig()
    ks = [0, 5, 9, 13]
    combined = build_bit_vectors([ks], cfg, 14)[0]
    ored = np.zeros_like(combined)
    for k in ks:
        ored |= build_bit_vectors([[k]], cfg, 14)[0]
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
    q = np.zeros(cfg.group_count * cfg.words_per_group, dtype=np.uint64)
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
    cand = build_bit_vectors([sorted(big)], cfg, 41)[0]
    query = build_bit_vectors([sorted(sub)], cfg, 41)[0]
    assert contains(cand, query)


def test_containment_detects_clear_miss():
    cfg = SignatureConfig()
    cand = build_bit_vectors([[0]], cfg, 8)[0]
    query = build_bit_vectors([[7]], cfg, 8)[0]  # different group under m=5
    assert not contains(cand, query)


def test_unpack_bits_matches_manual_extraction():
    cfg = SignatureConfig(group_count=2, bits_per_group=12)
    bv = build_bit_vectors([[0, 3, 7, 10]], cfg, 11)
    flat = _unpack_bits(bv, cfg)[0]
    assert flat.shape == (2 * 12,)
    for grp in range(2):
        for pos in range(12):
            bit = int(bv[0, grp] >> np.uint64(pos)) & 1
            assert flat[grp * 12 + pos] == bit


def test_build_aux_nbv_matches_manual_or(team_graph):
    cfg = SignatureConfig()
    aux = build_aux(team_graph, cfg)
    for v in range(team_graph.vertex_count):
        manual = np.zeros(cfg.group_count * cfg.words_per_group, dtype=np.uint64)
        for nb in team_graph.adjacency[v]:
            manual |= aux.bv[nb]
        assert np.array_equal(aux.nbv[v], manual)


def test_aux_container_api(team_graph):
    aux = build_aux(team_graph, SignatureConfig())
    assert aux.bv.shape == aux.nbv.shape == (12, 5)
    assert aux.bv.dtype == aux.nbv.dtype == np.uint64
    wide = build_aux(team_graph, SignatureConfig(group_count=3, bits_per_group=100))
    assert wide.bv.shape == wide.nbv.shape == (12, 3 * 2)


@pytest.mark.parametrize(
    "cfg",
    [
        SignatureConfig(),
        SignatureConfig(group_count=1),
        SignatureConfig(bits_per_group=100, seed=3),
        SignatureConfig(group_count=1, bits_per_group=100, seed=-7),
    ],
    ids=["default", "one-group", "two-words", "one-group-two-words"],
)
@pytest.mark.parametrize("seed", range(4))
def test_build_aux_matches_per_vertex_reference(cfg, seed):
    # a random graph with isolated vertices (one mid-graph, so that it sits
    # between vertices that have neighbors) and a keyword-free vertex,
    # against a per-vertex OR of reference bits
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    domain = int(rng.integers(1, 60))
    isolated = {0, n // 2}
    edges = {
        (u, v)
        for u, v in (sorted(rng.choice(n, 2, replace=False).tolist()) for _ in range(2 * n))
        if not isolated & {u, v}
    }
    keywords = [
        rng.choice(domain, int(rng.integers(0, min(domain, 4) + 1)), replace=False).tolist()
        for _ in range(n)
    ]
    keywords[n // 2 + 1] = []
    g = make_graph(n, sorted(edges), keywords, [f"k{i}" for i in range(domain)])
    assert not g.adjacency[n // 2] and g.adjacency[n // 2 + 1]
    assert not g.keywords[n // 2 + 1]
    aux = build_aux(g, cfg)
    own = np.array([reference_row(ws, cfg) for ws in g.keywords])
    assert np.array_equal(aux.bv, own)
    for v, nbrs in enumerate(g.adjacency):
        expect = np.zeros_like(own[0])
        for u in nbrs:
            expect |= own[u]
        assert np.array_equal(aux.nbv[v], expect), v


def test_query_side_bits_for_a_token_the_graph_lacks():
    g = parse_graph("t 3 2\nv 0 a\nv 1 b\nv 2 c\ne 0 1\ne 1 2\n")
    q = parse_query("t 2 1\nv 0 a,zz\nv 1 b\ne 0 1\n", g)
    # the unknown token gets the first id past the graph's domain
    assert q.keyword_names == ("a", "b", "c", "zz") and q.keywords[0] == (0, 3)
    for cfg in (SignatureConfig(), SignatureConfig(group_count=1, bits_per_group=100)):
        side = build_query_side(q, cfg)
        own = np.array([reference_row(ws, cfg) for ws in q.keywords])
        assert np.array_equal(side.bits, own.T)
        assert np.array_equal(side.neighbor_bits[0], own[[1, 0]].T)
        assert (own[0] & ~reference_row([0], cfg)).any()


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
        owners.setdefault(reference_bit(k, cfg), []).append(k)
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
