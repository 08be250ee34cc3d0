"""Balanced signature tree: partitioning cost, construction, persistence."""

import gc
import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from s3and import (
    IndexConfig,
    IndexFormatError,
    IndexIntegrityError,
    SignatureConfig,
    build_aux,
    build_index,
    load_index,
    save_index,
)
from s3and.index import (
    DIGEST_SIZE,
    _HEADER,
    _assign_capacitated,
    _cm_partitioning,
    _distance_matrix,
    _unpack_bits,
)
from s3and.workbench import SyntheticSpec, generate_graph
from tests.conftest import (
    audit_structure,
    bit_slices,
    derived_arrays,
    node_aggregates,
    node_sets,
    partition_cost,
    reference_assign_capacitated,
)

CFG = SignatureConfig()


def _shape_and_derived(index) -> dict[str, np.ndarray]:
    shape = ("child_counts", "leaf_sizes", "permutation")
    return {name: getattr(index, name) for name in shape} | derived_arrays(index)


def structurally_equal(a, b) -> bool:
    """Compare two indexes array by array: shape, derived tables and aux."""
    if (
        a.index_config != b.index_config
        or a.sig_config != b.sig_config
        or a.keyword_names != b.keyword_names
        or a.vertex_count != b.vertex_count
        or a.graph_fingerprint != b.graph_fingerprint
    ):
        return False
    if not (
        np.array_equal(a.aux.bv, b.aux.bv)
        and np.array_equal(a.aux.nbv, b.aux.nbv)
    ):
        return False
    arrays_a, arrays_b = _shape_and_derived(a), _shape_and_derived(b)
    return arrays_a.keys() == arrays_b.keys() and all(
        arrays_a[name].dtype == arrays_b[name].dtype
        and np.array_equal(arrays_a[name], arrays_b[name])
        for name in arrays_a
    )


# --- distance and cost ----------------------------------------------------


def test_l1_distance_to_own_bits_is_zero():
    cfg = SignatureConfig(group_count=2, bits_per_group=8)
    bv = np.array([[0b1011, 0b0100], [0b0110, 0b1001]], dtype=np.uint64)
    own = _unpack_bits(bv, cfg).astype(np.float64)
    assert np.diag(_distance_matrix(own, own.sum(axis=1), own)).tolist() == [0.0, 0.0]


def test_l1_distance_zero_vs_ones():
    assert _distance_matrix(np.zeros((1, 8)), np.zeros(1), np.ones((1, 8))).tolist() == [[8.0]]


def test_l1_distance_matches_scalar_loop():
    cfg = SignatureConfig(group_count=2, bits_per_group=8)
    rng = np.random.default_rng(2)
    bv = rng.integers(0, 256, (10, 2)).astype(np.uint64)
    rows = _unpack_bits(bv, cfg).astype(np.float32)
    centroids = rng.random((3, 16)).astype(np.float32)
    got = _distance_matrix(rows, rows.sum(axis=1), centroids)
    for i in range(10):
        for p in range(3):
            expect = 0.0
            for grp in range(2):
                for pos in range(8):
                    bit = (int(bv[i, grp]) >> pos) & 1
                    expect += abs(bit - float(centroids[p, grp * 8 + pos]))
            assert got[i, p] == pytest.approx(expect, rel=1e-5)


def reference_cost(parts, bits) -> float:
    """``intra / (inter + 1)`` straight from the definition, part by part."""
    centroids = []
    intra = 0.0
    for part in parts:
        if len(part) == 0:
            continue
        rows = [np.asarray(bits[v], dtype=np.float64) for v in part]
        c = sum(rows) / len(rows)
        centroids.append(c)
        intra += sum(float(np.abs(x - c).sum()) for x in rows)
    inter = 0.0
    for a in range(len(centroids)):
        for b in range(a + 1, len(centroids)):
            inter += float(np.abs(centroids[a] - centroids[b]).sum())
    return intra / (inter + 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_partition_cost_matches_definition(dtype):
    rng = np.random.default_rng(4)
    for trial in range(30):
        count = int(rng.integers(1, 40))
        bits = (rng.random((count, int(rng.integers(1, 20)))) < 0.4).astype(dtype)
        n = int(rng.integers(1, 7))
        # part n - 1 stays empty when n > 1, and trial 0 gives singletons
        labels = rng.integers(0, max(n - 1, 1), count)
        parts = [np.flatnonzero(labels == p) for p in range(n)]
        if trial == 0:
            parts = [np.array([v]) for v in range(count)] + [np.array([], dtype=np.int64)]
        assert partition_cost(parts, bits) == pytest.approx(
            reference_cost(parts, bits), rel=1e-9, abs=1e-12
        )
    # centroid columns with repeated values, where the sorted pair sum meets ties
    base = (rng.random((6, 9)) < 0.5).astype(dtype)
    base[:, 0], base[:, 1] = 1, 0
    tied = np.concatenate([base, base, base, base[:2]])
    tied_cases = [
        # columns 0 and 1 equal in every row; each part's rows repeated
        (tied, [np.arange(p, 18, 3) for p in range(3)] + [np.arange(18, 20)]),
        # parts 0 and 1 hold copies of the same rows, so equal centroids
        (tied, [np.arange(6), np.arange(6, 12), np.arange(12, 20)]),
        # one filled part among empty ones
        (tied, [np.array([], dtype=np.int64), np.arange(20), np.array([], dtype=np.int64)]),
        # all rows equal: every column tied in every part
        (np.ones((8, 5), dtype=dtype), [np.arange(0, 8, 2), np.arange(1, 8, 2)]),
    ]
    for bits, parts in tied_cases:
        assert partition_cost(parts, bits) == pytest.approx(
            reference_cost(parts, bits), rel=1e-9, abs=1e-12
        )


def test_split_cost_is_cost_of_returned_parts():
    # the cost of a returned split, from its float32 rows, is the reference's
    rng = np.random.default_rng(5)
    for trial in range(8):
        count = int(rng.integers(8, 40))
        bits = (rng.random((count, 12)) < 0.4).astype(np.float32)
        parts = _cm_partitioning(
            np.arange(count), 3, IndexConfig(fanout=3), bits, np.random.default_rng(trial)
        )
        assert partition_cost(parts, bits) == pytest.approx(
            reference_cost(parts, bits), rel=1e-9
        )


def test_partition_cost_identical_vectors_is_zero():
    bits = np.ones((4, 6))
    parts = [np.array([0, 1]), np.array([2, 3])]
    assert partition_cost(parts, bits) == 0.0


def test_partition_cost_single_part_denominator_one():
    # one part: no centroid pair, so the cost is the raw intra sum
    bits = np.array([[0.0, 0.0], [1.0, 0.0]])
    parts = [np.array([0, 1])]
    # centroid (0.5, 0): each row at L1 distance 0.5
    assert partition_cost(parts, bits) == pytest.approx(1.0)


def test_partition_cost_hand_computed():
    bits = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.float64)
    parts = [np.array([0, 1]), np.array([2, 3])]
    # intra: both parts have centroid column variance 0.5+0.5 = 1 each
    # inter: centroids (0.5, 0) and (0.5, 1) at L1 distance 1
    assert partition_cost(parts, bits) == pytest.approx(2.0 / (1.0 + 1.0))


def test_partition_cost_ignores_empty_parts():
    bits = np.array([[0.0], [1.0]])
    parts = [np.array([0, 1]), np.array([], dtype=np.int64)]
    assert partition_cost(parts, bits) == partition_cost([parts[0]], bits)


# --- partitioning ---------------------------------------------------------


def _assignment_cases():
    """(label, distances, capacity): random, tie-heavy and near-full, 17 to 10,000 rows."""
    rng = np.random.default_rng(21)
    for rows, n in ((17, 16), (39, 16), (40, 3), (250, 8), (625, 16), (10_000, 16)):
        tight = math.ceil(rows / n)
        loose = math.ceil(1.2 * rows / n)
        bits = (rng.random((rows, 24)) < 0.3).astype(np.float32)
        # a fifth of the rows are copies of one row
        bits[rng.random(rows) < 0.2] = bits[0]
        centroids = bits[rng.choice(rows, n, replace=False)]
        row_dist = _distance_matrix(bits, bits.sum(axis=1), centroids)
        same = np.tile(rng.integers(0, 3, n).astype(np.float32), (rows, 1))
        for label, dist in (
            ("random", rng.random((rows, n)).astype(np.float32)),
            ("rounded", rng.integers(0, 4, (rows, n)).astype(np.float64)),
            ("identical rows", same),
            ("all equal", np.zeros((rows, n))),
            ("signature rows", row_dist),
        ):
            for cap in (tight, loose):
                yield f"{label}, {rows}x{n}, cap {cap}", dist, cap


def test_assign_capacitated_matches_reference():
    for label, dist, cap in _assignment_cases():
        got = _assign_capacitated(dist, cap)
        assert got.tolist() == reference_assign_capacitated(dist, cap).tolist(), label
        assert np.bincount(got).max() <= cap, label


def test_assign_capacitated_leaves_distances_alone():
    dist = np.zeros((5, 2))
    _assign_capacitated(dist, 3)
    assert not dist.any()


def _cluster_bits() -> np.ndarray:
    """Six rows: three copies each of two well-separated signatures."""
    a = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    b = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    return np.stack([a, a, a, b, b, b])


def test_cm_recovers_separated_clusters():
    bits = _cluster_bits()
    cfg = IndexConfig(fanout=2)
    rng = np.random.default_rng(0)
    parts = _cm_partitioning(np.arange(6), 2, cfg, bits, rng)
    groups = {frozenset(map(int, p)) for p in parts if len(p)}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert partition_cost(parts, bits) == 0.0


def test_cm_cost_not_above_enumerated_optimum():
    bits = _cluster_bits()
    cfg = IndexConfig(fanout=2)
    parts = _cm_partitioning(np.arange(6), 2, cfg, bits, np.random.default_rng(0))
    got = partition_cost(parts, bits)
    cap = math.ceil((1 + cfg.gamma) * 6 / 2)
    best = min(
        partition_cost(
            [np.array(sorted(left)), np.array(sorted(set(range(6)) - set(left)))], bits
        )
        for r in range(6 - cap, cap + 1)
        for left in itertools.combinations(range(6), r)
        if left and len(left) < 6
    )
    assert got <= best + 1e-12


def test_cm_few_members_become_singletons():
    bits = np.eye(4)
    parts = _cm_partitioning(np.array([3, 1, 2]), 8, IndexConfig(), bits, np.random.default_rng(0))
    assert [list(p) for p in parts] == [[3], [1], [2]]


def test_cm_identical_vectors_stay_within_cap():
    bits = np.ones((8, 4))
    cfg = IndexConfig(fanout=2)
    parts = _cm_partitioning(np.arange(8), 2, cfg, bits, np.random.default_rng(1))
    cap = math.ceil((1 + cfg.gamma) * 8 / 2)
    assert sum(len(p) for p in parts) == 8
    assert all(len(p) <= cap for p in parts)
    assert partition_cost(parts, bits) == 0.0


def test_cm_respects_cap_on_random_input():
    rng = np.random.default_rng(7)
    for trial in range(10):
        count = int(rng.integers(6, 40))
        n = int(rng.integers(2, 5))
        bits = (rng.random((count, 10)) < 0.3).astype(np.float64)
        cfg = IndexConfig(fanout=n, gamma=float(rng.choice([0.0, 0.1, 0.2])))
        parts = _cm_partitioning(np.arange(count), n, cfg, bits, np.random.default_rng(trial))
        cap = math.ceil((1 + cfg.gamma) * count / n)
        assert all(len(p) <= cap for p in parts)
        flat = sorted(int(v) for p in parts for v in p)
        assert flat == list(range(count))


def test_cm_deterministic_for_fixed_rng_seed():
    bits = (np.random.default_rng(3).random((20, 8)) < 0.5).astype(np.float64)
    cfg = IndexConfig(fanout=3)
    a = _cm_partitioning(np.arange(20), 3, cfg, bits, np.random.default_rng(5))
    b = _cm_partitioning(np.arange(20), 3, cfg, bits, np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_cm_refinement_never_worse_than_initial():
    # the first restart's initial split: the first draw of the same rng
    # picks its centers, and every member goes to its nearest one
    rng = np.random.default_rng(9)
    cfg = IndexConfig(fanout=3)
    for trial in range(8):
        count = int(rng.integers(8, 30))
        bits = (rng.random((count, 12)) < 0.4).astype(np.float64)
        parts = _cm_partitioning(np.arange(count), 3, cfg, bits, np.random.default_rng(trial))
        best = partition_cost(parts, bits)
        centers = np.random.default_rng(trial).choice(count, size=3, replace=False)
        dist = _distance_matrix(bits, bits.sum(axis=1), bits[centers].astype(np.float32))
        cap = min(math.ceil((1.0 + cfg.gamma) * count / 3), count - 1)
        assign = _assign_capacitated(dist, cap)
        initial = partition_cost([np.flatnonzero(assign == p) for p in range(3)], bits)
        assert best <= initial


# --- construction ---------------------------------------------------------


def test_build_fixture_root_splits_into_fanout_parts(team_graph):
    index = build_index(team_graph, index_config=IndexConfig(fanout=4))
    # the root, then its four children, all leaves
    assert index.child_counts.tolist() == [4, 0, 0, 0, 0]
    assert index.leaf_sizes.size == 4
    assert sorted(index.permutation.tolist()) == list(range(12))


def test_build_leaves_no_reference_cycle(team_graph):
    # the signature matrix the splits read must go when the build returns,
    # not wait for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        build_index(team_graph, index_config=IndexConfig(fanout=4))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_small_graph_is_single_leaf(team_graph):
    index = build_index(team_graph, index_config=IndexConfig(fanout=16))
    assert index.child_counts.tolist() == [0]
    assert index.leaf_sizes.tolist() == [12]
    assert sorted(index.permutation.tolist()) == list(range(12))
    assert index.depth() == 0
    assert index.node_count() == 1


def test_build_rejects_mismatched_aux(team_graph):
    aux = build_aux(team_graph, SignatureConfig(group_count=3))
    with pytest.raises(ValueError):
        build_index(team_graph, sig_config=SignatureConfig(group_count=5), aux=aux)


def test_build_takes_the_signature_config_from_aux(team_graph):
    cfg = SignatureConfig(bits_per_group=8)
    aux = build_aux(team_graph, cfg)
    index = build_index(team_graph, aux=aux)
    assert index.sig_config == cfg
    assert index.aux is aux
    assert structurally_equal(index, build_index(team_graph, sig_config=cfg))


def test_build_thousand_vertex_audit():
    spec = SyntheticSpec(
        vertex_count=1000,
        ring_neighbors=2,
        shortcut_probability=0.1,
        keyword_domain_size=30,
        keywords_per_vertex=3,
        seed=4,
    )
    g = generate_graph(spec)
    index = build_index(g, index_config=IndexConfig(fanout=8))
    audit_structure(index, g)
    assert index.leaf_count() >= 1000 / 8


def test_build_identical_signatures_at_full_capacity():
    # capacity ceil((1 + 1) * m / 2) = m: one part could keep every member
    g = generate_graph(
        SyntheticSpec(vertex_count=60, keyword_domain_size=1, keywords_per_vertex=1, seed=3)
    )
    cfg = IndexConfig(fanout=2, gamma=1.0)
    index = build_index(g, index_config=cfg)
    audit_structure(index, g)
    # ties go to part 0, which takes all but one member at every split
    assert index.depth() == g.vertex_count - 2


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, -0.1])
def test_config_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        IndexConfig(gamma=gamma)


def test_build_same_seed_is_identical():
    spec = SyntheticSpec(vertex_count=200, keyword_domain_size=15, seed=6)
    g = generate_graph(spec)
    a = build_index(g, index_config=IndexConfig(fanout=4))
    b = build_index(g, index_config=IndexConfig(fanout=4))
    assert structurally_equal(a, b)


# --- persistence ----------------------------------------------------------


@pytest.fixture()
def saved_index(team_graph, tmp_path):
    index = build_index(team_graph, index_config=IndexConfig(fanout=4))
    path = tmp_path / "team.idx"
    save_index(index, path)
    return index, path


def test_save_load_round_trip(saved_index):
    index, path = saved_index
    loaded = load_index(path)
    assert structurally_equal(index, loaded)


def test_bit_sliced_node_table_matches_the_aggregates(tmp_path):
    # the table a build derives, the table a load derives, and the node
    # aggregates ORed from the members here, one row per bit position, are
    # one table; its last row holds every node
    g = generate_graph(SyntheticSpec(vertex_count=300, keyword_domain_size=20, seed=8))
    built = build_index(g, index_config=IndexConfig(fanout=4))
    path = tmp_path / "sliced.idx"
    save_index(built, path)
    loaded = load_index(path)
    n = built.node_count()
    assert built.depth() >= 2 and n % 64
    expect = bit_slices(node_aggregates(built, built.aux.bv))
    for index in (built, loaded):
        sets = node_sets(index.node_bits, n)
        assert np.array_equal(sets[:-1], expect)
        assert sets[-1].all()


def test_index_file_bytes_are_pinned(tmp_path):
    # a change to any signature bit, the tree or the file layout changes
    # these bytes; the expected digest was taken from the format-3 writer
    # before the signatures were built in bulk
    g = generate_graph(SyntheticSpec(vertex_count=300, seed=5))
    path = tmp_path / "pinned.idx"
    save_index(build_index(g), path)
    data = path.read_bytes()
    assert len(data) == 27_125
    assert hashlib.sha256(data).hexdigest() == (
        "64c5257bee2b092db4ba1312c22521550fb15dd289f70f0bcf17561ef5e8edb1"
    )
    assert load_index(path).aux.bv.shape == (300, 5)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.idx"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_load_rejects_unsupported_version(saved_index, tmp_path):
    _, path = saved_index
    data = bytearray(path.read_bytes())
    for version in (99, 1, 2):
        data[8] = version  # version byte follows the magic
        bad = tmp_path / f"vers{version}.idx"
        bad.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError):
            load_index(bad)


def _sealed(payload: bytes) -> bytes:
    """``payload`` followed by the digest that ``load_index`` expects."""
    return payload + hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()


def _damaged_copy(path, index, damage, out):
    """Copy the index file to ``out`` with ``damage`` applied to its tree shape.

    The copy is sealed again, so that the tree-shape checks are reached.
    """
    data = path.read_bytes()[:-DIGEST_SIZE]
    sizes = [index.node_count(), index.leaf_count(), index.vertex_count]
    cut = len(data) - 4 * sum(sizes)
    shape = np.frombuffer(data[cut:], dtype="<u4").copy()
    child_counts, leaf_sizes, permutation = np.split(shape, np.cumsum(sizes)[:2])
    damage(child_counts, leaf_sizes, permutation)
    out.write_bytes(_sealed(data[:cut] + shape.tobytes()))
    return out


# the node count is the header's last field, right before the keyword table
_NODE_COUNT_AT = 9 + _HEADER.size - 8


def zeroed_signatures(data: bytes, index, vertices) -> bytes:
    """``data`` with the stored own signatures of ``vertices`` zeroed."""
    words = index.sig_config.group_count * index.sig_config.words_per_group
    shape_bytes = 4 * (index.node_count() + index.leaf_count() + index.vertex_count)
    bv_at = len(data) - DIGEST_SIZE - shape_bytes - 2 * index.vertex_count * words * 8
    out = bytearray(data)
    for v in vertices:
        start = bv_at + v * words * 8
        out[start : start + words * 8] = bytes(words * 8)
    return bytes(out)


def with_node_count(data: bytes, count: int) -> bytes:
    """``data`` with the header's node count set to ``count``, not sealed again."""
    return data[:_NODE_COUNT_AT] + struct.pack("<Q", count) + data[_NODE_COUNT_AT + 8 :]


def huge_node_count(data: bytes) -> bytes:
    """``data`` with the header's node count set to 2**62."""
    return with_node_count(data, 2**62)


def resealed_node_count(data: bytes, shift: int) -> bytes:
    """``data`` with the node count moved by ``shift`` and the digest recomputed."""
    (count,) = struct.unpack_from("<Q", data, _NODE_COUNT_AT)
    return _sealed(with_node_count(data, count + shift)[:-DIGEST_SIZE])


def test_load_rejects_zeroed_signatures(tmp_path):
    # 19 zeroed signatures in a 2,000-vertex index used to load and change
    # the answers of every query that touched them
    g = generate_graph(SyntheticSpec(vertex_count=2000, keyword_domain_size=30, seed=1))
    index = build_index(g)
    path = tmp_path / "g.idx"
    save_index(index, path)
    zeroed = zeroed_signatures(path.read_bytes(), index, range(0, 1900, 100))
    bad = tmp_path / "zeroed.idx"
    bad.write_bytes(zeroed)
    with pytest.raises(IndexIntegrityError, match="digest"):
        load_index(bad)
    # the digest is what notices: sealed again, the same bytes load
    bad.write_bytes(_sealed(zeroed[:-DIGEST_SIZE]))
    assert not load_index(bad).aux.bv[100].any()


def test_load_rejects_huge_node_count(saved_index, tmp_path):
    _, path = saved_index
    data = path.read_bytes()
    bad = tmp_path / "huge.idx"
    bad.write_bytes(huge_node_count(data))
    with pytest.raises(IndexIntegrityError, match="digest"):
        load_index(bad)
    # sealed again, the count is checked against the bytes left
    bad.write_bytes(_sealed(huge_node_count(data)[:-DIGEST_SIZE]))
    with pytest.raises(IndexIntegrityError, match="truncated"):
        load_index(bad)


@pytest.mark.parametrize("shift, message", [(1, "truncated"), (-1, "trailing bytes")])
def test_load_rejects_resealed_node_count_off_by_one(
    saved_index, tmp_path, shift, message
):
    # the digest matches, so the shape reads its counts against the bytes:
    # one node more runs past the end, one fewer leaves bytes over
    _, path = saved_index
    bad = tmp_path / "off.idx"
    bad.write_bytes(resealed_node_count(path.read_bytes(), shift))
    with pytest.raises(IndexIntegrityError, match=message):
        load_index(bad)


def test_load_rejects_repeated_vertex(saved_index, tmp_path):
    index, path = saved_index

    def repeat_vertex(child_counts, leaf_sizes, permutation):
        permutation[-1] = permutation[0]

    bad = _damaged_copy(path, index, repeat_vertex, tmp_path / "repeat.idx")
    with pytest.raises(IndexIntegrityError, match="permutation"):
        load_index(bad)


def test_load_rejects_malformed_tree_shape(saved_index, tmp_path):
    index, path = saved_index
    assert index.child_counts.tolist() == [4, 0, 0, 0, 0]

    def root_is_a_leaf(child_counts, leaf_sizes, permutation):
        child_counts[:2] = [0, 4]  # same leaf count and child total

    def empty_leaf(child_counts, leaf_sizes, permutation):
        leaf_sizes[0] += leaf_sizes[1]  # sizes still sum to the vertex count
        leaf_sizes[1] = 0

    def sizes_short(child_counts, leaf_sizes, permutation):
        leaf_sizes[0] -= 1

    for damage, message in (
        (root_is_a_leaf, "one tree"),
        (empty_leaf, "leaf sizes"),
        (sizes_short, "leaf sizes"),
    ):
        bad = _damaged_copy(path, index, damage, tmp_path / f"{damage.__name__}.idx")
        with pytest.raises(IndexIntegrityError, match=message):
            load_index(bad)


def test_load_rejects_truncation(saved_index, tmp_path):
    _, path = saved_index
    data = path.read_bytes()
    for cut in (len(data) - 5, len(data) // 2, 10):
        clipped = tmp_path / f"cut{cut}.idx"
        clipped.write_bytes(data[:cut])
        with pytest.raises(IndexIntegrityError):
            load_index(clipped)


def test_load_rejects_trailing_garbage(saved_index, tmp_path):
    _, path = saved_index
    padded = tmp_path / "padded.idx"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IndexIntegrityError):
        load_index(padded)


def test_resave_is_byte_identical(saved_index, tmp_path):
    _, path = saved_index
    loaded = load_index(path)
    again = tmp_path / "again.idx"
    save_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()
