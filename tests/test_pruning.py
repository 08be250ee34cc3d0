"""Lower bounds and pruning predicates.

Soundness is the only hard requirement: a predicate may never discard a pair
that belongs to some answer. The tests call the batch predicates the
traversal runs, one (vertex or node, query vertex) pair at a time, over the
index's own complemented arrays. Several tests enumerate every valid mapping on
small graphs and check each bound sits at or below the true difference.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3and import (
    SignatureConfig,
    build_aux,
    build_index,
    build_query_side,
    degree_shortfall,
    keyword_contained,
    keyword_feasible,
    make_graph,
    neighbor_difference,
)
from s3and.signatures import build_bit_vectors
from s3and.workbench import SyntheticSpec, WorkloadSpec, generate_graph, generate_workload
from tests.conftest import (
    complemented,
    node_nbv_neg,
    pair_contained,
    pair_shortfall,
    pair_uncovered,
    tree_walk,
)

CFG = SignatureConfig()


@pytest.fixture(scope="module")
def team_side(team_query):
    return build_query_side(team_query, CFG)


@pytest.fixture(scope="module")
def team_aux(team_graph):
    return build_aux(team_graph, CFG)


def test_degree_shortfall_formula():
    degrees = np.array([1, 2, 4])
    q_degrees = np.array([3, 2, 1])
    ids = np.array([0, 1, 2])
    # query degree minus vertex degree, negative when the vertex has spare
    assert degree_shortfall(degrees, ids, q_degrees, ids).tolist() == [2, 0, -3]
    # pairs are (ids[i], qv[i]): vertex 0 (degree 1) against query vertex 2
    assert degree_shortfall(degrees, [0, 2], q_degrees, [2, 0]).tolist() == [0, -1]


def test_query_side_rejects_a_query_without_vertices():
    with pytest.raises(ValueError, match="at least one vertex"):
        build_query_side(make_graph(0, [], [], ["a"]), CFG)


def test_query_side_layout(team_side, team_query):
    assert team_side.vertex_count == 5
    assert list(team_side.degrees) == [2, 2, 3, 3, 2]
    words = CFG.group_count * CFG.words_per_group
    assert team_side.bits.shape == (words, 5)
    assert team_side.neighbor_bits.shape == (3, words, 5)
    own = build_aux(team_query, CFG).bv
    assert np.array_equal(team_side.bits, own.T)
    for qj, nbrs in enumerate(team_query.adjacency):
        # slot s of qj holds its s-th neighbor's signature, then zero padding
        slots = team_side.neighbor_bits[:, :, qj]
        assert np.array_equal(slots[: len(nbrs)], own[list(nbrs)])
        assert not slots[len(nbrs) :].any()


def test_query_side_bit_rows():
    # each vertex's run: -1, a node table's last row, all ones, then one
    # bit position per keyword, each set in the vertex's signature
    q = make_graph(3, [(0, 1), (1, 2)], [[0, 3], [], [2]], ["a", "b", "c", "d"])
    side = build_query_side(q, CFG)
    words = CFG.group_count * CFG.words_per_group
    assert side.row_starts.tolist() == [0, 3, 4]
    ends = [*side.row_starts.tolist()[1:], len(side.bit_rows)]
    for qj, (lo, hi) in enumerate(zip(side.row_starts.tolist(), ends)):
        run = side.bit_rows[lo:hi].tolist()
        assert len(run) == len(q.keywords[qj]) + 1 and run[0] == -1
        set_bits = {
            64 * w + b
            for w in range(words)
            for b in range(64)
            if int(side.bits[w, qj]) >> b & 1
        }
        assert set(run[1:]) == set_bits


def test_uncovered_neighbors_fixture_golds(team_side, team_index):
    nbv_neg = team_index.nbv_neg
    # v0 ("ml", neighbors backend/frontend/design) covers q0's backend
    # neighbor but not the systems one
    assert pair_uncovered(nbv_neg, 0, team_side, 0) == 1
    # v11 ("design", sole neighbor ml) covers neither of q0's neighbors
    assert pair_uncovered(nbv_neg, 11, team_side, 0) == 2


def test_uncovered_neighbors_zero_when_all_covered(team_side, team_index):
    # v3's neighborhood spans ml, backend, systems, data: q3's three
    # neighbors (backend, systems, data) are all covered
    assert pair_uncovered(team_index.nbv_neg, 3, team_side, 3) == 0


def test_keyword_contained_fails_on_disjoint_labels(team_side, team_index):
    # sales (v6) and legal (v9) share no keyword with any query vertex
    for vi in (6, 9):
        for qj in range(5):
            assert not pair_contained(team_index.bv_neg, vi, team_side, qj)


def test_keyword_contained_holds_for_true_matches(team_side, team_index):
    for qj, vi in enumerate((0, 1, 2, 3, 4)):
        assert pair_contained(team_index.bv_neg, vi, team_side, qj)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 30), min_size=0, max_size=6), st.data())
def test_keyword_contained_holds_for_subsets(big, data):
    sub = data.draw(st.sets(st.sampled_from(sorted(big)), max_size=len(big))) if big else set()
    v_neg = complemented(build_bit_vectors([sorted(big)], CFG, 31))
    q_bits = build_bit_vectors([sorted(sub)], CFG, 31).reshape(-1, 1)
    assert keyword_contained(v_neg, [0], q_bits, [0])[0]


def test_empty_query_keywords_never_pruned(team_index):
    q = make_graph(2, [(0, 1)], [[], [1]], ["a", "b"])
    side = build_query_side(q, CFG)
    assert not side.bits[:, 0].any()
    for vi in range(12):
        assert pair_contained(team_index.bv_neg, vi, side, 0)


def _small_instances():
    """A handful of graph/query pairs small enough to enumerate mappings."""
    rng = np.random.default_rng(17)
    out = []
    for trial in range(8):
        n = int(rng.integers(5, 9))
        base = SyntheticSpec(
            vertex_count=n,
            ring_neighbors=1,
            shortcut_probability=0.4,
            keyword_domain_size=5,
            keywords_per_vertex=2,
            seed=trial,
        )
        g = generate_graph(base)
        queries = generate_workload(
            g, WorkloadSpec(query_count=2, query_size=3, edge_drop_probability=0.2, seed=trial)
        )
        out.extend((g, q) for q in queries)
    return out


def test_bounds_below_true_difference_exhaustively():
    """The degree and tight bounds never exceed ND for any valid mapping."""
    for g, q in _small_instances():
        nbv_neg = complemented(build_aux(g, CFG).nbv)
        side = build_query_side(q, CFG)
        nq = q.vertex_count
        feasible = [
            [vi for vi in range(g.vertex_count) if keyword_feasible(g, q, qj, vi)]
            for qj in range(nq)
        ]
        for combo in itertools.product(*feasible):
            if len(set(combo)) != nq:
                continue
            mapping = tuple(combo)
            for qj in range(nq):
                nd = neighbor_difference(g, q, mapping, qj)
                vi = mapping[qj]
                assert pair_shortfall(g.degree_vector, vi, side, qj) <= nd
                assert pair_uncovered(nbv_neg, vi, side, qj) <= nd


def test_node_keyword_check_two_member_gold(team_side, team_aux):
    # aggregate over the sales and legal vertices still covers no query label
    agg_neg = complemented((team_aux.bv[6] | team_aux.bv[9])[None])
    for qj in range(5):
        assert not pair_contained(agg_neg, 0, team_side, qj)


def test_node_prune_implies_every_member_pruned(team_side, team_aux, team_index):
    rng = np.random.default_rng(5)
    for _ in range(40):
        members = rng.choice(12, size=rng.integers(1, 5), replace=False)
        agg_neg = complemented(np.bitwise_or.reduce(team_aux.bv[members], axis=0)[None])
        for qj in range(5):
            if not pair_contained(agg_neg, 0, team_side, qj):
                for vi in members:
                    assert not pair_contained(team_index.bv_neg, int(vi), team_side, qj)


def test_node_uncovered_bounds_member_minimum(team_side, team_aux, team_index):
    rng = np.random.default_rng(6)
    for _ in range(40):
        members = rng.choice(12, size=rng.integers(1, 6), replace=False)
        agg_neg = complemented(np.bitwise_or.reduce(team_aux.nbv[members], axis=0)[None])
        for qj in range(5):
            node_lb = pair_uncovered(agg_neg, 0, team_side, qj)
            member_min = min(
                pair_uncovered(team_index.nbv_neg, int(vi), team_side, qj)
                for vi in members
            )
            assert node_lb <= member_min


def test_index_node_bounds_hold_on_random_build():
    spec = SyntheticSpec(
        vertex_count=120,
        ring_neighbors=2,
        shortcut_probability=0.2,
        keyword_domain_size=12,
        keywords_per_vertex=2,
        seed=11,
    )
    g = generate_graph(spec)
    index = build_index(g, sig_config=CFG)
    q = generate_workload(g, WorkloadSpec(query_count=1, query_size=4, seed=11))[0]
    side = build_query_side(q, CFG)
    _, members = tree_walk(index)
    nodes_neg = node_nbv_neg(index)
    for node, descendants in enumerate(members):
        for qj in range(q.vertex_count):
            node_lb = pair_uncovered(nodes_neg, node, side, qj)
            member_min = min(
                pair_uncovered(index.nbv_neg, vi, side, qj) for vi in descendants
            )
            assert node_lb <= member_min
