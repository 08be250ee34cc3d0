"""Lower bounds and pruning predicates.

Soundness is the only hard requirement: a predicate may never discard a pair
that belongs to some answer. Several tests enumerate every valid mapping on
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
    keyword_feasible,
    keyword_prune_node,
    keyword_prune_vertex,
    lb_nd_basic,
    lb_nd_node,
    lb_nd_tight,
    make_graph,
    neighbor_difference,
    nd_prune_vertex,
    parse_graph,
    parse_query,
    vertex_bit_vector,
)
from s3and.workbench import SyntheticSpec, WorkloadSpec, generate_graph, generate_workload
from tests.conftest import index_aggregates, tree_walk

CFG = SignatureConfig()


@pytest.fixture(scope="module")
def team_side(team_query):
    return build_query_side(team_query, CFG)


@pytest.fixture(scope="module")
def team_aux(team_graph):
    return build_aux(team_graph, CFG)


def test_lb_nd_basic_formula():
    assert lb_nd_basic(3, 1) == 2
    assert lb_nd_basic(2, 2) == 0
    assert lb_nd_basic(1, 4) == 0  # clamped at zero


def test_query_side_layout(team_side, team_query):
    assert team_side.vertex_count == 5
    assert list(team_side.degrees) == [2, 2, 3, 3, 2]
    assert team_side.neighbor_offsets[-1] == sum(team_side.degrees)
    # row slice for q2 holds exactly its neighbors' signatures
    rows = team_side.neighbor_flat(2)
    assert rows.shape[0] == 3


def test_lb_nd_tight_fixture_golds(team_side, team_aux):
    # v0 ("ml", neighbors backend/frontend/design) covers q0's backend
    # neighbor but not the systems one
    assert lb_nd_tight(team_side, 0, team_aux[0].nbv) == 1
    # v11 ("design", sole neighbor ml) covers neither of q0's neighbors
    assert lb_nd_tight(team_side, 0, team_aux[11].nbv) == 2


def test_lb_nd_tight_zero_when_all_covered(team_side, team_aux):
    # v3's neighborhood spans ml, backend, systems, data: q3's three
    # neighbors (backend, systems, data) are all covered
    assert lb_nd_tight(team_side, 3, team_aux[3].nbv) == 0


def test_nd_prune_vertex_threshold():
    assert nd_prune_vertex(2, 1)
    assert not nd_prune_vertex(2, 2)
    assert not nd_prune_vertex(0, 0)


def test_keyword_prune_fires_on_disjoint_labels(team_side, team_aux):
    # sales (v6) and legal (v9) share no keyword with any query vertex
    for vi in (6, 9):
        for qj in range(5):
            assert keyword_prune_vertex(team_aux[vi].bv, team_side.bv[qj])


def test_keyword_prune_spares_true_matches(team_side, team_aux):
    for qj, vi in enumerate((0, 1, 2, 3, 4)):
        assert not keyword_prune_vertex(team_aux[vi].bv, team_side.bv[qj])


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 30), min_size=0, max_size=6), st.data())
def test_keyword_prune_never_fires_on_subset(big, data):
    sub = data.draw(st.sets(st.sampled_from(sorted(big)), max_size=len(big))) if big else set()
    v_bv = vertex_bit_vector(sorted(big), CFG)
    q_bv = vertex_bit_vector(sorted(sub), CFG)
    assert not keyword_prune_vertex(v_bv, q_bv)


def test_empty_query_keywords_never_pruned(team_aux):
    q = make_graph(2, [(0, 1)], [[], [1]], ["a", "b"])
    side = build_query_side(q, CFG)
    assert not side.bv[0].any()
    for vi in range(12):
        assert not keyword_prune_vertex(team_aux[vi].bv, side.bv[0])


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
    """lb_basic and lb_tight never exceed ND for any valid mapping."""
    for g, q in _small_instances():
        aux = build_aux(g, CFG)
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
                assert lb_nd_basic(int(side.degrees[qj]), len(g.adjacency[vi])) <= nd
                assert lb_nd_tight(side, qj, aux[vi].nbv) <= nd


def test_node_keyword_prune_two_member_gold(team_side, team_aux):
    # aggregate over the sales and legal vertices still covers no query label
    agg = team_aux[6].bv | team_aux[9].bv
    for qj in range(5):
        assert keyword_prune_node(agg, team_side.bv[qj])


def test_node_prune_implies_every_member_pruned(team_side, team_aux):
    rng = np.random.default_rng(5)
    for _ in range(40):
        members = rng.choice(12, size=rng.integers(1, 5), replace=False)
        agg = np.zeros_like(team_aux[0].bv)
        for vi in members:
            agg |= team_aux[int(vi)].bv
        for qj in range(5):
            if keyword_prune_node(agg, team_side.bv[qj]):
                for vi in members:
                    assert keyword_prune_vertex(team_aux[int(vi)].bv, team_side.bv[qj])


def test_lb_nd_node_bounds_member_minimum(team_side, team_aux):
    rng = np.random.default_rng(6)
    for _ in range(40):
        members = rng.choice(12, size=rng.integers(1, 6), replace=False)
        agg = np.zeros_like(team_aux[0].nbv)
        for vi in members:
            agg |= team_aux[int(vi)].nbv
        for qj in range(5):
            node_lb = lb_nd_node(team_side, qj, agg)
            member_min = min(lb_nd_tight(team_side, qj, team_aux[int(vi)].nbv) for vi in members)
            assert node_lb <= member_min


def test_lb_nd_node_equals_tight_for_singleton(team_side, team_aux):
    for vi in range(12):
        for qj in range(5):
            assert lb_nd_node(team_side, qj, team_aux[vi].nbv) == lb_nd_tight(
                team_side, qj, team_aux[vi].nbv
            )


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
    aux = build_aux(g, CFG)
    _, members = tree_walk(index)
    _, agg_nbv = index_aggregates(index)
    for node, descendants in enumerate(members):
        for qj in range(q.vertex_count):
            node_lb = lb_nd_node(side, qj, agg_nbv[node])
            member_min = min(lb_nd_tight(side, qj, aux[vi].nbv) for vi in descendants)
            assert node_lb <= member_min
