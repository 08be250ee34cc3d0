"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints one ``ACCEPTANCE <n> <label>: PASS`` line when its
assertions hold, so the verbose pytest listing doubles as the acceptance
report. The randomized-instance pool is shared across criteria; instances
whose keyword-feasible candidate products exceed a fixed budget are redrawn
so the definition-level oracle stays tractable. The redraw only changes
which instance is sampled, never the property being checked.
"""

from __future__ import annotations

import gc
import itertools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from s3and import (
    Ablation,
    AggregateKind,
    DataGraph,
    IndexConfig,
    QueryGraph,
    QuerySpec,
    SignatureConfig,
    SyntheticSpec,
    WorkloadSpec,
    aggregated_neighbor_difference,
    build_index,
    build_query_side,
    collect_candidates,
    exact_keyword_filter,
    generate_graph,
    generate_workload,
    format_answers,
    keyword_feasible,
    load_index,
    make_query_plan,
    neighbor_difference,
    neighbor_support_filter,
    oracle_search,
    refine,
    run_baseline,
    run_query,
    save_graph,
    save_index,
)
from tests.conftest import (
    TEAM_MAPPING,
    TEAM_NDS,
    alternative_plan,
    audit_structure,
    mapping_set,
    node_contained,
    node_nbv_neg,
    pair_contained,
    pair_shortfall,
    pair_uncovered,
    reference_candidates,
    tree_walk,
)
from tests.test_index import structurally_equal

MAX = AggregateKind.MAX
SUM = AggregateKind.SUM
SIG = SignatureConfig()

POOL_SIZE = 200
POOL_SEED = 20240901
# product of keyword-feasible candidate set sizes an instance may reach
# before it is redrawn; keeps worst-case enumeration around a second
FEASIBLE_PRODUCT_BUDGET = 200_000
# instances cheap enough for the full every-valid-mapping enumeration
EXHAUSTIVE_PRODUCT_BUDGET = 20_000


@dataclass(frozen=True)
class Instance:
    g: DataGraph
    q: QueryGraph
    sigma: int
    feasible: tuple[tuple[int, ...], ...]
    product: int


def _feasible_sets(g: DataGraph, q: QueryGraph) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(v for v in range(g.vertex_count) if keyword_feasible(g, q, qj, v))
        for qj in range(q.vertex_count)
    )


def _draw_instance(rng: np.random.Generator) -> Instance:
    for _ in range(60):
        domain = int(rng.integers(4, 21))
        spec = SyntheticSpec(
            vertex_count=int(rng.integers(10, 61)),
            ring_neighbors=int(rng.integers(1, 3)),
            shortcut_probability=0.1,
            keyword_domain_size=domain,
            keywords_per_vertex=int(rng.integers(1, 4)),
            distribution=("uniform", "gaussian", "zipf")[int(rng.integers(0, 3))],
            seed=int(rng.integers(0, 2**31)),
        )
        g = generate_graph(spec)
        wspec = WorkloadSpec(
            query_count=1,
            query_size=int(rng.integers(2, 6)),
            seed=int(rng.integers(0, 2**31)),
        )
        q = generate_workload(g, wspec)[0]
        feasible = _feasible_sets(g, q)
        product = math.prod(len(f) for f in feasible)
        if product <= FEASIBLE_PRODUCT_BUDGET:
            return Instance(g, q, int(rng.integers(0, 5)), feasible, product)
    raise RuntimeError("could not draw an in-budget instance")


@pytest.fixture(scope="session")
def pool() -> list[Instance]:
    rng = np.random.default_rng(POOL_SEED)
    return [_draw_instance(rng) for _ in range(POOL_SIZE)]


@pytest.fixture(scope="session")
def pool_indexes(pool):
    # fanout 4 gives real tree depth even on 10-vertex graphs
    return [build_index(inst.g, index_config=IndexConfig(fanout=4)) for inst in pool]


@pytest.fixture(scope="session")
def pool_answers(pool):
    """Oracle answers per (instance, aggregate), computed once."""
    out = {}
    for i, inst in enumerate(pool):
        for aggregate in (MAX, SUM):
            out[i, aggregate] = oracle_search(inst.g, inst.q, aggregate, inst.sigma)
    return out


@pytest.fixture(scope="session")
def big_fixture():
    """The 50K-vertex default configuration shared by the soft criteria."""
    g = generate_graph(SyntheticSpec())
    index = build_index(g)
    queries = generate_workload(g, WorkloadSpec())
    return g, index, queries


@pytest.fixture(scope="session")
def ablation_powers(big_fixture):
    g, index, queries = big_fixture
    powers = {level: [] for level in Ablation}
    for level in Ablation:
        for q in queries:
            spec = QuerySpec(query=q, aggregate=MAX, sigma=1)
            res = run_query(index, g, spec, ablation=level)
            powers[level].append(res.stats.pruning_power)
    return {level: float(np.mean(vals)) for level, vals in powers.items()}


def test_criterion_01_worked_example_golds(team_graph, team_query):
    t0 = time.perf_counter()
    nds = tuple(
        neighbor_difference(team_graph, team_query, TEAM_MAPPING, qj) for qj in range(5)
    )
    assert nds == TEAM_NDS
    assert nds[0] == 1
    assert nds[1] == 0
    assert aggregated_neighbor_difference(team_graph, team_query, TEAM_MAPPING, MAX) == 2
    assert aggregated_neighbor_difference(team_graph, team_query, TEAM_MAPPING, SUM) == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("\nACCEPTANCE 1 worked-example golds: PASS")


def test_criterion_02_oracle_equivalence(pool, pool_indexes, pool_answers):
    t0 = time.perf_counter()
    for i, inst in enumerate(pool):
        for aggregate in (MAX, SUM):
            spec = QuerySpec(query=inst.q, aggregate=aggregate, sigma=inst.sigma)
            res = run_query(pool_indexes[i], inst.g, spec)
            expect = pool_answers[i, aggregate]
            assert mapping_set(res.answers) == mapping_set(expect), (
                f"instance {i} ({aggregate.value}, sigma={inst.sigma}) diverged"
            )
            assert [a.and_score for a in res.answers] == [a.and_score for a in expect]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 2 oracle equivalence on {len(pool)} instances "
        f"({elapsed:.1f}s): PASS"
    )


def _max_matching(left_adj: list[list[int]], right_size: int) -> int:
    """Kuhn's augmenting paths on a tiny bipartite graph."""
    match_of = [-1] * right_size

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in left_adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_of[v] == -1 or try_augment(match_of[v], seen):
                match_of[v] = u
                return True
        return False

    total = 0
    for u in range(len(left_adj)):
        if try_augment(u, [False] * right_size):
            total += 1
    return total


def test_criterion_03_bound_soundness(pool, pool_indexes):
    checked_pairs = 0
    checked_mappings = 0
    for i, inst in enumerate(pool):
        g, q = inst.g, inst.q
        index = pool_indexes[i]
        side = build_query_side(q, SIG)
        degrees = g.degree_vector
        nbv_neg = index.nbv_neg
        # complete per-pair check: no valid mapping can push more of q_j's
        # neighbors into N(v_i) than the best keyword-feasible matching, so
        # deg - matching lower-bounds ND under every valid mapping and both
        # bounds must sit at or below it
        for qj in range(q.vertex_count):
            nbrs_q = q.adjacency[qj]
            for vi in inst.feasible[qj]:
                nbrs_v = g.adjacency[vi]
                pos = {u: p for p, u in enumerate(nbrs_v)}
                left = [
                    [pos[u] for u in nbrs_v if keyword_feasible(g, q, ql, u)]
                    for ql in nbrs_q
                ]
                floor = len(nbrs_q) - _max_matching(left, len(nbrs_v))
                assert pair_shortfall(degrees, vi, side, qj) <= floor
                assert pair_uncovered(nbv_neg, vi, side, qj) <= floor
                checked_pairs += 1
        # definition-level check on instances cheap enough to enumerate
        if inst.product <= EXHAUSTIVE_PRODUCT_BUDGET:
            for combo in itertools.product(*inst.feasible):
                if len(set(combo)) != q.vertex_count:
                    continue
                checked_mappings += 1
                for qj, vi in enumerate(combo):
                    nd = neighbor_difference(g, q, combo, qj)
                    assert pair_shortfall(degrees, vi, side, qj) <= nd
                    assert pair_uncovered(nbv_neg, vi, side, qj) <= nd
        # node bound never exceeds any member's tight bound
        nodes_neg = node_nbv_neg(index)
        for node, members in enumerate(tree_walk(index)[1]):
            for qj in range(q.vertex_count):
                node_lb = pair_uncovered(nodes_neg, node, side, qj)
                assert node_lb <= min(
                    pair_uncovered(nbv_neg, vi, side, qj) for vi in members
                )
    assert checked_pairs > 0 and checked_mappings > 0
    print(
        f"\nACCEPTANCE 3 bound soundness ({checked_pairs} pairs, "
        f"{checked_mappings} enumerated mappings): PASS"
    )


def test_criterion_04_pruning_soundness(pool, pool_indexes, pool_answers):
    fired = 0
    for i, inst in enumerate(pool):
        g, q, sigma = inst.g, inst.q, inst.sigma
        index = pool_indexes[i]
        side = build_query_side(q, SIG)
        node_members = [set(members) for members in tree_walk(index)[1]]
        nodes_neg = node_nbv_neg(index)
        # the nodes the traversal keeps for each query vertex
        kept = node_contained(index, side)
        for aggregate in (MAX, SUM):
            for ans in pool_answers[i, aggregate]:
                for qj, vi in enumerate(ans.mapping):
                    if not pair_contained(index.bv_neg, vi, side, qj):
                        fired += 1
                    deg_lb = pair_shortfall(g.degree_vector, vi, side, qj)
                    tight_lb = pair_uncovered(index.nbv_neg, vi, side, qj)
                    if deg_lb > sigma or tight_lb > sigma:
                        fired += 1
                    for node, members in enumerate(node_members):
                        if vi not in members:
                            continue
                        if not kept[qj, node]:
                            fired += 1
                        if pair_uncovered(nodes_neg, node, side, qj) > sigma:
                            fired += 1
    assert fired == 0
    print("\nACCEPTANCE 4 pruning soundness (zero false prunes): PASS")


def test_criterion_05_index_structural_audit(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "audit.idx"
    for build in range(50):
        n = int(rng.choice([4, 8, 16]))
        gamma = float(rng.choice([0.0, 0.1, 0.2]))
        spec = SyntheticSpec(
            vertex_count=int(rng.integers(50, 801)),
            ring_neighbors=int(rng.integers(1, 3)),
            keyword_domain_size=int(rng.integers(6, 30)),
            keywords_per_vertex=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**31)),
        )
        g = generate_graph(spec)
        cfg = IndexConfig(fanout=n, gamma=gamma, seed=int(rng.integers(0, 2**31)))
        index = build_index(g, index_config=cfg)
        save_index(index, path)
        # the loaded index derives its aggregates and tables anew from the
        # stored shape, so it gets the same audit
        for audited in (index, load_index(path)):
            audit_structure(audited, g)
    print("\nACCEPTANCE 5 index structural audit (50 builds, built and loaded): PASS")


def test_criterion_06_pruning_power_target(ablation_powers):
    power = ablation_powers[Ablation.KS_LB_TIGHT]
    assert power >= 0.90, f"full-stack pruning power {power:.4f} below the 0.90 floor"
    if power < 0.945:
        warnings.warn(
            f"pruning power {power:.4f} is above the floor but below the "
            "0.945 reference band",
            stacklevel=1,
        )
    print(f"\nACCEPTANCE 6 pruning power at 50K ({power:.4f} >= 0.90): PASS")


def test_criterion_07_speedup_over_baseline():
    g = generate_graph(SyntheticSpec(vertex_count=10_000))
    index = build_index(g)
    queries = generate_workload(g, WorkloadSpec())
    engine_ms = []
    baseline_ms = []
    # Start the timed loop from a fresh collector state, as perfbench does.
    # Otherwise a full collection that one query happens to trigger (30 to
    # 100 ms over the suite's heap) is charged to that query alone and moves
    # the engine's mean by 0.3 to 1 ms, about what the engine itself costs.
    gc.collect()
    for q in queries:
        spec = QuerySpec(query=q, aggregate=MAX, sigma=1)
        engine = run_query(index, g, spec)
        baseline = run_baseline(g, spec)
        assert mapping_set(engine.answers) == mapping_set(baseline.answers)
        engine_ms.append(engine.stats.wall_ms)
        baseline_ms.append(baseline.stats.wall_ms)
    mean_engine = float(np.mean(engine_ms))
    mean_baseline = float(np.mean(baseline_ms))
    assert mean_engine < mean_baseline
    assert mean_engine <= mean_baseline / 10.0, (
        f"engine {mean_engine:.3f} ms vs baseline {mean_baseline:.3f} ms"
    )
    print(
        f"\nACCEPTANCE 7 speedup at 10K ({mean_baseline / mean_engine:.1f}x "
        ">= 10x): PASS"
    )


def test_criterion_08_ablation_monotonicity(ablation_powers):
    ordered = [ablation_powers[level] for level in Ablation]
    assert ordered[0] <= ordered[1] <= ordered[2]
    print(
        "\nACCEPTANCE 8 ablation monotonicity "
        f"({ordered[0]:.4f} <= {ordered[1]:.4f} <= {ordered[2]:.4f}): PASS"
    )


def test_criterion_09_determinism_and_persistence(tmp_path):
    spec = SyntheticSpec(vertex_count=1500, keyword_domain_size=20, seed=42)
    ga, gb = generate_graph(spec), generate_graph(spec)
    pa, pb = tmp_path / "a.graph", tmp_path / "b.graph"
    save_graph(ga, pa)
    save_graph(gb, pb)
    assert pa.read_bytes() == pb.read_bytes()

    cfg = IndexConfig(fanout=8)
    ia, ib = build_index(ga, index_config=cfg), build_index(gb, index_config=cfg)
    fa, fb = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(ia, fa)
    save_index(ib, fb)
    assert fa.read_bytes() == fb.read_bytes()

    loaded = load_index(fa)
    assert structurally_equal(ia, loaded)

    queries = generate_workload(ga, WorkloadSpec(query_count=5, seed=3))
    for q in queries:
        spec_q = QuerySpec(query=q, aggregate=SUM, sigma=3)
        text_a = format_answers(run_query(ia, ga, spec_q).answers)
        text_b = format_answers(run_query(loaded, ga, spec_q).answers)
        assert text_a == text_b
    print("\nACCEPTANCE 9 determinism and persistence: PASS")


def test_criterion_10_traversal_and_plan_invariance(pool, pool_indexes):
    for i, inst in enumerate(pool[:50]):
        g, q, sigma = inst.g, inst.q, inst.sigma
        index = pool_indexes[i]
        spec = QuerySpec(query=q, aggregate=MAX, sigma=sigma)
        # the vectorized traversal must give what the per-node reference walk gives
        res = run_query(index, g, spec)
        qside = build_query_side(q, index.sig_config)
        raw, _ = collect_candidates(index, qside, sigma, g.degree_vector)
        ref_raw, visited = reference_candidates(index, qside, sigma, g.degree_vector)
        assert res.stats.nodes_visited == visited
        assert all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(raw, ref_raw)
        )
        expect = exact_keyword_filter(g, q, ref_raw)
        assert all(np.array_equal(a, b) for a, b in zip(res.candidates, expect))
        if all(len(c) for c in expect):
            ref_answers = refine(g, q, make_query_plan(q, expect), expect, MAX, sigma)
        else:
            ref_answers = []
        assert mapping_set(res.answers) == mapping_set(ref_answers)

        # refining run_query's filtered candidates over another connected
        # plan gives its answers again
        supported, _ = neighbor_support_filter(g, q, res.candidates, MAX, sigma)
        plan_a = make_query_plan(q, supported)
        plan_b = alternative_plan(q, plan_a)
        assert plan_b != plan_a
        for plan in (plan_a, plan_b):
            answers = refine(g, q, plan, supported, MAX, sigma)
            assert mapping_set(answers) == mapping_set(res.answers)
    print("\nACCEPTANCE 10 traversal and plan invariance (50 instances): PASS")
