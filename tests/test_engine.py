"""Index-backed query pipeline: traversal, planning, refinement, invariances."""

import itertools

import numpy as np
import pytest

from s3and import (
    Ablation,
    AggregateKind,
    IndexConfig,
    QuerySpec,
    SignatureConfig,
    aggregated_neighbor_difference,
    build_index,
    build_query_side,
    collect_candidates,
    exact_keyword_filter,
    is_answer,
    keyword_feasible,
    make_graph,
    make_query_plan,
    oracle_search,
    parse_query,
    refine,
    run_query,
)
from s3and.workbench import SyntheticSpec, WorkloadSpec, generate_graph, generate_workload
from tests.conftest import (
    mapping_set,
    random_index_config,
    random_instance,
    reference_candidates,
)

MAX = AggregateKind.MAX
SUM = AggregateKind.SUM


def collect(index, g, q, sigma, **kw):
    qside = build_query_side(q, index.sig_config)
    return collect_candidates(index, qside, sigma, g.degree_vector, **kw)


@pytest.fixture(scope="module")
def small_index(team_graph):
    return build_index(team_graph, index_config=IndexConfig(fanout=4))


# --- candidate collection -------------------------------------------------


def test_candidates_keep_true_match(small_index, team_graph, team_query):
    raw, _ = collect(small_index, team_graph, team_query, sigma=2)
    cands = exact_keyword_filter(team_graph, team_query, raw)
    for qj, vi in enumerate((0, 1, 2, 3, 4)):
        assert vi in cands[qj]


def test_candidates_cover_every_oracle_answer():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g, q = random_instance(rng, max_vertices=40)
        index = build_index(g)
        for aggregate in (MAX, SUM):
            sigma = int(rng.integers(0, 4))
            answers = oracle_search(g, q, aggregate, sigma)
            raw, _ = collect(index, g, q, sigma)
            cands = exact_keyword_filter(g, q, raw)
            sets = [set(map(int, c)) for c in cands]
            for ans in answers:
                for qj, vi in enumerate(ans.mapping):
                    assert vi in sets[qj]


def test_absent_keyword_stops_at_root(small_index, team_graph):
    q = parse_query("t 2 1\nv 0 quantum\nv 1 quantum\ne 0 1\n", team_graph)
    res = run_query(small_index, team_graph, QuerySpec(query=q, aggregate=MAX, sigma=2))
    assert res.stats.nodes_visited == 1
    assert res.stats.pruning_power == 1.0
    assert [len(c) for c in res.candidates] == [0, 0]
    assert res.answers == []


def test_one_empty_candidate_set_short_circuits(small_index, team_graph):
    q = parse_query("t 2 1\nv 0 ml\nv 1 quantum\ne 0 1\n", team_graph)
    res = run_query(small_index, team_graph, QuerySpec(query=q, aggregate=MAX, sigma=2))
    assert res.answers == []
    assert len(res.candidates[0]) > 0
    assert len(res.candidates[1]) == 0
    assert res.stats.pruning_power < 1.0


def test_exact_filter_drops_signature_survivors(team_graph, team_query):
    # a one-bit signature makes every labeled vertex pass the bit check,
    # so the exact recheck has to do all the work
    weak = SignatureConfig(group_count=1, bits_per_group=1)
    index = build_index(team_graph, sig_config=weak)
    raw, _ = collect(index, team_graph, team_query, sigma=2)
    assert all(len(c) == 12 for c in raw)
    cands = exact_keyword_filter(team_graph, team_query, raw)
    assert sorted(map(int, cands[0])) == [0, 5]  # ml
    assert sorted(map(int, cands[2])) == [2, 10]  # systems
    res = run_query(index, team_graph, QuerySpec(query=team_query, aggregate=MAX, sigma=2))
    assert (0, 1, 2, 3, 4) in {a.mapping for a in res.answers}


def test_collect_rejects_negative_sigma(small_index, team_graph, team_query):
    with pytest.raises(ValueError, match="sigma"):
        collect(small_index, team_graph, team_query, sigma=-1)


# --- planning -------------------------------------------------------------


def test_plan_starts_at_rarest_and_stays_connected():
    q = make_graph(4, [(0, 1), (0, 2), (0, 3)], [[0]] * 4, ["k"])
    cands = [[9, 9, 9, 9, 9], [7], [1, 2, 3], [5, 6]]
    assert make_query_plan(q, cands) == [1, 0, 3, 2]
    assert make_query_plan(q, cands, prefer_small=False) == [0, 2, 3, 1]


def test_plan_breaks_ties_by_lowest_id():
    q = make_graph(3, [(0, 1), (1, 2)], [[0]] * 3, ["k"])
    assert make_query_plan(q, [[1], [2], [3]]) == [0, 1, 2]


def test_plan_single_vertex():
    q = make_graph(1, [], [[0]], ["k"])
    assert make_query_plan(q, [[4, 5]]) == [0]


def test_plan_every_prefix_connected(team_query):
    rng = np.random.default_rng(2)
    for _ in range(10):
        cands = [list(range(rng.integers(1, 6))) for _ in range(5)]
        plan = make_query_plan(team_query, cands)
        assert sorted(plan) == list(range(5))
        for k in range(2, 6):
            prefix = set(plan[:k])
            seen = {plan[0]}
            while True:
                grow = {
                    ql
                    for j in seen
                    for ql in team_query.adjacency[j]
                    if ql in prefix and ql not in seen
                }
                if not grow:
                    break
                seen |= grow
            assert seen == prefix


def test_plan_rejects_disconnected_query():
    q = make_graph(2, [], [[0], [0]], ["k"])
    q = q  # two isolated vertices
    with pytest.raises(ValueError):
        make_query_plan(q, [[1], [2]])


# --- refinement -----------------------------------------------------------


def test_refine_finds_fixture_team(team_graph, team_query):
    cands = [
        [vi for vi in range(12) if keyword_feasible(team_graph, team_query, qj, vi)]
        for qj in range(5)
    ]
    plan = make_query_plan(team_query, cands)
    answers = refine(team_graph, team_query, plan, cands, MAX, 2)
    assert (0, 1, 2, 3, 4) in {a.mapping for a in answers}
    assert all(a.and_score <= 2 for a in answers)


def test_refine_matches_sigma_zero_embedding_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(6):
        g, q = random_instance(rng, max_vertices=30, min_vertices=8)
        cands = [
            [vi for vi in range(g.vertex_count) if keyword_feasible(g, q, qj, vi)]
            for qj in range(q.vertex_count)
        ]
        expect = set()
        for combo in itertools.product(*cands):
            if len(set(combo)) != q.vertex_count:
                continue
            if all(
                combo[b] in g.adjacency_sets[combo[a]] for a, b in q.edges
            ):
                expect.add(combo)
        plan = make_query_plan(q, cands)
        got = refine(g, q, plan, cands, MAX, 0)
        assert {a.mapping for a in got} == expect
        assert all(a.and_score == 0 for a in got)


def refine_instances():
    """Instances with their exact keyword candidate lists.

    Eight random ones, plus a K4 query over a triangle with a pendant
    vertex: there the last query vertex mapped has three earlier neighbors,
    so one image adjacent to it, not all three, decides its pool and its
    bump count. Random sampled queries are too sparse for that.
    """
    rng = np.random.default_rng(12)
    pairs = [random_instance(rng, max_vertices=35) for _ in range(8)]
    pairs.append(
        (
            make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)], [[0]] * 4, ["k"]),
            make_graph(4, list(itertools.combinations(range(4), 2)), [[0]] * 4, ["k"]),
        )
    )
    out = []
    for g, q in pairs:
        cands = [
            [vi for vi in range(g.vertex_count) if keyword_feasible(g, q, qj, vi)]
            for qj in range(q.vertex_count)
        ]
        out.append((g, q, cands))
    return out


def scored(answers) -> list:
    return [(a.mapping, a.and_score) for a in answers]


def test_refine_look_ahead_is_lossless():
    # from either plan, refine (look-ahead included) returns the oracle's
    # mappings and scores in the oracle's order
    for g, q, cands in refine_instances():
        for aggregate, sigma in itertools.product((MAX, SUM), range(5)):
            expect = scored(oracle_search(g, q, aggregate, sigma))
            for prefer_small in (True, False):
                plan = make_query_plan(q, cands, prefer_small=prefer_small)
                got = refine(g, q, plan, cands, aggregate, sigma)
                assert scored(got) == expect, (aggregate, sigma, plan)


def test_refine_never_scores_an_over_budget_mapping(monkeypatch):
    # the partial-score cutoff keeps every complete mapping within sigma, so
    # is_answer only ever has connectivity left to reject
    checked = []
    over = []

    def spy(g, q, mapping, aggregate, sigma):
        checked.append(mapping)
        score = aggregated_neighbor_difference(g, q, mapping, aggregate)
        if score > sigma:
            over.append((mapping, aggregate, score, sigma))
        return is_answer(g, q, mapping, aggregate, sigma)

    monkeypatch.setattr("s3and.engine.is_answer", spy)
    for g, q, cands in refine_instances():
        for aggregate, sigma in itertools.product((MAX, SUM), range(5)):
            for prefer_small in (True, False):
                plan = make_query_plan(q, cands, prefer_small=prefer_small)
                refine(g, q, plan, cands, aggregate, sigma)
    assert checked
    assert over == []


# --- full pipeline --------------------------------------------------------


def test_run_query_fixture_answers(small_index, team_graph, team_query):
    res = run_query(small_index, team_graph, QuerySpec(query=team_query, aggregate=MAX, sigma=2))
    assert (0, 1, 2, 3, 4) in {a.mapping for a in res.answers}
    assert res.stats.answers == len(res.answers) > 0
    assert 0.0 <= res.stats.pruning_power <= 1.0
    # answers arrive sorted by (score, mapping)
    keys = [(a.and_score, a.mapping) for a in res.answers]
    assert keys == sorted(keys)


def test_run_query_matches_oracle_on_random_instances():
    rng = np.random.default_rng(44)
    for _ in range(20):
        g, q = random_instance(rng)
        index = build_index(g)
        for aggregate in (MAX, SUM):
            sigma = int(rng.integers(0, 5))
            res = run_query(index, g, QuerySpec(query=q, aggregate=aggregate, sigma=sigma))
            expect = oracle_search(g, q, aggregate, sigma)
            assert mapping_set(res.answers) == mapping_set(expect)
            assert [a.and_score for a in res.answers] == [a.and_score for a in expect]


def test_run_query_rejects_foreign_graph(small_index):
    other = make_graph(3, [(0, 1), (1, 2)], [[0], [0], [0]], ["ml"])
    q = make_graph(2, [(0, 1)], [[0], [0]], ["ml"])
    with pytest.raises(ValueError, match="vertices"):
        run_query(small_index, other, QuerySpec(query=q, aggregate=MAX, sigma=1))


def test_run_query_rejects_index_of_another_graph():
    # same vertex count and keyword table, different edges and keywords
    spec = SyntheticSpec(vertex_count=2000, keyword_domain_size=20, seed=0)
    index = build_index(generate_graph(spec))
    other = generate_graph(SyntheticSpec(vertex_count=2000, keyword_domain_size=20, seed=1))
    q = generate_workload(other, WorkloadSpec(query_count=1, seed=0))[0]
    with pytest.raises(ValueError, match="different graph"):
        run_query(index, other, QuerySpec(query=q, aggregate=MAX, sigma=1))


def test_run_query_rejects_foreign_keyword_table(small_index, team_graph, team_query):
    renamed = make_graph(
        12,
        team_graph.edges,
        [list(k) for k in team_graph.keywords],
        [n.upper() for n in team_graph.keyword_names],
    )
    with pytest.raises(ValueError, match="keyword table"):
        run_query(small_index, renamed, QuerySpec(query=team_query, aggregate=MAX, sigma=2))


def test_run_query_rejects_bad_plan(small_index, team_graph, team_query):
    spec = QuerySpec(query=team_query, aggregate=MAX, sigma=2)
    with pytest.raises(ValueError, match="plan"):
        run_query(small_index, team_graph, spec, plan=[0, 1, 2, 3, 3])


def test_traversal_matches_reference_walk(team_graph, team_query, team_index):
    # run_query and collect_candidates against the per-node reference walk,
    # at every ablation level and sigma 0-3. The team index is a single
    # leaf; among the random trees, the 89-vertex one (fanout 8) has a depth
    # that holds both leaves and internal nodes.
    rng = np.random.default_rng(66)
    cases = [(team_graph, team_query, team_index)]
    for _ in range(8):
        g, q = random_instance(rng, max_vertices=150)
        cases.append((g, q, build_index(g, index_config=random_index_config(rng))))
    for g, q, index in cases:
        qside = build_query_side(q, index.sig_config)
        for level in Ablation.LEVELS:
            ab = Ablation.parse(level)
            for sigma in range(4):
                spec = QuerySpec(query=q, aggregate=MAX, sigma=sigma)
                raw, _ = collect(index, g, q, sigma, ablation=ab)
                res = run_query(index, g, spec, ablation=ab)
                ref_raw, visited = reference_candidates(
                    index, qside, sigma, g.degree_vector, ab
                )
                assert res.stats.nodes_visited == visited
                assert len(raw) == len(ref_raw)
                for a, b in zip(raw, ref_raw):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                expect = exact_keyword_filter(g, q, ref_raw)
                for a, b in zip(res.candidates, expect):
                    assert np.array_equal(a, b)
                if all(len(c) for c in expect):
                    plan = make_query_plan(q, expect)
                    answers = refine(g, q, plan, expect, MAX, sigma)
                else:
                    answers = []
                assert mapping_set(res.answers) == mapping_set(answers)


def test_plan_choice_never_changes_answers(team_graph, team_query, small_index):
    spec = QuerySpec(query=team_query, aggregate=SUM, sigma=4)
    cands_res = run_query(small_index, team_graph, spec)
    base = mapping_set(cands_res.answers)
    for prefer_small in (True, False):
        plan = make_query_plan(team_query, cands_res.candidates, prefer_small=prefer_small)
        res = run_query(small_index, team_graph, spec, plan=plan)
        assert mapping_set(res.answers) == base


def test_ablation_levels_parse_and_round_trip():
    assert Ablation.parse("ks") == Ablation(lb_basic=False, lb_tight=False)
    assert Ablation.parse("KS+LB").name == "ks+lb"
    assert Ablation.parse("ks+lb+tight") == Ablation()
    with pytest.raises(ValueError):
        Ablation.parse("everything")
    for level in Ablation.LEVELS:
        assert Ablation.parse(level).name == level


def test_ablation_only_changes_stats_not_answers(team_graph, team_query, small_index):
    spec = QuerySpec(query=team_query, aggregate=MAX, sigma=2)
    results = {
        level: run_query(small_index, team_graph, spec, ablation=Ablation.parse(level))
        for level in Ablation.LEVELS
    }
    base = mapping_set(results["ks"].answers)
    assert all(mapping_set(r.answers) == base for r in results.values())
    powers = [results[level].stats.pruning_power for level in Ablation.LEVELS]
    assert powers == sorted(powers)


def test_stats_dict_shape(small_index, team_graph, team_query):
    res = run_query(small_index, team_graph, QuerySpec(query=team_query, aggregate=MAX, sigma=2))
    d = res.stats.to_dict()
    assert set(d) == {
        "pruning_power",
        "nodes_visited",
        "candidates_per_qvertex",
        "wall_ms",
        "answers",
        "distinct_vertex_sets",
    }
    assert d["answers"] == len(res.answers)
    assert d["wall_ms"] >= 0.0
    assert len(d["candidates_per_qvertex"]) == 5
    assert d["distinct_vertex_sets"] <= d["answers"]
