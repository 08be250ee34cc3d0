"""Index-backed query pipeline: traversal, planning, refinement, invariances."""

import gc
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
    build_aux,
    build_index,
    build_query_side,
    collect_candidates,
    exact_keyword_filter,
    exact_keywords,
    is_answer,
    keyword_feasible,
    make_graph,
    make_query_plan,
    neighbor_support_filter,
    oracle_search,
    parse_query,
    refine,
    run_baseline,
    run_query,
)
from s3and import engine
from s3and.workbench import SyntheticSpec, WorkloadSpec, generate_graph, generate_workload
from tests.conftest import (
    alternative_plan,
    edge_list,
    mapping_set,
    node_contained,
    pair_contained,
    pair_shortfall,
    pair_uncovered,
    random_index_config,
    random_instance,
    reference_candidates,
    reference_query_plan,
    reference_support_filter,
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
    index = build_index(team_graph, aux=build_aux(team_graph, weak))
    raw, _ = collect(index, team_graph, team_query, sigma=2)
    assert all(len(c) == 12 for c in raw)
    cands = exact_keyword_filter(team_graph, team_query, raw)
    assert sorted(map(int, cands[0])) == [0, 5]  # ml
    assert sorted(map(int, cands[2])) == [2, 10]  # systems
    res = run_query(index, team_graph, QuerySpec(query=team_query, aggregate=MAX, sigma=2))
    assert (0, 1, 2, 3, 4) in {a.mapping for a in res.answers}


def test_hash_collisions_never_reach_the_candidates():
    # with 2-8 bits in one group, unrelated keywords share signature bits,
    # so the traversal passes vertices lacking a query keyword; the recheck
    # has to drop each of them before the candidates and their stats
    rng = np.random.default_rng(43)
    false_positives = 0
    for bits in range(2, 9):
        cfg = SignatureConfig(group_count=1, bits_per_group=bits)
        for _ in range(3):
            g, q = random_instance(rng, max_vertices=40)
            index = build_index(g, aux=build_aux(g, cfg))
            for aggregate, sigma in ((MAX, 1), (SUM, 2)):
                spec = QuerySpec(query=q, aggregate=aggregate, sigma=sigma)
                res = run_query(index, g, spec)
                raw, _ = collect(index, g, q, sigma=sigma)
                expect = [
                    [v for v in c.tolist() if keyword_feasible(g, q, qj, v)]
                    for qj, c in enumerate(raw)
                ]
                dropped = sum(map(len, raw)) - sum(map(len, expect))
                assert res.stats.hash_false_positives == dropped
                false_positives += dropped
                assert [c.tolist() for c in res.candidates] == expect
                sizes = [len(c) for c in expect]
                assert res.stats.candidates_per_qvertex == sizes
                pairs = g.vertex_count * q.vertex_count
                assert res.stats.pruning_power == 1.0 - sum(sizes) / pairs
                expect_answers = oracle_search(g, q, aggregate, sigma)
                assert scored(res.answers) == scored(expect_answers)
    assert false_positives > 0


def test_recheck_runs_only_where_a_query_keyword_shares_its_bit(monkeypatch):
    # one group of 5 bits: k3 and k4 share bit 4, k0-k2 own theirs. Query
    # vertex 0 holds k0 and k3, so its bits also pass v3 (k0, k4), and
    # only it is rechecked; query vertices 1 and 2 keep the traversal's
    # candidates as they are
    cfg = SignatureConfig(group_count=1, bits_per_group=5)
    names = ["k0", "k1", "k2", "k3", "k4"]
    assert exact_keywords(cfg, len(names)) == {0, 1, 2}
    g = make_graph(
        6,
        [(0, 1), (1, 2), (3, 1), (4, 5), (5, 2)],
        [[0, 3], [1], [2], [0, 4], [3], [1, 2]],
        names,
    )
    q = make_graph(3, [(0, 1), (1, 2)], [[0, 3], [1], [2]], names)
    index = build_index(g, aux=build_aux(g, cfg))
    rechecked = []
    containing = engine._containing
    monkeypatch.setattr(
        engine,
        "_containing",
        lambda g, need, cand: rechecked.append(need) or containing(g, need, cand),
    )
    for aggregate, sigma in itertools.product((MAX, SUM), range(3)):
        rechecked.clear()
        res = run_query(index, g, QuerySpec(query=q, aggregate=aggregate, sigma=sigma))
        raw, _ = collect(index, g, q, sigma)
        assert rechecked == [frozenset({0, 3})]
        assert 3 in raw[0].tolist()
        assert res.candidates[0].tolist() == [0]
        assert res.stats.hash_false_positives == 1
        assert [c.tolist() for c in res.candidates[1:]] == [c.tolist() for c in raw[1:]]
        assert scored(res.answers) == scored(oracle_search(g, q, aggregate, sigma))


def test_unknown_query_token_is_rechecked():
    # one group of 4 bits: the four graph keywords own their bits, but the
    # fresh id parse_query gives "zz" lands on a's bit
    cfg = SignatureConfig(group_count=1, bits_per_group=4)
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], [[0], [1], [0, 2], [3]], "abcd")
    assert exact_keywords(cfg, 4) == {0, 1, 2, 3}
    index = build_index(g, aux=build_aux(g, cfg))
    q = parse_query("t 2 1\nv 0 zz\nv 1 b\ne 0 1\n", g)
    assert q.keywords[0] == (4,)
    raw, _ = collect(index, g, q, sigma=1)
    assert raw[0].tolist() == [0, 2]
    res = run_query(index, g, QuerySpec(query=q, aggregate=MAX, sigma=1))
    assert [c.tolist() for c in res.candidates] == [[], [1]]
    assert res.stats.hash_false_positives == 2
    assert res.answers == []


def test_collect_rejects_negative_sigma(small_index, team_graph, team_query):
    with pytest.raises(ValueError, match="sigma"):
        collect(small_index, team_graph, team_query, sigma=-1)


# --- planning -------------------------------------------------------------


def test_plan_starts_at_rarest_and_stays_connected():
    q = make_graph(4, [(0, 1), (0, 2), (0, 3)], [[0]] * 4, ["k"])
    cands = [[9, 9, 9, 9, 9], [7], [1, 2, 3], [5, 6]]
    assert make_query_plan(q, cands) == [1, 0, 3, 2]
    assert alternative_plan(q, [1, 0, 3, 2]) == [0, 3, 2, 1]


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


def test_plan_matches_reference_on_random_queries():
    # sizes drawn from a small range, so size ties and the id tie-break are
    # common
    rng = np.random.default_rng(5)
    for _ in range(40):
        _, q = random_instance(rng, max_vertices=20, max_query=8)
        cands = [range(int(rng.integers(0, 4))) for _ in range(q.vertex_count)]
        assert make_query_plan(q, cands) == reference_query_plan(q, cands)


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
                combo[b] in g.adjacency_sets[combo[a]] for a, b in edge_list(q)
            ):
                expect.add(combo)
        plan = make_query_plan(q, cands)
        got = refine(g, q, plan, cands, MAX, 0)
        assert {a.mapping for a in got} == expect
        assert all(a.and_score == 0 for a in got)


def refine_instances():
    """Instances with their exact keyword candidate lists.

    Eight random ones, plus two hand-built ones that random sampled queries
    are too sparse for. A K4 query over a triangle with a pendant vertex:
    there the last query vertex mapped has three earlier neighbors, so one
    image adjacent to it, not all three, decides its pool and its bump
    count. A triangle query over the path 0-1-2 with a pendant 3 on 0:
    mapping query vertices 0 and 1 to data vertices 0 and 2 leaves a
    two-component image that only vertex 1 joins, while the pendant touches
    one component and would leave the image disconnected.
    """
    rng = np.random.default_rng(12)
    pairs = [random_instance(rng, max_vertices=35) for _ in range(8)]
    pairs.append(
        (
            make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)], [[0]] * 4, ["k"]),
            make_graph(4, list(itertools.combinations(range(4), 2)), [[0]] * 4, ["k"]),
        )
    )
    pairs.append(
        (
            make_graph(4, [(0, 1), (1, 2), (0, 3)], [[0]] * 4, ["k"]),
            make_graph(3, [(0, 1), (0, 2), (1, 2)], [[0]] * 3, ["k"]),
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


def both_plans(q, cands) -> list[list[int]]:
    """The engine's plan and another connected order."""
    plan = make_query_plan(q, cands)
    return [plan, alternative_plan(q, plan)]


def test_refine_look_ahead_is_lossless():
    # from either plan, refine (look-ahead included) returns the oracle's
    # mappings and scores in the oracle's order
    for g, q, cands in refine_instances():
        for aggregate, sigma in itertools.product((MAX, SUM), range(5)):
            expect = scored(oracle_search(g, q, aggregate, sigma))
            for plan in both_plans(q, cands):
                got = refine(g, q, plan, cands, aggregate, sigma)
                assert scored(got) == expect, (aggregate, sigma, plan)


def test_refine_never_scores_an_over_budget_mapping(monkeypatch):
    # the partial-score cutoff keeps every complete mapping within sigma,
    # and the last-position component rule keeps its image connected, so
    # is_answer accepts every mapping that reaches it
    checked = []
    over = []
    rejected = []

    def spy(g, q, mapping, aggregate, sigma):
        checked.append(mapping)
        score = aggregated_neighbor_difference(g, q, mapping, aggregate)
        if score > sigma:
            over.append((mapping, aggregate, score, sigma))
        accepted = is_answer(g, q, mapping, aggregate, sigma)
        if not accepted:
            rejected.append((mapping, aggregate, sigma))
        return accepted

    monkeypatch.setattr("s3and.engine.is_answer", spy)
    for g, q, cands in refine_instances():
        for aggregate, sigma in itertools.product((MAX, SUM), range(5)):
            for plan in both_plans(q, cands):
                refine(g, q, plan, cands, aggregate, sigma)
    assert checked
    assert over == []
    assert rejected == []


def test_refine_last_vertex_joins_every_component(monkeypatch):
    # the triangle over the path with a pendant: 0 -> 0 and 1 -> 2 leave
    # two components, so the last query vertex may take vertex 1, which
    # touches both, but not the pendant 3, which touches only one; within
    # sigma 2 the pendant's mapping fails on connectivity alone
    g, q, cands = refine_instances()[-1]
    assert aggregated_neighbor_difference(g, q, (0, 2, 3), MAX) == 2
    assert not is_answer(g, q, (0, 2, 3), MAX, 2)
    checked = []

    def spy(g, q, mapping, aggregate, sigma):
        checked.append(mapping)
        return is_answer(g, q, mapping, aggregate, sigma)

    monkeypatch.setattr("s3and.engine.is_answer", spy)
    plan = make_query_plan(q, cands)
    assert plan == [0, 1, 2]
    got = {a.mapping: a.and_score for a in refine(g, q, plan, cands, MAX, 2)}
    assert got[(0, 2, 1)] == 1
    assert (0, 2, 1) in checked
    assert (0, 2, 3) not in checked


# --- neighbor-support filter ---------------------------------------------


@pytest.fixture(scope="module")
def support_cases():
    """(graph, query, index, exact candidates, aggregate, sigma, oracle answers).

    The refine instances plus eight random ones, under MAX and SUM at sigma
    0-4.
    """
    rng = np.random.default_rng(31)
    instances = [(g, q) for g, q, _ in refine_instances()]
    instances += [random_instance(rng, max_vertices=40) for _ in range(8)]
    cases = []
    for g, q in instances:
        index = build_index(g)
        cands = [
            np.array(
                [vi for vi in range(g.vertex_count) if keyword_feasible(g, q, qj, vi)],
                dtype=np.int64,
            )
            for qj in range(q.vertex_count)
        ]
        for aggregate, sigma in itertools.product((MAX, SUM), range(5)):
            expect = oracle_search(g, q, aggregate, sigma)
            cases.append((g, q, index, cands, aggregate, sigma, expect))
    return cases


def test_run_query_matches_oracle_with_support_filter(support_cases):
    # answers, scores and order equal the oracle's, and the filter's kill
    # count equals the count of the sweep-by-sweep reference on the
    # rechecked candidates
    killed = 0
    for g, q, index, _, aggregate, sigma, expect in support_cases:
        res = run_query(index, g, QuerySpec(query=q, aggregate=aggregate, sigma=sigma))
        assert scored(res.answers) == scored(expect), (aggregate, sigma)
        _, dropped = reference_support_filter(g, q, res.candidates, aggregate, sigma)
        assert res.stats.support_killed == dropped, (aggregate, sigma)
        killed += dropped
    assert killed > 0


def test_support_filter_keeps_every_oracle_pair(support_cases):
    for g, q, _, cands, aggregate, sigma, expect in support_cases:
        kept, _ = neighbor_support_filter(g, q, cands, aggregate, sigma)
        assert all(c == sorted(c) for c in kept)
        for answer in expect:
            for qj, vi in enumerate(answer.mapping):
                assert vi in kept[qj], (aggregate, sigma, answer.mapping)


def test_support_filter_matches_the_per_neighbor_count():
    # random graphs, query shapes and candidate orders: the worklist filter,
    # with its union test where one supported neighbor is enough, keeps what
    # the sweep-by-sweep count keeps, in the given order
    rng = np.random.default_rng(47)
    for _ in range(60):
        n = int(rng.integers(6, 30))
        edges = {
            (min(u, v), max(u, v))
            for u, v in rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2))
            if u != v
        }
        g = make_graph(n, sorted(edges), [[0]] * n, ["k"])
        nq = int(rng.integers(2, 7))
        qedges = {
            (min(a, b), max(a, b))
            for a, b in rng.integers(0, nq, size=(2 * nq, 2))
            if a != b
        }
        q = make_graph(nq, sorted(qedges), [[0]] * nq, ["k"])
        cands = [
            rng.permutation(n)[: int(rng.integers(0, n + 1))] for _ in range(nq)
        ]
        for aggregate, sigma in itertools.product((MAX, SUM), range(5)):
            kept, killed = neighbor_support_filter(g, q, cands, aggregate, sigma)
            expect, dropped = reference_support_filter(g, q, cands, aggregate, sigma)
            assert kept == [
                [v for v in c.tolist() if v in set(e)] for c, e in zip(cands, expect)
            ], (aggregate, sigma)
            assert killed == dropped


def test_support_filter_runs_to_a_fixpoint():
    # Query path 0-1-2-3 and the path 0-1-2-3 in the data, plus two chains
    # of decoys with keyword k<j> for query vertex j. Vertex 4 (k1) has no
    # k0 neighbor, so it goes first; then 5 (k2), whose only k1 neighbor was
    # 4; then 6 (k3), whose only k2 neighbor was 5. The other chain runs the
    # other way: 7 (k2) has no k3 neighbor, then 8 (k1), then 9 (k0). The
    # chains need query vertices 1, 2 in opposite orders, so no single pass
    # over the query vertices, in any order, drops all six.
    g = make_graph(
        10,
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (3, 5), (7, 8), (8, 9)],
        [[0], [1], [2], [3], [1], [2], [3], [2], [1], [0]],
        ["k0", "k1", "k2", "k3"],
    )
    q = make_graph(
        4, [(0, 1), (1, 2), (2, 3)], [[0], [1], [2], [3]], ["k0", "k1", "k2", "k3"]
    )
    cands = [
        np.array([vi for vi in range(10) if keyword_feasible(g, q, qj, vi)])
        for qj in range(4)
    ]
    # slack 0: MAX at sigma 0, SUM at sigma 0 and 1
    for aggregate, sigma in ((MAX, 0), (SUM, 0), (SUM, 1)):
        assert neighbor_support_filter(g, q, cands, aggregate, sigma) == (
            [[0], [1], [2], [3]],
            6,
        )
        # keyword pruning only: the tree's bounds would drop 4 and 7 first
        res = run_query(
            build_index(g),
            g,
            QuerySpec(query=q, aggregate=aggregate, sigma=sigma),
            ablation=Ablation.KS,
        )
        assert [a.mapping for a in res.answers] == [(0, 1, 2, 3)]
        assert res.stats.support_killed == 6
    # slack 1 (MAX at sigma 1, SUM at sigma 2): a decoy keeps one neighbor
    # with support, and no decoy lacks two
    for aggregate, sigma in ((MAX, 1), (SUM, 2)):
        kept, killed = neighbor_support_filter(g, q, cands, aggregate, sigma)
        assert kept == [c.tolist() for c in cands] and killed == 0


# --- full pipeline --------------------------------------------------------


def test_run_query_fixture_answers(small_index, team_graph, team_query):
    res = run_query(small_index, team_graph, QuerySpec(query=team_query, aggregate=MAX, sigma=2))
    assert (0, 1, 2, 3, 4) in {a.mapping for a in res.answers}
    assert res.stats.answers == len(res.answers) > 0
    assert 0.0 <= res.stats.pruning_power <= 1.0
    # answers arrive sorted by (score, mapping)
    keys = [(a.and_score, a.mapping) for a in res.answers]
    assert keys == sorted(keys)


@pytest.mark.parametrize("call", ["run_query", "run_baseline", "refine", "oracle_search"])
def test_search_leaves_no_reference_cycle(small_index, team_graph, team_query, call):
    # the recursive search must not keep its state alive through a cycle,
    # or the collector frees it later, inside some other query
    spec = QuerySpec(query=team_query, aggregate=MAX, sigma=2)
    cands = run_query(small_index, team_graph, spec).candidates
    plan = make_query_plan(team_query, cands)
    calls = {
        "run_query": lambda: run_query(small_index, team_graph, spec).answers,
        "run_baseline": lambda: run_baseline(team_graph, spec).answers,
        "refine": lambda: refine(team_graph, team_query, plan, cands, MAX, 2),
        "oracle_search": lambda: oracle_search(team_graph, team_query, MAX, 2),
    }
    gc.collect()
    gc.disable()
    try:
        # an answer means the search went to full depth
        assert calls[call]()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
        edge_list(team_graph),
        [list(k) for k in team_graph.keywords],
        [n.upper() for n in team_graph.keyword_names],
    )
    with pytest.raises(ValueError, match="different graph"):
        run_query(small_index, renamed, QuerySpec(query=team_query, aggregate=MAX, sigma=2))


def test_traversal_matches_reference_walk(team_graph, team_query, team_index):
    # run_query and collect_candidates against the per-node reference walk,
    # at every ablation level and sigma 0-3. The team index is a single
    # leaf; among the random trees, the 89-vertex one (fanout 8) has a depth
    # that holds both leaves and internal nodes.
    rng = np.random.default_rng(66)
    cases = [(team_graph, team_query, team_index)]
    # a star query whose centre v0 matches on keywords and on neighborhood
    # bits but has two neighbors too few: the degree bound alone drops it
    names = ["a", "b"]
    edges = [(0, 1), (1, 3), (2, 3), (2, 4), (2, 5)]
    g = make_graph(6, edges, [[0], [1], [0], [1], [1], [1]], names)
    q = make_graph(4, [(0, 1), (0, 2), (0, 3)], [[0], [1], [1], [1]], names)
    index = build_index(g, index_config=IndexConfig(fanout=2))
    qside = build_query_side(q, index.sig_config)
    assert pair_contained(index.bv_neg, 0, qside, 0)
    assert pair_uncovered(index.nbv_neg, 0, qside, 0) == 0
    assert pair_shortfall(g.degree_vector, 0, qside, 0) == 2
    assert collect(index, g, q, 1, ablation=Ablation.KS)[0][0].tolist() == [0, 2]
    for ab in (Ablation.KS_LB, Ablation.KS_LB_TIGHT):
        assert collect(index, g, q, 1, ablation=ab)[0][0].tolist() == [2]
    cases.append((g, q, index))
    # a path centre v0 with the degree and the keyword of the query's
    # centre, but whose neighbors all carry b where the query wants b and
    # c: only the tight bound drops it, while v3 has both
    names = ["a", "b", "c"]
    edges = [(0, 1), (0, 2), (3, 4), (3, 5)]
    g = make_graph(6, edges, [[0], [1], [1], [0], [1], [2]], names)
    q = make_graph(3, [(0, 1), (0, 2)], [[0], [1], [2]], names)
    index = build_index(g, index_config=IndexConfig(fanout=2))
    qside = build_query_side(q, index.sig_config)
    assert pair_contained(index.bv_neg, 0, qside, 0)
    assert pair_shortfall(g.degree_vector, 0, qside, 0) == 0
    assert pair_uncovered(index.nbv_neg, 0, qside, 0) == 1
    for ab in (Ablation.KS, Ablation.KS_LB):
        assert collect(index, g, q, 0, ablation=ab)[0][0].tolist() == [0, 3]
    assert collect(index, g, q, 0, ablation=Ablation.KS_LB_TIGHT)[0][0].tolist() == [3]
    cases.append((g, q, index))
    for _ in range(8):
        g, q = random_instance(rng, max_vertices=150)
        cases.append((g, q, build_index(g, index_config=random_index_config(rng))))
    for g, q, index in cases:
        assert_matches_reference_walk(g, q, index)


def assert_matches_reference_walk(g, q, index) -> None:
    """Candidates, visited nodes and answers equal the per-node reference walk's.

    At every ablation level and sigma 0-3, both from
    :func:`collect_candidates` and from :func:`run_query`.
    """
    for ab in Ablation:
        for sigma in range(4):
            spec = QuerySpec(query=q, aggregate=MAX, sigma=sigma)
            raw, visited = collect(index, g, q, sigma, ablation=ab)
            res = run_query(index, g, spec, ablation=ab)
            ref_raw, ref_visited = reference_candidates(index, g, q, sigma, ab)
            assert visited == res.stats.nodes_visited == ref_visited
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


def test_traversal_matches_reference_walk_on_a_chain_tree():
    # the depth-58 chain of test_build_identical_signatures_at_full_capacity:
    # one keyword, so every node holds every query vertex's bits
    g = generate_graph(
        SyntheticSpec(vertex_count=60, keyword_domain_size=1, keywords_per_vertex=1, seed=3)
    )
    index = build_index(g, index_config=IndexConfig(fanout=2, gamma=1.0))
    assert index.depth() == 58
    for q in generate_workload(g, WorkloadSpec(query_count=3, query_size=3, seed=3)):
        assert_matches_reference_walk(g, q, index)
        assert collect(index, g, q, 1)[1] == index.node_count()


def test_traversal_matches_reference_walk_with_a_keywordless_query_vertex():
    # a query vertex without keywords is contained in every node
    g = generate_graph(SyntheticSpec(vertex_count=150, keyword_domain_size=6, seed=4))
    index = build_index(g, index_config=IndexConfig(fanout=4))
    assert index.depth() >= 2
    q = make_graph(3, [(0, 1), (1, 2)], [[0], [], [1, 2]], g.keyword_names)
    assert_matches_reference_walk(g, q, index)
    assert collect(index, g, q, 1)[1] == index.node_count()


def test_traversal_matches_reference_walk_with_an_unknown_query_token(team_graph):
    index = build_index(team_graph, index_config=IndexConfig(fanout=2))
    assert index.depth() >= 2
    q = parse_query("t 3 2\nv 0 ml,quantum\nv 1 backend\nv 2 quantum\ne 0 1\ne 1 2\n", team_graph)
    assert q.keywords[2] == (team_graph.keyword_domain_size,)
    assert_matches_reference_walk(team_graph, q, index)


def test_traversal_matches_reference_walk_on_a_single_leaf(team_graph, team_index):
    # the root is the one leaf and lacks quantum's bit: the walk still
    # visits it, and a query vertex with quantum gets no candidates
    assert team_index.node_count() == 1
    for text in (
        "t 2 1\nv 0 quantum\nv 1 quantum\ne 0 1\n",
        "t 2 1\nv 0 ml\nv 1 backend,quantum\ne 0 1\n",
    ):
        q = parse_query(text, team_graph)
        qside = build_query_side(q, team_index.sig_config)
        assert not node_contained(team_index, qside)[-1, 0]
        assert_matches_reference_walk(team_graph, q, team_index)
        raw, visited = collect(team_index, team_graph, q, 2)
        assert visited == 1 and len(raw[-1]) == 0


def test_candidates_do_not_depend_on_the_tree():
    # nodes get the keyword check only and every vertex hit gets every
    # vertex-level test, so any tree gives a single leaf's candidates, and
    # the bounds, which never run on nodes, leave the visited nodes alone
    rng = np.random.default_rng(67)
    for _ in range(6):
        g, q = random_instance(rng, max_vertices=150)
        flat = build_index(g, index_config=IndexConfig(fanout=g.vertex_count))
        assert flat.node_count() == 1
        trees = [
            build_index(g, index_config=IndexConfig(fanout=fanout, seed=fanout))
            for fanout in range(2, 17)
        ]
        for sigma in range(4):
            for ab in Ablation:
                expect, _ = collect(flat, g, q, sigma, ablation=ab)
                for index in trees:
                    got, _ = collect(index, g, q, sigma, ablation=ab)
                    assert all(np.array_equal(a, b) for a, b in zip(got, expect))
            for index in trees:
                visited = {collect(index, g, q, sigma, ablation=ab)[1] for ab in Ablation}
                assert len(visited) == 1


def test_plan_choice_never_changes_answers(team_graph, team_query, small_index):
    # refining run_query's filtered candidates over either plan gives its
    # answers
    spec = QuerySpec(query=team_query, aggregate=SUM, sigma=4)
    res = run_query(small_index, team_graph, spec)
    supported, _ = neighbor_support_filter(team_graph, team_query, res.candidates, SUM, 4)
    for plan in both_plans(team_query, supported):
        answers = refine(team_graph, team_query, plan, supported, SUM, 4)
        assert mapping_set(answers) == mapping_set(res.answers)


def test_ablation_levels_parse_and_round_trip():
    assert [a.value for a in Ablation] == ["ks", "ks+lb", "ks+lb+tight"]
    for level in Ablation:
        assert Ablation(level.value) is level
    with pytest.raises(ValueError):
        Ablation("everything")
    # keyword pruning always; the degree bound, then the tight bound stack on it
    assert [(a.lb_basic, a.lb_tight) for a in Ablation] == [
        (False, False),
        (True, False),
        (True, True),
    ]


def test_ablation_only_changes_stats_not_answers(team_graph, team_query, small_index):
    spec = QuerySpec(query=team_query, aggregate=MAX, sigma=2)
    results = [
        run_query(small_index, team_graph, spec, ablation=level) for level in Ablation
    ]
    base = mapping_set(results[0].answers)
    assert all(mapping_set(r.answers) == base for r in results)
    powers = [r.stats.pruning_power for r in results]
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
        "support_killed",
        "hash_false_positives",
    }
    assert d["answers"] == len(res.answers)
    assert d["wall_ms"] >= 0.0
    assert len(d["candidates_per_qvertex"]) == 5
    assert d["distinct_vertex_sets"] <= d["answers"]
