"""Synthetic data, baseline runner, and the benchmark harness."""

import io
import math

import numpy as np
import pytest

from s3and import (
    AggregateKind,
    BenchConfig,
    QuerySpec,
    SyntheticSpec,
    WorkloadSpec,
    build_index,
    format_graph,
    generate_graph,
    generate_workload,
    is_connected,
    parse_query,
    run_baseline,
    run_benchmark,
    run_query,
    write_bench_csv,
    write_bench_json,
)
from s3and.workbench import CSV_FIELDS, DEFAULT_SWEEPS, DESK_SCALE_LIMIT
from tests.conftest import edge_list, mapping_set, random_instance

MAX = AggregateKind.MAX
SUM = AggregateKind.SUM

SMALL = SyntheticSpec(
    vertex_count=300,
    ring_neighbors=2,
    shortcut_probability=0.1,
    keyword_domain_size=10,
    keywords_per_vertex=2,
    seed=1,
)


# --- graph generation -------------------------------------------------------


def test_generate_graph_deterministic():
    assert format_graph(generate_graph(SMALL)) == format_graph(generate_graph(SMALL))


def test_generate_graph_contains_ring():
    g = generate_graph(SMALL)
    n = g.vertex_count
    edge_set = set(edge_list(g))
    for i in range(n):
        for d in (1, 2):
            u, v = i, (i + d) % n
            assert (min(u, v), max(u, v)) in edge_set


def test_generate_graph_edge_count_range():
    g = generate_graph(SMALL)
    n = g.vertex_count
    ring = n * SMALL.ring_neighbors
    assert ring <= len(edge_list(g)) <= ring + n


def test_generate_graph_is_connected():
    assert is_connected(generate_graph(SMALL))


def test_keywords_per_vertex_and_distinctness():
    g = generate_graph(SMALL)
    for ks in g.keywords:
        assert len(ks) == 2
        assert len(set(ks)) == 2
        assert list(ks) == sorted(ks)


def test_keyword_names_sort_like_ids():
    g = generate_graph(SyntheticSpec(vertex_count=20, keyword_domain_size=12, seed=0))
    assert list(g.keyword_names) == sorted(g.keyword_names)
    assert [int(n) for n in g.keyword_names] == list(range(12))


def test_uniform_keyword_frequencies():
    spec = SyntheticSpec(
        vertex_count=4000, keyword_domain_size=10, keywords_per_vertex=2, seed=3
    )
    g = generate_graph(spec)
    counts = np.zeros(10, dtype=np.int64)
    for ks in g.keywords:
        for k in ks:
            counts[k] += 1
    expect = 4000 * 2 / 10
    sigma = math.sqrt(8000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_gaussian_distribution_favors_center():
    spec = SyntheticSpec(
        vertex_count=2000,
        keyword_domain_size=12,
        keywords_per_vertex=2,
        distribution="gaussian",
        seed=4,
    )
    g = generate_graph(spec)
    counts = np.zeros(12, dtype=np.int64)
    for ks in g.keywords:
        for k in ks:
            counts[k] += 1
    assert counts[6] > counts[0]
    assert counts[6] > counts[11]


def test_zipf_distribution_favors_lowest_id():
    spec = SyntheticSpec(
        vertex_count=2000,
        keyword_domain_size=12,
        keywords_per_vertex=2,
        distribution="zipf",
        seed=5,
    )
    g = generate_graph(spec)
    counts = np.zeros(12, dtype=np.int64)
    for ks in g.keywords:
        for k in ks:
            counts[k] += 1
    assert counts.argmax() == 0


def test_spec_validation():
    with pytest.raises(ValueError, match="desk-scale"):
        SyntheticSpec(vertex_count=DESK_SCALE_LIMIT + 1)
    with pytest.raises(ValueError):
        SyntheticSpec(vertex_count=0)
    with pytest.raises(ValueError):
        SyntheticSpec(vertex_count=10, shortcut_probability=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(vertex_count=10, keywords_per_vertex=9, keyword_domain_size=5)
    with pytest.raises(ValueError):
        SyntheticSpec(vertex_count=10, distribution="pareto")
    with pytest.raises(ValueError):
        WorkloadSpec(query_size=0)
    with pytest.raises(ValueError):
        WorkloadSpec(edge_drop_probability=-0.1)


# --- workload generation ----------------------------------------------------


def test_workload_sizes_and_connectivity():
    g = generate_graph(SMALL)
    queries = generate_workload(g, WorkloadSpec(query_count=10, query_size=5, seed=2))
    assert len(queries) == 10
    data_keyword_sets = {tuple(ks) for ks in g.keywords}
    for q in queries:
        assert q.vertex_count == 5
        assert is_connected(q)
        for ks in q.keywords:
            assert tuple(ks) in data_keyword_sets


def test_workload_single_vertex_queries():
    g = generate_graph(SMALL)
    queries = generate_workload(g, WorkloadSpec(query_count=3, query_size=1, seed=0))
    for q in queries:
        assert q.vertex_count == 1
        assert edge_list(q) == []


def test_workload_full_drop_leaves_trees():
    g = generate_graph(SMALL)
    queries = generate_workload(
        g, WorkloadSpec(query_count=5, query_size=6, edge_drop_probability=1.0, seed=7)
    )
    for q in queries:
        assert len(edge_list(q)) == 5
        assert is_connected(q)


def test_workload_no_drop_keeps_induced_edges():
    g = generate_graph(SMALL)
    queries = generate_workload(
        g, WorkloadSpec(query_count=5, query_size=6, edge_drop_probability=0.0, seed=8)
    )
    for q in queries:
        assert len(edge_list(q)) >= 5


def test_workload_deterministic():
    g = generate_graph(SMALL)
    spec = WorkloadSpec(query_count=4, query_size=4, seed=9)
    a = [format_graph(q) for q in generate_workload(g, spec)]
    b = [format_graph(q) for q in generate_workload(g, spec)]
    assert a == b


def test_workload_size_above_graph_fails():
    g = generate_graph(SyntheticSpec(vertex_count=4, keyword_domain_size=5, seed=0))
    with pytest.raises(ValueError):
        generate_workload(g, WorkloadSpec(query_count=1, query_size=5))


# --- baseline ---------------------------------------------------------------


def test_baseline_matches_engine_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(8):
        g, q = random_instance(rng, max_vertices=40)
        index = build_index(g)
        for aggregate in (MAX, SUM):
            spec = QuerySpec(query=q, aggregate=aggregate, sigma=int(rng.integers(0, 4)))
            engine = run_query(index, g, spec)
            base = run_baseline(g, spec)
            assert mapping_set(engine.answers) == mapping_set(base.answers)


def test_baseline_fixture(team_graph, team_query):
    res = run_baseline(team_graph, QuerySpec(query=team_query, aggregate=MAX, sigma=2))
    assert (0, 1, 2, 3, 4) in {a.mapping for a in res.answers}
    assert res.stats.nodes_visited == 0


def test_baseline_unsatisfiable_query(team_graph):
    q = parse_query("t 2 1\nv 0 quantum\nv 1 quantum\ne 0 1\n", team_graph)
    res = run_baseline(team_graph, QuerySpec(query=q, aggregate=MAX, sigma=3))
    assert res.answers == []
    assert res.stats.pruning_power == 1.0


# --- benchmark harness ------------------------------------------------------


def tiny_bench(**kw) -> BenchConfig:
    return BenchConfig(
        base=SyntheticSpec(
            vertex_count=80, keyword_domain_size=10, keywords_per_vertex=2, seed=0
        ),
        workload=WorkloadSpec(query_count=2, query_size=4, seed=0),
        sweeps=kw.pop("sweeps", ("sigma_max",)),
        **kw,
    )


def test_bench_config_rejects_unknown_sweep():
    with pytest.raises(ValueError, match="unknown sweep"):
        tiny_bench(sweeps=("sigma_max", "temperature"))


def test_run_benchmark_rows():
    rows = run_benchmark(tiny_bench())
    assert [r.param_value for r in rows] == list(DEFAULT_SWEEPS["sigma_max"])
    for row in rows:
        assert row.param_name == "sigma_max"
        assert row.agg == "max"
        assert 0.0 <= row.pruning_power <= 1.0
        assert row.wall_ms_engine > 0.0
        assert row.wall_ms_baseline > 0.0
        assert row.answers >= 0


def test_run_benchmark_deterministic_modulo_timing():
    cfg = tiny_bench(sweeps=("query_size",))
    key = lambda rows: [
        (r.param_name, r.param_value, r.agg, r.sigma, r.pruning_power, r.answers)
        for r in rows
    ]
    assert key(run_benchmark(cfg)) == key(run_benchmark(cfg))


def test_bench_csv_format():
    rows = run_benchmark(tiny_bench())
    buf = io.StringIO()
    write_bench_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("sigma_max,1,max,1,")


def test_bench_json_report(tmp_path):
    import json

    cfg = tiny_bench()
    rows = run_benchmark(cfg)
    out = tmp_path / "report.json"
    write_bench_json(cfg, rows, out)
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "rows"}
    assert set(doc["config"]) == {
        "graph",
        "workload",
        "sweeps",
        "default_aggregate",
        "signature",
        "index",
        "ablation",
        "seed",
    }
    assert doc["config"]["graph"]["vertex_count"] == 80
    assert doc["config"]["ablation"] == "ks+lb+tight"
    assert len(doc["rows"]) == len(rows)
    assert set(doc["rows"][0]) == set(CSV_FIELDS)
