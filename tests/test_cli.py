"""End-to-end runs of the command line interface."""

import json

import pytest

from s3and import IndexConfig, SignatureConfig, load_graph, load_index
from s3and.cli import main
from tests.conftest import TEAM_GRAPH_TEXT, TEAM_QUERY_TEXT
from tests.test_index import huge_node_count, zeroed_signatures


@pytest.fixture()
def team_files(tmp_path):
    graph = tmp_path / "team.graph"
    graph.write_text(TEAM_GRAPH_TEXT)
    query = tmp_path / "team.query"
    query.write_text(TEAM_QUERY_TEXT)
    return graph, query


def run(capsys, *argv) -> str:
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def test_gen_workload_index_query_pipeline(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    out = run(
        capsys,
        "gen", "--out", graph, "--vertices", 120, "--domain-size", 12,
        "--keywords-per-vertex", 2, "--seed", 3,
    )
    assert "120 vertices" in out
    g = load_graph(graph)
    assert g.vertex_count == 120

    qdir = tmp_path / "queries"
    out = run(
        capsys,
        "workload", "--graph", graph, "--out-dir", qdir,
        "--count", 3, "--size", 4, "--seed", 1,
    )
    assert "3 query files" in out
    files = sorted(qdir.iterdir())
    assert [f.name for f in files] == ["query_0.txt", "query_1.txt", "query_2.txt"]

    idx = tmp_path / "g.idx"
    out = run(capsys, "index", "--graph", graph, "--out", idx, "--fanout", 8)
    assert "built index" in out

    query = files[0]
    sigma = ["--agg", "sum", "--sigma", "3"]
    engine_out = run(
        capsys, "query", "--index", idx, "--graph", graph, "--query", query, *sigma
    )
    baseline_out = run(capsys, "baseline", "--graph", graph, "--query", query, *sigma)
    oracle_out = run(capsys, "oracle", "--graph", graph, "--query", query, *sigma)
    assert engine_out == baseline_out == oracle_out
    for line in engine_out.splitlines():
        assert line.startswith("a ")


def test_query_stats_json_and_flags(team_files, tmp_path, capsys):
    graph, query = team_files
    idx = tmp_path / "team.idx"
    run(capsys, "index", "--graph", graph, "--out", idx, "--fanout", 4)

    stats_path = tmp_path / "stats.json"
    base_args = [
        "query", "--index", idx, "--graph", graph, "--query", query,
        "--agg", "max", "--sigma", "2",
    ]
    default_out = run(capsys, *base_args, "--stats-json", stats_path)
    assert "a 2 0:0 1:1 2:2 3:3 4:4" in default_out
    stats = json.loads(stats_path.read_text())
    assert set(stats) == {
        "pruning_power",
        "nodes_visited",
        "candidates_per_qvertex",
        "wall_ms",
        "answers",
        "distinct_vertex_sets",
    }
    assert stats["answers"] == len(default_out.splitlines())

    assert run(capsys, *base_args, "--ablation", "ks") == default_out


def test_index_flags_are_persisted(team_files, tmp_path, capsys):
    graph, _ = team_files
    idx = tmp_path / "custom.idx"
    run(
        capsys,
        "index", "--graph", graph, "--out", idx,
        "--fanout", 4, "--gamma", 0.1, "--m", 3, "--bits", 32, "--seed", 7,
    )
    loaded = load_index(idx)
    assert loaded.sig_config == SignatureConfig(group_count=3, bits_per_group=32, seed=7)
    assert loaded.index_config == IndexConfig(fanout=4, gamma=0.1, seed=7)


def test_baseline_stats_json(team_files, tmp_path, capsys):
    graph, query = team_files
    stats_path = tmp_path / "base.json"
    run(
        capsys,
        "baseline", "--graph", graph, "--query", query,
        "--agg", "sum", "--sigma", "4", "--stats-json", stats_path,
    )
    stats = json.loads(stats_path.read_text())
    assert stats["nodes_visited"] == 0
    assert stats["answers"] >= 1


def test_bench_writes_csv_and_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("S3AND_THREADS", "2")
    csv_path = tmp_path / "bench.csv"
    json_path = tmp_path / "bench.json"
    out = run(
        capsys,
        "bench", "--out", csv_path, "--json", json_path,
        "--vertices", 80, "--queries", 2, "--sweep", "sigma_max",
        "--sweep", "query_size",
    )
    assert "8 rows" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("param_name,param_value,agg,sigma,")
    assert len(lines) == 9
    doc = json.loads(json_path.read_text())
    assert doc["config"]["sweeps"] == ["sigma_max", "query_size"]
    assert len(doc["rows"]) == 8


def test_bad_aggregate_is_an_argparse_error(team_files):
    graph, query = team_files
    with pytest.raises(SystemExit):
        main(
            [
                "baseline", "--graph", str(graph), "--query", str(query),
                "--agg", "avg", "--sigma", "2",
            ]
        )


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit):
        main([])


def assert_one_line_error(capsys, argv, needle: str) -> None:
    assert main([str(a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("s3and: error: ")
    assert needle in lines[0]
    assert "Traceback" not in captured.err


def test_missing_graph_file_is_a_one_line_error(team_files, tmp_path, capsys):
    _, query = team_files
    missing = tmp_path / "absent.graph"
    assert_one_line_error(
        capsys,
        ["baseline", "--graph", missing, "--query", query, "--agg", "max", "--sigma", 1],
        "absent.graph",
    )


def test_negative_sigma_is_a_one_line_error(team_files, capsys):
    graph, query = team_files
    assert_one_line_error(
        capsys,
        ["oracle", "--graph", graph, "--query", query, "--agg", "sum", "--sigma", -1],
        "sigma must be non-negative",
    )


def test_index_with_bad_magic_is_a_one_line_error(team_files, tmp_path, capsys):
    graph, query = team_files
    idx = tmp_path / "bad.idx"
    idx.write_bytes(b"NOTANIDX" + bytes(64))
    assert_one_line_error(
        capsys,
        [
            "query", "--index", idx, "--graph", graph, "--query", query,
            "--agg", "max", "--sigma", 1,
        ],
        "bad magic",
    )


@pytest.mark.parametrize("damage", ["zeroed_signatures", "huge_node_count"])
def test_damaged_index_is_a_one_line_error(team_files, tmp_path, capsys, damage):
    graph, query = team_files
    idx = tmp_path / "team.idx"
    run(capsys, "index", "--graph", graph, "--out", idx, "--fanout", 4)
    data = idx.read_bytes()
    if damage == "zeroed_signatures":
        index = load_index(idx)
        data = zeroed_signatures(data, index, range(index.vertex_count))
    else:
        data = huge_node_count(data)
    idx.write_bytes(data)
    assert_one_line_error(
        capsys,
        [
            "query", "--index", idx, "--graph", graph, "--query", query,
            "--agg", "max", "--sigma", 1,
        ],
        "digest mismatch",
    )
