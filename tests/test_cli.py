"""End-to-end runs of the command line interface."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from s3and import (
    IndexConfig,
    QueryStats,
    SignatureConfig,
    load_graph,
    load_index,
    load_query,
)
from s3and.cli import main
from tests.conftest import TEAM_GRAPH_TEXT, TEAM_QUERY_TEXT
from tests.test_index import huge_node_count, resealed_node_count, zeroed_signatures

# line 6 holds an edge whose second endpoint is not an integer
MALFORMED_GRAPH_TEXT = "t 3 2\nv 0 ml\nv 1 ml\nv 2 ml\ne 0 1\ne 1 x\n"


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
        "support_killed",
        "hash_false_positives",
    }
    assert stats["hash_false_positives"] == 0
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
    assert stats["support_killed"] == 0
    run(
        capsys,
        "oracle", "--graph", graph, "--query", query,
        "--agg", "sum", "--sigma", "4", "--stats-json", stats_path,
    )
    assert json.loads(stats_path.read_text())["support_killed"] == 0


def test_query_baseline_and_oracle_write_the_same_stats(team_files, tmp_path, capsys):
    graph, query = team_files
    idx = tmp_path / "team.idx"
    run(capsys, "index", "--graph", graph, "--out", idx, "--fanout", 4)
    spec = ["--graph", graph, "--query", query, "--agg", "sum", "--sigma", "4"]
    stats = {}
    for command, extra in (("query", ["--index", idx]), ("baseline", []), ("oracle", [])):
        path = tmp_path / f"{command}.json"
        run(capsys, command, *extra, *spec, "--stats-json", path)
        stats[command] = json.loads(path.read_text())
    fields = [f.name for f in dataclasses.fields(QueryStats)]
    assert all(list(s) == fields for s in stats.values())
    oracle = stats["oracle"]
    g = load_graph(graph)
    every = [g.vertex_count] * load_query(query, g).vertex_count
    assert oracle["candidates_per_qvertex"] == every
    assert oracle["pruning_power"] == 0.0
    assert oracle["nodes_visited"] == 0
    assert oracle["answers"] == stats["query"]["answers"] == stats["baseline"]["answers"]


def test_keyword_names_of_any_length_index_and_query(tmp_path, capsys):
    # the index file stores no keyword names, so their length is no limit:
    # 70,000 ASCII bytes, and 40,000 two-byte characters
    long_ascii, long_utf8 = "k" * 70_000, "\u00e9" * 40_000
    # a 40-vertex path: more vertices than the default fanout, so the build
    # splits the root
    names = [long_ascii, long_utf8] + ["b"] * 38
    vertices = "".join(f"v {v} {name}\n" for v, name in enumerate(names))
    edges = "".join(f"e {v} {v + 1}\n" for v in range(39))
    graph = tmp_path / "long.graph"
    graph.write_text(f"t 40 39\n{vertices}{edges}", encoding="utf-8")
    query = tmp_path / "long.query"
    query.write_text(
        f"t 2 1\nv 0 {long_ascii}\nv 1 {long_utf8}\ne 0 1\n", encoding="utf-8"
    )
    idx = tmp_path / "long.idx"
    run(capsys, "index", "--graph", graph, "--out", idx)
    spec = ["--graph", graph, "--query", query, "--agg", "max", "--sigma", 1]
    answers = run(capsys, "query", "--index", idx, *spec)
    assert answers == run(capsys, "baseline", *spec)
    assert answers.strip()


def test_bench_writes_csv_and_json(tmp_path, capsys):
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


@pytest.fixture()
def one_keyword_graph(tmp_path, capsys):
    graph = tmp_path / "one.graph"
    run(
        capsys,
        "gen", "--out", graph, "--vertices", 200,
        "--domain-size", 1, "--keywords-per-vertex", 1,
    )
    return graph


@pytest.mark.parametrize("gamma", ["inf", "nan"])
def test_non_finite_gamma_is_a_one_line_error(one_keyword_graph, tmp_path, capsys, gamma):
    assert_one_line_error(
        capsys,
        ["index", "--graph", one_keyword_graph, "--out", tmp_path / "x.idx", "--gamma", gamma],
        "gamma must be finite",
    )


def limit_address_space() -> None:
    # 2 GiB: enough to start Python and numpy, too little for these tables
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("flag", ["--m", "--bits"])
def test_unallocatable_signature_is_a_one_line_error(one_keyword_graph, tmp_path, flag):
    # the header holds 2**32 - 1, but a row that wide does not fit in memory;
    # the config refuses it before any allocation, and the address-space
    # limit keeps a build that got past the config from taking ~2.7 GB
    out = tmp_path / "huge.idx"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "s3and", "index", "--graph", str(one_keyword_graph),
            "--out", str(out), flag, "4294967295",
        ],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("s3and: error: ")
    assert not out.exists()


def test_index_reports_keywords_sharing_a_bit(team_files, tmp_path, capsys):
    graph, _ = team_files
    domain = load_graph(graph).keyword_domain_size
    out = run(capsys, "index", "--graph", graph, "--out", tmp_path / "a.idx")
    assert f"0 of {domain} keywords share a signature bit" in out
    # one group of one bit: every keyword sets it
    out = run(
        capsys,
        "index", "--graph", graph, "--out", tmp_path / "b.idx", "--m", 1, "--bits", 1,
    )
    assert f"{domain} of {domain} keywords share a signature bit" in out


def test_index_at_full_split_capacity(one_keyword_graph, tmp_path, capsys):
    idx = tmp_path / "full.idx"
    run(
        capsys,
        "index", "--graph", one_keyword_graph, "--out", idx, "--fanout", 2, "--gamma", 1,
    )
    assert load_index(idx).leaf_sizes.sum() == 200


@pytest.mark.parametrize("command", ["index", "workload", "oracle", "baseline"])
def test_malformed_graph_is_a_one_line_error(team_files, tmp_path, capsys, command):
    _, query = team_files
    graph = tmp_path / "bad.graph"
    graph.write_text(MALFORMED_GRAPH_TEXT)
    args = {
        "index": ["--out", tmp_path / "bad.idx"],
        "workload": ["--out-dir", tmp_path / "queries"],
        "oracle": ["--query", query, "--agg", "max", "--sigma", 1],
        "baseline": ["--query", query, "--agg", "max", "--sigma", 1],
    }[command]
    assert_one_line_error(
        capsys, [command, "--graph", graph, *args], "line 6: non-integer edge endpoint"
    )


@pytest.mark.parametrize(
    "damage", ["zeroed_signatures", "huge_node_count", "node_count_plus_one", "version_3"]
)
def test_damaged_index_is_a_one_line_error(team_files, tmp_path, capsys, damage):
    graph, query = team_files
    idx = tmp_path / "team.idx"
    run(capsys, "index", "--graph", graph, "--out", idx, "--fanout", 4)
    data = idx.read_bytes()
    if damage == "zeroed_signatures":
        index = load_index(idx)
        data = zeroed_signatures(data, index, range(index.vertex_count))
    elif damage == "huge_node_count":
        data = huge_node_count(data)
    elif damage == "node_count_plus_one":
        data = resealed_node_count(data, 1)
    else:
        # a version-3 file also stored the keyword table; it is refused, not read
        data = data[:8] + bytes([3]) + data[9:]
    idx.write_bytes(data)
    assert_one_line_error(
        capsys,
        [
            "query", "--index", idx, "--graph", graph, "--query", query,
            "--agg", "max", "--sigma", 1,
        ],
        {
            "node_count_plus_one": "truncated",
            "version_3": "unsupported index version 3",
        }.get(damage, "digest mismatch"),
    )


@pytest.mark.parametrize(
    "option, value, needle",
    [
        ("--fanout", 2**32, "fanout"),
        ("--local-iter", 2**32, "iteration counts"),
        ("--m", 2**32, "group_count"),
        ("--seed", 2**63, "seed"),
        ("--m", 2**32 - 1, "words per signature"),
        ("--bits", 2**32 - 1, "words per signature"),
    ],
)
def test_config_past_the_index_header_is_a_one_line_error(
    one_keyword_graph, tmp_path, capsys, option, value, needle
):
    # the header stores the counts as uint32 and the seeds as int64, so the
    # configs refuse what it cannot hold before any build; they also refuse
    # a signature too wide to allocate, so no memory limit is needed here
    idx = tmp_path / "x.idx"
    assert_one_line_error(
        capsys, ["index", "--graph", one_keyword_graph, "--out", idx, option, value], needle
    )
    assert not idx.exists()
