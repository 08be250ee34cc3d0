"""Command line front end.

Subcommands cover the full pipeline: ``gen`` writes a synthetic graph,
``workload`` samples query files from a graph, ``index`` builds and saves an
index, ``query`` answers one query through the index, ``baseline`` answers it
with the index-free scan, ``oracle`` answers it by exhaustive backtracking,
and ``bench`` runs the parameter sweeps and writes the CSV.

``query``, ``baseline``, and ``oracle`` print one answer line per match to
stdout and agree with each other on every input; ``--stats-json`` writes the
run statistics next to the answers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .engine import Ablation, QueryResult, run_query
from .graph import load_graph, load_query, save_graph
from .index import (
    IndexConfig,
    build_index,
    check_keyword_names,
    load_index,
    save_index,
)
from .semantics import AggregateKind, QuerySpec, format_answers, oracle_search
from .signatures import SignatureConfig, exact_keywords
from .workbench import (
    BenchConfig,
    SyntheticSpec,
    WorkloadSpec,
    generate_graph,
    generate_workload,
    run_baseline,
    run_benchmark,
    write_bench_csv,
    write_bench_json,
)

__all__ = ["main"]


def _add_query_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="data graph file")
    p.add_argument("--query", required=True, help="query graph file")
    p.add_argument("--agg", required=True, choices=["max", "sum"])
    p.add_argument("--sigma", required=True, type=int, help="score threshold")
    p.add_argument("--stats-json", help="write run statistics to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s3and",
        description="Subgraph similarity search under aggregated neighbor differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic data graph")
    p.add_argument("--out", required=True, help="output graph file")
    p.add_argument("--vertices", type=int, default=50_000)
    p.add_argument("--ring-neighbors", type=int, default=2)
    p.add_argument("--shortcut-prob", type=float, default=0.1)
    p.add_argument("--domain-size", type=int, default=50, help="keyword domain size")
    p.add_argument("--keywords-per-vertex", type=int, default=3)
    p.add_argument(
        "--distribution", choices=["uniform", "gaussian", "zipf"], default="uniform"
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("workload", help="sample query graphs from a data graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out-dir", required=True, help="one query file is written per query")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--size", type=int, default=5, help="vertices per query")
    p.add_argument("--drop-prob", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("index", help="build an index and save it")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True, help="output index file")
    p.add_argument("--fanout", type=int, default=16)
    p.add_argument("--gamma", type=float, default=0.2)
    p.add_argument("--m", type=int, default=5, help="signature group count")
    p.add_argument("--bits", type=int, default=64, help="bits per signature group")
    p.add_argument("--global-iter", type=int, default=5)
    p.add_argument("--local-iter", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="signature and partition seed")

    p = sub.add_parser("query", help="answer a query through a saved index")
    p.add_argument("--index", required=True, help="index file")
    _add_query_spec_args(p)
    p.add_argument(
        "--ablation",
        choices=[a.value for a in Ablation],
        default=Ablation.KS_LB_TIGHT.value,
        help="which pruning stages to apply",
    )

    p = sub.add_parser("baseline", help="answer a query without an index")
    _add_query_spec_args(p)

    p = sub.add_parser("oracle", help="answer a query by exhaustive backtracking")
    _add_query_spec_args(p)

    p = sub.add_parser("bench", help="run the parameter sweeps")
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("--json", help="also write a JSON report with the config echo")
    p.add_argument("--vertices", type=int, default=50_000)
    p.add_argument("--queries", type=int, default=100, help="queries per cell")
    p.add_argument(
        "--sweep",
        action="append",
        choices=sorted(BenchConfig().sweeps),
        help="restrict to one or more sweeps (default: all)",
    )
    p.add_argument(
        "--ablation",
        choices=[a.value for a in Ablation],
        default=Ablation.KS_LB_TIGHT.value,
    )
    p.add_argument("--seed", type=int, default=0)

    return parser


def _report(args: argparse.Namespace, result: QueryResult) -> int:
    """Print the answers and write the stats JSON if ``--stats-json`` asks."""
    sys.stdout.write(format_answers(result.answers))
    if args.stats_json:
        Path(args.stats_json).write_text(
            json.dumps(result.stats.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return 0


def _load_pair(args: argparse.Namespace):
    g = load_graph(args.graph)
    q = load_query(args.query, g)
    spec = QuerySpec(query=q, aggregate=AggregateKind.parse(args.agg), sigma=args.sigma)
    return g, spec


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        vertex_count=args.vertices,
        ring_neighbors=args.ring_neighbors,
        shortcut_probability=args.shortcut_prob,
        keyword_domain_size=args.domain_size,
        keywords_per_vertex=args.keywords_per_vertex,
        distribution=args.distribution,
        seed=args.seed,
    )
    g = generate_graph(spec)
    save_graph(g, args.out)
    print(f"wrote {g.vertex_count} vertices, {g.edge_count} edges to {args.out}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    spec = WorkloadSpec(
        query_count=args.count,
        query_size=args.size,
        edge_drop_probability=args.drop_prob,
        seed=args.seed,
    )
    queries = generate_workload(g, spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(len(queries) - 1))
    for i, q in enumerate(queries):
        save_graph(q, out_dir / f"query_{str(i).zfill(width)}.txt")
    print(f"wrote {len(queries)} query files to {out_dir}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    sig = SignatureConfig(group_count=args.m, bits_per_group=args.bits, seed=args.seed)
    idx_cfg = IndexConfig(
        fanout=args.fanout,
        gamma=args.gamma,
        global_iter=args.global_iter,
        local_iter=args.local_iter,
        seed=args.seed,
    )
    g = load_graph(args.graph)
    check_keyword_names(g.keyword_names)
    t0 = time.perf_counter()
    index = build_index(g, sig, idx_cfg)
    built_ms = (time.perf_counter() - t0) * 1000.0
    save_index(index, args.out)
    print(
        f"built index over {g.vertex_count} vertices in {built_ms:.0f} ms "
        f"({index.node_count()} nodes, depth {index.depth()}) -> {args.out}"
    )
    # a query keyword that shares its bit is rechecked against exact sets
    domain = g.keyword_domain_size
    shared = domain - len(exact_keywords(sig, domain))
    print(f"{shared} of {domain} keywords share a signature bit")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    g, spec = _load_pair(args)
    index = load_index(args.index)
    return _report(args, run_query(index, g, spec, ablation=Ablation(args.ablation)))


def _cmd_baseline(args: argparse.Namespace) -> int:
    g, spec = _load_pair(args)
    return _report(args, run_baseline(g, spec))


def _cmd_oracle(args: argparse.Namespace) -> int:
    g, spec = _load_pair(args)
    q = spec.query
    # the oracle tries every vertex for every query vertex
    every = [np.arange(g.vertex_count)] * q.vertex_count
    started = time.perf_counter()
    answers = oracle_search(g, q, spec.aggregate, spec.sigma)
    return _report(args, QueryResult.measured(g, q, started, every, answers))


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = BenchConfig(
        base=SyntheticSpec(vertex_count=args.vertices),
        workload=WorkloadSpec(query_count=args.queries),
        sweeps=tuple(args.sweep) if args.sweep else BenchConfig().sweeps,
        ablation=Ablation(args.ablation),
        seed=args.seed,
    )
    rows = run_benchmark(cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_bench_csv(rows, fh)
    if args.json:
        write_bench_json(cfg, rows, args.json)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "workload": _cmd_workload,
    "index": _cmd_index,
    "query": _cmd_query,
    "baseline": _cmd_baseline,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; return its exit code.

    A bad value or an unreadable or malformed file (``ValueError`` or
    ``OSError``, which the graph and index parse errors subclass), or a
    setting too large to allocate (``MemoryError``), ends the run with one
    ``s3and: error:`` line on stderr and exit code 2, the code argparse uses
    for its own usage errors.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        message = " ".join(str(exc).split()) or "out of memory"
        print(f"s3and: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
