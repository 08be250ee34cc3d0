"""Closed-loop benchmark of the s3and index build, index load and query path.

Run from the repository root:

    python3 perfbench/run.py --workload select-10k --seed 1 --seconds 5 --trace 0

The benchmark generates a synthetic graph and a query workload from
``--seed``, then drives only the package's public API from one process with
one caller: each query is sent only after the previous one has returned.
NumPy keeps its default BLAS thread count. ``--trace 0`` measures the
end-to-end metrics with ``time.perf_counter`` around the public calls;
``--trace 1`` reruns the query pipeline stage by stage inside spans and
reports the per-layer metrics. Every time is scaled to the reference host
speed by the probe in ``hostspeed.py``. Every run checks answers against the
index-free baseline outside the timed code; a mismatch makes the result
``correct: false`` and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
repeat each metric as ``<workload> <name> <value> <unit>`` and give the input
and environment fingerprint. A JSON record of the run (fingerprint, query
latencies, and in traced runs every span) is written under ``perfbench/out``.
See ``perfbench/README.md`` for the workloads and the metric design.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hostspeed import ScaledClock
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# (aggregate, sigma) pairs; every query is answered under each.
AGGREGATES = (("max", 1), ("sum", 3))
SETUP_REPEATS = 3
LOAD_REPEATS = 9
FRESH_CHECKS = 20
# Queries per timing window; a host speed probe opens and closes each window.
CHUNK = 10
# Times per load or query window when the host keeps changing speed in it.
MAX_TRIES = 3
WARMUP_QUERIES = 20


@dataclass(frozen=True)
class Workload:
    """What sets the workloads apart; ``make_inputs`` fixes everything else."""

    vertex_count: int
    keyword_domain_size: int
    # 200 rather than the ROADMAP's 100: with 100, which heavy queries a seed
    # drew moved dense-5k's p95 by 21% of its median from seed to seed, and
    # one timing window spoiled by the host moved select-10k's p95 by as much.
    query_count: int = 200


WORKLOADS = {
    # Selective keywords: 1-2 candidates per query vertex, traversal-bound.
    "select-10k": Workload(vertex_count=10_000, keyword_domain_size=50),
    # Ten keywords: dozens of candidates per query vertex, refine-bound.
    "dense-5k": Workload(vertex_count=5_000, keyword_domain_size=10),
}

END_TO_END_UNITS = {
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
    "qps": "1/s",
    "setup_s": "s",
    "load_s": "s",
    "index_bytes": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.traverse_ms_p50": "ms",
    "engine.traverse_ms_p95": "ms",
    "engine.nodes_visited_mean": "count",
    "engine.refine_ms_p50": "ms",
    "engine.refine_ms_p95": "ms",
    "engine.recheck_ms_p50": "ms",
    "engine.hash_fp": "count",
    "engine.plan_ms_p50": "ms",
    "engine.candidates_mean": "count",
    "engine.pruning_power": "ratio",
    "engine.answers": "count",
    "engine.glue_ms_p50": "ms",
    "pruning.query_side_ms_p50": "ms",
    "signatures.build_aux_s": "s",
    "index.partition_s": "s",
    "index.nodes": "count",
    "index.leaves": "count",
    "index.depth": "count",
    "index.leaf_size_mean": "count",
    "index.save_s": "s",
    "index.load_s": "s",
    "graph.load_s": "s",
    "workbench.baseline_ms_p50": "ms",
    "workbench.speedup_vs_baseline": "ratio",
    "trace.overhead_pct": "%",
    "fail_ratio": "ratio",
}


def load_s3and():
    """Import the package from the checkout's ``src``; exit 1 when it is absent."""
    if not (SRC / "s3and" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the s3and sources are missing under {SRC}")
    sys.path.insert(0, str(SRC))
    return importlib.import_module("s3and")


class Gate:
    """Counts answer checks; every check is one attempted comparison."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)


@dataclass
class Inputs:
    graph: object
    specs: list  # one QuerySpec per (query, aggregate)
    digest: str  # sha256 of the graph and query texts


def make_inputs(s3, wl: Workload, seed: int) -> Inputs:
    graph_seed, query_seed = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(2)
    )
    g = s3.generate_graph(
        s3.SyntheticSpec(
            vertex_count=wl.vertex_count,
            ring_neighbors=2,
            shortcut_probability=0.1,
            keyword_domain_size=wl.keyword_domain_size,
            keywords_per_vertex=3,
            distribution="uniform",
            seed=graph_seed,
        )
    )
    queries = s3.generate_workload(
        g,
        s3.WorkloadSpec(
            query_count=wl.query_count,
            query_size=5,
            edge_drop_probability=0.3,
            seed=query_seed,
        ),
    )
    digest = hashlib.sha256(s3.format_graph(g).encode())
    for q in queries:
        digest.update(s3.format_graph(q).encode())
    specs = [
        s3.QuerySpec(query=q, aggregate=s3.AggregateKind.parse(agg), sigma=sigma)
        for q in queries
        for agg, sigma in AGGREGATES
    ]
    return Inputs(g, specs, digest.hexdigest())


def answer_key(answers) -> list:
    return [(a.mapping, a.and_score) for a in answers]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def numba_kernels() -> bool:
    try:
        return bool(importlib.import_module("s3and._kernels").AVAILABLE)
    except ModuleNotFoundError:
        return False


def fingerprint(name: str, seed: int, inputs: Inputs, index_path: Path) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "inputs_sha256": inputs.digest,
        "index_sha256": file_sha256(index_path),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_kernels": numba_kernels(),
    }


def reference_answers(
    s3, g, fresh, specs, gate: Gate, window=contextlib.nullcontext, tracer=None
) -> list:
    """Baseline answers for every query.

    The first ``FRESH_CHECKS`` are also checked against the freshly built
    index. Every timed query checks the reloaded index against the same
    answers, and ``check_reloaded`` shows that the reloaded index saves to
    the fresh one's bytes, so a subset suffices here and keeps runs short.
    """
    expected = []
    for start in range(0, len(specs), CHUNK):
        with window():
            for i in range(start, min(start + CHUNK, len(specs))):
                if tracer is None:
                    base = s3.run_baseline(g, specs[i])
                else:
                    with tracer.span("workbench.baseline", i):
                        base = s3.run_baseline(g, specs[i])
                expected.append(answer_key(base.answers))
    for i in range(min(FRESH_CHECKS, len(specs))):
        gate.check(
            answer_key(s3.run_query(fresh, g, specs[i]).answers) == expected[i],
            f"query {i}: freshly built index disagrees with run_baseline",
        )
    return expected


def check_reloaded(s3, gate: Gate, g, g_loaded, fresh_path: Path, index, work: Path) -> None:
    """The reloaded graph equals the generated one; the reloaded index re-saves byte-identically."""
    gate.check(g_loaded == g, "graph differs after save_graph/load_graph")
    resaved = work / "resaved.idx"
    s3.save_index(index, resaved)
    gate.check(
        resaved.read_bytes() == fresh_path.read_bytes(),
        "index differs after save_index/load_index",
    )


def load_pair(s3, graph_path: Path, index_path: Path):
    return s3.load_graph(graph_path), s3.load_index(index_path)


def steady_window(clock: ScaledClock, work):
    """Run ``work`` in a probe window, again while the host changed speed inside it.

    Returns what the last ``work()`` returned and that window's (scaled,
    raw) times.
    """
    for _ in range(MAX_TRIES):
        clock.begin()
        out = work()
        scaled, raw = clock.end()
        if clock.steady:
            break
    return out, scaled, raw


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1000.0


def measure_untraced(s3, inputs: Inputs, seconds: float, work: Path, gate: Gate):
    """End-to-end metrics, every time scaled to the reference host speed."""
    g, specs = inputs.graph, inputs.specs
    graph_path, index_path = work / "graph.txt", work / "index.idx"
    s3.save_graph(g, graph_path)
    clock = ScaledClock()
    setup: list[float] = []
    load: list[float] = []
    raw: dict[str, list[float]] = {"setup_s": [], "load_s": [], "query_s": []}

    for rep in range(SETUP_REPEATS):
        gc.collect()  # start every timed round from the same collector state
        clock.begin()
        built = clock.time(s3.build_index, g)
        scaled, measured = clock.end()
        setup += scaled
        raw["setup_s"] += measured
        if rep == 0:
            fresh = built
            s3.save_index(fresh, index_path)
        else:
            again = work / "again.idx"
            s3.save_index(built, again)
            gate.check(
                again.read_bytes() == index_path.read_bytes(),
                f"build {rep} is not byte-identical to build 0",
            )
        del built

    for _ in range(LOAD_REPEATS):
        gc.collect()
        (g_loaded, index), scaled, measured = steady_window(
            clock, lambda: clock.time(load_pair, s3, graph_path, index_path)
        )
        load += scaled
        raw["load_s"] += measured
    check_reloaded(s3, gate, g, g_loaded, index_path, index, work)

    expected = reference_answers(s3, g, fresh, specs, gate)
    del fresh

    for spec in specs[:WARMUP_QUERIES]:
        s3.run_query(index, g_loaded, spec)
    latencies: list[float] = []
    # Every query at least once, then on until --seconds of query time.
    done = 0
    while done < len(specs) or sum(raw["query_s"]) < seconds:
        batch = [(done + k) % len(specs) for k in range(CHUNK)]
        results, scaled, measured = steady_window(
            clock, lambda: [clock.time(s3.run_query, index, g_loaded, specs[i]) for i in batch]
        )
        latencies += scaled
        raw["query_s"] += measured
        for i, result in zip(batch, results):
            gate.check(
                answer_key(result.answers) == expected[i],
                f"query {i}: reloaded index disagrees with run_baseline",
            )
        done += CHUNK

    metrics = {
        "query_ms_p50": percentile_ms(latencies, 50),
        "query_ms_p95": percentile_ms(latencies, 95),
        "qps": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setup),
        "load_s": statistics.median(load),
        "index_bytes": index_path.stat().st_size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "raw_s": raw,
        "scaled_s": {"setup_s": setup, "load_s": load, "query_s": latencies},
        "speed_factors": clock.factors,
    }
    return metrics, record, index_path


def staged_query(s3, tracer: Tracer, index, g, spec, query_id: int):
    """``run_query``'s pipeline, one span per stage; returns what each stage produced."""
    q = spec.query
    with tracer.span("pruning.query_side", query_id):
        qside = s3.build_query_side(q, index.sig_config)
    with tracer.span("engine.traverse", query_id):
        raw, visited = s3.collect_candidates(index, qside, spec.sigma, g.degree_vector)
    with tracer.span("engine.recheck", query_id):
        candidates = s3.exact_keyword_filter(g, q, raw)
    with tracer.span("engine.plan", query_id):
        plan = s3.make_query_plan(q, candidates)
    with tracer.span("engine.refine", query_id):
        if all(len(c) for c in candidates):
            answers = s3.refine(g, q, plan, candidates, spec.aggregate, spec.sigma)
        else:
            answers = []
    return raw, visited, candidates, answers


def traced_query(s3, tracer: Tracer, index, g, spec, query_id: int):
    """One staged query under an ``engine.query`` root span.

    Returns the root span, the seconds its stage spans cover, and the stage
    outputs.
    """
    first = len(tracer.spans)
    with tracer.span("engine.query", query_id) as root:
        staged = staged_query(s3, tracer, index, g, spec, query_id)
    stages = sum(s.duration for s in tracer.spans[first + 1 :])
    return root, stages, staged


def same_candidates(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def measure_traced(s3, inputs: Inputs, seconds: float, work: Path, gate: Gate):
    """Per-layer metrics from spans, scaled like the end-to-end times."""
    g, specs = inputs.graph, inputs.specs
    graph_path, index_path = work / "graph.txt", work / "index.idx"
    s3.save_graph(g, graph_path)
    tracer = Tracer()
    clock = ScaledClock()
    span_factor: list[float] = []  # host speed factor of each span, by index

    @contextlib.contextmanager
    def window():
        """Probe-bounded timing window; yields a dict that receives its times."""
        first = len(tracer.spans)
        times: dict[str, list[float]] = {}
        clock.begin()
        yield times
        times["scaled"], times["raw"] = clock.end()
        span_factor.extend([clock.factors[-1]] * (len(tracer.spans) - first))

    with window(), tracer.span("signatures.build_aux"):
        aux = s3.build_aux(g, s3.SignatureConfig())
    with window(), tracer.span("index.partition"):
        fresh = s3.build_index(g, aux=aux)
    with window(), tracer.span("index.save"):
        s3.save_index(fresh, index_path)
    with window(), tracer.span("graph.load"):
        g_loaded = s3.load_graph(graph_path)
    with window(), tracer.span("index.load"):
        index = s3.load_index(index_path)
    check_reloaded(s3, gate, g, g_loaded, index_path, index, work)

    expected = reference_answers(s3, g, fresh, specs, gate, window, tracer)
    del fresh, aux

    for spec in specs[:WARMUP_QUERIES]:
        s3.run_query(index, g_loaded, spec)
    run_s: list[float] = []
    run_raw: list[float] = []
    glue_s: list[float] = []
    traced_total = untraced_total = 0.0
    per_query: list[tuple[int, int, int, int, float, int]] = []
    query_id = 0
    # Every query at least once, then on until --seconds of run_query time.
    while query_id < len(specs) or sum(run_raw) < seconds:
        stage_raw = []
        with window() as timed:
            for _ in range(CHUNK):
                i = query_id % len(specs)
                # The untraced and the traced call run back to back,
                # alternating which goes first, so neither gains from the
                # other's warm caches.
                traced_first = query_id % 2 == 1
                if traced_first:
                    root, stages, staged = traced_query(s3, tracer, index, g_loaded, specs[i], query_id)
                result = clock.time(s3.run_query, index, g_loaded, specs[i])
                if not traced_first:
                    root, stages, staged = traced_query(s3, tracer, index, g_loaded, specs[i], query_id)
                stage_raw.append(stages)
                traced_total += root.duration
                raw, visited, candidates, answers = staged
                gate.check(
                    answer_key(result.answers) == expected[i],
                    f"query {i}: reloaded index disagrees with run_baseline",
                )
                gate.check(
                    same_candidates(candidates, result.candidates)
                    and answer_key(answers) == answer_key(result.answers),
                    f"query {i}: staged pipeline disagrees with run_query",
                )
                if query_id < len(specs):
                    sizes = [len(c) for c in candidates]
                    per_query.append(
                        (
                            visited,
                            sum(len(c) for c in raw),
                            sum(sizes),
                            len(sizes),
                            1.0 - sum(sizes) / (g.vertex_count * len(sizes)),
                            len(answers),
                        )
                    )
                query_id += 1
        factor = clock.factors[-1]
        run_raw += timed["raw"]
        run_s += timed["scaled"]
        glue_s += [(t - st) * factor for t, st in zip(timed["raw"], stage_raw)]
        untraced_total += sum(timed["raw"])

    if len(span_factor) != len(tracer.spans):
        raise RuntimeError("a span was recorded outside a timing window")
    times = tracer.self_times(span_factor)
    visited, raw_total, exact_total, qvertices, power, answers = zip(*per_query)
    baseline = times["workbench.baseline"]
    metrics = {
        "engine.traverse_ms_p50": percentile_ms(times["engine.traverse"], 50),
        "engine.traverse_ms_p95": percentile_ms(times["engine.traverse"], 95),
        "engine.nodes_visited_mean": statistics.fmean(visited),
        "engine.refine_ms_p50": percentile_ms(times["engine.refine"], 50),
        "engine.refine_ms_p95": percentile_ms(times["engine.refine"], 95),
        "engine.recheck_ms_p50": percentile_ms(times["engine.recheck"], 50),
        "engine.hash_fp": sum(raw_total) - sum(exact_total),
        "engine.plan_ms_p50": percentile_ms(times["engine.plan"], 50),
        "engine.candidates_mean": sum(exact_total) / sum(qvertices),
        "engine.pruning_power": statistics.fmean(power),
        "engine.answers": sum(answers),
        "engine.glue_ms_p50": percentile_ms(glue_s, 50),
        "pruning.query_side_ms_p50": percentile_ms(times["pruning.query_side"], 50),
        "signatures.build_aux_s": times["signatures.build_aux"][0],
        "index.partition_s": times["index.partition"][0],
        "index.nodes": index.node_count(),
        "index.leaves": index.leaf_count(),
        "index.depth": index.depth(),
        "index.leaf_size_mean": g.vertex_count / index.leaf_count(),
        "index.save_s": times["index.save"][0],
        "index.load_s": times["index.load"][0],
        "graph.load_s": times["graph.load"][0],
        "workbench.baseline_ms_p50": percentile_ms(baseline, 50),
        "workbench.speedup_vs_baseline": statistics.fmean(baseline)
        / statistics.fmean(run_s),
        "trace.overhead_pct": 100.0 * (traced_total - untraced_total) / untraced_total,
    }
    record = {
        "run_query_s": run_s,
        "run_query_raw_s": run_raw,
        "speed_factors": clock.factors,
        "span_factors": span_factor,
    }
    return metrics, record, index_path, tracer


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    s3 = load_s3and()

    wl = workloads[args.workload]
    inputs = make_inputs(s3, wl, args.seed)
    gate = Gate()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        if args.trace:
            metrics, record, index_path, tracer = measure_traced(
                s3, inputs, args.seconds, work, gate
            )
        else:
            metrics, record, index_path = measure_untraced(
                s3, inputs, args.seconds, work, gate
            )
        finger = fingerprint(args.workload, args.seed, inputs, index_path)

    fail_ratio = gate.failed / gate.attempted
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if args.trace:
        metrics["fail_ratio"] = fail_ratio
    header = {"fingerprint": finger, "trace": args.trace, "metrics": metrics, **record}
    run_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if tracer is not None:
        tracer.write(run_path, header)
    else:
        run_path.write_text(json.dumps(header) + "\n", encoding="utf-8")

    for failure in gate.first_failures:
        print(f"perfbench: MISMATCH {failure}", file=sys.stderr)
    print("fingerprint " + json.dumps(finger, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value} {units[name]}")
    if not args.trace:
        print(f"{args.workload} fail_ratio {fail_ratio} ratio")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
