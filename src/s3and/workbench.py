"""Synthetic data, baseline search, and the benchmark harness.

Synthetic graphs follow a small-world recipe: a ring lattice where every
vertex connects to its ``ring_neighbors`` nearest neighbors on each side,
then each vertex gains one random shortcut with probability
``shortcut_probability`` (shortcuts that would duplicate an edge or form a
self-loop are dropped). Keywords are drawn per vertex without replacement
from the domain under a uniform, gaussian (discretized normal centered at
half the domain, stddev a sixth of it), or zipf (exponent 1.5 on ranked ids)
distribution.

Workload queries are connected induced subgraphs found by random walk, then
sparsified: each edge is dropped with the configured probability unless the
drop would disconnect the query. With drop probability 0 a query is an exact
induced subgraph, so it matches its own source vertices at threshold 0.

The baseline answers queries without the index: an exact keyword containment
scan over all vertices per query vertex, then the same refinement as the
engine. The benchmark harness sweeps one parameter at a time against the
defaults and emits one CSV row per (parameter value, aggregate, sigma) cell.
Cells run one after another in one thread, so each query's wall time is
measured without a competing cell; every cell derives its own RNG stream
from (seed, cell index), so a cell's rows do not depend on the others.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .engine import Ablation, QueryResult, make_query_plan, refine, run_query
from .graph import DataGraph, QueryGraph, induced_subgraph, is_connected, make_graph
from .index import IndexConfig, build_index
from .semantics import AggregateKind, QuerySpec, keyword_feasible
from .signatures import SignatureConfig, build_aux

__all__ = [
    "SyntheticSpec",
    "WorkloadSpec",
    "BenchConfig",
    "BenchRow",
    "generate_graph",
    "generate_workload",
    "run_baseline",
    "run_benchmark",
    "write_bench_csv",
    "write_bench_json",
]

DESK_SCALE_LIMIT = 100_000

DEFAULT_SIGMA = {AggregateKind.MAX: 1, AggregateKind.SUM: 3}

# every cell runs under these; the JSON report echoes them
DEFAULT_AGGREGATE = AggregateKind.MAX
SIG_CONFIG = SignatureConfig()
INDEX_CONFIG = IndexConfig()

DEFAULT_SWEEPS: dict[str, tuple] = {
    "sigma_max": (1, 2, 3, 4),
    "sigma_sum": (2, 3, 4, 5),
    "keywords_per_vertex": (1, 2, 3, 4, 5),
    "keyword_domain_size": (10, 20, 50, 80),
    "query_size": (3, 5, 8, 10),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic data graph."""

    vertex_count: int = 50_000
    ring_neighbors: int = 2
    shortcut_probability: float = 0.1
    keyword_domain_size: int = 50
    keywords_per_vertex: int = 3
    distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        if self.vertex_count > DESK_SCALE_LIMIT:
            raise ValueError(
                f"vertex_count {self.vertex_count} exceeds the supported "
                f"desk-scale limit of {DESK_SCALE_LIMIT}"
            )
        if self.ring_neighbors < 1:
            raise ValueError("ring_neighbors must be at least 1")
        if not 0.0 <= self.shortcut_probability <= 1.0:
            raise ValueError("shortcut_probability must be in [0, 1]")
        if self.keywords_per_vertex < 1:
            raise ValueError("keywords_per_vertex must be at least 1")
        if self.keywords_per_vertex > self.keyword_domain_size:
            raise ValueError("keywords_per_vertex cannot exceed the keyword domain")
        if self.distribution not in ("uniform", "gaussian", "zipf"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one query workload."""

    query_count: int = 100
    query_size: int = 5
    edge_drop_probability: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.query_count < 1:
            raise ValueError("query_count must be positive")
        if self.query_size < 1:
            raise ValueError("query_size must be at least 1")
        if not 0.0 <= self.edge_drop_probability <= 1.0:
            raise ValueError("edge_drop_probability must be in [0, 1]")


def _keyword_weights(spec: SyntheticSpec) -> np.ndarray | None:
    size = spec.keyword_domain_size
    if spec.distribution == "uniform":
        return None
    ids = np.arange(size, dtype=np.float64)
    if spec.distribution == "gaussian":
        center = size / 2.0
        stddev = size / 6.0
        weights = np.exp(-0.5 * ((ids - center) / stddev) ** 2)
    else:  # zipf
        weights = (ids + 1.0) ** -1.5
    return weights / weights.sum()


def generate_graph(spec: SyntheticSpec) -> DataGraph:
    """Small-world graph with keyword labels, deterministic in ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    n = spec.vertex_count
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for d in range(1, spec.ring_neighbors + 1):
            j = (i + d) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    for i in range(n):
        if rng.random() < spec.shortcut_probability:
            w = int(rng.integers(0, n))
            if w == i:
                continue
            key = (min(i, w), max(i, w))
            if key not in edges:
                edges.add(key)
    weights = _keyword_weights(spec)
    domain = spec.keyword_domain_size
    keywords = [
        sorted(
            int(k)
            for k in rng.choice(
                domain, size=spec.keywords_per_vertex, replace=False, p=weights
            )
        )
        for _ in range(n)
    ]
    width = len(str(domain - 1))
    names = [str(i).zfill(width) for i in range(domain)]
    return make_graph(n, sorted(edges), keywords, names)


def _sample_connected(g: DataGraph, size: int, rng: np.random.Generator) -> list[int]:
    """Random-walk sample of a connected vertex set of the requested size."""
    if size > g.vertex_count:
        raise ValueError(f"cannot sample {size} vertices from {g.vertex_count}")
    for _ in range(1000):
        start = int(rng.integers(0, g.vertex_count))
        picked = {start}
        if len(picked) == size:
            return sorted(picked)
        cur = start
        for _ in range(size * 50):
            nbrs = g.adjacency[cur]
            if not nbrs:
                break
            cur = int(nbrs[rng.integers(0, len(nbrs))])
            picked.add(cur)
            if len(picked) == size:
                return sorted(picked)
        if len(picked) == size:
            return sorted(picked)
    raise ValueError(
        f"could not sample a connected {size}-vertex subgraph; "
        "the graph may have only smaller components"
    )


def generate_workload(
    g: DataGraph, spec: WorkloadSpec
) -> list[QueryGraph]:
    """Sample query graphs from ``g``; keyword sets are copied from the sources."""
    rng = np.random.default_rng(spec.seed)
    queries: list[QueryGraph] = []
    for _ in range(spec.query_count):
        vs = _sample_connected(g, spec.query_size, rng)
        relabel = {v: i for i, v in enumerate(vs)}
        kept = {
            (relabel[u], relabel[v]) for u, v in induced_subgraph(g, vs)
        }
        keywords = [list(g.keywords[v]) for v in vs]
        query = make_graph(len(vs), sorted(kept), keywords, g.keyword_names)
        for edge in sorted(kept):
            if rng.random() < spec.edge_drop_probability:
                trial = kept - {edge}
                trial_q = make_graph(len(vs), sorted(trial), keywords, g.keyword_names)
                if is_connected(trial_q):
                    kept = trial
                    query = trial_q
        queries.append(query)
    return queries


def run_baseline(g: DataGraph, spec: QuerySpec) -> QueryResult:
    """Index-free reference run: exact keyword scan, then the same refinement."""
    t0 = time.perf_counter()
    q = spec.query
    candidates = [
        np.array(
            [v for v in range(g.vertex_count) if keyword_feasible(g, q, qj, v)],
            dtype=np.int64,
        )
        for qj in range(q.vertex_count)
    ]
    plan = make_query_plan(q, candidates)
    if all(map(len, candidates)):
        answers = refine(g, q, plan, candidates, spec.aggregate, spec.sigma)
    else:
        answers = []
    return QueryResult.measured(g, q, t0, candidates, answers)


# --- benchmark harness ----------------------------------------------------


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark campaign: defaults plus the parameters to sweep."""

    base: SyntheticSpec = SyntheticSpec()
    workload: WorkloadSpec = WorkloadSpec()
    sweeps: tuple[str, ...] = tuple(DEFAULT_SWEEPS)
    ablation: Ablation = Ablation.KS_LB_TIGHT
    seed: int = 0

    def __post_init__(self) -> None:
        for name in self.sweeps:
            if name not in DEFAULT_SWEEPS:
                raise ValueError(
                    f"unknown sweep {name!r}, expected one of {sorted(DEFAULT_SWEEPS)}"
                )


@dataclass(frozen=True)
class BenchRow:
    """One CSV row: a swept parameter value measured over a whole workload."""

    param_name: str
    param_value: object
    agg: str
    sigma: int
    pruning_power: float
    wall_ms_engine: float
    wall_ms_baseline: float
    answers: int


@dataclass(frozen=True)
class _Cell:
    index: int
    param_name: str
    param_value: object
    aggregate: AggregateKind
    sigma: int
    graph_spec: SyntheticSpec
    workload_spec: WorkloadSpec


def _build_cells(cfg: BenchConfig) -> list[_Cell]:
    cells: list[_Cell] = []
    default_sigma = DEFAULT_SIGMA[DEFAULT_AGGREGATE]
    for sweep in cfg.sweeps:
        for value in DEFAULT_SWEEPS[sweep]:
            agg, sigma = DEFAULT_AGGREGATE, default_sigma
            gspec, wspec = cfg.base, cfg.workload
            if sweep == "sigma_max":
                agg, sigma = AggregateKind.MAX, int(value)
            elif sweep == "sigma_sum":
                agg, sigma = AggregateKind.SUM, int(value)
            elif sweep == "keywords_per_vertex":
                gspec = replace(gspec, keywords_per_vertex=int(value))
            elif sweep == "keyword_domain_size":
                gspec = replace(
                    gspec,
                    keyword_domain_size=int(value),
                    keywords_per_vertex=min(
                        gspec.keywords_per_vertex, int(value)
                    ),
                )
            elif sweep == "query_size":
                wspec = replace(wspec, query_size=int(value))
            cells.append(
                _Cell(len(cells), sweep, value, agg, sigma, gspec, wspec)
            )
    return cells


def _run_cell(cell: _Cell, cfg: BenchConfig) -> BenchRow:
    seeds = np.random.SeedSequence([cfg.seed, cell.index]).generate_state(2)
    gspec = replace(cell.graph_spec, seed=int(seeds[0]))
    wspec = replace(cell.workload_spec, seed=int(seeds[1]))
    g = generate_graph(gspec)
    index = build_index(g, INDEX_CONFIG, build_aux(g, SIG_CONFIG))
    queries = generate_workload(g, wspec)
    powers: list[float] = []
    engine_ms: list[float] = []
    baseline_ms: list[float] = []
    answer_total = 0
    for q in queries:
        spec = QuerySpec(query=q, aggregate=cell.aggregate, sigma=cell.sigma)
        engine = run_query(index, g, spec, ablation=cfg.ablation)
        baseline = run_baseline(g, spec)
        if [a.mapping for a in engine.answers] != [a.mapping for a in baseline.answers]:
            raise AssertionError(
                f"engine and baseline disagree on cell {cell.param_name}="
                f"{cell.param_value}"
            )
        powers.append(engine.stats.pruning_power)
        engine_ms.append(engine.stats.wall_ms)
        baseline_ms.append(baseline.stats.wall_ms)
        answer_total += len(engine.answers)
    return BenchRow(
        param_name=cell.param_name,
        param_value=cell.param_value,
        agg=cell.aggregate.value,
        sigma=cell.sigma,
        pruning_power=float(np.mean(powers)),
        wall_ms_engine=float(np.mean(engine_ms)),
        wall_ms_baseline=float(np.mean(baseline_ms)),
        answers=answer_total,
    )


def run_benchmark(cfg: BenchConfig) -> list[BenchRow]:
    """Run every cell of the campaign; row order follows the sweep definition."""
    return [_run_cell(cell, cfg) for cell in _build_cells(cfg)]


CSV_FIELDS = (
    "param_name",
    "param_value",
    "agg",
    "sigma",
    "pruning_power",
    "wall_ms_engine",
    "wall_ms_baseline",
    "answers",
)


def write_bench_csv(rows: Sequence[BenchRow], out: IO[str]) -> None:
    writer = csv.writer(out)
    writer.writerow(CSV_FIELDS)
    for row in rows:
        writer.writerow([getattr(row, f) for f in CSV_FIELDS])


def write_bench_json(cfg: BenchConfig, rows: Sequence[BenchRow], path: str | Path) -> None:
    """Full report: the configuration echo plus every row."""
    doc = {
        "config": {
            "graph": vars(cfg.base).copy(),
            "workload": vars(cfg.workload).copy(),
            "sweeps": list(cfg.sweeps),
            "default_aggregate": DEFAULT_AGGREGATE.value,
            "signature": vars(SIG_CONFIG).copy(),
            "index": vars(INDEX_CONFIG).copy(),
            "ablation": cfg.ablation.value,
            "seed": cfg.seed,
        },
        "rows": [
            {f: getattr(row, f) for f in CSV_FIELDS} for row in rows
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
