"""Subgraph similarity search under aggregated neighbor differences.

The package answers this question over a keyword-labeled graph: given a
small connected query graph, find every same-sized connected induced
subgraph whose vertices cover the query keywords and whose aggregated
neighbor difference (max or sum over query vertices) stays within a
threshold. Search runs through keyword signatures, degree based lower
bounds, and a balanced signature tree; an exhaustive oracle and an
index-free baseline give reference answers.
"""

from .graph import (
    DataGraph,
    GraphParseError,
    GraphValidationError,
    QueryGraph,
    format_graph,
    induced_subgraph,
    is_connected,
    load_graph,
    load_query,
    make_graph,
    parse_graph,
    parse_query,
    save_graph,
)
from .semantics import (
    AggregateKind,
    MatchAnswer,
    QuerySpec,
    aggregated_neighbor_difference,
    format_answers,
    is_answer,
    keyword_feasible,
    neighbor_difference,
    oracle_search,
    sort_answers,
)
from .signatures import (
    AuxData,
    SignatureConfig,
    build_aux,
    build_bit_vectors,
    exact_keywords,
)
from .pruning import (
    QuerySideData,
    build_query_side,
    degree_shortfall,
    keyword_contained,
    uncovered_neighbors,
)
from .index import (
    IndexConfig,
    IndexFormatError,
    IndexIntegrityError,
    SubgraphIndex,
    build_index,
    load_index,
    save_index,
)
from .engine import (
    Ablation,
    QueryResult,
    QueryStats,
    collect_candidates,
    exact_keyword_filter,
    make_query_plan,
    neighbor_support_filter,
    refine,
    run_query,
)
from .workbench import (
    BenchConfig,
    BenchRow,
    SyntheticSpec,
    WorkloadSpec,
    generate_graph,
    generate_workload,
    run_baseline,
    run_benchmark,
    write_bench_csv,
    write_bench_json,
)

__version__ = "0.1.0"

__all__ = [
    # graphs
    "DataGraph",
    "QueryGraph",
    "GraphParseError",
    "GraphValidationError",
    "make_graph",
    "parse_graph",
    "parse_query",
    "load_graph",
    "load_query",
    "save_graph",
    "format_graph",
    "induced_subgraph",
    "is_connected",
    # semantics and the oracle
    "AggregateKind",
    "QuerySpec",
    "MatchAnswer",
    "neighbor_difference",
    "aggregated_neighbor_difference",
    "keyword_feasible",
    "is_answer",
    "oracle_search",
    "sort_answers",
    "format_answers",
    # signatures
    "SignatureConfig",
    "AuxData",
    "build_bit_vectors",
    "exact_keywords",
    "build_aux",
    # pruning
    "QuerySideData",
    "build_query_side",
    "keyword_contained",
    "uncovered_neighbors",
    "degree_shortfall",
    # index
    "IndexConfig",
    "SubgraphIndex",
    "IndexFormatError",
    "IndexIntegrityError",
    "build_index",
    "save_index",
    "load_index",
    # engine
    "Ablation",
    "QueryStats",
    "QueryResult",
    "collect_candidates",
    "exact_keyword_filter",
    "make_query_plan",
    "neighbor_support_filter",
    "refine",
    "run_query",
    # workbench
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
    "__version__",
]
