"""Graph text format, validation, interning, and small structural helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3and import (
    GraphParseError,
    GraphValidationError,
    format_graph,
    induced_subgraph,
    is_connected,
    make_graph,
    parse_graph,
    parse_query,
)
from s3and.graph import DUMMY_KEYWORD

from conftest import TEAM_GRAPH_TEXT, TEAM_QUERY_TEXT, edge_list


def test_team_fixture_counts(team_graph):
    assert team_graph.vertex_count == 12
    assert team_graph.edge_count == 13


def test_team_interning_is_sorted(team_graph):
    assert team_graph.keyword_names == (
        "backend",
        "data",
        "design",
        "frontend",
        "legal",
        "ml",
        "sales",
        "systems",
    )
    # vertex 0 carries "ml", which interned to id 5
    assert team_graph.keywords[0] == (5,)
    assert team_graph.keywords[5] == (1, 5)  # data, ml


def test_neighbors_of_vertex_1(team_graph):
    assert team_graph.adjacency[1] == (0, 2, 3)


def test_neighbors_isolated_vertex():
    g = make_graph(3, [(0, 1)], [[0], [0], [0]], ["x"])
    assert g.adjacency[2] == ()


def test_neighbors_complete_graph():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = make_graph(4, edges, [[0]] * 4, ["x"])
    for v in range(4):
        assert set(g.adjacency[v]) == set(range(4)) - {v}


def test_induced_subgraph_team_core(team_graph):
    got = induced_subgraph(team_graph, range(5))
    assert got == frozenset(
        {(0, 1), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)}
    )


def test_induced_subgraph_single_vertex(team_graph):
    assert induced_subgraph(team_graph, [7]) == frozenset()


def test_induced_subgraph_matches_pairwise_scan():
    import numpy as np

    rng = np.random.default_rng(5)
    edges = sorted(
        {
            (int(min(u, v)), int(max(u, v)))
            for u, v in rng.integers(0, 8, (12, 2))
            if u != v
        }
    )
    g = make_graph(8, edges, [[0]] * 8, ["x"])
    vs = [0, 2, 5, 7]
    expect = {
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if v in g.adjacency_sets[u]
    }
    assert induced_subgraph(g, vs) == frozenset(expect)


def test_is_connected_team_core(team_graph):
    assert is_connected(team_graph, range(5))


def test_is_connected_two_isolated_vertices():
    g = make_graph(2, [], [[0], [0]], ["x"])
    assert not is_connected(g)


def test_is_connected_broken_path():
    # path 0-1-2-3-4 without the middle edge
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)], [[0]] * 5, ["x"])
    assert not is_connected(g)
    assert is_connected(g, [0, 1, 2])
    assert is_connected(g, [3, 4])


def test_format_parse_round_trip(team_graph):
    assert parse_graph(format_graph(team_graph)) == team_graph


def test_parse_is_idempotent_through_serialization():
    g1 = parse_graph(TEAM_GRAPH_TEXT)
    g2 = parse_graph(format_graph(g1))
    assert g1 == g2
    assert format_graph(g1) == format_graph(g2)


def test_empty_keyword_vertex_gets_dummy():
    g = parse_graph("t 2 1\nv 0\nv 1 alpha\ne 0 1\n")
    assert DUMMY_KEYWORD in g.keyword_names
    dummy_id = g.keyword_names.index(DUMMY_KEYWORD)
    assert g.keywords[0] == (dummy_id,)


def test_query_empty_keyword_vertex_gets_dummy(team_graph):
    q = parse_query("t 2 1\nv 0\nv 1 ml\ne 0 1\n", team_graph)
    assert q.keyword_names[q.keywords[0][0]] == DUMMY_KEYWORD
    assert q.keyword_names[q.keywords[1][0]] == "ml"


def test_degree_helpers(team_graph):
    assert list(team_graph.degree_vector) == [
        3, 3, 2, 4, 2, 2, 2, 2, 2, 2, 1, 1,
    ]


PARSE_ERRORS = [
    ("t 2 1\nv 0 a\nv 1 a\ne 0 0\n", "u < v"),
    ("t 2 2\nv 0 a\nv 1 a\ne 0 1\ne 0 1\n", "duplicate"),
    ("t 2 1\nv 0 a\nv 1 a\ne 0 5\n", "unknown vertex"),
    ("t 2 1\nv 0 a\nv 1 a\ne 1 0\n", "u < v"),
    ("t 2 0\nv 0 a\nv 1 a\nx 1 2\n", "record"),
    ("t 2 0\nv 0 a\n", "header declares"),
    ("t 2 1\nv 0 a\nv 1 a\n", "header declares 1 edges"),
    ("t 2 0\nv 0 a\nv 2 a\n", "outside [0, 2)"),
    ("t two 0\n", "header"),
    ("v 0 a\n", "header"),
]


def _parse_as_query(text: str):
    return parse_query(text, parse_graph(TEAM_GRAPH_TEXT))


# every case runs through both parsers; the data graph cases are named by
# the case alone, the query cases get a "query-" prefix
@pytest.mark.parametrize(
    "parse, text, fragment",
    [pytest.param(parse_graph, t, f, id=f"{t}-{f}") for t, f in PARSE_ERRORS]
    + [pytest.param(_parse_as_query, t, f, id=f"query-{t}-{f}") for t, f in PARSE_ERRORS],
)
def test_parse_errors(parse, text, fragment):
    with pytest.raises((GraphParseError, GraphValidationError)) as err:
        parse(text)
    assert fragment in str(err.value).lower()


def test_parse_error_reports_line_number():
    with pytest.raises(GraphParseError) as err:
        parse_graph("t 2 1\nv 0 a\nv 1 a\ne 0 0\n")
    assert "line 4" in str(err.value)


def test_make_graph_rejects_self_loop():
    with pytest.raises(GraphValidationError) as err:
        make_graph(2, [(0, 0)], [[0], [0]], ["x"])
    assert "self-loop" in str(err.value)


def test_make_graph_rejects_reversed_duplicate_edge():
    with pytest.raises(GraphValidationError) as err:
        make_graph(3, [(2, 1), (1, 2)], [[0], [0], [0]], ["x"])
    assert "duplicate edge (1, 2)" in str(err.value)


def test_set_views_are_derived_on_first_use(team_graph):
    # a loaded graph holds only its tuples until a caller reads a view
    g = parse_graph(TEAM_GRAPH_TEXT)
    views = {"adjacency_sets", "keyword_sets"}
    assert not views & vars(g).keys()
    assert g.edge_count == 13
    assert not views & vars(g).keys()
    assert g.adjacency_sets[3] == frozenset(g.adjacency[3])
    assert g.keyword_sets[0] == frozenset({5})
    assert views <= vars(g).keys()
    assert g == team_graph


def test_make_graph_rejects_bad_keyword_id():
    with pytest.raises(GraphValidationError):
        make_graph(1, [], [[3]], ["only"])


def test_parse_query_shares_base_interning(team_graph):
    q = parse_query(TEAM_QUERY_TEXT, team_graph)
    assert q.keyword_names[: team_graph.keyword_domain_size] == team_graph.keyword_names
    assert q.keywords[0] == (5,)  # ml under the base table


def test_parse_query_unknown_tokens_get_fresh_ids(team_graph):
    q = parse_query("t 1 0\nv 0 zzz,ml\n", team_graph)
    base = team_graph.keyword_domain_size
    assert "zzz" in q.keyword_names
    assert q.keyword_names.index("zzz") >= base


def test_parse_query_rejects_disconnected(team_graph):
    with pytest.raises(GraphValidationError):
        parse_query("t 2 0\nv 0 ml\nv 1 data\n", team_graph)


@st.composite
def graph_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    domain = draw(st.integers(min_value=1, max_value=5))
    keywords = [
        sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=domain - 1),
                    min_size=1,
                    max_size=domain,
                )
            )
        )
        for _ in range(n)
    ]
    names = [f"k{i}" for i in range(domain)]
    return make_graph(n, sorted(edges), keywords, names)


@settings(max_examples=40, deadline=None)
@given(graph_strategy())
def test_round_trip_random_graphs(g):
    text = format_graph(g)
    again = parse_graph(text)
    assert again.adjacency == g.adjacency
    assert edge_list(again) == edge_list(g) and again.edge_count == len(edge_list(g))
    assert again.adjacency_sets == tuple(frozenset(a) for a in g.adjacency)
    assert format_graph(again) == text
