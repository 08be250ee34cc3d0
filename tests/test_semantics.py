"""Matching semantics: neighbor differences, the answer predicate, the oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3and import (
    AggregateKind,
    QuerySpec,
    aggregated_neighbor_difference,
    format_answers,
    is_answer,
    keyword_feasible,
    make_graph,
    neighbor_difference,
    oracle_search,
    parse_query,
    sort_answers,
)

from conftest import TEAM_MAPPING, TEAM_NDS, mapping_set, naive_answers, random_instance


def test_neighbor_difference_golds(team_graph, team_query):
    assert neighbor_difference(team_graph, team_query, TEAM_MAPPING, 0) == 1
    assert neighbor_difference(team_graph, team_query, TEAM_MAPPING, 1) == 0
    got = tuple(
        neighbor_difference(team_graph, team_query, TEAM_MAPPING, qj)
        for qj in range(5)
    )
    assert got == TEAM_NDS


def test_aggregate_golds(team_graph, team_query):
    assert (
        aggregated_neighbor_difference(
            team_graph, team_query, TEAM_MAPPING, AggregateKind.MAX
        )
        == 2
    )
    assert (
        aggregated_neighbor_difference(
            team_graph, team_query, TEAM_MAPPING, AggregateKind.SUM
        )
        == 4
    )


def test_is_answer_thresholds(team_graph, team_query):
    assert is_answer(team_graph, team_query, TEAM_MAPPING, AggregateKind.MAX, 2)
    assert not is_answer(team_graph, team_query, TEAM_MAPPING, AggregateKind.MAX, 1)
    assert is_answer(team_graph, team_query, TEAM_MAPPING, AggregateKind.SUM, 4)
    assert not is_answer(team_graph, team_query, TEAM_MAPPING, AggregateKind.SUM, 3)


def test_is_answer_requires_containment(team_graph, team_query):
    # map the ml query vertex onto the backend-only vertex 7
    broken = (7, 1, 2, 3, 4)
    for sigma in (0, 5, 100):
        assert not is_answer(team_graph, team_query, broken, AggregateKind.MAX, sigma)


def test_is_answer_requires_injectivity_and_connectivity(team_graph, team_query):
    assert not is_answer(
        team_graph, team_query, (0, 1, 2, 3, 3), AggregateKind.MAX, 99
    )
    # keyword-feasible images that do not induce a connected subgraph:
    # vertex 10 (systems) is far from the 0..4 cluster
    scattered = (0, 1, 10, 3, 4)
    assert keyword_feasible(team_graph, team_query, 2, 10)
    assert not is_answer(team_graph, team_query, scattered, AggregateKind.MAX, 99)


def test_oracle_finds_team(team_graph, team_query):
    answers = oracle_search(team_graph, team_query, AggregateKind.MAX, 2)
    assert TEAM_MAPPING in mapping_set(answers)
    scores = {a.mapping: a.and_score for a in answers}
    assert scores[TEAM_MAPPING] == 2


def test_oracle_triangle_permutations():
    tri = [(0, 1), (0, 2), (1, 2)]
    g = make_graph(3, tri, [[0]] * 3, ["x"])
    q = make_graph(3, tri, [[0]] * 3, ["x"])
    answers = oracle_search(g, q, AggregateKind.SUM, 3 * 3)
    assert mapping_set(answers) == sorted(itertools.permutations(range(3)))


def test_oracle_absent_keyword_empty(team_graph):
    q = parse_query("t 1 0\nv 0 quantum\n", team_graph)
    assert oracle_search(team_graph, q, AggregateKind.MAX, 99) == []


def test_oracle_equals_naive_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(12):
        g, q = random_instance(rng, max_vertices=9, max_query=4, min_vertices=6)
        for agg in AggregateKind:
            sigma = int(rng.integers(0, 5))
            got = mapping_set(oracle_search(g, q, agg, sigma))
            assert got == naive_answers(g, q, agg, sigma)


def test_aggregate_parse():
    assert AggregateKind.parse("max") is AggregateKind.MAX
    assert AggregateKind.parse("SUM") is AggregateKind.SUM
    with pytest.raises(ValueError) as err:
        AggregateKind.parse("avg")
    assert "sum" in str(err.value).lower()
    with pytest.raises(ValueError):
        AggregateKind.parse("median")


def test_query_spec_validation(team_query):
    with pytest.raises(ValueError):
        QuerySpec(query=team_query, aggregate=AggregateKind.MAX, sigma=-1)
    spec = QuerySpec(query=team_query, aggregate=AggregateKind.MAX, sigma=0)
    assert spec.sigma == 0


def test_answer_formatting(team_graph, team_query):
    answers = oracle_search(team_graph, team_query, AggregateKind.MAX, 2)
    assert format_answers(answers[:1]) == "a 2 0:0 1:1 2:2 3:3 4:4\n"
    text = format_answers(answers)
    assert text.endswith("\n")
    assert text.count("\n") == len(answers) > 1
    assert format_answers([]) == ""


def test_sort_answers_is_canonical(team_graph, team_query):
    answers = oracle_search(team_graph, team_query, AggregateKind.SUM, 8)
    keys = [(a.and_score, a.mapping) for a in sort_answers(answers)]
    assert keys == sorted(keys)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_oracle_answers_pass_is_answer(seed):
    rng = np.random.default_rng(seed)
    g, q = random_instance(rng, max_vertices=14, max_query=4)
    agg = AggregateKind.MAX if seed % 2 else AggregateKind.SUM
    sigma = int(rng.integers(0, 4))
    answers = oracle_search(g, q, agg, sigma)
    mappings = [a.mapping for a in answers]
    assert len(set(mappings)) == len(mappings)
    for a in answers:
        assert is_answer(g, q, a.mapping, agg, sigma)
        assert a.and_score == aggregated_neighbor_difference(g, q, a.mapping, agg)
        assert a.and_score <= sigma
