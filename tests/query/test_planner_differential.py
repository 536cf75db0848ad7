"""Differential harness: planned execution vs the reference evaluators.

The planner only changes *how* basic graph patterns and MATCH paths are
enumerated, so every query must return bag-identical results from the
``planner=False`` reference arm and from the planned batch operators —
on both engines.  This file checks that over randomized schemas/data
(hypothesis), over the fixed university fixture with multi-pattern
star/chain joins, on the hub-skewed fixtures, and through the
``planner_differential`` fuzz oracle.  (Both join operators are pinned
against the reference directly in ``test_vectorized.py``, whatever the
cost model picks here.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import DEFAULT_OPTIONS, MONOTONE_OPTIONS, S3PG
from repro.datasets.university import university_graph, university_shapes
from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows
from repro.pg import PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine, SparqlToCypherTranslator

from tests.core.test_properties import schema_and_data

# (tag, engine kwargs) — shared by both engines.
STRATEGIES = (
    ("reference", {"planner": False}),
    ("planned", {}),
)

PREFIX = "PREFIX uni: <http://example.org/university#>\n"

# Multi-pattern join shapes over the Figure 2 university data: a chain
# (student -> advisor -> department -> university), a star around the
# advisor, and friends.  All LIMIT-free: LIMIT without ORDER BY may
# truncate any subset, so correct plans could legitimately disagree.
UNIVERSITY_SPARQL = [
    PREFIX + "SELECT ?s WHERE { ?s a uni:Student . }",
    PREFIX + "SELECT ?s ?n WHERE { ?s a uni:Student ; uni:name ?n . }",
    PREFIX
    + "SELECT ?s ?d WHERE { ?s a uni:Student ; uni:advisedBy ?p . "
    "?p uni:worksFor ?d . }",
    PREFIX
    + "SELECT ?s ?u WHERE { ?s uni:advisedBy ?p . ?p uni:worksFor ?d . "
    "?d uni:partOf ?u . }",
    PREFIX
    + "SELECT ?p ?n ?d WHERE { ?p a uni:Professor ; uni:name ?n ; "
    "uni:worksFor ?d . }",
    PREFIX
    + "SELECT ?a ?b WHERE { ?a uni:advisedBy ?p . ?b uni:advisedBy ?p . }",
    PREFIX
    + "SELECT ?s ?c WHERE { ?s a uni:Student ; uni:takesCourse ?c ; "
    "uni:advisedBy ?p . }",
    PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?s uni:advisedBy ?p . "
    "?p uni:worksFor ?d . }",
]


def _sparql_bags(graph, query):
    return [
        (tag, normalize_sparql_rows(SparqlEngine(graph, **kwargs).query(query)))
        for tag, kwargs in STRATEGIES
    ]


def _cypher_bags(store, query):
    return [
        (tag, normalize_cypher_rows(CypherEngine(store, **kwargs).query(query)))
        for tag, kwargs in STRATEGIES
    ]


def _assert_all_equal(bags, query):
    base_tag, base = bags[0]
    for tag, rows in bags[1:]:
        assert rows == base, (query, base_tag, tag)


@pytest.fixture(scope="module")
def university():
    graph = university_graph()
    result = S3PG().transform(graph, university_shapes())
    return graph, result


def test_university_sparql_strategies_agree(university):
    graph, _ = university
    for query in UNIVERSITY_SPARQL:
        bags = _sparql_bags(graph, query)
        _assert_all_equal(bags, query)


def test_university_cypher_strategies_agree(university):
    graph, result = university
    store = PropertyGraphStore(result.graph)
    translator = SparqlToCypherTranslator(result.mapping)
    nonempty = 0
    for query in UNIVERSITY_SPARQL:
        cypher = translator.translate_text(query)
        bags = _cypher_bags(store, cypher)
        _assert_all_equal(bags, cypher)
        nonempty += bool(bags[0][1])
    assert nonempty >= 6  # the workload actually exercises the data


def test_cypher_nullable_shared_var(university):
    """OPTIONAL MATCH may bind a variable to null; a later MATCH treats
    it as unbound and rebinds.  Hash joins cannot express that, so the
    planner must keep the path correlated and stay bag-equal with the
    reference evaluator."""
    _, result = university
    store = PropertyGraphStore(result.graph)
    query = (
        "MATCH (s:uni_Person) "
        "OPTIONAL MATCH (s)-[:uni_advisedBy]->(p) "
        "MATCH (p)-[:uni_worksFor]->(d) "
        "RETURN s.iri AS s, p.iri AS p, d.iri AS d"
    )
    bags = _cypher_bags(store, query)
    assert bags[0][1], "query must return rows for the check to bite"
    _assert_all_equal(bags, query)


def _workload(schema):
    queries = []
    for shape in schema:
        queries.append(f"SELECT ?e WHERE {{ ?e a <{shape.target_class}> . }}")
        for phi in schema.effective_property_shapes(shape.name)[:2]:
            queries.append(
                f"SELECT ?e ?v WHERE {{ ?e a <{shape.target_class}> ; "
                f"<{phi.path}> ?v . }}"
            )
    return queries[:8]


@given(schema_and_data())
@settings(max_examples=20, deadline=None)
def test_random_sparql_strategies_agree(pair):
    schema, graph = pair
    for query in _workload(schema):
        _assert_all_equal(_sparql_bags(graph, query), query)


@given(schema_and_data())
@settings(max_examples=10, deadline=None)
def test_random_cypher_strategies_agree(pair):
    schema, graph = pair
    for options in (DEFAULT_OPTIONS, MONOTONE_OPTIONS):
        result = S3PG(options).transform(graph, schema)
        store = PropertyGraphStore(result.graph)
        translator = SparqlToCypherTranslator(result.mapping)
        for query in _workload(schema):
            cypher = translator.translate_text(query)
            _assert_all_equal(_cypher_bags(store, cypher), cypher)


def test_skewed_catalog_stays_bag_equal():
    """Plans made on badly wrong estimates still return the reference bag.

    Both engines: the static per-binding fanout estimate is low by more
    than 4x on the hub-skewed fixtures.
    """
    from repro.fuzz.oracles import _skewed_pg, _skewed_rdf

    graph, sparql = _skewed_rdf(seed=7)
    bags = _sparql_bags(graph, sparql)
    assert bags[0][1], "query must return rows for the check to bite"
    _assert_all_equal(bags, sparql)

    pg, cypher = _skewed_pg(seed=7)
    bags = _cypher_bags(PropertyGraphStore(pg), cypher)
    assert bags[0][1], "query must return rows for the check to bite"
    _assert_all_equal(bags, cypher)


def test_fuzz_oracle_campaign():
    """The reference-vs-planned oracle stays green over >= 300 seeded
    cases per engine (each including its hub-skewed sibling dataset)."""
    from repro.fuzz import run_fuzz

    report = run_fuzz(
        seed=0,
        cases=800,
        oracle_names=["planner_differential"],
        corpus_dir=None,
    )
    assert report.ok, report.failures
    # Each oracle run exercises both engines, so >= 300 runs means
    # >= 300 seeded cases per engine.
    assert report.oracle_runs.get("planner_differential", 0) >= 300
