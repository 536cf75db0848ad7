"""Cardinality feedback: q-errors reach the tracker and the histogram.

Every planned execution carries its worst q-error (estimate vs actual
over the physical operators).  A query's report folds the worst of its
executions into its statement in the workload tracker and observes each
execution's into ``repro_plan_q_error``.  These tests pin the q-error
math, the sanity of the recorded numbers on the university workload
(both engines), and the accounting of reruns across catalog versions.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.core import S3PG
from repro.datasets.university import (
    UNIVERSITY_CYPHER_WORKLOAD,
    generate_university,
    university_graph,
    university_shapes,
    university_workload,
)
from repro.pg import PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine
from repro.query.plan import q_error
from repro.rdf.terms import IRI, Triple

PREFIX = "PREFIX uni: <http://example.org/university#>\n"


@pytest.fixture()
def tracker():
    obs.get_metrics().reset()
    yield obs.install_workload()
    obs.uninstall_workload()
    obs.get_metrics().reset()


def test_q_error_math():
    assert q_error(10, 10) == 1.0
    assert q_error(1, 100) == 100.0
    assert q_error(100, 1) == 100.0
    # Zero estimates/actuals are floored at one row, never div-by-zero.
    assert q_error(0, 0) == 1.0
    assert q_error(0, 5) == 5.0
    assert q_error(5, 0) == 5.0


def test_q_error_boundaries_are_sorted_and_start_at_one():
    assert obs.Q_ERROR_BOUNDARIES[0] == 1.0
    assert list(obs.Q_ERROR_BOUNDARIES) == sorted(obs.Q_ERROR_BOUNDARIES)


def _check_statements_sanity(tracker, expected_statements):
    statements = tracker.snapshot()
    assert len(statements) == expected_statements
    for statement in statements:
        assert statement["calls"] == 1
        assert math.isfinite(statement["q_error_max"])
        assert 1.0 <= statement["q_error_max"] < 1000.0, statement
        assert statement["q_error_mean"] <= statement["q_error_max"]


def test_sparql_feedback_on_university_workload(tracker):
    engine = SparqlEngine(generate_university(scale=0.25, seed=7))
    qids = list(university_workload())
    for _qid, _category, query in qids:
        engine.query(query)
    _check_statements_sanity(tracker, expected_statements=len(qids))


def test_cypher_feedback_on_university_workload(tracker):
    graph = generate_university(scale=0.25, seed=7)
    result = S3PG().transform(graph, university_shapes())
    engine = CypherEngine(PropertyGraphStore(result.graph))
    for _qid, _category, query in UNIVERSITY_CYPHER_WORKLOAD:
        engine.query(query)
    _check_statements_sanity(
        tracker, expected_statements=len(UNIVERSITY_CYPHER_WORKLOAD)
    )


def test_feedback_keyed_by_plan_cache_key(tracker):
    engine = SparqlEngine(university_graph())
    query = PREFIX + (
        "SELECT ?s ?d WHERE { ?s uni:advisedBy ?p . ?p uni:worksFor ?d . }"
    )
    engine.query(query)
    (execution,) = engine.planner.last_executions
    key = execution.key

    # Re-running the same query hits the same cached plan and the same
    # statement; a different query gets its own.
    engine.query(query)
    (execution,) = engine.planner.last_executions
    assert execution.key == key and execution.hit
    (statement,) = tracker.snapshot()
    assert (statement["calls"], statement["plan_cache_hits"]) == (2, 1)

    engine.query(PREFIX + "SELECT ?s WHERE { ?s a uni:Student . }")
    assert engine.planner.last_executions[0].key != key
    assert len(tracker.snapshot()) == 2


def test_skewed_reruns_accumulate_in_one_feedback_slot(tracker):
    """Badly estimated plans still feed back under one statement.

    On the hub-skewed fixtures the static estimates miss by well over
    4x; the tracker must report that q-error, and repeated runs must
    accumulate in one statement — on both engines — while the plan
    cache keeps serving the same entry.
    """
    from repro.fuzz.oracles import _skewed_pg, _skewed_rdf

    graph, sparql_query = _skewed_rdf(seed=7)
    pg, cypher_query = _skewed_pg(seed=7)
    for engine, query in (
        (SparqlEngine(graph), sparql_query),
        (CypherEngine(PropertyGraphStore(pg)), cypher_query),
    ):
        engine.query(query)
        keys = [e.key for e in engine.planner.last_executions]
        engine.query(query)
        assert [e.key for e in engine.planner.last_executions] == keys
        (statement,) = tracker.snapshot(lang=engine.lang)
        assert statement["q_error_max"] >= 4.0
        assert (statement["calls"], statement["plan_cache_hits"]) == (2, 1)


def test_feedback_survives_catalog_versions(tracker):
    """A statement re-run between mutations keeps one tracker entry.

    Plan-cache keys carry the catalog version and the cache sweeps dead
    versions; the tracker keys by the version-free fingerprint, so 600
    runs with a mutation between each accumulate in one statement, each
    run a plan-cache miss with its own q-error.
    """
    ex = "http://example.org/"
    graph = university_graph()
    sparql = SparqlEngine(graph)
    store = PropertyGraphStore(
        S3PG().transform(university_graph(), university_shapes()).graph
    )
    cypher = CypherEngine(store)
    runs = (
        (sparql, PREFIX + "SELECT ?s WHERE { ?s uni:advisedBy ?p . }",
         lambda i: graph.add(Triple(IRI(f"{ex}x{i}"), IRI(f"{ex}p"), IRI(ex)))),
        (cypher, "MATCH (p:uni_Professor) RETURN p.iri AS iri",
         lambda i: store.add_node(f"extra{i}", ["Extra"], {"iri": f"{ex}e{i}"})),
    )
    for engine, query, mutate in runs:
        for i in range(600):
            engine.query(query)
            mutate(i)
        assert len(engine.planner.cache) == 1
        (statement,) = tracker.snapshot(lang=engine.lang)
        assert (statement["calls"], statement["plan_cache_misses"]) == (600, 600)
        assert statement["q_error_max"] >= 1.0


def test_feedback_observes_q_error_histogram(tracker):
    engine = SparqlEngine(university_graph())
    engine.query(PREFIX + "SELECT ?s WHERE { ?s uni:advisedBy ?p . }")
    store = PropertyGraphStore(
        S3PG().transform(university_graph(), university_shapes()).graph
    )
    # Two MATCH clauses are two planned executions: two observations.
    CypherEngine(store).query(
        "MATCH (s:uni_Student)-[:uni_advisedBy]->(p) "
        "MATCH (p)-[:uni_worksFor]->(d) RETURN s.iri AS s, d.iri AS d"
    )
    family = obs.get_metrics().family("repro_plan_q_error")
    counts = {labels: child.count for labels, child in family.children()}
    assert counts == {(("engine", "cypher"),): 2, (("engine", "sparql"),): 1}
    exposition = obs.get_metrics().to_prometheus()
    assert 'repro_plan_q_error_count{engine="sparql"} 1' in exposition
