"""The cardinality-feedback store: q-error telemetry per cached plan.

Every planned execution feeds its EXPLAIN snapshot (estimates + actuals)
back into the planner's :class:`~repro.query.plan.FeedbackStore`, keyed
by the query shape.  These tests pin the q-error math, the sanity of
the recorded numbers on the university workload (both engines), the
execution accounting across repeated runs and catalog versions, and the
store's LRU bound.
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
from repro.query.plan import FeedbackStore, Q_ERROR_BOUNDARIES, q_error
from repro.query.plan.explain import ExplainNode
from repro.rdf.terms import IRI, Triple

PREFIX = "PREFIX uni: <http://example.org/university#>\n"


def test_q_error_math():
    assert q_error(10, 10) == 1.0
    assert q_error(1, 100) == 100.0
    assert q_error(100, 1) == 100.0
    # Zero estimates/actuals are floored at one row, never div-by-zero.
    assert q_error(0, 0) == 1.0
    assert q_error(0, 5) == 5.0
    assert q_error(5, 0) == 5.0


def test_q_error_boundaries_are_sorted_and_start_at_one():
    assert Q_ERROR_BOUNDARIES[0] == 1.0
    assert list(Q_ERROR_BOUNDARIES) == sorted(Q_ERROR_BOUNDARIES)


def _check_store_sanity(store, expected_plans):
    assert len(store) == expected_plans
    summary = store.summary()
    assert summary["plans"] == expected_plans
    assert summary["executions"] >= expected_plans
    assert summary["max_q_error"] >= 1.0
    for entry in store.snapshot():
        assert entry["operators"], entry
        assert math.isfinite(entry["max_q_error"])
        assert 1.0 <= entry["max_q_error"] < 1000.0, entry
        for operator in entry["operators"]:
            assert operator["q_error"] >= 1.0, operator
            assert operator["actual_rows"] >= 0, operator


def test_sparql_feedback_on_university_workload():
    engine = SparqlEngine(generate_university(scale=0.25, seed=7))
    qids = list(university_workload())
    for _qid, _category, query in qids:
        engine.query(query)
    _check_store_sanity(engine.planner.feedback, expected_plans=len(qids))


def test_cypher_feedback_on_university_workload():
    graph = generate_university(scale=0.25, seed=7)
    result = S3PG().transform(graph, university_shapes())
    engine = CypherEngine(PropertyGraphStore(result.graph))
    for _qid, _category, query in UNIVERSITY_CYPHER_WORKLOAD:
        engine.query(query)
    _check_store_sanity(
        engine.planner.feedback, expected_plans=len(UNIVERSITY_CYPHER_WORKLOAD)
    )


def test_feedback_keyed_by_plan_cache_key():
    engine = SparqlEngine(university_graph())
    query = PREFIX + (
        "SELECT ?s ?d WHERE { ?s uni:advisedBy ?p . ?p uni:worksFor ?d . }"
    )
    engine.query(query)
    key = engine.planner.last_key
    assert key is not None
    entry = engine.planner.feedback.get(key)
    assert entry is not None and entry["executions"] == 1

    # Re-running the same query hits the same cached plan and the same
    # feedback slot; a different query gets its own.
    engine.query(query)
    assert engine.planner.last_key == key
    assert engine.planner.feedback.get(key)["executions"] == 2

    engine.query(PREFIX + "SELECT ?s WHERE { ?s a uni:Student . }")
    assert engine.planner.last_key != key
    assert len(engine.planner.feedback) == 2


def test_skewed_reruns_accumulate_in_one_feedback_slot():
    """Badly estimated plans still feed back under one plan-cache key.

    On the hub-skewed fixtures the static estimates miss by well over
    4x; the store must report that q-error, and repeated runs must
    accumulate executions in one slot — on both engines — while the
    plan cache keeps serving the same entry.
    """
    from repro.fuzz.oracles import _skewed_pg, _skewed_rdf

    graph, sparql_query = _skewed_rdf(seed=7)
    pg, cypher_query = _skewed_pg(seed=7)
    for engine, query in (
        (SparqlEngine(graph), sparql_query),
        (CypherEngine(PropertyGraphStore(pg)), cypher_query),
    ):
        engine.query(query)
        key = engine.planner.last_key
        assert key is not None
        assert engine.planner.feedback.max_q_error(key) >= 4.0
        engine.query(query)
        assert engine.planner.last_key == key
        assert engine.planner.feedback.get(key)["executions"] == 2
        assert len(engine.planner.feedback) == 1


def test_feedback_survives_catalog_versions():
    """A statement re-run between mutations keeps one feedback slot.

    Plan-cache keys carry the catalog version and the cache sweeps dead
    versions; feedback is keyed by the version-free shape, so 600 runs
    with a mutation between each accumulate in one entry instead of
    filling the store with 512 entries no key reaches again.
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
        assert len(engine.planner.feedback) == 1
        summary = engine.planner.feedback.summary()
        assert (summary["plans"], summary["executions"]) == (1, 600)
        assert engine.planner.feedback.get(engine.planner.last_key)[
            "executions"
        ] == 600


def test_feedback_observes_q_error_histogram():
    obs.get_metrics().reset()
    try:
        engine = SparqlEngine(university_graph())
        engine.query(PREFIX + "SELECT ?s WHERE { ?s uni:advisedBy ?p . }")
        exposition = obs.get_metrics().to_prometheus()
        assert "repro_plan_q_error" in exposition
        assert 'engine="sparql"' in exposition
    finally:
        obs.get_metrics().reset()


def _fake_root(est, act):
    return ExplainNode(
        op="Scan", detail="fake", est_rows=est, actual_rows=act
    )


def test_feedback_store_lru_bound():
    store = FeedbackStore("test", capacity=2)
    store.record(("a",), _fake_root(1, 10))
    store.record(("b",), _fake_root(2, 2))
    store.record(("c",), _fake_root(5, 1))
    assert len(store) == 2
    assert store.get(("a",)) is None  # oldest evicted
    assert store.get(("b",)) is not None
    assert store.get(("c",))["max_q_error"] == pytest.approx(5.0)


def test_feedback_store_ignores_unusable_nodes():
    store = FeedbackStore("test")
    # No actuals at all -> nothing recorded for this key.
    store.record(("x",), ExplainNode(op="Project", est_rows=None))
    assert store.get(("x",)) is None
    assert len(store) == 0
    # None key (planner cache disabled) is a silent no-op.
    store.record(None, _fake_root(1, 1))
    assert len(store) == 0
