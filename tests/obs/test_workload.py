"""The workload statistics: fingerprints and the statement registry.

Covers :mod:`repro.obs.workload` directly: statement normalization and
fingerprint stability, the bounded per-fingerprint registry, and the
engines feeding it.  The ops-route surfaces live in
``test_workload_cli.py``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.datasets.university import university_graph, university_shapes
from repro.core.pipeline import S3PG
from repro.pg.store import PropertyGraphStore
from repro.query.cypher.evaluator import CypherEngine
from repro.query.sparql.evaluator import SparqlEngine

UNI = "http://example.org/university#"


def _sparql(pattern: str) -> str:
    return f"SELECT ?s WHERE {{ ?s <{UNI}name> {pattern} }}"


# --------------------------------------------------------------------- #
# Normalization & fingerprints
# --------------------------------------------------------------------- #

def test_sparql_literal_rename_shares_fingerprint():
    fp_a, canon_a = obs.fingerprint_query("sparql", _sparql('"Alice"'))
    fp_b, canon_b = obs.fingerprint_query("sparql", _sparql('"Bob"'))
    assert fp_a == fp_b
    assert canon_a == canon_b
    assert "Alice" not in canon_a and "$1" in canon_a


def test_sparql_structural_difference_changes_fingerprint():
    fp_a, _ = obs.fingerprint_query("sparql", _sparql('"Alice"'))
    fp_b, _ = obs.fingerprint_query(
        "sparql",
        f"SELECT ?s WHERE {{ ?s <{UNI}age> \"Alice\" }}",
    )
    assert fp_a != fp_b  # predicate is structural, not a parameter


def test_sparql_variable_names_are_normalized():
    fp_a, _ = obs.fingerprint_query(
        "sparql", f"SELECT ?who WHERE {{ ?who <{UNI}name> ?n }}"
    )
    fp_b, _ = obs.fingerprint_query(
        "sparql", f"SELECT ?x WHERE {{ ?x <{UNI}name> ?y }}"
    )
    assert fp_a == fp_b


def test_cypher_literal_rename_shares_fingerprint():
    fp_a, canon = obs.fingerprint_query(
        "cypher", "MATCH (p:Person {name: 'Alice'}) RETURN p.age AS a"
    )
    fp_b, _ = obs.fingerprint_query(
        "cypher", "MATCH (q:Person {name: 'Bob'}) RETURN q.age AS b"
    )
    assert fp_a == fp_b
    assert "$1" in canon


def test_cypher_label_is_structural():
    fp_a, _ = obs.fingerprint_query(
        "cypher", "MATCH (p:Person) RETURN p.name AS n"
    )
    fp_b, _ = obs.fingerprint_query(
        "cypher", "MATCH (p:Robot) RETURN p.name AS n"
    )
    assert fp_a != fp_b


# --------------------------------------------------------------------- #
# The bounded registry
# --------------------------------------------------------------------- #

def test_registry_aggregates_executions():
    tracker = obs.WorkloadTracker()
    text = _sparql('"Alice"')
    tracker.record("sparql", text, None, 0.010, 3, cache_hit=True,
                   q_error=2.0)
    tracker.record("sparql", _sparql('"Bob"'), None, 0.030, 5,
                   cache_hit=False, q_error=4.0)
    (stats,) = tracker.snapshot()
    assert stats["calls"] == 2
    assert stats["rows_total"] == 8
    assert stats["total_ms"] == pytest.approx(40.0, rel=0.01)
    assert stats["mean_ms"] == pytest.approx(20.0, rel=0.01)
    assert stats["min_ms"] == pytest.approx(10.0, rel=0.01)
    assert stats["max_ms"] == pytest.approx(30.0, rel=0.01)
    assert stats["plan_cache_hits"] == 1
    assert stats["plan_cache_misses"] == 1
    assert stats["q_error_max"] == 4.0
    assert stats["q_error_mean"] == pytest.approx(3.0)
    assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]


def test_registry_evicts_least_recent_beyond_capacity():
    tracker = obs.WorkloadTracker(capacity=2)
    queries = [_sparql(f'"p{i}"') for i in range(3)]
    # Three *structurally identical* queries share one fingerprint, so
    # force distinct ones through different predicates.
    queries = [
        f"SELECT ?s WHERE {{ ?s <{UNI}p{i}> \"x\" }}" for i in range(3)
    ]
    for text in queries:
        tracker.record("sparql", text, None, 0.001, 1)
    assert tracker.evicted == 1
    assert len(tracker.snapshot()) == 2
    assert tracker.summary()["calls"] == 3


# --------------------------------------------------------------------- #
# Plan-cache registry + engine integration
# --------------------------------------------------------------------- #

@pytest.fixture()
def uni():
    graph = university_graph()
    result = S3PG().transform(graph, university_shapes())
    return graph, PropertyGraphStore(result.graph)


def test_engines_feed_statements_and_plan_caches(uni):
    graph, store = uni
    obs.install_workload()
    sparql = SparqlEngine(graph)
    cypher = CypherEngine(store)
    query = f"SELECT ?s ?n WHERE {{ ?s <{UNI}name> ?n }}"
    sparql.query(query)
    sparql.query(query)  # second run hits the plan cache
    cypher.query("MATCH (p:uni_Professor) RETURN p.iri AS iri")

    snapshots = obs.get_workload().snapshot()
    by_lang = {s["lang"]: s for s in snapshots}
    assert by_lang["sparql"]["calls"] == 2
    assert by_lang["sparql"]["plan_cache_hits"] >= 1
    assert by_lang["cypher"]["calls"] == 1

    caches = obs.plan_cache_stats()
    assert caches["sparql"]["entries"] >= 1
    assert caches["sparql"]["hits"] >= 1
    assert 0.0 <= caches["sparql"]["occupancy"] <= 1.0
    assert "cypher" in caches

    registry = obs.get_metrics()
    calls = registry.family("repro_statement_calls_total")
    assert calls is not None
    counted = {labels: c.value for labels, c in calls.children()}
    assert counted[(("lang", "sparql"),)] == 2



def test_each_query_and_explain_reports_once(uni, monkeypatch):
    graph, store = uni
    reports = []
    report = obs.report_query
    monkeypatch.setattr(
        obs, "report_query",
        lambda lang, *args, **kwargs: (
            reports.append(lang), report(lang, *args, **kwargs)
        ),
    )
    obs.install_workload()
    sparql, cypher = SparqlEngine(graph), CypherEngine(store)
    sparql.query(f"SELECT ?s ?n WHERE {{ ?s <{UNI}name> ?n }}")
    cypher.query(
        "MATCH (s:uni_Student)-[:uni_advisedBy]->(p) "
        "MATCH (p)-[:uni_worksFor]->(d) RETURN s.iri AS s, d.iri AS d"
    )
    assert reports == ["sparql", "cypher"]
    # An EXPLAIN reports too, so it reaches the tracker.
    sparql.explain(f"SELECT ?s ?n WHERE {{ ?s <{UNI}name> ?n }}", analyze=True)
    assert reports == ["sparql", "cypher", "sparql"]
    by_lang = {s["lang"]: s for s in obs.get_workload().snapshot()}
    assert by_lang["sparql"]["calls"] == 2
    assert by_lang["sparql"]["plan_cache_hits"] == 1
