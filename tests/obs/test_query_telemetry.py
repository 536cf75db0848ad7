"""Per-query telemetry of both engines, pinned end to end.

One fixed university workload runs on the planned SPARQL and Cypher
engines with the flight recorder (slow threshold 0, so every query is
captured) and the workload tracker installed.  It has a repeated shape,
plan-cache misses, a two-MATCH Cypher statement and one EXPLAIN ANALYZE
per engine.  The tests pin what that workload leaves behind: every
per-query metric family's name, help, label sets, counter values and
histogram counts; the ``/debug/statements`` fields apart from the
timings; the slow-op log; and that each ``query()`` reports exactly
once.  Timings are the only thing left free.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import S3PG
from repro.datasets.university import generate_university, university_shapes
from repro.pg import PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine

PREFIX = "PREFIX : <http://example.org/university#>\n"

#: (engine, text): the workload, in order.  Literal-renamed texts share
#: a statement and a plan.  A Cypher text with renamed variables shares
#: the statement but not the plan, whose key keeps the variable names.
WORKLOAD = (
    ("sparql", PREFIX + "SELECT ?s ?n WHERE { ?s a :Student ; :name ?n . }"),
    ("sparql", PREFIX + "SELECT ?s ?n WHERE { ?s a :Student ; :name ?n . }"),
    ("sparql", PREFIX + "SELECT ?s ?d WHERE { ?s :advisedBy ?p . "
               "?p :worksFor ?d . ?d :partOf ?u . }"),
    ("sparql", PREFIX + 'SELECT ?s WHERE { ?s :name "University 0" . }'),
    ("sparql", PREFIX + 'SELECT ?s WHERE { ?s :name "Dept of Logic 1" . }'),
    ("sparql", PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?s a :Student . "
               "?p a :Professor . ?s :advisedBy ?p . }"),
    ("cypher", "MATCH (p)-[:uni_worksFor]->(d:uni_Department) "
               "RETURN p.iri AS p, d.iri AS d"),
    ("cypher", "MATCH (p)-[:uni_worksFor]->(d:uni_Department) "
               "RETURN p.iri AS p, d.iri AS d"),
    ("cypher", "MATCH (q)-[:uni_worksFor]->(e:uni_Department) "
               "RETURN q.iri AS q, e.iri AS e"),
    ("cypher", "MATCH (s:uni_Student)-[:uni_advisedBy]->(p) "
               "MATCH (p)-[:uni_worksFor]->(d:uni_Department) "
               "RETURN s.iri AS s, d.iri AS d"),
    ("cypher", "MATCH (s:uni_Student)-[:uni_advisedBy]->(p), "
               "(d:uni_Department)-[:uni_partOf]->(u:uni_University) "
               "RETURN count(*) AS n"),
)

#: One EXPLAIN ANALYZE per engine, run after the workload.
EXPLAINS = (
    ("sparql", PREFIX + "SELECT ?s ?d WHERE { ?s a :Student . "
               "?s :advisedBy ?p . ?p :worksFor ?d . }"),
    ("cypher", "MATCH (s:uni_Student)-[:uni_advisedBy]->(p) "
               "MATCH (p)-[:uni_worksFor]->(d:uni_Department) "
               "RETURN s.iri AS s, d.iri AS d"),
)

#: Families written once per query (or per planned execution).
QUERY_FAMILIES = (
    "repro_cypher_expansions_total",
    "repro_cypher_rows_total",
    "repro_plan_cache_total",
    "repro_plan_operator_rows_total",
    "repro_plan_q_error",
    "repro_query_latency_seconds",
    "repro_query_runs_total",
    "repro_sparql_pattern_matches_total",
)

#: Families the tracker and the slow-op log write.
STATEMENT_FAMILIES = (
    "repro_slow_ops_total",
    "repro_statement_calls_total",
    "repro_statement_rows_total",
    "repro_statements_evicted_total",
    "repro_statements_tracked",
)

#: ``/debug/statements`` fields that depend on wall time.
TIMINGS = (
    "total_ms", "mean_ms", "min_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms",
)


def _families(names) -> dict:
    """Metric families reduced to their timing-free content.

    Counters and gauges keep their values; histograms keep their
    observation count, plus their buckets when they hold q-errors
    (those are exact; latencies are not).
    """
    snapshot = obs.get_metrics().snapshot()
    reduced = {}
    for name in names:
        if name not in snapshot:
            continue
        family = snapshot[name]
        series = {}
        for entry in family["series"]:
            labels = tuple(sorted(entry["labels"].items()))
            if family["kind"] != "histogram":
                series[labels] = entry["value"]
            elif name == "repro_plan_q_error":
                series[labels] = (entry["count"], entry["buckets"])
            else:
                series[labels] = entry["count"]
        reduced[name] = (family["kind"], family["help"], series)
    return reduced


def _statements() -> list[dict]:
    rows = obs.OpsServer().debug_statements()
    return sorted(
        ({k: v for k, v in row.items() if k not in TIMINGS} for row in rows),
        key=lambda row: (row["lang"], row["fingerprint"]),
    )


def _slow_log() -> list[tuple]:
    return [
        (r["kind"], r["lang"], r["rows"], r["plan"]["op"],
         r["plan"]["actual_rows"])
        for r in obs.get_recorder().slow()
    ]


def _counts(lang: str) -> tuple:
    """(runs, latency observations, tracker calls, slow-op records)."""
    metrics = obs.get_metrics()
    runs = metrics.family("repro_query_runs_total")
    latency = metrics.family("repro_query_latency_seconds")
    label = (("lang", lang),)
    run = dict(runs.children()).get(label) if runs else None
    observed = dict(latency.children()).get(label) if latency else None
    return (
        run.value if run else 0,
        observed.count if observed else 0,
        obs.get_workload().calls,
        len(obs.get_recorder().slow()),
    )


@pytest.fixture(scope="module")
def engines():
    graph = generate_university(scale=0.25, seed=7)
    pg = S3PG().transform(graph, university_shapes()).graph
    return {
        "sparql": lambda: SparqlEngine(graph),
        "cypher": lambda: CypherEngine(PropertyGraphStore(pg)),
    }


@pytest.fixture()
def ran(engines):
    """Run the workload once; returns what it left before the EXPLAINs."""
    obs.install_recorder(slow_threshold_ms=0.0)
    obs.install_workload()
    live = {lang: make() for lang, make in engines.items()}
    for lang, text in WORKLOAD:
        before = _counts(lang)
        live[lang].query(text)
        # One query() is one report: one run, one latency observation,
        # one tracker call and one slow-op record.
        after = _counts(lang)
        assert [b - a for a, b in zip(before, after)] == [1, 1, 1, 1], text
    before_explain = (
        _statements(), _slow_log(), _families(STATEMENT_FAMILIES),
    )
    for lang, text in EXPLAINS:
        live[lang].explain(text, analyze=True)
    return before_explain


EXPECTED_QUERY_FAMILIES = {
    'repro_cypher_expansions_total': (
        'counter', 'edges considered by pattern expansion',
        {
            (): 282,
        },
    ),
    'repro_cypher_rows_total': (
        'counter', 'result rows produced',
        {
            (): 131,
        },
    ),
    'repro_plan_cache_total': (
        'counter', 'plan cache lookups',
        {
            (('engine', 'cypher'), ('result', 'hit')): 3,
            (('engine', 'cypher'), ('result', 'miss')): 5,
            (('engine', 'sparql'), ('result', 'hit')): 2,
            (('engine', 'sparql'), ('result', 'miss')): 5,
        },
    ),
    'repro_plan_operator_rows_total': (
        'counter', 'rows produced by physical plan operators',
        {
            (('lang', 'cypher'), ('op', 'BatchExpand')): 282,
            (('lang', 'cypher'), ('op', 'BatchFilter')): 102,
            (('lang', 'cypher'), ('op', 'BatchHashJoin')): 232,
            (('lang', 'cypher'), ('op', 'BatchSeed')): 332,
            (('lang', 'cypher'), ('op', 'Const')): 7,
            (('lang', 'cypher'), ('op', 'Input')): 106,
            (('lang', 'cypher'), ('op', 'Pivot')): 7,
            (('lang', 'sparql'), ('op', 'BatchBindJoin')): 260,
            (('lang', 'sparql'), ('op', 'BatchHashJoin')): 150,
            (('lang', 'sparql'), ('op', 'BatchScan')): 366,
        },
    ),
    'repro_plan_q_error': (
        'histogram', 'per-plan worst cardinality q-error',
        {
            (('engine', 'cypher'),): (
                8,
                {
                    '1.0': 0, '1.5': 2, '2.0': 2, '3.0': 2, '5.0': 2,
                    '10.0': 5, '25.0': 5, '100.0': 8, '1000.0': 8, '+Inf': 8,
                },
            ),
            (('engine', 'sparql'),): (
                7,
                {
                    '1.0': 5, '1.5': 7, '2.0': 7, '3.0': 7, '5.0': 7,
                    '10.0': 7, '25.0': 7, '100.0': 7, '1000.0': 7, '+Inf': 7,
                },
            ),
        },
    ),
    'repro_query_latency_seconds': (
        'histogram', 'end-to-end query evaluation latency',
        {
            (('lang', 'cypher'),): 6,
            (('lang', 'sparql'),): 7,
        },
    ),
    'repro_query_runs_total': (
        'counter', 'query engine invocations',
        {
            (('lang', 'cypher'),): 6,
            (('lang', 'sparql'),): 7,
        },
    ),
    'repro_sparql_pattern_matches_total': (
        'counter', 'bindings yielded by triple-pattern matches',
        {
            (): 626,
        },
    ),
}

EXPECTED_STATEMENTS = [
    {
        'fingerprint': '3068e067dd02cfbd',
        'lang': 'cypher',
        'query': (
            'MATCH (v0:uni_Student)-[:uni_advisedBy]->(v1), '
            '(v2:uni_Department)-[:uni_partOf]->(v3:uni_University) '
            'RETURN count(*) AS v4'
        ),
        'calls': 1,
        'rows_total': 1,
        'plan_cache_hits': 0,
        'plan_cache_misses': 1,
        'q_error_max': 100.0,
        'q_error_mean': 100.0,
    },
    {
        'fingerprint': '888dc71476d271f4',
        'lang': 'cypher',
        'query': (
            'MATCH (v0)-[:uni_worksFor]->(v1:uni_Department) RETURN '
            'v0.iri AS v0, v1.iri AS v1'
        ),
        'calls': 3,
        'rows_total': 30,
        'plan_cache_hits': 1,
        'plan_cache_misses': 2,
        'q_error_max': 10.0,
        'q_error_mean': 10.0,
    },
    {
        'fingerprint': 'a6298d89244354c7',
        'lang': 'cypher',
        'query': (
            'MATCH (v0:uni_Student)-[:uni_advisedBy]->(v1) MATCH '
            '(v1)-[:uni_worksFor]->(v2:uni_Department) RETURN v0.iri AS '
            'v0, v2.iri AS v2'
        ),
        'calls': 1,
        'rows_total': 50,
        'plan_cache_hits': 0,
        'plan_cache_misses': 1,
        'q_error_max': 50.0,
        'q_error_mean': 50.0,
    },
    {
        'fingerprint': '281a96d47c4d944f',
        'lang': 'sparql',
        'query': (
            'SELECT ?v0 ?v2 WHERE { ?v0 '
            '<http://example.org/university#advisedBy> ?v1 . ?v1 '
            '<http://example.org/university#worksFor> ?v2 . ?v2 '
            '<http://example.org/university#partOf> ?v3 . }'
        ),
        'calls': 1,
        'rows_total': 50,
        'plan_cache_hits': 0,
        'plan_cache_misses': 1,
        'q_error_max': 1.0,
        'q_error_mean': 1.0,
    },
    {
        'fingerprint': '3ccb5c0b3447a580',
        'lang': 'sparql',
        'query': (
            'SELECT ?v0 ?v1 WHERE { ?v0 '
            '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> '
            '<http://example.org/university#Student> . ?v0 '
            '<http://example.org/university#name> ?v1 . }'
        ),
        'calls': 2,
        'rows_total': 150,
        'plan_cache_hits': 1,
        'plan_cache_misses': 1,
        'q_error_max': 1.0,
        'q_error_mean': 1.0,
    },
    {
        'fingerprint': '4446c919c8e0dc38',
        'lang': 'sparql',
        'query': (
            'SELECT ?v0 WHERE { ?v0 <http://example.org/university#name> '
            '$1 . }'
        ),
        'calls': 2,
        'rows_total': 2,
        'plan_cache_hits': 1,
        'plan_cache_misses': 1,
        'q_error_max': 1.0,
        'q_error_mean': 1.0,
    },
    {
        'fingerprint': 'b4c72f7530038986',
        'lang': 'sparql',
        'query': (
            'SELECT (COUNT(*) AS ?v2) WHERE { ?v0 '
            '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> '
            '<http://example.org/university#Student> . ?v1 '
            '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> '
            '<http://example.org/university#Professor> . ?v0 '
            '<http://example.org/university#advisedBy> ?v1 . }'
        ),
        'calls': 1,
        'rows_total': 1,
        'plan_cache_hits': 0,
        'plan_cache_misses': 1,
        'q_error_max': 1.28,
        'q_error_mean': 1.28,
    },
]

EXPECTED_SLOW = [
    ('query', 'sparql', 75, 'Project', 75),
    ('query', 'sparql', 75, 'Project', 75),
    ('query', 'sparql', 50, 'Project', 50),
    ('query', 'sparql', 1, 'Project', 1),
    ('query', 'sparql', 1, 'Project', 1),
    ('query', 'sparql', 1, 'Aggregate', 1),
    ('query', 'cypher', 10, 'Return', 10),
    ('query', 'cypher', 10, 'Return', 10),
    ('query', 'cypher', 10, 'Return', 10),
    ('query', 'cypher', 50, 'Return', 50),
    ('query', 'cypher', 1, 'Aggregate', 1),
]

EXPECTED_STATEMENT_FAMILIES = {
    'repro_slow_ops_total': (
        'counter', 'operations captured by the slow-op log',
        {
            (('kind', 'query'),): 11,
        },
    ),
    'repro_statement_calls_total': (
        'counter', 'statement executions aggregated by the workload tracker',
        {
            (('lang', 'cypher'),): 5,
            (('lang', 'sparql'),): 6,
        },
    ),
    'repro_statement_rows_total': (
        'counter', 'rows returned by tracked statements',
        {
            (('lang', 'cypher'),): 81,
            (('lang', 'sparql'),): 203,
        },
    ),
    'repro_statements_evicted_total': (
        'counter', 'statements evicted from the bounded registry',
        {},
    ),
    'repro_statements_tracked': (
        'gauge', 'distinct statements currently tracked',
        {
            (): 7,
        },
    ),
}


def test_query_families_are_pinned(ran):
    assert _families(QUERY_FAMILIES) == EXPECTED_QUERY_FAMILIES


def test_debug_statements_are_pinned(ran):
    statements, _, _ = ran
    assert statements == EXPECTED_STATEMENTS


def test_slow_log_holds_one_record_per_query(ran):
    _, slow, _ = ran
    assert slow == EXPECTED_SLOW


def test_tracker_and_slow_log_families_are_pinned(ran):
    _, _, families = ran
    assert families == EXPECTED_STATEMENT_FAMILIES


def test_tracing_off_counts_no_pattern_matches(engines):
    obs.install_workload()
    sparql, cypher = engines["sparql"](), engines["cypher"]()
    sparql.query(WORKLOAD[0][1])
    cypher.query(WORKLOAD[6][1])
    families = _families(QUERY_FAMILIES)
    # SPARQL tallies its pattern matches only under a tracer.
    assert "repro_sparql_pattern_matches_total" not in families
    assert families["repro_query_runs_total"][2] == {
        (("lang", "cypher"),): 1, (("lang", "sparql"),): 1,
    }
    assert families["repro_cypher_rows_total"][2] == {(): 10}
    assert families["repro_cypher_expansions_total"][2] == {(): 10}


def test_reference_engines_report_without_plans():
    obs.install_workload()
    graph = generate_university(scale=0.25, seed=7)
    pg = S3PG().transform(graph, university_shapes()).graph
    SparqlEngine(graph, planner=False).query(WORKLOAD[0][1])
    CypherEngine(PropertyGraphStore(pg), planner=False).query(WORKLOAD[6][1])
    families = _families(QUERY_FAMILIES)
    assert sorted(families) == [
        "repro_cypher_expansions_total",
        "repro_cypher_rows_total",
        "repro_query_latency_seconds",
        "repro_query_runs_total",
    ]
    assert families["repro_query_latency_seconds"][2] == {
        (("lang", "cypher"),): 1, (("lang", "sparql"),): 1,
    }
    for row in _statements():
        assert (row["calls"], row["plan_cache_hits"], row["plan_cache_misses"],
                row["q_error_max"]) == (1, 0, 0, None), row
