"""Figure 6 — query runtime on the RDF engine vs the transformed PGs.

Reproduces the Section 5.3 exploratory experiment: each workload query
runs on the source RDF graph (SPARQL) and on every method's PG (Cypher),
with warm-up and repeated timed executions.  The paper's observation is
that runtimes stay comparable across models, with S3PG paying extra only
where it returns *more* (complete) answers on heterogeneous queries.

The second bench in this module is the cost-based-planner ablation:
the university workload (star/chain joins) with the planner on vs off,
on both engines, asserting bag-identical results always and a >=2x
join-query speedup at full scale.  ``REPRO_BENCH_QUICK=1`` shrinks the
dataset and skips the speedup assertion (CI smoke mode) — the
result-identity check still runs.
"""

from __future__ import annotations

import math
import os
import time
from statistics import mean

from conftest import write_json_result, write_result

from repro import obs
from repro.core import S3PG
from repro.datasets.university import (
    UNIVERSITY_CYPHER_WORKLOAD,
    generate_university,
    university_shapes,
    university_workload,
)
from repro.eval import render_series, runtime_experiment
from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows
from repro.obs import histogram_from_samples, quantiles_from_histogram
from repro.pg import PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def test_fig6_query_runtime(benchmark, dbpedia2022_bundle, dbpedia2022_runs,
                            dbpedia_queries):
    """Measure Figure 6 and check the comparable-runtimes claim."""

    def run_experiment():
        return runtime_experiment(
            dbpedia2022_bundle, dbpedia_queries, dbpedia2022_runs,
            repeat=3, warmup=1,
        )

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    categories: dict[str, list] = {}
    for row in rows:
        categories.setdefault(row.category, []).append(row)

    sections = []
    per_category_means: dict[str, dict[str, float]] = {}
    for category, cat_rows in categories.items():
        series = {}
        for engine in cat_rows[0].runtimes_ms:
            series[engine] = {
                row.qid: round(row.runtimes_ms[engine], 3) for row in cat_rows
            }
        sections.append(render_series(
            f"Figure 6 ({category})", series, unit="ms"
        ))
        per_category_means[category] = {
            engine: mean(row.runtimes_ms[engine] for row in cat_rows)
            for engine in cat_rows[0].runtimes_ms
        }
    write_result("fig6_query_runtime.txt", "\n".join(sections))
    write_json_result("fig6_query_runtime", [
        {"qid": row.qid, "category": row.category,
         "runtimes_ms": {k: round(v, 3) for k, v in row.runtimes_ms.items()}}
        for row in rows
    ])

    # Runtimes remain comparable between the engines: within each
    # category no engine is more than ~25x slower than the fastest
    # (the paper's Figure 6 spans about one order of magnitude).
    for category, means in per_category_means.items():
        fastest = min(means.values())
        for engine, value in means.items():
            assert value <= max(fastest * 25, fastest + 50), (category, engine)

    # Every query produced a positive runtime on every engine.
    for row in rows:
        for engine, value in row.runtimes_ms.items():
            assert value > 0, (row.qid, engine)


# --------------------------------------------------------------------- #
# Planner ablation (university star/chain workload)
# --------------------------------------------------------------------- #

def _timed(fn, repeat: int = 3):
    """Best-of-``repeat`` wall time in ms, plus the (last) result."""
    fn()  # warm-up: indexes, plan cache
    best, result = math.inf, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best, result


def test_fig6_planner_ablation(benchmark):
    """Planner on vs off on the university workload, both engines.

    Results must be bag-identical in every mode (the JSON artifact
    records the comparison per query); at full scale the cost-based
    plans must win the multi-pattern star/chain joins by >=2x on
    geometric mean.
    """
    scale = 0.25 if BENCH_QUICK else 4.0
    graph = generate_university(scale=scale, seed=42)
    result = S3PG().transform(graph, university_shapes())
    store = PropertyGraphStore(result.graph)

    # Per-statement estimate accuracy from the workload tracker,
    # embedded in the JSON artifact.  A text runs on both arms, so it is
    # one statement; only the planned runs carry a plan-cache lookup and
    # a q-error.
    q_errors: dict[str, dict] = {}

    def run_ablation():
        tracker = obs.install_workload()
        rows = []
        sparql_on = SparqlEngine(graph)
        sparql_off = SparqlEngine(graph, planner=False)
        for qid, category, query in university_workload():
            ms_on, r_on = _timed(lambda: sparql_on.query(query))
            ms_off, r_off = _timed(lambda: sparql_off.query(query))
            rows.append({
                "qid": qid, "lang": "sparql", "category": category,
                "rows": len(r_on),
                "planner_on_ms": round(ms_on, 3),
                "planner_off_ms": round(ms_off, 3),
                "speedup": round(ms_off / ms_on, 3),
                "results_identical":
                    normalize_sparql_rows(r_on) == normalize_sparql_rows(r_off),
            })
        cypher_on = CypherEngine(store)
        cypher_off = CypherEngine(store, planner=False)
        for qid, category, query in UNIVERSITY_CYPHER_WORKLOAD:
            ms_on, r_on = _timed(lambda: cypher_on.query(query))
            ms_off, r_off = _timed(lambda: cypher_off.query(query))
            rows.append({
                "qid": qid, "lang": "cypher", "category": category,
                "rows": len(r_on),
                "planner_on_ms": round(ms_on, 3),
                "planner_off_ms": round(ms_off, 3),
                "speedup": round(ms_off / ms_on, 3),
                "results_identical":
                    normalize_cypher_rows(r_on) == normalize_cypher_rows(r_off),
            })
        obs.uninstall_workload()
        for lang in ("sparql", "cypher"):
            statements = [
                {"query": s["query"], "q_error_max": s["q_error_max"],
                 "q_error_mean": s["q_error_mean"],
                 "planned_executions":
                     s["plan_cache_hits"] + s["plan_cache_misses"]}
                for s in tracker.snapshot(lang=lang)
            ]
            q_errors[lang] = {
                "statements": len(statements),
                "planned_executions":
                    sum(s["planned_executions"] for s in statements),
                "max_q_error": max(
                    (s["q_error_max"] or 1.0 for s in statements), default=1.0
                ),
                "worst_statements": sorted(
                    statements, key=lambda s: s["q_error_max"] or 1.0,
                    reverse=True,
                )[:5],
            }
        return rows

    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    series = {
        mode: {f"{row['lang']}:{row['qid']}": row[f"planner_{mode}_ms"]
               for row in rows}
        for mode in ("on", "off")
    }
    write_result(
        "fig6_planner_ablation.txt",
        render_series("Planner ablation (university workload)", series,
                      unit="ms"),
    )
    # Per-language latency quantiles over the planner-on runs, derived
    # through the same histogram helper the ops endpoint reports from.
    latency_quantiles = {}
    for lang in ("sparql", "cypher"):
        samples = [
            row["planner_on_ms"] / 1000.0 for row in rows
            if row["lang"] == lang
        ]
        p50, p95, p99 = quantiles_from_histogram(
            histogram_from_samples(samples), (0.5, 0.95, 0.99)
        )
        latency_quantiles[lang] = {
            "p50_ms": round(p50 * 1000, 3),
            "p95_ms": round(p95 * 1000, 3),
            "p99_ms": round(p99 * 1000, 3),
        }

    write_json_result(
        "fig6_planner_ablation", rows,
        scale=scale, quick=BENCH_QUICK, triples=len(graph),
        q_error=q_errors, latency_quantiles=latency_quantiles,
    )

    # Correctness is unconditional: identical bags in every mode.
    for row in rows:
        assert row["results_identical"], (row["qid"], row["lang"])
        assert row["rows"] > 0, row["qid"]

    # The tracker observed every planned query: sane q-errors.
    for lang in ("sparql", "cypher"):
        assert q_errors[lang]["planned_executions"] > 0, lang
        assert q_errors[lang]["max_q_error"] >= 1.0, lang
        assert math.isfinite(q_errors[lang]["max_q_error"]), lang

    if BENCH_QUICK:
        return
    # The tentpole claim: cost-based plans beat naive evaluation >=2x
    # on the multi-pattern join queries (geometric mean; lookups are
    # excluded — a single-pattern scan has nothing to reorder).
    joins = [row for row in rows if row["category"] != "lookup"]
    geomean = math.exp(mean(math.log(row["speedup"]) for row in joins))
    assert geomean >= 2.0, (geomean, [
        (row["lang"], row["qid"], row["speedup"]) for row in joins
    ])
