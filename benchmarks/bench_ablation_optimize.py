"""Ablation — compacting non-parsimonious graphs (paper future work).

The paper's conclusion leaves optimizing the large non-parsimonious PGs
as an open question; `repro.core.optimize` answers it by re-running the
parsimonious fold over the graph, folding literal edges back into
records.  This bench measures the compaction cost and verifies the size
reduction, plus the headline guarantee: the compacted graph, its
``mapping.json`` and its conformance report are identical to those of a
direct parsimonious transformation.  (The ``fold_exact`` fuzz oracle
checks the same identities, and ``M``, on every fuzz case kind.)
"""

from __future__ import annotations

from conftest import write_json_result, write_result

from repro.core import DEFAULT_OPTIONS, MONOTONE_OPTIONS, S3PG, optimize
from repro.eval import render_table
from repro.pgschema import check_conformance


def _verdict(graph, pg_schema):
    report = check_conformance(graph, pg_schema)
    return report.conforms, sorted(map(str, report.violations))


def test_ablation_optimize(benchmark, dbpedia2022_bundle):
    """Benchmark optimize() and assert exactness + compaction."""
    bundle = dbpedia2022_bundle

    def run_once():
        nonpars = S3PG(MONOTONE_OPTIONS).transform(bundle.graph, bundle.shapes)
        before = nonpars.graph.stats()
        optimized = optimize(nonpars.transformed)
        return before, optimized

    before, optimized = benchmark.pedantic(
        run_once, rounds=3, iterations=1, warmup_rounds=1
    )
    after = optimized.graph.stats()

    pars = S3PG(DEFAULT_OPTIONS).transform(bundle.graph, bundle.shapes)
    target = optimized.schema_result
    identical = {
        "graph": optimized.graph.structurally_equal(pars.graph),
        "mapping.json": target.mapping.to_json() == pars.mapping.to_json(),
        "conformance": _verdict(optimized.graph, target.pg_schema)
        == _verdict(pars.graph, pars.pg_schema),
    }

    rows = [
        {"graph": "non-parsimonious", "nodes": before.n_nodes,
         "edges": before.n_edges},
        {"graph": "after optimize()", "nodes": after.n_nodes,
         "edges": after.n_edges},
        {"graph": "direct parsimonious", "nodes": pars.graph.stats().n_nodes,
         "edges": pars.graph.stats().n_edges},
    ]
    write_result("ablation_optimize.txt", render_table(
        rows + [
            {"graph": f"identical {what}", "nodes": str(same), "edges": ""}
            for what, same in identical.items()
        ],
        title="Ablation: non-parsimonious graph compaction",
    ))
    write_json_result(
        "ablation_optimize", rows,
        identical_to_parsimonious=identical,
        edges_folded=optimized.stats.edges_folded,
    )

    assert all(identical.values()), identical
    assert after.n_nodes < before.n_nodes
    assert after.n_edges < before.n_edges
    assert optimized.stats.edges_folded > 0
