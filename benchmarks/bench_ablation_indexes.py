"""Ablation — SPO/POS/OSP permutation indexes vs full-scan matching.

The RDF substrate maintains three permutation indexes (DESIGN.md §5.3).
This ablation evaluates the same workload queries against an index-free
store (every triple pattern answered by scanning the triple list) to
quantify what the indexes buy the SPARQL engine.  Both arms run the
reference matcher (``planner=False``): it reads every pattern through
``graph.triples``, while the planned batch scan reads the postings
directly and would never reach the override.
"""

from __future__ import annotations

import pytest
from conftest import write_json_result, write_result

from repro.eval import render_table
from repro.query.sparql import SparqlEngine
from repro.rdf import Graph


class ScanGraph(Graph):
    """A triple store whose pattern matching always scans everything."""

    def triples(self, s=None, p=None, o=None):
        for triple in iter(self):
            if s is not None and triple.s != s:
                continue
            if p is not None and triple.p != p:
                continue
            if o is not None and triple.o != o:
                continue
            yield triple

    def count(self, s=None, p=None, o=None):
        return sum(1 for _ in self.triples(s, p, o))


_TIMES: dict[str, float] = {}


@pytest.mark.parametrize("variant", ["indexed", "scan"])
def test_ablation_index_variants(benchmark, dbpedia2022_bundle,
                                 dbpedia_queries, variant):
    """Run a slice of the workload on one store variant."""
    if variant == "indexed":
        graph = dbpedia2022_bundle.graph
    else:
        graph = ScanGraph(dbpedia2022_bundle.graph)
    engine = SparqlEngine(graph, planner=False)
    queries = [q.sparql for q in dbpedia_queries[:6]]

    def run_all():
        return sum(len(engine.query(q)) for q in queries)

    total = benchmark.pedantic(run_all, rounds=3, iterations=1, warmup_rounds=1)
    assert total > 0
    _TIMES[variant] = benchmark.stats.stats.mean


def test_ablation_index_report(benchmark):
    """Render the speedup table; the indexes must win clearly."""
    if "indexed" not in _TIMES or "scan" not in _TIMES:
        pytest.skip("variant benchmarks were deselected")
    speedup = benchmark.pedantic(
        lambda: _TIMES["scan"] / _TIMES["indexed"], rounds=1
    )
    write_result("ablation_indexes.txt", render_table(
        [
            {"variant": "indexed (SPO/POS/OSP)", "mean_s": _TIMES["indexed"]},
            {"variant": "full scan", "mean_s": _TIMES["scan"]},
            {"variant": "speedup", "mean_s": f"{speedup:.1f}x"},
        ],
        title="Ablation: permutation indexes vs full scans",
    ))
    write_json_result(
        "ablation_indexes",
        {"indexed_s": _TIMES["indexed"], "scan_s": _TIMES["scan"],
         "speedup": round(speedup, 2)},
    )
    assert speedup > 2.0
