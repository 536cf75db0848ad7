"""Golden-file EXPLAIN snapshots for the cost-based planner.

The files under ``tests/query/golden/`` pin the exact plan rendering —
operator order, join strategy, estimated vs actual cardinalities — for a
fixed query set over the deterministic Figure 2 university fixture, so
any planner change that alters a plan shape shows up as a readable diff.
Regenerate them by running this module as a script:
``PYTHONPATH=src python tests/query/test_explain_golden.py``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core import S3PG
from repro.datasets.university import university_graph, university_shapes
from repro.pg import PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine

GOLDEN_DIR = Path(__file__).parent / "golden"

PREFIX = "PREFIX uni: <http://example.org/university#>\n"

SPARQL_CASES = {
    # Chain join: student -> advisor -> department (two hash joins).
    "sparql_chain": PREFIX
    + "SELECT ?s ?d WHERE { ?s a uni:Student ; uni:advisedBy ?p . "
    "?p uni:worksFor ?d . }",
    # Star around the professor, with the full modifier tail.
    "sparql_star": PREFIX
    + "SELECT DISTINCT ?n WHERE { ?p a uni:Professor ; uni:name ?n ; "
    "uni:worksFor ?d . } ORDER BY ?n LIMIT 5",
    # Aggregation over a two-pattern join.
    "sparql_count": PREFIX
    + "SELECT (COUNT(*) AS ?n) WHERE { ?s uni:advisedBy ?p . "
    "?p uni:worksFor ?d . }",
}

CYPHER_CASES = {
    # The same chain, natively in Cypher (seed + expands + pivot-free).
    "cypher_chain": (
        "MATCH (s:uni_Student)-[:uni_advisedBy]->(p), "
        "(p)-[:uni_worksFor]->(d) "
        "RETURN s.iri AS s, d.iri AS d"
    ),
    # Mid-path seeding: the department end is the most selective anchor,
    # so the plan pivots and expands the chain backwards.
    "cypher_pivot": (
        "MATCH (p)-[:uni_worksFor]->(d:uni_Department) "
        "RETURN p.iri AS p ORDER BY p"
    ),
    # A WHERE equality on a bound constant becomes the seed: an iri
    # index seek, with no residual WHERE left to evaluate.
    "cypher_where_seek": (
        "MATCH (s:uni_Student)-[:uni_advisedBy]->(p) "
        "WHERE s.iri = 'http://example.org/university#bob' "
        "RETURN p.iri AS p"
    ),
}


def _engines():
    graph = university_graph()
    result = S3PG().transform(graph, university_shapes())
    sparql = SparqlEngine(graph)
    cypher = CypherEngine(PropertyGraphStore(result.graph))
    return sparql, cypher


@pytest.fixture(scope="module")
def engines():
    return _engines()


#: ANALYZE goldens for a representative subset (per engine).
ANALYZE_CASES = {
    "sparql_chain": ("sparql", SPARQL_CASES["sparql_chain"]),
    "cypher_chain": ("cypher", CYPHER_CASES["cypher_chain"]),
    "cypher_pivot": ("cypher", CYPHER_CASES["cypher_pivot"]),
}

_TIME_RE = re.compile(r"time=\d+(?:\.\d+)?ms")


def _mask_text(text: str) -> str:
    """Replace nondeterministic per-operator timings with ``time=?ms``."""
    return _TIME_RE.sub("time=?ms", text)


def _mask_json(node):
    """Replace ``wall_ms`` values throughout an EXPLAIN document."""
    if isinstance(node, dict):
        return {
            key: ("?" if key == "wall_ms" else _mask_json(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_mask_json(value) for value in node]
    return node


def _render(engine, query, analyze=False):
    text = engine.explain(query, analyze=analyze)
    document = engine.explain(query, fmt="json", analyze=analyze)
    if analyze:
        text = _mask_text(text)
        document = _mask_json(document)
    as_json = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return text if text.endswith("\n") else text + "\n", as_json


@pytest.mark.parametrize("name", sorted(SPARQL_CASES))
def test_sparql_explain_matches_golden(engines, name):
    text, as_json = _render(engines[0], SPARQL_CASES[name])
    assert text == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert as_json == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CYPHER_CASES))
def test_cypher_explain_matches_golden(engines, name):
    text, as_json = _render(engines[1], CYPHER_CASES[name])
    assert text == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert as_json == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ANALYZE_CASES))
def test_explain_analyze_matches_golden(engines, name):
    lang, query = ANALYZE_CASES[name]
    engine = engines[0] if lang == "sparql" else engines[1]
    text, as_json = _render(engine, query, analyze=True)
    stem = f"{name}_analyze"
    assert text == (GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert as_json == (GOLDEN_DIR / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ANALYZE_CASES))
def test_analyze_adds_loops_and_timings(engines, name):
    """ANALYZE decorates physical operators with loop counts and wall
    time; a plain EXPLAIN of the same query carries neither field."""
    lang, query = ANALYZE_CASES[name]
    engine = engines[0] if lang == "sparql" else engines[1]

    def walk(node):
        yield node
        for child in node.get("children", ()):
            yield from walk(child)

    analyzed = [
        n for n in walk(engine.explain(query, fmt="json", analyze=True))
        if "actual_loops" in n
    ]
    assert analyzed, "ANALYZE produced no instrumented operators"
    for node in analyzed:
        assert node["actual_loops"] >= 0, node
        assert isinstance(node["wall_ms"], float) and node["wall_ms"] >= 0, node

    plain = engine.explain(query, fmt="json")
    for node in walk(plain):
        assert "actual_loops" not in node, node
        assert "wall_ms" not in node, node


def test_explain_carries_estimates_and_actuals(engines):
    """Every physical operator reports both an estimate and the actual
    row count of the execution the EXPLAIN describes."""
    document = engines[0].explain(SPARQL_CASES["sparql_chain"], fmt="json")

    def walk(node):
        yield node
        for child in node.get("children", ()):
            yield from walk(child)

    physical = [n for n in walk(document) if n["op"] in
                ("BatchScan", "BatchHashJoin", "BatchBindJoin")]
    assert physical, document
    for node in physical:
        assert "est_rows" in node and node["actual_rows"] is not None, node


def test_explain_requires_planner():
    from repro.errors import QueryError

    graph = university_graph()
    engine = SparqlEngine(graph, planner=False)
    with pytest.raises(QueryError):
        engine.explain("SELECT ?s WHERE { ?s ?p ?o . }")


def _regenerate() -> None:  # pragma: no cover
    GOLDEN_DIR.mkdir(exist_ok=True)
    sparql, cypher = _engines()
    for name, query in SPARQL_CASES.items():
        text, as_json = _render(sparql, query)
        (GOLDEN_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
        (GOLDEN_DIR / f"{name}.json").write_text(as_json, encoding="utf-8")
    for name, query in CYPHER_CASES.items():
        text, as_json = _render(cypher, query)
        (GOLDEN_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
        (GOLDEN_DIR / f"{name}.json").write_text(as_json, encoding="utf-8")
    for name, (lang, query) in ANALYZE_CASES.items():
        engine = sparql if lang == "sparql" else cypher
        text, as_json = _render(engine, query, analyze=True)
        stem = f"{name}_analyze"
        (GOLDEN_DIR / f"{stem}.txt").write_text(text, encoding="utf-8")
        (GOLDEN_DIR / f"{stem}.json").write_text(as_json, encoding="utf-8")
    print(f"regenerated golden files in {GOLDEN_DIR}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
