"""Prepared statements: one parse per token shape (repro.query.statements).

A statement's entry is keyed by its token shape (constants replaced by
their token class) plus the values of its structural slots; a later
statement of the shape decodes its parameters from its tokens and runs
the prepared template without parsing.  These tests pin that a hit runs
the same query a full parse would, at scale and for every text the
benchmark and the fuzz oracles send, and that every value the parse
depends on keeps statements apart.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from repro import obs
from repro.core import S3PG, transform
from repro.core.config import DEFAULT_OPTIONS, MONOTONE_OPTIONS
from repro.datasets.dbpedia import build_dbpedia2022
from repro.errors import TranslationError
from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows
from repro.fuzz.generators import generate_case
from repro.fuzz.oracles import _workload
from repro.lexer import CYPHER, SPARQL, Param
from repro.pg import PropertyGraphStore
from repro.query import (
    CypherEngine,
    SparqlEngine,
    parse_cypher,
    parse_sparql,
    translate_sparql_to_cypher,
)
from repro.query.cypher.parser import strip_statement
from repro.query.sparql import evaluate
from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.namespaces import RDF_TYPE, XSD
from repro.rdf.terms import IRI, Literal, Triple
from repro.shacl.parser import parse_shacl
from repro.shapes.extractor import extract_shapes

from .test_plan_cache import _point_statements

REPO = Path(__file__).resolve().parents[2]
X = "http://x/"


def _stats(engine) -> dict:
    return engine.statements.cache.stats()


# --------------------------------------------------------------------- #
# Scale: never-repeated constants, one parse per shape
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def point_setup():
    graph = build_dbpedia2022(100)
    result = S3PG().transform(graph, extract_shapes(graph))
    return graph, PropertyGraphStore(result.graph), result.mapping


def test_point_statements_parse_once_per_shape(point_setup):
    graph, store, mapping = point_setup
    statements = _point_statements(graph)
    assert len(statements) == 1000
    arms = {
        "sparql": (SparqlEngine(graph), SparqlEngine(graph, planner=False),
                   normalize_sparql_rows, lambda text: text),
        "cypher": (CypherEngine(store), CypherEngine(store, planner=False),
                   normalize_cypher_rows,
                   lambda text: translate_sparql_to_cypher(text, mapping)),
    }
    for lang, (planned, reference, bag, to_text) in arms.items():
        fingerprints = set()
        for _, limited, sparql in statements:
            text = to_text(sparql)
            fingerprints.add(obs.fingerprint_query(lang, text)[0])
            rows, expected = planned.query(text), reference.query(text)
            if limited:
                assert len(rows) == len(expected), text
            else:
                assert bag(rows) == bag(expected), text
        stats = _stats(planned)
        # One full parse per statement shape (a fingerprint is one shape:
        # the templates fix the variable names); every other call hits.
        assert stats["misses"] == len(fingerprints), lang
        assert stats["hits"] + stats["misses"] == 1000, lang
        assert len(planned.statements.cache) <= 128, lang
        assert reference.statements is None


# --------------------------------------------------------------------- #
# A hit builds the query a full parse builds
# --------------------------------------------------------------------- #

def _load_gen():
    """The benchmark's input generator (``benchmarks/e2e/gen.py``)."""
    here = REPO / "benchmarks" / "e2e"
    sys.path.insert(0, str(here))
    try:
        spec = importlib.util.spec_from_file_location("e2e_gen", here / "gen.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(here))
    return module


@pytest.fixture(scope="module")
def benchmark_texts(tmp_path_factory):
    """``(lang, text)`` of every query_* input of the benchmark: SPARQL,
    its translation, and native Cypher."""
    gen = _load_gen()
    texts = []
    for workload in ("query_join", "query_scan", "query_point"):
        out = tmp_path_factory.mktemp(workload)
        gen.GENERATORS[workload](
            out, gen.SCALES[workload]["full"], gen.DEFAULT_SEED, "full"
        )
        graph = parse_ntriples(out / "data.nt")
        shapes = parse_shacl((out / "shapes.ttl").read_text(encoding="utf-8"))
        mapping = S3PG().transform(graph, shapes).mapping
        document = json.loads((out / "queries.json").read_text(encoding="utf-8"))
        for query in document["sparql"]:
            texts.append(("sparql", query["text"]))
            texts.append(
                ("cypher", translate_sparql_to_cypher(query["text"], mapping))
            )
        texts += [("cypher", query["text"]) for query in document["cypher_native"]]
    return texts


def _fuzz_texts():
    """``(lang, text)`` of the fuzz oracles' workload and its translations."""
    texts = []
    for seed in (0, 1):
        for index in range(15):
            case = generate_case(seed, index)
            if case.schema is None:
                continue
            graph = Graph(case.triples)
            for sparql in _workload(case):
                texts.append(("sparql", sparql))
                for options in (DEFAULT_OPTIONS, MONOTONE_OPTIONS):
                    mapping = transform(graph, case.schema, options).mapping
                    try:
                        texts.append(
                            ("cypher", translate_sparql_to_cypher(sparql, mapping))
                        )
                    except TranslationError:
                        pass
    return texts


def _substitute(node, params):
    """``node`` with each ``Param`` replaced by its value in ``params``:
    the concrete query a prepared statement runs."""
    if isinstance(node, Param):
        return params[node.index]
    if isinstance(node, (list, tuple)):
        return type(node)(_substitute(item, params) for item in node)
    if is_dataclass(node):
        return replace(node, **{
            f.name: _substitute(getattr(node, f.name), params) for f in fields(node)
        })
    return node


def _assert_hits_build_the_parse(texts):
    engines = {"sparql": SparqlEngine(Graph()), "cypher": CypherEngine(PropertyGraphStore())}
    parse = {"sparql": parse_sparql, "cypher": parse_cypher}
    strip = {"sparql": lambda text: text, "cypher": strip_statement}
    misses = []
    for _ in range(2):  # the second pass hits on every text
        for lang, text in texts:
            bound = engines[lang].statements.prepare(strip[lang](text))
            query = _substitute(bound.statement.template, bound.params)
            assert query == parse[lang](text), text
            assert obs.fingerprint_query(lang, text, bound) == (
                obs.fingerprint_query(lang, text)
            ), text
        misses.append([_stats(engine)["misses"] for engine in engines.values()])
    assert misses[0] == misses[1]


def test_hits_build_the_parse_of_benchmark_texts(benchmark_texts):
    assert len(benchmark_texts) > 400
    _assert_hits_build_the_parse(benchmark_texts)


def test_hits_build_the_parse_of_fuzz_workload_texts():
    texts = _fuzz_texts()
    assert len(texts) > 100
    _assert_hits_build_the_parse(texts)


# --------------------------------------------------------------------- #
# A statement normalises only when the workload tracker reads it
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def point_texts(tmp_path_factory):
    """Planned engines and ``(lang, text)`` of the benchmark's query_point
    statements (smoke scale): SPARQL and its translation."""
    gen = _load_gen()
    out = tmp_path_factory.mktemp("query_point")
    gen.GENERATORS["query_point"](
        out, gen.SCALES["query_point"]["smoke"], gen.DEFAULT_SEED, "smoke"
    )
    graph = parse_ntriples(out / "data.nt")
    shapes = parse_shacl((out / "shapes.ttl").read_text(encoding="utf-8"))
    result = S3PG().transform(graph, shapes)
    document = json.loads((out / "queries.json").read_text(encoding="utf-8"))
    texts = []
    for query in document["sparql"]:
        texts.append(("sparql", query["text"]))
        texts.append(
            ("cypher", translate_sparql_to_cypher(query["text"], result.mapping))
        )
    return graph, PropertyGraphStore(result.graph), texts


def test_statements_fingerprint_only_when_tracked(point_texts):
    graph, store, texts = point_texts
    engines = {"sparql": SparqlEngine(graph), "cypher": CypherEngine(store)}
    obs.uninstall_workload()
    for lang, text in texts:
        engines[lang].query(text)
    strip = {"sparql": lambda text: text, "cypher": strip_statement}
    statements = [
        engines[lang].statements.prepare(strip[lang](text)).statement
        for lang, text in texts
    ]
    assert all("fingerprint" not in s.__dict__ for s in statements)
    lang, text = texts[0]
    obs.install_workload()
    try:
        engines[lang].query(text)
        (stats,) = obs.get_workload().snapshot()
    finally:
        obs.uninstall_workload()
    fingerprinted = {id(s) for s in statements if "fingerprint" in s.__dict__}
    assert fingerprinted == {id(statements[0])}
    assert stats["fingerprint"] == obs.fingerprint_query(lang, text)[0]


# --------------------------------------------------------------------- #
# Every clause that can hold a slot resolves it on a hit
# --------------------------------------------------------------------- #

def _people_graph() -> Graph:
    triples = []
    for i, name in enumerate("abcd"):
        s = IRI(X + name)
        triples += [
            Triple(s, IRI(RDF_TYPE), IRI(X + "PQ"[i % 2])),
            Triple(s, IRI(X + "name"), Literal(name.upper())),
            Triple(s, IRI(X + "name"), Literal(name.upper(), language="en")),
            Triple(s, IRI(X + "age"), Literal(str(20 + i), XSD.integer)),
            Triple(s, IRI(X + "knows"), IRI(X + "abcd"[(i + 1) % 4])),
            Triple(s, IRI(X + ("nick" if i % 2 else "phone")), Literal(f"n{name}")),
        ]
    return Graph(triples)


def _people_store() -> PropertyGraphStore:
    store = PropertyGraphStore(property_indexes=("name",))
    for i, name in enumerate("abcd"):
        store.add_node(name, ["PQ"[i % 2]], {
            "name": name.upper(), "age": 20 + i, "tags": [name, "t"],
        })
    for i, name in enumerate("abcd"):
        store.add_edge(name, "abcd"[(i + 1) % 4], ["KNOWS"], edge_id=f"e{i}")
    return store


#: (template, constants): each constant list shares one token class, so
#: every statement after a template's first is a hit — except REGEX,
#: whose pattern is structural.
_SPARQL_SLOTS = [
    ("SELECT ?c WHERE {{ {{ <{0}> <{x}nick> ?c }} UNION {{ <{0}> <{x}phone> ?c }} }}",
     [X + "a", X + "b", X + "zz"]),
    ("SELECT ?e ?k WHERE {{ ?e <{x}name> ?n . "
     "OPTIONAL {{ ?e <{x}knows> <{0}> . ?e <{x}nick> ?k }} }}", [X + "a", X + "c"]),
    ("SELECT ?e WHERE {{ ?e <{x}name> ?o . FILTER(?o = {0} || ?o = \"D\"@en) }}",
     ['"A"@en', '"B"@en', '"zz"@fr']),
    ("SELECT ?e WHERE {{ ?e <{x}age> ?a . FILTER(?a > {0}) }}", ["20", "22", "-1"]),
    ("SELECT ?e WHERE {{ ?e <{x}name> ?n . FILTER(REGEX(?n, {0})) }}", ['"^[AB]"', '"C"']),
    ("ASK {{ <{0}> <{x}knows> ?o }}", [X + "a", X + "zz"]),
    ("SELECT (COUNT(*) AS ?n) WHERE {{ ?s <{x}knows> <{0}> }}", [X + "a", X + "zz"]),
    ("SELECT ?o WHERE {{ ?s ?p ?o . FILTER(?s = <{0}> && ?p = <{x}knows>) }}",
     [X + "a", X + "b"]),
    ("SELECT ?p WHERE {{ <{x}a> ?p ?o . FILTER(?p = <{0}>) }}",
     [X + "knows", X + "name", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"]),
    ("SELECT ?e WHERE {{ ?e <{x}age> {0} . }}",
     ['"21"^^<http://www.w3.org/2001/XMLSchema#integer>', '"zz"^^<http://x/t>']),
]

_CYPHER_SLOTS = [
    "MATCH (n) WHERE n.name = {0} OR n.age = 22 RETURN n.name",
    "MATCH (n)-[:KNOWS]->(m) WHERE n.name = {0} "
    "OPTIONAL MATCH (m)-[:KNOWS]->(k {{name: {0}}}) RETURN m.name, k.name",
    "MATCH (n) WITH * WHERE n.name <> {0} RETURN n.name, {0} AS c",
    "MATCH (n) UNWIND n.tags AS t WITH * WHERE t = {0} RETURN n.name, t",
    "MATCH (n {{name: {0}}}) RETURN n.age AS a UNION ALL "
    "MATCH (m) WHERE m.name = {0} RETURN m.age AS a",
    "MATCH (n {{name: {0}}})-[:KNOWS]->(m) WHERE m.age > 20 RETURN m.name",
]


def _terms(rows) -> list:
    return sorted(tuple(sorted((k, v.n3()) for k, v in row.items())) for row in rows)


def _values(rows) -> list:
    return sorted(
        tuple(sorted((k, repr(getattr(v, "id", v))) for k, v in row.items()))
        for row in rows
    )


def test_every_slot_resolves_on_a_hit():
    """OPTIONAL / UNION groups, FILTER, ASK, COUNT, a slot pinned into a
    predicate position, WITH / UNWIND / OPTIONAL MATCH / RETURN literals:
    each template runs with several constants on one planned engine,
    equal to the reference arm every time."""
    graph, store = _people_graph(), _people_store()
    planned, reference = SparqlEngine(graph), SparqlEngine(graph, planner=False)
    for template, constants in _SPARQL_SLOTS:
        hits = _stats(planned)["hits"]
        for constant in constants:
            text = template.format(constant, x=X)
            assert _terms(planned.query(text)) == _terms(reference.query(text)), text
        regex = "REGEX" in template
        assert _stats(planned)["hits"] - hits == (0 if regex else len(constants) - 1)
    planned, reference = CypherEngine(store), CypherEngine(store, planner=False)
    for template in _CYPHER_SLOTS:
        for constant in ("'A'", '"B"', "'t'", "'zz'"):
            text = template.format(constant)
            assert _values(planned.query(text)) == _values(reference.query(text)), text
    assert _stats(planned)["misses"] == len(_CYPHER_SLOTS)


# --------------------------------------------------------------------- #
# Value-dependent decisions stay apart
# --------------------------------------------------------------------- #

_GRAPH = Graph([
    Triple(IRI(X + "a"), IRI(X + "p"), IRI(X + "b")),
    Triple(IRI(X + "a"), IRI(X + "p"), IRI(X + "c")),
    Triple(IRI(X + "b"), IRI(X + "p"), IRI(X + "c")),
    Triple(IRI(X + "a"), IRI(X + "q"), Literal("http://x/a")),
    Triple(IRI(X + "a"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
           IRI(X + "C")),
])


def _entries(texts) -> tuple[SparqlEngine, list]:
    engine, reference = SparqlEngine(_GRAPH), SparqlEngine(_GRAPH, planner=False)
    statements = []
    for text in texts:
        assert sorted(map(str, engine.query(text))) == sorted(
            map(str, reference.query(text))
        ), text
        statements.append(engine.statements.prepare(text).statement)
    return engine, statements


@pytest.mark.parametrize("texts", [
    pytest.param((
        f"SELECT ?o WHERE {{ ?s <{X}p> ?o . FILTER(?s = <{X}a>) }}",
        f"SELECT ?o WHERE {{ ?s <{X}p> ?o . FILTER(?s = <_:a>) }}",
    ), id="filter IRI spelled as a blank node"),
    pytest.param((
        f"SELECT ?o WHERE {{ <{X}a> <{X}p> ?o . }} LIMIT 1",
        f"SELECT ?o WHERE {{ <{X}a> <{X}p> ?o . }} LIMIT 2",
    ), id="LIMIT"),
    pytest.param((
        f"SELECT ?o WHERE {{ <{X}a> <{X}p> ?o . }}",
        f"SELECT ?o WHERE {{ <{X}a> <{X}q> ?o . }}",
    ), id="predicate"),
    pytest.param((
        f"SELECT ?s WHERE {{ ?s a <{X}C> . }}",
        f"SELECT ?s WHERE {{ ?s a <{X}D> . }}",
    ), id="class"),
    pytest.param((
        f"SELECT ?v WHERE {{ ?s <{X}q> ?v . FILTER(?s = <{X}a>) }}",
        f'SELECT ?v WHERE {{ ?s <{X}q> ?v . FILTER(?s = "{X}a") }}',
    ), id="IRI and string spelled the same"),
])
def test_value_dependent_decisions_get_their_own_entry(texts):
    engine, statements = _entries(texts)
    assert statements[0] is not statements[1]
    assert _stats(engine)["misses"] == 2


def test_class_objects_stay_apart_when_the_predicate_is_rdf_type():
    """Whether the object is structure depends on the predicate's value:
    the shape then keys on the object too, for every entry after."""
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    engine, statements = _entries([
        f"SELECT ?s WHERE {{ ?s <{X}p> <{X}c> . }}",
        f"SELECT ?s WHERE {{ ?s <{rdf_type}> <{X}C> . }}",
        f"SELECT ?s WHERE {{ ?s <{rdf_type}> <{X}D> . }}",
        f"SELECT ?s WHERE {{ ?s <{X}p> <{X}b> . }}",
        f"SELECT ?s WHERE {{ ?s <{X}p> <{X}c> . }}",
    ])
    assert len({id(statement) for statement in statements[1:3]}) == 2


def test_limit_value_is_part_of_the_entry():
    engine, _ = _entries([
        f"SELECT ?o WHERE {{ <{X}a> <{X}p> ?o . }} LIMIT {n}" for n in (1, 2, 1)
    ])
    rows = [len(engine.query(
        f"SELECT ?o WHERE {{ <{X}a> <{X}p> ?o . }} LIMIT {n}")) for n in (1, 2)]
    assert rows == [1, 2]
    assert _stats(engine)["misses"] == 2


def test_constants_of_a_hit_are_its_own():
    engine = SparqlEngine(_GRAPH)
    template = "SELECT ?o WHERE {{ <{}> <" + X + "p> ?o . }}"
    first = engine.query(template.format(X + "a"))
    second = engine.query(template.format(X + "b"))
    assert sorted(row["o"].value for row in first) == [X + "b", X + "c"]
    assert [row["o"].value for row in second] == [X + "c"]
    assert (_stats(engine)["misses"], _stats(engine)["hits"]) == (1, 1)


def test_slot_kinds_separate_iris_from_strings():
    iri, _ = SPARQL.shape(f"SELECT ?s WHERE {{ ?s <{X}q> <{X}a> . }}")
    string, _ = SPARQL.shape(f'SELECT ?s WHERE {{ ?s <{X}q> "{X}a" . }}')
    assert iri != string
    assert len(iri) == len(string)


def test_cypher_arrows_are_not_iris():
    text = "MATCH (a)<-[:R]-(b)-->(c) RETURN a"
    kinds = [token.kind for token in CYPHER.tokens(text)]
    assert kinds[3:6] == ["punct", "arrow_in", "punct"]
    assert "arrow_out" in kinds and kinds.count("dash") == 2
    (path,) = parse_cypher(text).parts[0].clauses[0].paths
    assert [rel.direction for rel, _ in path.hops] == ["in", "out"]


def test_parsed_queries_evaluate_on_planned_engines():
    """``evaluate`` of a parsed AST (not a prepared statement) on a
    planned engine prepares it first."""
    sparql = f"SELECT ?o WHERE {{ ?s <{X}p> ?o . FILTER(?s = <{X}a>) }}"
    planned = SparqlEngine(_GRAPH)
    rows = evaluate(_GRAPH, parse_sparql(sparql), planner=planned.planner)
    assert sorted(row["o"].value for row in rows) == [X + "b", X + "c"]
    store = _people_store()
    cypher = "MATCH (n)-[:KNOWS]->(m) WHERE n.name = 'A' RETURN m.name AS m"
    planned = CypherEngine(store)
    assert planned.evaluate(parse_cypher(cypher)) == [{"m": "B"}]
    assert CypherEngine(store, planner=False).evaluate(parse_cypher(cypher)) == [
        {"m": "B"}
    ]
