"""Regression tests for :class:`PlanCache` stale-version eviction.

Plan keys embed the statistics-catalog version, so an entry built
against an old version can never hit again once the graph mutates.
Before the version-aware sweep, such dead entries lingered until LRU
capacity pressure — under a CDC-style interleaving of queries and
mutations the cache filled with garbage and evicted live plans.
"""

from __future__ import annotations

from repro.pg.store import PropertyGraphStore
from repro.query.cypher import CypherEngine
from repro.query.plan.cache import PlanCache
from repro.query.sparql import SparqlEngine
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Triple


def test_put_sweeps_stale_version_entries():
    cache = PlanCache(maxsize=128)
    cache.put(("q1", 1), "plan-a", version=1)
    cache.put(("q2", 1), "plan-b", version=1)
    assert len(cache) == 2
    cache.put(("q1", 2), "plan-a2", version=2)
    # Both version-1 entries are dead (their keys embed version 1).
    assert len(cache) == 1
    assert cache.get(("q1", 2)) == "plan-a2"
    assert cache.get(("q1", 1)) is None
    assert cache.get(("q2", 1)) is None


def test_unversioned_put_keeps_legacy_lru_behaviour():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("a") is None
    assert cache.get("c") == 3


def test_clear_resets_version_tracking():
    cache = PlanCache()
    cache.put("a", 1, version=5)
    cache.clear()
    assert len(cache) == 0
    cache.put("b", 2, version=1)  # older version after clear is fine
    assert cache.get("b") == 2


def test_cache_stays_bounded_across_mutations_sparql():
    ex = "http://example.org/"
    graph = Graph()
    p = IRI(f"{ex}knows")
    for i in range(10):
        graph.add(Triple(IRI(f"{ex}s{i}"), p, IRI(f"{ex}s{(i + 1) % 10}")))
    engine = SparqlEngine(graph)
    query = f"SELECT ?a ?b WHERE {{ ?a <{ex}knows> ?b . }}"
    for i in range(60):
        engine.query(query)
        # Mutation bumps the catalog version; the next planned query
        # must sweep the now-dead entry instead of accumulating it.
        graph.add(Triple(IRI(f"{ex}x{i}"), p, Literal(str(i))))
    engine.query(query)
    assert len(engine.planner.cache) <= 2


def test_cache_stays_bounded_across_mutations_cypher():
    ex = "http://example.org/"
    store = PropertyGraphStore()
    for i in range(6):
        store.add_node(f"s{i}", ["Person"], {"iri": f"{ex}s{i}"})
    for i in range(6):
        store.add_edge(f"s{i}", f"s{(i + 1) % 6}", ["knows"], edge_id=f"e{i}")
    engine = CypherEngine(store)
    query = "MATCH (a:Person)-[:knows]->(b) RETURN a, b"
    for i in range(40):
        engine.query(query)
        store.add_node(f"extra{i}", ["Person"], {"iri": f"{ex}extra{i}"})
    engine.query(query)
    assert len(engine.planner.cache) <= 2


# --------------------------------------------------------------------- #
# Generic plans: one plan per query shape, constants are parameters
# --------------------------------------------------------------------- #

import inspect
import random
from collections import Counter

import pytest

from repro import obs
from repro.core import S3PG
from repro.datasets import dbpedia2022_spec, dbpedia_workload
from repro.datasets.dbpedia import build_dbpedia2022
from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows
from repro.namespaces import RDF, RDFS
from repro.query import translate_sparql_to_cypher
from repro.query.plan import CypherPlanner, SparqlPlanner
from repro.shapes.extractor import extract_shapes


def _point_statements(graph, count: int = 1000):
    """``(template key, limited, SPARQL)``: the six point-lookup templates,
    each IRI constant used by one statement only.

    The template key names what stays in a statement's shape (template,
    predicates, class), so the distinct keys bound the plans needed.
    """
    rng = random.Random(11)
    skip = {str(RDF.type), str(RDFS.subClassOf)}
    plain = [t for t in sorted(graph, key=str)
             if t.p.value not in skip and isinstance(t.s, IRI)]
    rng.shuffle(plain)
    links = [t for t in plain if isinstance(t.o, IRI)]
    used: set = set()
    out = []

    def fresh(term) -> bool:
        if term in used:
            return False
        used.add(term)
        return True

    def smallest_class(subject):
        names = sorted(c.value for c in graph.types_of(subject))
        return names[0] if names else None

    for t in plain:
        if len(out) >= count * 0.55:
            break
        if not fresh(t.s):
            continue
        s, p = t.s.value, t.p.value
        kind = len(out) % 4
        if kind == 0:
            out.append((("hop", p), False,
                        f"SELECT ?o WHERE {{ <{s}> <{p}> ?o . }}"))
        elif kind == 1:
            out.append((("filter", p), False,
                        f"SELECT ?e ?o WHERE {{ ?e <{p}> ?o . "
                        f"FILTER(?e = <{s}>) }}"))
        elif kind == 2 and isinstance(t.o, IRI) and smallest_class(t.s):
            cls = smallest_class(t.s)
            out.append((("typed", p, cls), False,
                        f"SELECT ?o WHERE {{ <{s}> a <{cls}> ; <{p}> ?o . }}"))
        else:
            nxt = next((n for n in sorted(graph.triples(t.o, None, None), key=str)
                        if n.p.value not in skip), None) if isinstance(t.o, IRI) else None
            if nxt is None:
                out.append((("hop", p), False,
                            f"SELECT ?o WHERE {{ <{s}> <{p}> ?o . }}"))
            else:
                out.append((("two_hop", p, nxt.p.value), False,
                            f"SELECT ?x WHERE {{ <{s}> <{p}> ?m . "
                            f"?m <{nxt.p.value}> ?x . }}"))
    for t in links:
        if len(out) >= count * 0.8:
            break
        if fresh(t.o):
            out.append((("object", t.p.value), False,
                        f"SELECT ?s WHERE {{ ?s <{t.p.value}> <{t.o.value}> . }}"))
    # Constants the graph has never seen still reuse their shape's plan.
    predicates = sorted({t.p.value for t in plain})
    i = 0
    while len(out) < count * 0.9:
        p = predicates[i % len(predicates)]
        out.append((("hop", p), False,
                    f"SELECT ?o WHERE {{ <http://absent.example/{i}> <{p}> ?o . }}"))
        i += 1
    limited = [q.sparql + " LIMIT 10" for q in dbpedia_workload(dbpedia2022_spec())]
    while len(out) < count:
        text = limited[len(out) % len(limited)]
        out.append((("limit10", text), True, text))
    rng.shuffle(out)
    return out


@pytest.fixture(scope="module")
def point_engines():
    graph = build_dbpedia2022(100)
    result = S3PG().transform(graph, extract_shapes(graph))
    store = PropertyGraphStore(result.graph)
    return graph, store, result.mapping


def _shape_keys(planner):
    return [execution.key for execution in planner.last_executions]


def test_point_lookups_plan_once_per_shape(point_engines):
    graph, store, mapping = point_engines
    statements = _point_statements(graph)
    assert len(statements) == 1000
    template_keys = {key for key, _, _ in statements}
    arms = {
        "sparql": (SparqlEngine(graph), SparqlEngine(graph, planner=False),
                   normalize_sparql_rows, lambda text: text),
        "cypher": (CypherEngine(store), CypherEngine(store, planner=False),
                   normalize_cypher_rows,
                   lambda text: translate_sparql_to_cypher(text, mapping)),
    }
    for lang, (planned, reference, bag, to_text) in arms.items():
        shapes = set()
        for _, limited, sparql in statements:
            text = to_text(sparql)
            rows = planned.query(text)
            shapes.update(_shape_keys(planned.planner))
            expected = reference.query(text)
            if limited:
                assert len(rows) == len(expected), text
            else:
                assert bag(rows) == bag(expected), text
        stats = planned.planner.cache.stats()
        # Each shape is planned once; no constant ever forces a re-plan,
        # and the plans fit the default cache.
        assert stats["misses"] == len(shapes), lang
        assert len(shapes) <= len(template_keys) < 128, lang
        assert len(planned.planner.cache) <= 128
        assert stats["hits"] + stats["misses"] == 1000
        assert stats["hit_ratio"] >= 0.85, (lang, stats)


# Hub-skewed data: "hot" tags 40 subjects, "cold" one.  A plan costed
# for either constant alone would start the join differently.
_SKEW = Graph(
    [Triple(IRI(f"http://s/{i}"), IRI("http://s/tag"), Literal("hot"))
     for i in range(40)]
    + [Triple(IRI("http://s/0"), IRI("http://s/tag"), Literal("cold"))]
    + [Triple(IRI(f"http://s/{i}"), IRI("http://s/name"), Literal(f"n{i}"))
       for i in range(0, 40, 3)]
)
_SKEW_SPARQL = (
    'SELECT ?s ?n WHERE {{ ?s <http://s/tag> "{}" . ?s <http://s/name> ?n . }}'
)


def _skew_store() -> PropertyGraphStore:
    store = PropertyGraphStore(property_indexes=("iri", "k"))
    for i in range(40):
        store.add_node(f"p{i}", ["Person"], {"iri": f"http://s/{i}",
                                             "k": "hot" if i else "cold"})
    for i in range(40):
        store.add_node(f"c{i}", ["City"], {"iri": f"http://c/{i}"})
        if i % 4 == 0:
            store.add_edge(f"p{i}", f"c{i}", ["LIVES_IN"], edge_id=f"e{i}")
    return store


_SKEW_CYPHER = (
    "MATCH (p:Person)-[:LIVES_IN]->(c) WHERE p.k = '{}' RETURN p.iri, c.iri"
)


@pytest.mark.parametrize("lang", ["sparql", "cypher"])
def test_generic_plan_is_independent_of_constant_order(lang):
    """Constants A then B on one engine and B then A on another: every
    constant's EXPLAIN is identical, so no plan was costed for whichever
    constant arrived first."""
    if lang == "sparql":
        make, template = (lambda: SparqlEngine(_SKEW)), _SKEW_SPARQL
    else:
        store = _skew_store()
        make, template = (lambda: CypherEngine(store)), _SKEW_CYPHER
    first, second = make(), make()
    a, b = template.format("hot"), template.format("cold")
    explained = {
        "ab": [first.explain(a), first.explain(b)],
        "ba": [second.explain(b), second.explain(a)],
    }
    assert explained["ab"][0] == explained["ba"][1]
    assert explained["ab"][1] == explained["ba"][0]
    assert first.planner.cache.stats()["misses"] == 1
    assert second.planner.cache.stats()["misses"] == 1


@pytest.mark.parametrize("lang", ["sparql", "cypher"])
def test_reused_plan_explains_this_executions_constant(lang):
    if lang == "sparql":
        engine, template = SparqlEngine(_SKEW), _SKEW_SPARQL
        render = '"{}"'
    else:
        engine, template = CypherEngine(_skew_store()), _SKEW_CYPHER
        render = "'{}'"
    tracker = obs.install_workload()
    try:
        hot = engine.explain(template.format("hot"))
        cold = engine.explain(template.format("cold"))
    finally:
        obs.uninstall_workload()
    assert engine.planner.cache.stats()["hits"] == 1
    assert render.format("hot") in hot and render.format("hot") not in cold
    assert render.format("cold") in cold and render.format("cold") not in hot
    (execution,) = engine.planner.last_executions
    details = " ".join(node.detail for node in execution.explain().walk())
    assert render.format("cold") in details
    (statement,) = tracker.snapshot()
    assert statement["calls"] == 2 and statement["plan_cache_hits"] == 1


def test_planners_take_no_new_argument():
    for planner, source in ((SparqlPlanner, "graph"), (CypherPlanner, "store")):
        assert list(inspect.signature(planner).parameters) == [
            source, "cache_size",
        ]
        assert inspect.signature(planner).parameters["cache_size"].default == 128
