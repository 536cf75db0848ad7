"""Edge cases of the batch operators, pinned against the reference arm.

Each test pins a batch-boundary hazard of
:mod:`repro.query.plan.vectorized` against ``planner=False``: batches
straddling LIMIT, empty batches, OPTIONAL null columns around the path
hash join, self-loops through ``BatchExpand``, and a batch-size sweep
asserting identical bags at sizes 1, 2, 3, 7 and 1024.  The property
tests build each join operator directly, so both stay covered whatever
the planner's cost model picks.  The last sections compare rows in
order: those projected straight from the id columns (a tail-free
SPARQL SELECT, a Cypher RETURN with COALESCE), and ``BatchExpand``'s
per-batch loop against its per-edge checks.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import transform
from repro.core.config import DEFAULT_OPTIONS, MONOTONE_OPTIONS
from repro.errors import QueryError
from repro.eval.metrics import normalize_cypher_rows, normalize_sparql_rows
from repro.pg.model import PropertyGraph
from repro.pg.store import PropertyGraphStore
from repro.query.cypher.evaluator import CypherEngine, _value_key
from repro.query.cypher.parser import parse_cypher
from repro.query.plan.cypher_plan import _path_variables
from repro.query.plan.vectorized import (
    BatchBindJoin,
    BatchConst,
    BatchedBGP,
    BatchHashJoin,
    BatchInput,
    BatchMatchPlan,
    BatchPathHashJoin,
    BatchScan,
    _compile_path_batched,
)
from repro.query.sparql.ast import TriplePattern, Var
from repro.query.sparql.evaluator import SparqlEngine
from repro.query.translate import translate_sparql_to_cypher
from repro.rdf import parse_turtle
from repro.rdf.graph import Graph, Triple
from repro.rdf.terms import IRI, Literal
from repro.shapes.extractor import extract_shapes
from repro.storage.postings import IntPostings

EX = "http://ex/"
BATCH_SIZES = [1, 2, 3, 7, 1024]


def _person_graph(n: int = 50) -> Graph:
    g = Graph()
    rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    for i in range(n):
        p = IRI(EX + f"p/{i}")
        g.add(Triple(p, rdf_type, IRI(EX + "Person")))
        g.add(Triple(p, IRI(EX + "name"), Literal(f"name{i:03d}")))
        g.add(Triple(p, IRI(EX + "knows"), IRI(EX + f"p/{(i * 7) % n}")))
    return g


def _pg() -> PropertyGraph:
    pg = PropertyGraph()
    for i in range(30):
        pg.add_node(f"p{i}", {"Person"}, {"name": f"n{i:02d}", "age": i % 7})
    for i in range(30):
        pg.add_edge(f"p{i}", f"p{(i * 11) % 30}", {"KNOWS"})
        if i % 5 == 0:
            pg.add_edge(f"p{i}", f"p{i}", {"KNOWS"})  # self-loops
    pg.add_edge("p1", "p2", {"KNOWS", "LIKES"})  # multi-label edge
    return pg


def _planned(engine_cls, source, batch_size: int | None = None):
    """A planned engine; ``batch_size`` is set before the first query."""
    engine = engine_cls(source)
    if batch_size is not None:
        engine.planner.batch_size = batch_size
    return engine


def _assert_sparql_matches_reference(graph, query, batch_size=None):
    expected = normalize_sparql_rows(
        SparqlEngine(graph, planner=False).query(query)
    )
    got = normalize_sparql_rows(
        _planned(SparqlEngine, graph, batch_size).query(query)
    )
    assert got == expected, (query, batch_size)
    return expected


def _assert_cypher_matches_reference(store, query, batch_size=None):
    expected = normalize_cypher_rows(
        CypherEngine(store, planner=False).query(query)
    )
    got = normalize_cypher_rows(
        _planned(CypherEngine, store, batch_size).query(query)
    )
    assert got == expected, (query, batch_size)
    return expected


# --------------------------------------------------------------------- #
# LIMIT straddling batch boundaries
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("limit", [1, 7, 8, 9, 49, 200])
def test_sparql_limit_straddles_batches(batch_size, limit):
    """ORDER BY + LIMIT must cut at the same rows regardless of how the
    result bag was chunked into batches (including limits equal to, one
    below, and one past a batch boundary)."""
    g = _person_graph()
    q = (
        f"SELECT ?s ?n WHERE {{ ?s a <{EX}Person> . ?s <{EX}name> ?n . }} "
        f"ORDER BY ?n LIMIT {limit}"
    )
    expected = SparqlEngine(g, planner=False).query(q)
    got = _planned(SparqlEngine, g, batch_size).query(q)
    assert [r["n"].lexical for r in got] == [r["n"].lexical for r in expected]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("limit", [1, 5, 30, 99])
def test_cypher_limit_straddles_batches(batch_size, limit):
    store = PropertyGraphStore(_pg())
    q = f"MATCH (a:Person) RETURN a.name ORDER BY a.name LIMIT {limit}"
    expected = CypherEngine(store, planner=False).query(q)
    assert _planned(CypherEngine, store, batch_size).query(q) == expected


# --------------------------------------------------------------------- #
# Empty batches / empty inputs
# --------------------------------------------------------------------- #

def test_empty_results():
    g = _person_graph(5)
    store = PropertyGraphStore(_pg())
    sparql = [
        f"SELECT ?s WHERE {{ ?s a <{EX}Nothing> . }}",
        f"SELECT ?s ?n WHERE {{ ?s a <{EX}Person> . ?s <{EX}missing> ?n . }}",
        # ?x binds to literals in the first pattern, so the second
        # probes with a literal subject — dead at run time.
        f"SELECT ?o WHERE {{ ?s <{EX}name> ?x . ?x <{EX}name> ?o . }}",
    ]
    for q in sparql:
        assert not _assert_sparql_matches_reference(g, q)
    cypher = [
        "MATCH (a:Ghost) RETURN a.name",
        "MATCH (a:Person)-[:MISSING]->(b) RETURN a.name",
        "MATCH (a:Person {age: 99}) RETURN a.name",
    ]
    for q in cypher:
        assert not _assert_cypher_matches_reference(store, q)


def test_empty_graph():
    _assert_sparql_matches_reference(
        Graph(), f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?o <{EX}q> ?x . }}"
    )
    _assert_cypher_matches_reference(
        PropertyGraphStore(PropertyGraph()), "MATCH (a)-[:R]->(b) RETURN a.name"
    )


# --------------------------------------------------------------------- #
# OPTIONAL null columns around the hash join
# --------------------------------------------------------------------- #

def test_optional_null_shared_var_through_join():
    """OPTIONAL MATCH binds some rows to null; a later MATCH sharing the
    variable must treat null as unbound (rebind), which a hash-join key
    cannot express — the planner must keep that path correlated."""
    pg = _pg()
    pg.add_node("lonely", {"Person"}, {"name": "zz"})  # no KNOWS edges
    store = PropertyGraphStore(pg)
    q = (
        "MATCH (a:Person) "
        "OPTIONAL MATCH (a)-[:LIKES]->(b) "
        "MATCH (b)-[:KNOWS]->(c) "
        "RETURN a.name, b.name, c.name"
    )
    assert _assert_cypher_matches_reference(store, q), (
        "query must return rows for the check to bite"
    )


def test_optional_rows_survive_batched_bgp():
    """OPTIONAL groups run downstream of the batched BGP; unmatched rows
    keep their null extension."""
    g = _person_graph(10)
    g.add(Triple(IRI(EX + "p/3"), IRI(EX + "nick"), Literal("trey")))
    q = (
        f"SELECT ?s ?n ?k WHERE {{ ?s a <{EX}Person> . ?s <{EX}name> ?n . "
        f"OPTIONAL {{ ?s <{EX}nick> ?k . }} }}"
    )
    assert any("k" in row for row in SparqlEngine(g).query(q))
    _assert_sparql_matches_reference(g, q)


# --------------------------------------------------------------------- #
# Self-loops through BatchExpand
# --------------------------------------------------------------------- #

def test_self_loops_directed_and_undirected():
    store = PropertyGraphStore(_pg())
    queries = [
        # Directed: a self-loop matches (a)-[:KNOWS]->(a).
        "MATCH (a:Person)-[:KNOWS]->(a) RETURN a.name",
        # Undirected: openCypher yields a self-loop once, not twice.
        "MATCH (a:Person)-[:KNOWS]-(b) RETURN a.name, b.name",
        # Unconstrained undirected expansion over multi-label edges.
        "MATCH (a)-[r]-(b) RETURN a.name, b.name",
    ]
    for q in queries:
        assert _assert_cypher_matches_reference(store, q), q


def test_rel_var_equals_node_var_is_empty():
    """-[x]->(x) can never match: the same variable cannot be both the
    edge and its endpoint."""
    store = PropertyGraphStore(_pg())
    q = "MATCH (a:Person)-[x:KNOWS]->(x) RETURN a.name"
    assert not _assert_cypher_matches_reference(store, q)


# --------------------------------------------------------------------- #
# Batch-size sweep
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_size_sweep_sparql(batch_size):
    g = _person_graph()
    queries = [
        f"SELECT ?s ?n WHERE {{ ?s a <{EX}Person> . ?s <{EX}name> ?n . }}",
        f"SELECT ?a ?b WHERE {{ ?a <{EX}knows> ?b . ?b <{EX}knows> ?a . }}",
        f"SELECT ?x WHERE {{ ?x <{EX}knows> ?x . }}",
        f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o . }}",
    ]
    for q in queries:
        _assert_sparql_matches_reference(g, q, batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_size_sweep_cypher(batch_size):
    store = PropertyGraphStore(_pg())
    queries = [
        "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name",
        "MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN a.name, c.name",
        "MATCH (a:Person {age: 3}) RETURN a.name",
    ]
    for q in queries:
        _assert_cypher_matches_reference(store, q, batch_size)


# --------------------------------------------------------------------- #
# Storage batch-read API
# --------------------------------------------------------------------- #

def test_postings_extend_into():
    postings = IntPostings()
    for v in (5, 1, 9, 3):
        postings.add(v)
    out = array("q", [42])
    assert postings.extend_into(out) == 4
    assert list(out) == [42, 1, 3, 5, 9]


def test_store_endpoint_arrays_track_version():
    pg = _pg()
    store = PropertyGraphStore(pg)
    src, dst = store.endpoint_arrays()
    names = store._names
    for edge in pg.edges.values():
        eid = names.lookup(edge.id)
        assert names.value(src[eid]) == edge.src
        assert names.value(dst[eid]) == edge.dst
    assert store.endpoint_arrays()[0] is src  # cached per version
    node_ids = store.node_id_array()
    assert {names.value(i) for i in node_ids} == set(pg.nodes)


def test_engines_take_no_execution_options():
    """The removed knobs are gone from the constructors, not ignored."""
    for option in ("exec_mode", "force_join", "batch_size"):
        with pytest.raises(TypeError):
            SparqlEngine(Graph(), **{option: None})
        with pytest.raises(TypeError):
            CypherEngine(PropertyGraphStore(PropertyGraph()), **{option: None})


# --------------------------------------------------------------------- #
# Each join operator, built directly, against the reference arm
# --------------------------------------------------------------------- #

_NODES = [IRI(EX + f"n{i}") for i in range(4)]
_PREDICATES = [IRI(EX + f"p{i}") for i in range(2)]
_OBJECTS = _NODES + [Literal("x"), Literal("y")]
_VARS = [Var("a"), Var("b"), Var("c")]


@st.composite
def _rdf_join_cases(draw):
    triples = draw(st.lists(
        st.tuples(
            st.sampled_from(_NODES),
            st.sampled_from(_PREDICATES),
            st.sampled_from(_OBJECTS),
        ),
        max_size=14,
    ))
    pattern = st.builds(
        TriplePattern,
        st.sampled_from(_VARS + _NODES[:2]),
        st.sampled_from(_VARS + _PREDICATES),
        st.sampled_from(_VARS + _OBJECTS[:2] + _OBJECTS[-1:]),
    )
    return (
        Graph(Triple(*t) for t in triples),
        draw(pattern),
        draw(pattern),
        draw(st.sampled_from([1, 2, 1024])),
    )


@given(_rdf_join_cases())
@settings(max_examples=150, deadline=None)
def test_sparql_join_operators_match_reference(case):
    """BatchHashJoin (keyed or cartesian) and BatchBindJoin over the same
    pattern pair return the reference evaluator's bag."""
    graph, first, second, batch_size = case
    expected = normalize_sparql_rows(
        SparqlEngine(graph, planner=False).query(
            f"SELECT * WHERE {{ {first} {second} }}"
        )
    )
    bound = first.variables()
    shared = tuple(sorted(bound & second.variables()))
    joins = {
        "hash": BatchHashJoin(
            BatchScan(graph, first, 1.0, batch_size),
            BatchScan(graph, second, 1.0, batch_size),
            shared,
            1.0,
        ),
        "bind": BatchBindJoin(
            BatchScan(graph, first, 1.0, batch_size), graph, second, bound, 1.0
        ),
    }
    for tag, root in joins.items():
        plan = BatchedBGP(graph, root)
        plan.prepare()
        assert normalize_sparql_rows(list(plan.run())) == expected, tag


_PATHS = [
    "(a:A)-[r:R]->(b)",
    "(a)-[:R]-(b:B)",
    "(a {k: 1})",
    "(b)-[:S]->(c)",
    "(c:B)<-[r:R]-(b)",
    "(b)-[s]-(a)",
    "(c)-[r]->(c)",
    "(d:A)",
    "(d)-[:S]->(e {k: 0})",
]


@st.composite
def _pg_join_cases(draw):
    pg = PropertyGraph()
    n = draw(st.integers(min_value=1, max_value=5))
    for i in range(n):
        labels = draw(st.sets(st.sampled_from(["A", "B"])))
        pg.add_node(f"n{i}", labels, {"k": draw(st.integers(0, 1))})
    for src, dst, rel_type in draw(st.lists(
        st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from(["R", "S"]),
        ),
        max_size=10,
    )):
        pg.add_edge(f"n{src}", f"n{dst}", {rel_type})
    return (
        pg,
        draw(st.sampled_from(_PATHS)),
        draw(st.sampled_from(_PATHS)),
        draw(st.sampled_from([1, 2, 1024])),
    )


@given(_pg_join_cases())
@settings(max_examples=150, deadline=None)
def test_cypher_path_joins_match_reference(case):
    """BatchPathHashJoin and the correlated
    ``_compile_path_batched`` pipeline over the same path pair return the
    reference evaluator's bag."""
    pg, first_text, second_text, batch_size = case
    store = PropertyGraphStore(pg)
    clause = parse_cypher(
        f"MATCH {first_text}, {second_text} RETURN count(*)"
    ).parts[0].clauses[0]
    first, second = clause.paths
    names = sorted(_path_variables(first) | _path_variables(second))
    reference = CypherEngine(store, planner=False)
    expected = sorted(
        tuple(_value_key(row[name]) for name in names)
        for row in reference.query(
            f"MATCH {first_text}, {second_text} RETURN {', '.join(names)}"
        )
    )
    engine = CypherEngine(store)
    planner = engine.planner
    bound = _path_variables(first)
    shared = tuple(sorted(bound & _path_variables(second)))

    def run(join):
        input_op = BatchInput(batch_size)
        probe = _compile_path_batched(planner, first, set(), input_op, 1.0)
        rows = BatchMatchPlan(input_op, join(probe), store).execute([{}], engine)
        return sorted(
            tuple(_value_key(row[name]) for name in names) for row in rows
        )

    def build():
        return _compile_path_batched(planner, second, set(), BatchConst(), 1.0)

    joins = {
        "columnar": lambda probe: BatchPathHashJoin(
            probe, build(), shared, 1.0, store
        ),
        "correlated": lambda probe: _compile_path_batched(
            planner, second, bound, probe, 1.0
        ),
    }
    for tag, join in joins.items():
        assert run(join) == expected, tag


# --------------------------------------------------------------------- #
# Rows projected straight from the id columns, rows in order
# --------------------------------------------------------------------- #

MIXED = parse_turtle("""
@prefix : <http://x/> .
:a a :Person ; :knows :b , "Zed" , :c ; :name "Ann" .
:b a :Person ; :knows "Amy" , :a , :b ; :name "Bob" .
:c a :Person ; :knows :c , "Zed" ; :name "Ann" .
:d a :Person ; :knows "Zed" .
""")

MIXED_SCANS = [
    "SELECT ?e ?v WHERE { ?e a :Person ; :knows ?v . }",
    "SELECT DISTINCT ?v WHERE { ?e a :Person ; :knows ?v . } "
    "ORDER BY DESC(?v) LIMIT 2",
]


def _same_rows(engine_cls, source, text):
    """The planned rows equal the reference arm's, order included."""
    expected = engine_cls(source, planner=False).query(text)
    assert engine_cls(source).query(text) == expected, text
    return expected


def _spy(monkeypatch, engine, method):
    """Record the arguments of each call of the planner's ``method``."""
    calls = []
    original = getattr(engine.planner, method)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine.planner, method, spy)
    return calls


@pytest.mark.parametrize("options", [DEFAULT_OPTIONS, MONOTONE_OPTIONS])
@pytest.mark.parametrize("text", MIXED_SCANS)
def test_coalesce_over_literal_and_resource_nodes(options, text):
    """A translated object variable is ``COALESCE(v.value, v.iri)``:
    literal nodes answer the first argument, resource nodes the second."""
    result = transform(MIXED, extract_shapes(MIXED), options)
    cypher = translate_sparql_to_cypher("PREFIX : <http://x/> " + text,
                                        result.mapping)
    assert "COALESCE" in cypher
    rows = _same_rows(CypherEngine, PropertyGraphStore(result.graph), cypher)
    values = {row["v"] for row in rows}
    assert {"Zed", "http://x/c"} <= values or "DISTINCT" in text


def test_translated_scan_projects_from_columns(monkeypatch):
    result = transform(MIXED, extract_shapes(MIXED))
    engine = CypherEngine(PropertyGraphStore(result.graph))
    calls = _spy(monkeypatch, engine, "execute_match_projected")
    cypher = translate_sparql_to_cypher(
        "PREFIX : <http://x/> " + MIXED_SCANS[0], result.mapping
    )
    assert len(engine.query(cypher)) == 9
    assert len(calls) == 1


@pytest.mark.parametrize("text", [
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN COALESCE(a.nick, b.name) AS x",
    "MATCH (a:Person)-[r:KNOWS]->(b) "
    "RETURN a.name, COALESCE(r.w, b.nick, a.age) AS x",
    "MATCH (a:Person) RETURN COALESCE(a.nick, 'none') AS x, a.name",
    "MATCH (a:Person) RETURN COALESCE(a.nick, a) AS x",
    "MATCH (a:Person) RETURN COALESCE(null, 7) AS x, a.age",
    # ``z`` is bound by no clause: its property is null.
    "MATCH (a:Person) RETURN COALESCE(z.name, a.name) AS x",
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN COALESCE(b.nick, z.name) AS x",
    # COALESCE stops at the first non-null argument: ``z`` is not reached.
    "MATCH (a:Person) RETURN COALESCE(a.name, z) AS x",
    "MATCH (a:Person)-[:KNOWS]->(b) "
    "RETURN DISTINCT COALESCE(b.nick, b.name) AS x ORDER BY x DESC LIMIT 2",
])
def test_coalesce_projection_matches_reference(monkeypatch, text):
    store = PropertyGraphStore(_pg())
    for node in ("p3", "p4", "p9"):
        store.graph.nodes[node].properties["nick"] = f"nick-{node}"
    engine = CypherEngine(store)
    calls = _spy(monkeypatch, engine, "execute_match_projected")
    expected = CypherEngine(store, planner=False).query(text)
    assert expected
    assert engine.query(text) == expected
    assert calls, "the projection must run on the id columns"


def test_coalesce_reaching_an_unbound_variable_fails_on_both_arms():
    store = PropertyGraphStore(_pg())
    text = "MATCH (a:Person) RETURN COALESCE(a.nick, z) AS x"
    for planner in (False, True):
        with pytest.raises(QueryError, match="unbound variable 'z'"):
            CypherEngine(store, planner=planner).query(text)


@pytest.mark.parametrize("text", [
    "SELECT * WHERE { ?e a :Person ; :knows ?v . }",
    # The planner joins these from ``:name``: ORDER BY fixes the order.
    "SELECT ?e ?nobody WHERE { ?e a :Person ; :name ?n . } ORDER BY ?e",
    "SELECT ?n WHERE { ?e a :Person ; :name ?n . } ORDER BY ?n",
    MIXED_SCANS[1],
    "SELECT DISTINCT ?v WHERE { ?e :knows ?v . } ORDER BY ?v",
    "SELECT ?x WHERE { ?x :knows ?x . }",
    "SELECT ?x WHERE { ?x a :Person . :b :knows ?x . }",
])
def test_tail_free_select_projects_from_columns(monkeypatch, text):
    engine = SparqlEngine(MIXED)
    calls = _spy(monkeypatch, engine, "execute_bgp")
    text = "PREFIX : <http://x/> " + text
    expected = SparqlEngine(MIXED, planner=False).query(text)
    assert expected
    assert engine.query(text) == expected
    assert calls and calls[0][4] is not None, "rows must come from columns"


@pytest.mark.parametrize("text", [
    "SELECT ?e ?v WHERE { ?e a :Person ; :knows ?v . FILTER(isLiteral(?v)) }",
    "SELECT ?e ?n WHERE { ?e a :Person . OPTIONAL { ?e :name ?n . } }",
    "SELECT DISTINCT ?e WHERE { ?e :knows ?v . FILTER(?v != :c) } "
    "ORDER BY ?e",
])
def test_select_with_a_tail_keeps_the_binding_path(monkeypatch, text):
    engine = SparqlEngine(MIXED)
    calls = _spy(monkeypatch, engine, "execute_bgp")
    text = "PREFIX : <http://x/> " + text
    expected = SparqlEngine(MIXED, planner=False).query(text)
    assert expected
    assert engine.query(text) == expected
    assert calls and len(calls[0]) == 4, "a tail needs binding dicts"


def test_explain_analyze_counts_the_projected_rows():
    engine = SparqlEngine(MIXED)
    text = "PREFIX : <http://x/> " + MIXED_SCANS[0]
    plan = engine.explain(text, fmt="json", analyze=True)
    assert plan["actual_rows"] == len(engine.query(text)) == 9


# --------------------------------------------------------------------- #
# BatchExpand: the per-batch fast loop and the per-edge checks
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("text", [
    # Undirected over self-loops: each self-loop once.
    "MATCH (a:Person)-[:KNOWS]-(b) RETURN a.name, b.name",
    "MATCH (a:Person)-[r:KNOWS|LIKES]-(b) RETURN a.name, r, b.name",
    # Several types: an edge carrying both is found once per type.
    "MATCH (a:Person)-[r:KNOWS|LIKES]->(b) RETURN a.name, r, b.name",
    "MATCH (a:Person)<-[:LIKES|KNOWS]-(b) RETURN a.name, b.name",
    "MATCH (a:Person)-[:KNOWS|NOPE]->(b)-[:NOPE|LIKES]->(c) "
    "RETURN a.name, c.name",
    # A rel var and a node var bound by an earlier clause.
    "MATCH (a:Person)-[r:KNOWS]->(b) MATCH (a)-[r]->(c) "
    "RETURN a.name, c.name",
    "MATCH (b:Person {age: 3}) MATCH (a)-[:KNOWS]->(b) "
    "RETURN a.name, b.name",
    "MATCH (a:Person)-[r:KNOWS]->(b) MATCH (c)-[r]-(d) "
    "RETURN c.name, d.name",
])
def test_expand_matches_reference(text):
    pg = _pg()
    pg.add_edge("p5", "p5", {"KNOWS", "LIKES"})
    rows = _same_rows(CypherEngine, PropertyGraphStore(pg), text)
    assert rows, text



@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("text,count", [
    # One row per KNOWS edge: the second MATCH follows r, not every edge.
    ("MATCH (a:Person)-[r:KNOWS]->(b) MATCH (x)-[r]->(y) "
     "RETURN x.name, y.name", 37),
    # b is an incoming row variable, seeded from the rows.
    ("MATCH (b:Person {age: 3}) MATCH (b)-[:KNOWS]->(c) "
     "RETURN b.name, c.name", 5),
    # b is the far endpoint of the expansion, checked against the rows.
    ("MATCH (b:Person {age: 3}) MATCH (a:Person)-[:KNOWS]->(b) "
     "RETURN a.name, b.name", 5),
])
def test_row_bound_variables_constrain(batch_size, text, count):
    """A variable bound by an earlier clause reaches the second MATCH as
    an incoming row value, not a column, and still constrains it."""
    store = PropertyGraphStore(_pg())
    assert len(_same_rows(CypherEngine, store, text)) == count
    assert len(_planned(CypherEngine, store, batch_size).query(text)) == count
