"""Bound constants as index seeks: WHERE / FILTER equality pushdown.

Both planners move ``var = constant`` out of the filter and into seed
selection.  The rewrite must be exact, so every query here runs on the
planned engine and on the ``planner=False`` reference arm (which
evaluates the filter as written) and the two answer bags must agree.
Separate checks pin *whether* a conjunct was absorbed, because a
conservative rewrite that pushed nothing would pass the bag checks too.
"""

from __future__ import annotations

import pytest

from repro.pg import PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine, parse_cypher, parse_sparql
from repro.query.plan.cypher_plan import absorb_where
from repro.query.sparql.evaluator import _pin_filter_iris
from repro.rdf import parse_turtle

X = "http://x/"


def _store() -> PropertyGraphStore:
    """Nodes whose ``k`` is 1, 1.0, True, '1', 2, a list, or absent."""
    store = PropertyGraphStore(property_indexes=("iri", "k"))
    values = {"n0": 1, "n1": 1.0, "n2": True, "n3": "1", "n4": 2, "n5": [1, 2]}
    for i in range(7):
        name = f"n{i}"
        properties = {"iri": X + name, "name": "even" if i % 2 == 0 else "odd"}
        if name in values:
            properties["k"] = values[name]
        store.add_node(name, ["Person" if i < 4 else "City"], properties)
    for i in range(6):
        store.add_edge(f"n{i}", f"n{i + 1}", ["KNOWS"], {"w": i % 3}, f"e{i}")
    store.add_edge("n0", "n4", ["LIVES_IN"], {}, "l0")
    return store


@pytest.fixture(scope="module")
def cypher_engines():
    store = _store()
    return CypherEngine(store, planner=False), CypherEngine(store)


def _bag(rows):
    return sorted(tuple(repr(row[key]) for key in sorted(row)) for row in rows)


def _absorbed(text: str):
    """(pushed constants per node var, residual WHERE) of the first MATCH."""
    absorbed = absorb_where(parse_cypher(text).parts[0].clauses[0])
    pushed = {
        node.var: dict(node.properties)
        for path in absorbed.paths
        for node in path.node_patterns() if node.properties
    }
    return pushed, absorbed.where


CYPHER_PUSHED = {
    "str": "MATCH (n) WHERE n.k = '1' RETURN n.iri AS i",
    "int": "MATCH (n) WHERE n.k = 1 RETURN n.iri AS i",
    "float": "MATCH (n) WHERE n.k = 1.0 RETURN n.iri AS i",
    "bool": "MATCH (n) WHERE n.k = true RETURN n.iri AS i",
    "reversed operands": "MATCH (n) WHERE 2 = n.k RETURN n.iri AS i",
    "iri seek": f"MATCH (n) WHERE n.iri = '{X}n3' RETURN n.iri AS i, n.k AS k",
    "non-indexed key": "MATCH (n:Person) WHERE n.name = 'odd' RETURN n.iri AS i",
    "absent value": f"MATCH (n) WHERE n.iri = '{X}missing' RETURN n.iri AS i",
    "absent key": "MATCH (n) WHERE n.nope = 1 RETURN n.iri AS i",
    "conjunct with residual": (
        "MATCH (a)-[:KNOWS]->(b) WHERE a.k = 1 AND b.name <> a.name "
        "RETURN a.iri AS a, b.iri AS b"
    ),
    "mid-path seek": (
        f"MATCH (a)-[:KNOWS]->(b)-[:KNOWS]->(c) WHERE b.iri = '{X}n2' "
        "RETURN a.iri AS a, c.iri AS c"
    ),
    "two disconnected seeks": (
        f"MATCH (a), (b) WHERE a.iri = '{X}n0' AND b.iri = '{X}n4' "
        "RETURN a.iri AS a, b.iri AS b"
    ),
    "bound by an earlier MATCH": (
        "MATCH (a:Person) MATCH (a)-[:KNOWS]->(b) WHERE a.k = 1 "
        "RETURN a.iri AS a, b.iri AS b"
    ),
}

CYPHER_KEPT = {
    "OR": "MATCH (n) WHERE n.k = 1 OR n.k = 2 RETURN n.iri AS i",
    "NOT": "MATCH (n) WHERE NOT n.k = 1 RETURN n.iri AS i",
    "relationship variable": (
        "MATCH (a)-[r:KNOWS]->(b) WHERE r.w = 1 RETURN a.iri AS a, b.iri AS b"
    ),
    "null": "MATCH (n:City) WHERE n.nope = null RETURN n.iri AS i",
    "variable only in an earlier MATCH": (
        "MATCH (a:Person) MATCH (b:City) WHERE a.k = 1 "
        "RETURN a.iri AS a, b.iri AS b"
    ),
}


@pytest.mark.parametrize("name", sorted(CYPHER_PUSHED))
def test_cypher_pushed_constants_are_exact(cypher_engines, name):
    reference, planned = cypher_engines
    text = CYPHER_PUSHED[name]
    assert _bag(planned.query(text)) == _bag(reference.query(text)), text


@pytest.mark.parametrize("name", sorted(CYPHER_KEPT))
def test_cypher_kept_conjuncts_stay_exact(cypher_engines, name):
    reference, planned = cypher_engines
    text = CYPHER_KEPT[name]
    assert _bag(planned.query(text)) == _bag(reference.query(text)), text


def test_int_float_bool_constants_agree_with_where_equality(cypher_engines):
    """1, 1.0 and True are one value under Python ``==``, in WHERE, in a
    pattern property and in the property index alike."""
    _, planned = cypher_engines
    expected = {X + "n0", X + "n1", X + "n2"}
    for constant in ("1", "1.0", "true"):
        rows = planned.query(f"MATCH (n) WHERE n.k = {constant} RETURN n.iri AS i")
        assert {row["i"] for row in rows} == expected, constant


def test_absorb_where_pushes_top_level_node_equalities():
    pushed, where = _absorbed(CYPHER_PUSHED["int"])
    assert pushed == {"n": {"k": 1}} and where is None
    pushed, where = _absorbed(CYPHER_PUSHED["conjunct with residual"])
    assert pushed == {"a": {"k": 1}}
    assert where is not None and "name" in repr(where)
    pushed, _ = _absorbed(CYPHER_PUSHED["two disconnected seeks"])
    assert pushed == {"a": {"iri": X + "n0"}, "b": {"iri": X + "n4"}}


@pytest.mark.parametrize("name", sorted(CYPHER_KEPT))
def test_absorb_where_keeps_what_it_cannot_push(name):
    text = CYPHER_KEPT[name]
    match = parse_cypher(text).parts[0].clauses[-2]
    assert absorb_where(match) is match, text


def test_nan_is_not_pushed():
    from repro.query.cypher.ast import CypherComparison, CypherLiteral, \
        PropertyAccess

    match = parse_cypher("MATCH (n) RETURN n").parts[0].clauses[0]
    match.where = CypherComparison(
        "=", PropertyAccess("n", "k"), CypherLiteral(float("nan"))
    )
    assert absorb_where(match) is match


def test_optional_match_is_not_rewritten(cypher_engines):
    """OPTIONAL MATCH is not planned, so its WHERE stays as written: rows
    whose optional part fails the equality are kept with nulls."""
    reference, planned = cypher_engines
    text = (
        "MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) "
        f"WHERE b.iri = '{X}n2' RETURN a.iri AS a, b.iri AS b"
    )
    rows = planned.query(text)
    assert _bag(rows) == _bag(reference.query(text))
    assert sum(row["b"] is None for row in rows) == 3


def test_where_seek_uses_the_iri_index(cypher_engines):
    _, planned = cypher_engines
    plan = planned.explain(CYPHER_PUSHED["two disconnected seeks"])
    assert plan.count("via index iri=") == 2 and "all nodes" not in plan
    assert "with WHERE" not in plan


def test_reused_plan_seeks_each_executions_constant():
    """Two texts that differ only in the WHERE constant share one generic
    plan, and the second execution seeks its own node, not the first's."""
    engine = CypherEngine(_store())
    template = "MATCH (n)-[:KNOWS]->(m) WHERE n.iri = '{}' RETURN m.iri AS m"
    first = engine.query(template.format(X + "n0"))
    second = engine.query(template.format(X + "n3"))
    assert [row["m"] for row in first] == [X + "n1"]
    assert [row["m"] for row in second] == [X + "n4"]
    stats = engine.planner.cache.stats()
    assert (stats["misses"], stats["hits"]) == (1, 1)


def test_columnar_return_runs_after_full_absorption(cypher_engines, monkeypatch):
    """``MATCH ... WHERE n.iri = c RETURN n.iri`` has no residual WHERE,
    so it projects from id columns like a WHERE-free MATCH."""
    reference, planned = cypher_engines
    calls = []
    projected = planned.planner.execute_match_projected

    def spy(*args, **kwargs):
        calls.append(args[0])
        return projected(*args, **kwargs)

    monkeypatch.setattr(planned.planner, "execute_match_projected", spy)
    text = f"MATCH (n) WHERE n.iri = '{X}n1' RETURN n.iri AS i, n.k AS k"
    assert _bag(planned.query(text)) == _bag(reference.query(text))
    assert len(calls) == 1 and calls[0].where is None
    planned.query(CYPHER_PUSHED["conjunct with residual"])
    assert len(calls) == 1  # a residual WHERE takes the generic pipeline


# --------------------------------------------------------------------- #
# SPARQL: FILTER(?v = <iri>) substituted into the BGP
# --------------------------------------------------------------------- #

GRAPH = parse_turtle("""
@prefix : <http://x/> .
:a a :Person ; :name "Ann" ; :knows :b, :c ; :likes :b .
:b a :Person ; :name "Bob" ; :knows :c ; :alias "http://x/a" .
:c a :Person ; :name "Cat" .
:d a :Robot ; :name "Ann" ; :alias "http://x/b" .
""")

PROLOG = "PREFIX : <http://x/> "

SPARQL_CASES = {
    "subject": "SELECT ?e ?o WHERE { ?e :knows ?o . FILTER(?e = :a) }",
    "reversed operands": "SELECT ?o WHERE { ?e :knows ?o . FILTER(:a = ?e) }",
    "predicate": "SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(?p = :likes) }",
    "inside &&": (
        "SELECT ?o WHERE { ?e :knows ?o . FILTER(?e = :a && ?o != :b) }"
    ),
    "absent iri": "SELECT ?o WHERE { ?e :knows ?o . FILTER(?e = :zz) }",
    "two hops": (
        "SELECT ?x WHERE { ?e :knows ?m . ?m :knows ?x . FILTER(?e = :a) }"
    ),
    "object position": (
        "SELECT ?s WHERE { ?s :alias ?v . FILTER(?v = :a) }"
    ),
    "literal constant": 'SELECT ?e WHERE { ?e :name ?n . FILTER(?n = "Ann") }',
    "only in OPTIONAL": (
        "SELECT ?e ?o WHERE { ?e a :Person . OPTIONAL { ?e :knows ?o } "
        "FILTER(?o = :c) }"
    ),
    "select star": "SELECT * WHERE { ?e :knows ?o . FILTER(?e = :b) }",
}

SPARQL_PINNED = {
    "subject": {"e"},
    "reversed operands": {"e"},
    "predicate": {"p"},
    "inside &&": {"e"},
    "absent iri": {"e"},
    "two hops": {"e"},
    "select star": {"e"},
}


@pytest.fixture(scope="module")
def sparql_engines():
    return SparqlEngine(GRAPH, planner=False), SparqlEngine(GRAPH)


def _terms(rows):
    return sorted(tuple((key, row[key].n3()) for key in sorted(row)) for row in rows)


@pytest.mark.parametrize("name", sorted(SPARQL_CASES))
def test_sparql_filter_pushdown_is_exact(sparql_engines, name):
    reference, planned = sparql_engines
    text = PROLOG + SPARQL_CASES[name]
    assert _terms(planned.query(text)) == _terms(reference.query(text)), text


@pytest.mark.parametrize("name", sorted(SPARQL_CASES))
def test_sparql_pins_only_subject_and_predicate_iris(name):
    query = parse_sparql(PROLOG + SPARQL_CASES[name])
    patterns, pinned = _pin_filter_iris(query)
    assert set(pinned) == SPARQL_PINNED.get(name, set())
    for var in pinned:
        assert all(var not in pattern.variables() for pattern in patterns)


def test_object_position_filter_sees_string_literals(sparql_engines):
    """Why object positions are not pinned: this evaluator's ``=`` equates
    an IRI with a string literal spelling it, so substituting the IRI into
    the BGP would drop :b's row."""
    _, planned = sparql_engines
    rows = planned.query(PROLOG + SPARQL_CASES["object position"])
    assert [row["s"].value for row in rows] == [X + "b"]


def test_pinned_variable_is_rebound(sparql_engines):
    _, planned = sparql_engines
    rows = planned.query(PROLOG + SPARQL_CASES["subject"])
    assert {row["e"].value for row in rows} == {X + "a"}
    assert {row["o"].value for row in rows} == {X + "b", X + "c"}
