"""Tests for OPTIONAL / ORDER BY in both engines and the translator."""

import pytest

from repro.core import scalar_to_lexical, transform
from repro.errors import QueryError, TranslationError
from repro.pg import PropertyGraph, PropertyGraphStore
from repro.query import CypherEngine, SparqlEngine, translate_sparql_to_cypher
from repro.query.cypher import parse_cypher
from repro.query.sparql import parse_sparql
from repro.rdf import parse_turtle
from repro.shacl import parse_shacl

GRAPH = parse_turtle("""
@prefix : <http://x/> .
:a a :P ; :name "A" ; :nick "Ace" ; :buddy :b .
:b a :P ; :name "B" .
:c a :P ; :name "C" ; :nick "Cat" .
""")

PROLOG = "PREFIX : <http://x/> "


class TestSparqlOptional:
    def test_optional_keeps_unmatched_rows(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + "SELECT ?n ?k WHERE { ?e a :P ; :name ?n . "
                     "OPTIONAL { ?e :nick ?k } }"
        )
        assert len(rows) == 3
        assert sum(1 for r in rows if "k" in r) == 2

    def test_optional_extends_matched_rows(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + 'SELECT ?k WHERE { ?e :name "A" . OPTIONAL { ?e :nick ?k } }'
        )
        assert str(rows[0]["k"]) == "Ace"

    def test_multiple_optionals(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + "SELECT ?n ?k ?m WHERE { ?e a :P ; :name ?n . "
                     "OPTIONAL { ?e :nick ?k } OPTIONAL { ?e :buddy ?m } }"
        )
        assert len(rows) == 3
        a_row = next(r for r in rows if str(r["n"]) == "A")
        assert str(a_row["m"]) == "http://x/b"

    def test_filter_on_unbound_optional_var_is_false(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + "SELECT ?n WHERE { ?e a :P ; :name ?n . "
                     'OPTIONAL { ?e :nick ?k } FILTER(?k = "Cat") }'
        )
        assert [str(r["n"]) for r in rows] == ["C"]

    def test_parse_optional_group(self):
        query = parse_sparql(
            PROLOG + "SELECT ?e WHERE { ?e a :P . OPTIONAL { ?e :nick ?k } }"
        )
        assert len(query.optionals) == 1


class TestSparqlOrderBy:
    def test_ascending(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + "SELECT ?n WHERE { ?e :name ?n . } ORDER BY ?n"
        )
        assert [str(r["n"]) for r in rows] == ["A", "B", "C"]

    def test_descending(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + "SELECT ?n WHERE { ?e :name ?n . } ORDER BY DESC(?n)"
        )
        assert [str(r["n"]) for r in rows] == ["C", "B", "A"]

    def test_order_then_limit(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + "SELECT ?n WHERE { ?e :name ?n . } ORDER BY ?n LIMIT 2"
        )
        assert [str(r["n"]) for r in rows] == ["A", "B"]

    def test_multiple_keys(self):
        rows = SparqlEngine(GRAPH).query(
            PROLOG + "SELECT ?n ?k WHERE { ?e :name ?n . "
                     "OPTIONAL { ?e :nick ?k } } ORDER BY ?k DESC(?n)"
        )
        # Unbound ?k sorts first.
        assert "k" not in rows[0]

    def test_empty_order_by_rejected(self):
        with pytest.raises(QueryError):
            parse_sparql(PROLOG + "SELECT ?n WHERE { ?e :name ?n . } ORDER BY")


class TestOrderByLimitPipelined:
    """LIMIT must truncate the *sorted* rows, never a pipelined prefix.

    With the planner's pull-based batch operators, results stream out
    of the plan in join order; a limit smaller than the result set would
    return the wrong rows if it were applied before the sort completes.
    Both ends of the ordering are checked so at most one of them can
    coincide with the plan's emission order by accident.
    """

    STRATEGIES = ({"planner": False}, {})

    @pytest.mark.parametrize("kwargs", STRATEGIES)
    def test_sparql_sorts_before_truncating(self, kwargs):
        engine = SparqlEngine(GRAPH, **kwargs)
        base = PROLOG + "SELECT ?n WHERE { ?e a :P ; :name ?n . } ORDER BY "
        first = engine.query(base + "?n LIMIT 1")
        last = engine.query(base + "DESC(?n) LIMIT 1")
        assert [str(r["n"]) for r in first] == ["A"]
        assert [str(r["n"]) for r in last] == ["C"]

    @pytest.mark.parametrize("kwargs", STRATEGIES)
    def test_sparql_limit_smaller_than_sorted_prefix(self, kwargs):
        engine = SparqlEngine(GRAPH, **kwargs)
        rows = engine.query(
            PROLOG + "SELECT ?n WHERE { ?e a :P ; :name ?n . } "
            "ORDER BY DESC(?n) LIMIT 2"
        )
        assert [str(r["n"]) for r in rows] == ["C", "B"]

    @pytest.mark.parametrize("kwargs", STRATEGIES)
    def test_cypher_sorts_before_truncating(self, kwargs):
        pg = PropertyGraph()
        for node_id, name in (("a", "A"), ("b", "B"), ("c", "C")):
            pg.add_node(node_id, labels={"P"}, properties={"name": name})
        engine = CypherEngine(PropertyGraphStore(pg), **kwargs)
        base = "MATCH (p:P) RETURN p.name AS n ORDER BY n"
        first = engine.query(base + " LIMIT 1")
        last = engine.query(base + " DESC LIMIT 1")
        assert [r["n"] for r in first] == ["A"]
        assert [r["n"] for r in last] == ["C"]


@pytest.fixture(scope="module")
def cypher_engine():
    pg = PropertyGraph()
    pg.add_node("a", labels={"P"}, properties={"name": "A", "nick": "Ace"})
    pg.add_node("b", labels={"P"}, properties={"name": "B"})
    pg.add_node("x", labels={"N"}, properties={"v": 1})
    pg.add_edge("a", "x", labels={"rel"})
    return CypherEngine(PropertyGraphStore(pg))


class TestCypherOptionalMatch:
    def test_unmatched_binds_null(self, cypher_engine):
        rows = cypher_engine.query(
            "MATCH (p:P) OPTIONAL MATCH (p)-[:rel]->(n) "
            "RETURN p.name AS name, n.v AS v ORDER BY name"
        )
        assert rows == [{"name": "A", "v": 1}, {"name": "B", "v": None}]

    def test_optional_with_where(self, cypher_engine):
        rows = cypher_engine.query(
            "MATCH (p:P) OPTIONAL MATCH (p)-[:rel]->(n) WHERE n.v > 5 "
            "RETURN p.name AS name, n.v AS v ORDER BY name"
        )
        assert all(r["v"] is None for r in rows)

    def test_parse_optional_flag(self):
        query = parse_cypher("MATCH (p) OPTIONAL MATCH (p)-[:r]->(q) RETURN p")
        assert query.parts[0].clauses[1].optional


class TestCypherOrderBy:
    def test_order_by_alias(self, cypher_engine):
        rows = cypher_engine.query("MATCH (p:P) RETURN p.name AS n ORDER BY n DESC")
        assert [r["n"] for r in rows] == ["B", "A"]

    def test_order_by_expression(self, cypher_engine):
        rows = cypher_engine.query("MATCH (p:P) RETURN p.name AS n ORDER BY p.nick")
        # null nick ("B") sorts first.
        assert [r["n"] for r in rows] == ["B", "A"]

    def test_order_by_with_count_requires_alias(self, cypher_engine):
        with pytest.raises(QueryError):
            cypher_engine.query(
                "MATCH (p:P) RETURN count(*) AS c ORDER BY p.name"
            )

    def test_order_by_count_alias(self, cypher_engine):
        rows = cypher_engine.query(
            "MATCH (p:P) RETURN p.name AS n, count(*) AS c ORDER BY c DESC, n"
        )
        assert [r["n"] for r in rows] == ["A", "B"]


SHAPES = parse_shacl("""
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://x/> .
@prefix shapes: <http://x/shapes#> .
shapes:P a sh:NodeShape ; sh:targetClass :P ;
  sh:property [ sh:path :name ; sh:datatype xsd:string ;
                sh:minCount 1 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :nick ; sh:datatype xsd:string ;
                sh:minCount 0 ; sh:maxCount 1 ] ;
  sh:property [ sh:path :tags ; sh:datatype xsd:string ; sh:minCount 0 ] ;
  sh:property [ sh:path :buddy ; sh:nodeKind sh:IRI ; sh:class :P ;
                sh:minCount 0 ] .
""")


@pytest.fixture(scope="module")
def translation_setup():
    result = transform(GRAPH, SHAPES)
    return result, SparqlEngine(GRAPH), CypherEngine(PropertyGraphStore(result.graph))


def check_equivalent(setup, sparql: str, columns: list[str]):
    result, sparql_engine, cypher_engine = setup
    cypher = translate_sparql_to_cypher(sparql, result.mapping)
    gt = [
        tuple(str(row[c]) if c in row else "" for c in columns)
        for row in sparql_engine.query(sparql)
    ]
    pg = [
        tuple("" if row[c] is None else scalar_to_lexical(row[c]) for c in columns)
        for row in cypher_engine.query(cypher)
    ]
    assert gt == pg, cypher
    return cypher


class TestTranslatorOptionalOrderBy:
    def test_optional_key_value(self, translation_setup):
        cypher = check_equivalent(
            translation_setup,
            PROLOG + "SELECT ?n ?k WHERE { ?e a :P ; :name ?n . "
                     "OPTIONAL { ?e :nick ?k } } ORDER BY ?n",
            ["n", "k"],
        )
        assert "OPTIONAL MATCH" not in cypher  # nullable projection instead

    def test_optional_edge(self, translation_setup):
        cypher = check_equivalent(
            translation_setup,
            PROLOG + "SELECT ?n ?m WHERE { ?e a :P ; :name ?n . "
                     "OPTIONAL { ?e :buddy ?m } } ORDER BY ?n",
            ["n", "m"],
        )
        assert "OPTIONAL MATCH" in cypher

    def test_order_by_desc(self, translation_setup):
        cypher = check_equivalent(
            translation_setup,
            PROLOG + "SELECT ?n WHERE { ?e a :P ; :name ?n . } ORDER BY DESC(?n)",
            ["n"],
        )
        assert "ORDER BY n DESC" in cypher

    def test_order_by_unprojected_var_rejected(self, translation_setup):
        result, _, _ = translation_setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?n WHERE { ?e a :P ; :name ?n ; :nick ?k . } "
                         "ORDER BY ?k",
                result.mapping,
            )

    def test_optional_array_key_value_rejected(self, translation_setup):
        result, _, _ = translation_setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?n ?t WHERE { ?e a :P ; :name ?n . "
                         "OPTIONAL { ?e :tags ?t } }",
                result.mapping,
            )

    def test_optional_type_pattern_rejected(self, translation_setup):
        result, _, _ = translation_setup
        with pytest.raises(TranslationError):
            translate_sparql_to_cypher(
                PROLOG + "SELECT ?e WHERE { ?e :name ?n . OPTIONAL { ?e a :P } }",
                result.mapping,
            )
