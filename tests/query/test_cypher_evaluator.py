"""Unit tests for Cypher evaluation over the indexed PG store."""

import pytest

from repro.pg import PropertyGraph, PropertyGraphStore
from repro.query.cypher import CypherEngine


@pytest.fixture(scope="module")
def engine() -> CypherEngine:
    pg = PropertyGraph()
    pg.add_node("a", labels={"Person"},
                properties={"iri": "http://x/a", "name": "Ann", "age": 30,
                            "tags": ["x", "y"]})
    pg.add_node("b", labels={"Person"},
                properties={"iri": "http://x/b", "name": "Bob", "age": 25})
    pg.add_node("c", labels={"Person", "Admin"},
                properties={"iri": "http://x/c", "name": "Cat"})
    pg.add_node("lit1", labels={"STRING"}, properties={"value": "hello"})
    pg.add_edge("a", "b", labels={"knows"}, edge_id="e1")
    pg.add_edge("a", "c", labels={"knows"}, edge_id="e2")
    pg.add_edge("b", "lit1", labels={"note"}, edge_id="e3")
    return CypherEngine(PropertyGraphStore(pg))


class TestMatch:
    def test_label_scan(self, engine):
        assert engine.count("MATCH (n:Person) RETURN n") == 3

    def test_multi_label_constraint(self, engine):
        assert engine.count("MATCH (n:Person:Admin) RETURN n") == 1

    def test_property_constraint(self, engine):
        rows = engine.query("MATCH (n {name: 'Bob'}) RETURN n.iri")
        assert rows == [{"n.iri": "http://x/b"}]

    def test_outgoing_traversal(self, engine):
        rows = engine.query("MATCH (a {name: 'Ann'})-[:knows]->(m) RETURN m.name AS n")
        assert {r["n"] for r in rows} == {"Bob", "Cat"}

    def test_incoming_traversal(self, engine):
        rows = engine.query("MATCH (m)<-[:knows]-(a) RETURN m.name AS n")
        assert {r["n"] for r in rows} == {"Bob", "Cat"}

    def test_undirected_traversal(self, engine):
        assert engine.count("MATCH (b {name: 'Bob'})-[:knows]-(x) RETURN x") == 1

    def test_type_alternatives(self, engine):
        assert engine.count("MATCH (n)-[:knows|note]->(m) RETURN m") == 3

    def test_multi_hop(self, engine):
        rows = engine.query(
            "MATCH (a {name: 'Ann'})-[:knows]->(b)-[:note]->(l) RETURN l.value AS v"
        )
        assert rows == [{"v": "hello"}]

    def test_multiple_paths_join_on_shared_var(self, engine):
        rows = engine.query(
            "MATCH (a)-[:knows]->(m), (m)-[:note]->(l) RETURN m.name AS n"
        )
        assert rows == [{"n": "Bob"}]

    def test_where_filters(self, engine):
        rows = engine.query("MATCH (n:Person) WHERE n.age > 26 RETURN n.name AS n")
        assert rows == [{"n": "Ann"}]

    def test_where_less_or_equal_on_integer(self, engine):
        rows = engine.query("MATCH (n:Person) WHERE n.age <= 25 RETURN n.name AS n")
        assert rows == [{"n": "Bob"}]

    def test_where_less_or_equal_on_string(self, engine):
        rows = engine.query(
            "MATCH (n:Person) WHERE n.name <= 'Bob' RETURN n.name AS n")
        assert sorted(r["n"] for r in rows) == ["Ann", "Bob"]

    def test_where_is_null(self, engine):
        rows = engine.query("MATCH (n:Person) WHERE n.age IS NULL RETURN n.name AS n")
        assert rows == [{"n": "Cat"}]

    def test_where_has_label(self, engine):
        rows = engine.query("MATCH (n:Person) WHERE n:Admin RETURN n.name AS n")
        assert rows == [{"n": "Cat"}]

    def test_relationship_variable_bound(self, engine):
        rows = engine.query("MATCH (a)-[r:note]->(b) RETURN r")
        assert len(rows) == 1


class TestUnwindAndWith:
    def test_unwind_array(self, engine):
        rows = engine.query("MATCH (n {name: 'Ann'}) UNWIND n.tags AS t RETURN t")
        assert sorted(r["t"] for r in rows) == ["x", "y"]

    def test_unwind_scalar_yields_itself(self, engine):
        rows = engine.query("MATCH (n {name: 'Bob'}) UNWIND n.name AS v RETURN v")
        assert rows == [{"v": "Bob"}]

    def test_unwind_null_yields_nothing(self, engine):
        rows = engine.query("MATCH (n {name: 'Bob'}) UNWIND n.tags AS v RETURN v")
        assert rows == []

    def test_with_star_where_after_unwind(self, engine):
        rows = engine.query(
            "MATCH (n {name: 'Ann'}) UNWIND n.tags AS t "
            "WITH * WHERE t = 'x' RETURN t"
        )
        assert rows == [{"t": "x"}]


class TestReturn:
    def test_coalesce_mixed_targets(self, engine):
        rows = engine.query(
            "MATCH (n)-[:knows|note]->(m) "
            "RETURN COALESCE(m.value, m.iri) AS v"
        )
        assert {r["v"] for r in rows} == {"http://x/b", "http://x/c", "hello"}

    def test_missing_property_is_null(self, engine):
        rows = engine.query("MATCH (n {name: 'Cat'}) RETURN n.age AS a")
        assert rows == [{"a": None}]

    def test_distinct(self, engine):
        rows = engine.query("MATCH (a)-[:knows]->(m) RETURN DISTINCT a.name AS n")
        assert rows == [{"n": "Ann"}]

    def test_limit(self, engine):
        assert engine.count("MATCH (n:Person) RETURN n LIMIT 2") == 2

    def test_count_star(self, engine):
        rows = engine.query("MATCH (n:Person) RETURN count(*) AS c")
        assert rows == [{"c": 3}]

    def test_count_with_grouping(self, engine):
        rows = engine.query(
            "MATCH (a)-[:knows]->(m) RETURN a.name AS n, count(*) AS c"
        )
        assert rows == [{"n": "Ann", "c": 2}]

    def test_count_empty_match_is_zero(self, engine):
        rows = engine.query("MATCH (n:Ghost) RETURN count(*) AS c")
        assert rows == [{"c": 0}]

    def test_union_all_concatenates(self, engine):
        rows = engine.query(
            "MATCH (n:Admin) RETURN n.name AS v "
            "UNION ALL MATCH (n {name: 'Bob'}) RETURN n.name AS v"
        )
        assert sorted(r["v"] for r in rows) == ["Bob", "Cat"]

    def test_union_all_arity_mismatch_raises(self, engine):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            engine.query(
                "MATCH (n) RETURN n.a AS x "
                "UNION ALL MATCH (n) RETURN n.a AS x, n.b AS y"
            )

    def test_unbound_variable_raises(self, engine):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            engine.query("MATCH (n:Person) RETURN ghost")


class TestSelfLoopUniqueness:
    @pytest.fixture(scope="class")
    def loop_engine(self) -> CypherEngine:
        pg = PropertyGraph()
        pg.add_node("a", labels={"Person"}, properties={"name": "Ann"})
        pg.add_node("b", labels={"Person"}, properties={"name": "Bob"})
        pg.add_edge("a", "a", labels={"knows"}, edge_id="loop")
        pg.add_edge("a", "b", labels={"knows"}, edge_id="e1")
        return CypherEngine(PropertyGraphStore(pg))

    def test_undirected_match_yields_loop_once(self, loop_engine):
        # The self-loop matches once; the a-b edge matches from both ends.
        assert loop_engine.count("MATCH (x)-[:knows]-(y) RETURN x") == 3

    def test_undirected_from_anchored_node(self, loop_engine):
        rows = loop_engine.query(
            "MATCH (x {name: 'Ann'})-[:knows]-(y) RETURN y.name AS n"
        )
        assert sorted(r["n"] for r in rows) == ["Ann", "Bob"]

    def test_directed_loop_counts_each_direction(self, loop_engine):
        assert loop_engine.count("MATCH (x)-[:knows]->(y) RETURN x") == 2
        assert loop_engine.count("MATCH (x)<-[:knows]-(y) RETURN x") == 2
