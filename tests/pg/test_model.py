"""Unit tests for the property-graph model (Definition 2.4)."""

import pytest

from repro.errors import GraphError
from repro.pg import PGEdge, PGNode, PropertyGraph


@pytest.fixture
def pg() -> PropertyGraph:
    g = PropertyGraph()
    g.add_node("a", labels={"Person"}, properties={"name": "Ann", "iri": "http://x/a"})
    g.add_node("b", labels={"Person", "Student"}, properties={"iri": "http://x/b"})
    g.add_node("c", labels=set())
    g.add_edge("a", "b", labels={"knows"}, edge_id="e1")
    g.add_edge("b", "c", labels={"likes"}, edge_id="e2")
    return g


class TestNodes:
    def test_add_and_get(self, pg):
        assert pg.get_node("a").properties["name"] == "Ann"

    def test_duplicate_id_rejected(self, pg):
        with pytest.raises(GraphError):
            pg.add_node("a")

    def test_id_shared_with_edge_rejected(self, pg):
        with pytest.raises(GraphError):
            pg.add_node("e1")

    def test_get_missing_raises(self, pg):
        with pytest.raises(GraphError):
            pg.get_node("zzz")

    def test_has_node(self, pg):
        assert pg.has_node("a") and not pg.has_node("zzz")

    def test_auto_id_generation(self):
        g = PropertyGraph()
        n1, n2 = g.add_node(), g.add_node()
        assert n1.id != n2.id

    def test_multi_labels(self, pg):
        assert pg.get_node("b").labels == {"Person", "Student"}

    def test_empty_label_set_allowed(self, pg):
        assert pg.get_node("c").labels == set()

    def test_remove_node_cascades_edges(self, pg):
        pg.remove_node("b")
        assert not pg.has_node("b")
        assert "e1" not in pg.edges and "e2" not in pg.edges

    def test_remove_isolated_node(self, pg):
        pg.add_node("lonely")
        pg.remove_isolated_node("lonely")
        assert not pg.has_node("lonely")

    def test_remove_missing_raises(self, pg):
        with pytest.raises(GraphError):
            pg.remove_node("zzz")


class TestNodeMutators:
    """The store's node mutators, offered by the graph with the same
    signatures so one caller can write to either."""

    def test_add_label(self, pg):
        pg.add_label("c", "Archived")
        pg.add_label("c", "Archived")
        assert pg.get_node("c").labels == {"Archived"}

    def test_remove_label(self, pg):
        pg.remove_label("b", "Student")
        assert pg.get_node("b").labels == {"Person"}

    def test_remove_absent_label_is_noop(self, pg):
        pg.remove_label("a", "Student")
        assert pg.get_node("a").labels == {"Person"}

    def test_set_node_property(self, pg):
        pg.set_node_property("a", "name", ["Ann", "Anna"])
        assert pg.get_node("a").properties["name"] == ["Ann", "Anna"]

    def test_set_node_property_validates_value(self, pg):
        with pytest.raises(GraphError):
            pg.set_node_property("a", "name", {"not": "scalar"})

    def test_delete_node_property(self, pg):
        pg.delete_node_property("a", "name")
        assert pg.get_node("a").properties == {"iri": "http://x/a"}

    def test_delete_absent_property_is_noop(self, pg):
        pg.delete_node_property("c", "name")
        assert pg.get_node("c").properties == {}

    def test_mutating_a_missing_node_raises(self, pg):
        for mutate in (
            lambda: pg.add_label("zzz", "L"),
            lambda: pg.remove_label("zzz", "L"),
            lambda: pg.set_node_property("zzz", "k", 1),
            lambda: pg.delete_node_property("zzz", "k"),
        ):
            with pytest.raises(GraphError):
                mutate()


class TestProperties:
    def test_set_property_scalar_types(self):
        node = PGNode(id="n")
        for value in ("s", 1, 2.5, True):
            node.set_property("k", value)
            assert node.properties["k"] == value

    def test_set_property_array(self):
        node = PGNode(id="n")
        node.set_property("k", ["a", "b"])
        assert node.properties["k"] == ["a", "b"]

    def test_set_property_rejects_nested_list(self):
        node = PGNode(id="n")
        with pytest.raises(GraphError):
            node.set_property("k", [["nested"]])

    def test_set_property_rejects_dict(self):
        node = PGNode(id="n")
        with pytest.raises(GraphError):
            node.set_property("k", {"no": "dicts"})

    def test_append_property_promotes_scalar_to_array(self):
        node = PGNode(id="n")
        node.append_property("k", "a")
        assert node.properties["k"] == "a"
        node.append_property("k", "b")
        assert node.properties["k"] == ["a", "b"]
        node.append_property("k", "c")
        assert node.properties["k"] == ["a", "b", "c"]

    def test_has_label(self, pg):
        assert pg.get_node("a").has_label("Person")
        assert not pg.get_node("a").has_label("Robot")


class TestEdges:
    def test_add_edge_endpoints_must_exist(self, pg):
        with pytest.raises(GraphError):
            pg.add_edge("a", "zzz")
        with pytest.raises(GraphError):
            pg.add_edge("zzz", "a")

    def test_duplicate_edge_id_rejected(self, pg):
        with pytest.raises(GraphError):
            pg.add_edge("a", "b", edge_id="e1")

    def test_edge_label_accessor(self, pg):
        assert pg.get_edge("e1").label() == "knows"

    def test_unlabelled_edge_label_raises(self):
        edge = PGEdge(id="e", src="a", dst="b")
        with pytest.raises(GraphError):
            edge.label()

    def test_out_edges(self, pg):
        assert [e.id for e in pg.out_edges("a")] == ["e1"]

    def test_in_edges(self, pg):
        assert [e.id for e in pg.in_edges("c")] == ["e2"]

    def test_get_edge_missing_raises(self, pg):
        with pytest.raises(GraphError):
            pg.get_edge("nope")

    def test_edge_properties(self, pg):
        edge = pg.add_edge("a", "c", labels={"rated"}, properties={"stars": 5})
        assert edge.properties["stars"] == 5

    def test_self_loop_allowed(self, pg):
        edge = pg.add_edge("a", "a", labels={"self"})
        assert edge.src == edge.dst == "a"

    def test_parallel_edges_allowed(self, pg):
        pg.add_edge("a", "b", labels={"knows"})
        assert sum(1 for e in pg.out_edges("a") if "knows" in e.labels) == 2


class TestWholeGraph:
    def test_counts(self, pg):
        assert pg.node_count() == 3
        assert pg.edge_count() == 2

    def test_labels_and_rel_types(self, pg):
        assert pg.labels() == {"Person", "Student"}
        assert pg.relationship_types() == {"knows", "likes"}

    def test_nodes_with_label(self, pg):
        assert {n.id for n in pg.nodes_with_label("Person")} == {"a", "b"}

    def test_stats(self, pg):
        stats = pg.stats()
        assert stats.n_nodes == 3
        assert stats.n_edges == 2
        assert stats.n_rel_types == 2
        assert stats.n_node_properties == 3
        row = stats.as_row()
        assert row["# of Nodes"] == 3

    def test_copy_is_deep(self, pg):
        clone = pg.copy()
        clone.get_node("a").properties["name"] = "Changed"
        clone.add_node("new")
        assert pg.get_node("a").properties["name"] == "Ann"
        assert not pg.has_node("new")

    def test_copy_structurally_equal(self, pg):
        assert pg.structurally_equal(pg.copy())


class TestIncidenceIndex:
    def test_incident_edges(self, pg):
        assert {e.id for e in pg.incident_edges("b")} == {"e1", "e2"}

    def test_degree(self, pg):
        assert pg.degree("b") == 2
        assert pg.degree("c") == 1
        pg.add_node("lonely")
        assert pg.degree("lonely") == 0

    def test_self_loop_counts_once(self, pg):
        pg.add_edge("a", "a", labels={"self"}, edge_id="loop")
        assert sum(1 for e in pg.incident_edges("a") if e.id == "loop") == 1

    def test_remove_edge(self, pg):
        pg.remove_edge("e1")
        assert "e1" not in pg.edges
        assert {e.id for e in pg.incident_edges("b")} == {"e2"}
        assert pg.degree("a") == 0

    def test_remove_missing_edge_raises(self, pg):
        with pytest.raises(GraphError):
            pg.remove_edge("zzz")

    def test_remove_node_after_remove_edge(self, pg):
        pg.remove_edge("e1")
        pg.remove_edge("e2")
        pg.remove_node("b")
        assert not pg.has_node("b")

    def test_remove_isolated_node_rejects_connected(self, pg):
        with pytest.raises(GraphError):
            pg.remove_isolated_node("b")

    def test_index_consistent_after_cascade(self, pg):
        pg.remove_node("b")  # cascades e1 and e2
        assert pg.degree("a") == 0 and pg.degree("c") == 0
        pg.add_edge("a", "c", labels={"r"}, edge_id="e3")
        assert {e.id for e in pg.incident_edges("a")} == {"e3"}


class TestCanonicalForm:
    def test_equal_graphs_same_form(self, pg):
        assert pg.canonical_form() == pg.copy().canonical_form()

    def test_array_order_is_irrelevant(self):
        a, b = PropertyGraph(), PropertyGraph()
        a.add_node("n", properties={"k": ["x", "y"]})
        b.add_node("n", properties={"k": ["y", "x"]})
        assert a.structurally_equal(b)

    def test_scalar_vs_singleton_array_differ(self):
        a, b = PropertyGraph(), PropertyGraph()
        a.add_node("n", properties={"k": "x"})
        b.add_node("n", properties={"k": ["x"]})
        # repr-based canonicalization distinguishes 'x' from ['x'].
        assert not a.structurally_equal(b)

    def test_label_difference_detected(self):
        a, b = PropertyGraph(), PropertyGraph()
        a.add_node("n", labels={"A"})
        b.add_node("n", labels={"B"})
        assert not a.structurally_equal(b)

    def test_edge_difference_detected(self):
        a, b = PropertyGraph(), PropertyGraph()
        for g in (a, b):
            g.add_node("x")
            g.add_node("y")
        a.add_edge("x", "y", labels={"r"})
        b.add_edge("y", "x", labels={"r"})
        assert not a.structurally_equal(b)
