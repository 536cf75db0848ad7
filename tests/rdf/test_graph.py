"""Unit tests for the indexed triple store."""

import random
from array import array

import pytest

from repro.fuzz import generate_case, graph_layout
from repro.namespaces import RDF_TYPE, RDFS, XSD
from repro.rdf import IRI, BlankNode, Graph, Literal, Triple, graphs_equal_modulo_bnodes
from repro.storage import load_snapshot, save_snapshot

EX = "http://example.org/"


def iri(local: str) -> IRI:
    return IRI(EX + local)


def t(s: str, p: str, o) -> Triple:
    obj = o if not isinstance(o, str) else iri(o)
    return Triple(iri(s), iri(p), obj)


@pytest.fixture
def graph() -> Graph:
    g = Graph()
    g.add(t("alice", "knows", "bob"))
    g.add(t("alice", "knows", "carol"))
    g.add(t("bob", "knows", "carol"))
    g.add(t("alice", "name", Literal("Alice")))
    g.add(Triple(iri("alice"), IRI(RDF_TYPE), iri("Person")))
    g.add(Triple(iri("bob"), IRI(RDF_TYPE), iri("Person")))
    return g


class TestMutation:
    def test_add_returns_true_when_new(self):
        g = Graph()
        assert g.add(t("a", "p", "b")) is True

    def test_add_duplicate_is_noop(self, graph):
        size = len(graph)
        assert graph.add(t("alice", "knows", "bob")) is False
        assert len(graph) == size

    def test_remove_present(self, graph):
        assert graph.remove(t("alice", "knows", "bob")) is True
        assert t("alice", "knows", "bob") not in graph

    def test_remove_absent_returns_false(self, graph):
        assert graph.remove(t("zed", "knows", "bob")) is False

    def test_remove_cleans_all_indexes(self):
        g = Graph()
        g.add(t("a", "p", "b"))
        g.remove(t("a", "p", "b"))
        assert list(g.triples(s=iri("a"))) == []
        assert list(g.triples(p=iri("p"))) == []
        assert list(g.triples(o=iri("b"))) == []

    def test_update_counts_inserted(self, graph):
        n = graph.update([t("x", "p", "y"), t("alice", "knows", "bob")])
        assert n == 1

    def test_discard_all(self, graph):
        n = graph.discard_all([t("alice", "knows", "bob"), t("no", "p", "x")])
        assert n == 1

    def test_clear(self, graph):
        graph.clear()
        assert len(graph) == 0
        assert not graph

    def test_add_triple_convenience(self):
        g = Graph()
        g.add_triple(iri("a"), iri("p"), Literal("v"))
        assert len(g) == 1


class TestPatterns:
    def test_fully_bound_hit(self, graph):
        assert len(list(graph.triples(iri("alice"), iri("knows"), iri("bob")))) == 1

    def test_fully_bound_miss(self, graph):
        assert list(graph.triples(iri("alice"), iri("knows"), iri("zed"))) == []

    def test_s_bound(self, graph):
        assert len(list(graph.triples(s=iri("alice")))) == 4

    def test_p_bound(self, graph):
        assert len(list(graph.triples(p=iri("knows")))) == 3

    def test_o_bound(self, graph):
        assert len(list(graph.triples(o=iri("carol")))) == 2

    def test_sp_bound(self, graph):
        assert len(list(graph.triples(s=iri("alice"), p=iri("knows")))) == 2

    def test_so_bound(self, graph):
        assert len(list(graph.triples(s=iri("alice"), o=iri("bob")))) == 1

    def test_po_bound(self, graph):
        results = list(graph.triples(p=iri("knows"), o=iri("carol")))
        assert {r.s for r in results} == {iri("alice"), iri("bob")}

    def test_all_wildcards(self, graph):
        assert len(list(graph.triples())) == len(graph)

    def test_unknown_subject_is_empty(self, graph):
        assert list(graph.triples(s=iri("nobody"))) == []

    def test_count_matches_triples(self, graph):
        assert graph.count(p=iri("knows")) == 3
        assert graph.count(s=iri("alice"), p=iri("knows")) == 2
        assert graph.count() == len(graph)


class TestAccessors:
    def test_objects(self, graph):
        assert set(graph.objects(iri("alice"), iri("knows"))) == {
            iri("bob"), iri("carol"),
        }

    def test_subjects(self, graph):
        assert set(graph.subjects(iri("knows"), iri("carol"))) == {
            iri("alice"), iri("bob"),
        }

    def test_value_present(self, graph):
        assert graph.value(iri("alice"), iri("name")) == Literal("Alice")

    def test_value_absent(self, graph):
        assert graph.value(iri("alice"), iri("missing")) is None

    def test_predicates_of(self, graph):
        assert iri("knows") in set(graph.predicates_of(iri("alice")))

    def test_term_sets(self, graph):
        assert iri("alice") in graph.subject_set()
        assert iri("knows") in graph.predicate_set()
        assert Literal("Alice") in graph.object_set()


class TestTyping:
    def test_types_of(self, graph):
        assert graph.types_of(iri("alice")) == {iri("Person")}

    def test_instances_of(self, graph):
        assert set(graph.instances_of(iri("Person"))) == {iri("alice"), iri("bob")}

    def test_classes(self, graph):
        assert graph.classes() == {iri("Person")}

    def test_classes_include_subclass_statements(self):
        g = Graph()
        g.add(Triple(iri("Dog"), IRI(RDFS.subClassOf), iri("Animal")))
        assert g.classes() == {iri("Dog"), iri("Animal")}

    def test_superclasses_transitive(self):
        g = Graph()
        g.add(Triple(iri("A"), IRI(RDFS.subClassOf), iri("B")))
        g.add(Triple(iri("B"), IRI(RDFS.subClassOf), iri("C")))
        assert g.superclasses(iri("A")) == {iri("B"), iri("C")}

    def test_superclasses_handles_cycles(self):
        g = Graph()
        g.add(Triple(iri("A"), IRI(RDFS.subClassOf), iri("B")))
        g.add(Triple(iri("B"), IRI(RDFS.subClassOf), iri("A")))
        assert g.superclasses(iri("A")) == {iri("A"), iri("B")}

    def test_is_instance_of_direct(self, graph):
        assert graph.is_instance_of(iri("alice"), iri("Person"))

    def test_is_instance_of_via_subclass(self):
        g = Graph()
        g.add(Triple(iri("Dog"), IRI(RDFS.subClassOf), iri("Animal")))
        g.add(Triple(iri("rex"), IRI(RDF_TYPE), iri("Dog")))
        assert g.is_instance_of(iri("rex"), iri("Animal"))
        assert not g.is_instance_of(iri("rex"), iri("Plant"))


class TestSetAlgebra:
    def test_union(self):
        a = Graph([t("a", "p", "b")])
        b = Graph([t("c", "p", "d")])
        assert len(a | b) == 2

    def test_difference(self):
        a = Graph([t("a", "p", "b"), t("c", "p", "d")])
        b = Graph([t("a", "p", "b")])
        assert (a - b) == Graph([t("c", "p", "d")])

    def test_intersection(self):
        a = Graph([t("a", "p", "b"), t("c", "p", "d")])
        b = Graph([t("a", "p", "b"), t("e", "p", "f")])
        assert (a & b) == Graph([t("a", "p", "b")])

    def test_union_does_not_mutate_operands(self):
        a = Graph([t("a", "p", "b")])
        b = Graph([t("c", "p", "d")])
        _ = a | b
        assert len(a) == 1 and len(b) == 1

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add(t("new", "p", "o"))
        assert len(clone) == len(graph) + 1

    def test_equality(self):
        a = Graph([t("a", "p", "b")])
        b = Graph([t("a", "p", "b")])
        assert a == b
        b.add(t("c", "p", "d"))
        assert a != b

    def test_graphs_unhashable(self, graph):
        with pytest.raises(TypeError):
            hash(graph)


class TestStats:
    def test_basic_counts(self, graph):
        stats = graph.stats()
        assert stats.n_triples == 6
        assert stats.n_subjects == 2
        assert stats.n_literals == 1
        assert stats.n_instances == 2
        assert stats.n_classes == 1
        assert stats.n_properties == 3
        assert stats.size_bytes > 0

    def test_as_row_keys(self, graph):
        row = graph.stats().as_row()
        assert "# of triples" in row and row["# of triples"] == 6


class TestBlankNodeEquality:
    def test_isomorphic_up_to_bnode_renaming(self):
        a = Graph([Triple(BlankNode("x"), iri("p"), Literal("v"))])
        b = Graph([Triple(BlankNode("y"), iri("p"), Literal("v"))])
        assert graphs_equal_modulo_bnodes(a, b)

    def test_different_structure_not_isomorphic(self):
        a = Graph([Triple(BlankNode("x"), iri("p"), Literal("v"))])
        b = Graph([Triple(BlankNode("y"), iri("q"), Literal("v"))])
        assert not graphs_equal_modulo_bnodes(a, b)

    def test_size_mismatch_not_isomorphic(self):
        a = Graph([t("a", "p", "b")])
        b = Graph([t("a", "p", "b"), t("a", "p", "c")])
        assert not graphs_equal_modulo_bnodes(a, b)

    def test_chained_blank_nodes(self):
        a = Graph([
            Triple(BlankNode("x"), iri("p"), BlankNode("y")),
            Triple(BlankNode("y"), iri("q"), Literal("v")),
        ])
        b = Graph([
            Triple(BlankNode("m"), iri("p"), BlankNode("n")),
            Triple(BlankNode("n"), iri("q"), Literal("v")),
        ])
        assert graphs_equal_modulo_bnodes(a, b)

    def test_one_differing_ground_triple(self):
        bnode_part = [Triple(BlankNode("x"), iri("p"), iri("a")),
                      Triple(iri("a"), iri("q"), BlankNode("x"))]
        a = Graph([*bnode_part, t("a", "p", "b"), t("a", "p", "c")])
        b = Graph([*bnode_part, t("a", "p", "b"), t("a", "p", Literal("c"))])
        assert len(a) == len(b)
        assert a != b
        assert not graphs_equal_modulo_bnodes(a, b)

    def test_same_ground_part_different_blank_structure(self):
        ground = [t("a", "p", "b"), t("b", "p", "c")]
        a = Graph([*ground, Triple(BlankNode("x"), iri("p"), iri("a")),
                   Triple(BlankNode("x"), iri("p"), iri("b"))])
        b = Graph([*ground, Triple(BlankNode("x"), iri("p"), iri("a")),
                   Triple(BlankNode("y"), iri("p"), iri("b"))])
        assert a != b
        assert not graphs_equal_modulo_bnodes(a, b)
        # Ground triples moved into the blank-node part do not cancel out.
        c = Graph([t("a", "p", "b"), Triple(BlankNode("x"), iri("p"), iri("a")),
                   Triple(BlankNode("x"), iri("p"), iri("b")),
                   Triple(BlankNode("x"), iri("p"), iri("c"))])
        assert not graphs_equal_modulo_bnodes(a, c)

    def test_ground_triple_cannot_stand_in_for_blank_triple(self):
        # Two blank-node triples of a render as one line; b has that line
        # plus a ground triple a lacks.
        a = Graph([Triple(BlankNode("x"), iri("q"), BlankNode("y")),
                   Triple(BlankNode("z"), iri("q"), BlankNode("w"))])
        b = Graph([Triple(BlankNode("x"), iri("q"), BlankNode("y")), t("a", "p", "a")])
        assert not graphs_equal_modulo_bnodes(a, b)
        assert not graphs_equal_modulo_bnodes(b, a)

    def test_blank_node_cycle(self):
        def cycle(labels, last="p"):
            x, y, z = (BlankNode(label) for label in labels)
            return Graph([Triple(x, iri("p"), y), Triple(y, iri("p"), z),
                          Triple(z, iri(last), x), Triple(x, iri("name"), Literal("x")),
                          t("a", "p", "b")])
        assert graphs_equal_modulo_bnodes(cycle("xyz"), cycle("mno"))
        pointed_at = cycle("mno")
        pointed_at.add(Triple(iri("a"), iri("q"), BlankNode("m")))
        pointing = cycle("xyz")
        pointing.add(Triple(iri("a"), iri("q"), BlankNode("x")))
        assert graphs_equal_modulo_bnodes(pointing, pointed_at)
        assert cycle("xyz") == cycle("xyz") and cycle("xyz") != cycle("mno")
        assert not graphs_equal_modulo_bnodes(cycle("xyz"), cycle("mno", last="q"))

    def test_snapshot_loaded_twin(self, tmp_path):
        g = Graph([t("a", "p", "b"), t("b", "q", Literal("1", XSD.integer)),
                   Triple(BlankNode("x"), iri("p"), iri("a")),
                   Triple(iri("c"), iri("p"), BlankNode("x"))])
        # Intern in another order, through terms the graph no longer holds.
        twin = Graph([t("zz", "zz", "zz")])
        twin.update(reversed(sorted(g, key=str)))
        twin.remove(t("zz", "zz", "zz"))
        save_snapshot(twin, tmp_path / "g.snap")
        loaded = load_snapshot(tmp_path / "g.snap")
        assert loaded == g and g == loaded and twin == g
        assert graphs_equal_modulo_bnodes(loaded, g)
        loaded.remove(t("a", "p", "b"))
        loaded.add(t("a", "p", "c"))
        assert loaded != g
        assert not graphs_equal_modulo_bnodes(g, loaded)


def _added(triples) -> Graph:
    g = Graph()
    for triple in triples:
        g.add(triple)
    return g


class TestBulkBuild:
    """``Graph(triples)`` indexes in bulk; the result is structurally the
    graph one ``add`` per triple builds, and stays so under mutation."""

    @pytest.mark.parametrize("index", [i for i in range(45) if i % 5 < 3])
    def test_bulk_build_is_the_add_path(self, index, tmp_path):
        case = generate_case(0, index)
        rng = random.Random(index)
        triples = case.triples + rng.sample(case.triples, len(case.triples) // 3)
        rng.shuffle(triples)
        assert len(set(triples)) < len(triples)
        bulk, added = Graph(triples), _added(triples)
        assert all(
            b._extra is None and type(b._data) is array
            for perm in (bulk._spo, bulk._pos, bulk._osp)
            for inner in perm.values() for b in inner.values()
        )
        assert graph_layout(bulk) == graph_layout(added)
        save_snapshot(bulk, tmp_path / "bulk.snap")
        save_snapshot(added, tmp_path / "added.snap")
        assert (tmp_path / "bulk.snap").read_bytes() == (tmp_path / "added.snap").read_bytes()

        fresh = [Triple(iri(f"new{i}"), triple.p, triple.o)
                 for i, triple in enumerate(triples[:5])]
        pool = triples + fresh
        for _ in range(3 * len(pool)):
            triple = rng.choice(pool)
            if rng.random() < 0.5:
                assert bulk.add(triple) == added.add(triple)
            else:
                assert bulk.remove(triple) == added.remove(triple)
        assert graph_layout(bulk) == graph_layout(added)
        save_snapshot(bulk, tmp_path / "bulk.snap")
        save_snapshot(added, tmp_path / "added.snap")
        assert (tmp_path / "bulk.snap").read_bytes() == (tmp_path / "added.snap").read_bytes()

    def test_cases_carry_blank_nodes(self):
        cases = [generate_case(0, i) for i in range(45) if i % 5 < 3]
        assert any(isinstance(x, BlankNode) for c in cases for tr in c.triples for x in tr)

    def test_empty(self):
        assert graph_layout(Graph([])) == graph_layout(Graph())
        assert Graph([]).version == 0

    def test_set_algebra_is_bulk_built(self, graph):
        other = Graph([t("x", "p", "y"), t("alice", "knows", "bob")])
        assert graph_layout(graph | other) == graph_layout(_added([*graph, *other]))
        assert graph_layout(graph.copy()) == graph_layout(_added(graph))
