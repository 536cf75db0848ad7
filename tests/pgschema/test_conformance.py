"""Unit tests for PG-Schema conformance checking (Definition 2.6)."""

from collections import defaultdict

import pytest

from repro.core import transform
from repro.core.config import DEFAULT_OPTIONS, MONOTONE_OPTIONS
from repro.datasets import university_shapes
from repro.fuzz.generators import CASE_KINDS, generate_case
from repro.pg import PropertyGraph
from repro.pgschema import (
    ANY,
    BOOLEAN,
    CardinalityKey,
    ConformanceChecker,
    ConformanceReport,
    ConformanceViolation,
    EdgeType,
    FLOAT,
    INTEGER,
    NodeType,
    PGSchema,
    PropertySpec,
    STRING,
    UNBOUNDED,
    UniqueKey,
    check_conformance,
    property_value_matches,
)
from repro.rdf import Graph
from tests.integration.test_violation_injection import VIOLATIONS, _inject


def build_schema() -> PGSchema:
    schema = PGSchema()
    schema.add_node_type(NodeType(
        "personType", labels={"Person"},
        properties={
            "iri": PropertySpec("iri", STRING),
            "name": PropertySpec("name", STRING),
            "age": PropertySpec("age", INTEGER, optional=True),
        },
    ))
    schema.add_node_type(NodeType(
        "studentType", labels={"Student"},
        properties={"regNo": PropertySpec("regNo", STRING)},
        parents=("personType",),
    ))
    schema.add_node_type(NodeType(
        "courseType", labels={"Course"},
        properties={"iri": PropertySpec("iri", STRING)},
    ))
    schema.add_edge_type(EdgeType(
        "takesType", label="takes",
        source_types=("studentType",), target_types=("courseType",),
    ))
    return schema


def conforming_graph() -> PropertyGraph:
    pg = PropertyGraph()
    pg.add_node("s", labels={"Person", "Student"},
                properties={"iri": "http://x/s", "name": "S", "regNo": "1"})
    pg.add_node("c", labels={"Course"}, properties={"iri": "http://x/c"})
    pg.add_edge("s", "c", labels={"takes"})
    return pg


class TestPropertyValueMatching:
    def test_scalar_type_checks(self):
        assert property_value_matches("x", PropertySpec("k", STRING))
        assert not property_value_matches(5, PropertySpec("k", STRING))
        assert property_value_matches(5, PropertySpec("k", INTEGER))
        assert not property_value_matches(True, PropertySpec("k", INTEGER))

    def test_array_bounds(self):
        spec = PropertySpec("k", STRING, array=True, array_min=1, array_max=2)
        assert property_value_matches(["a"], spec)
        assert property_value_matches(["a", "b"], spec)
        assert not property_value_matches([], spec)
        assert not property_value_matches(["a", "b", "c"], spec)

    def test_scalar_accepted_as_singleton_array(self):
        spec = PropertySpec("k", STRING, array=True, array_min=1)
        assert property_value_matches("a", spec)

    def test_list_rejected_for_scalar_spec(self):
        assert not property_value_matches(["a"], PropertySpec("k", STRING))


class TestNodeConformance:
    def test_conforming_node(self):
        checker = ConformanceChecker(build_schema())
        pg = conforming_graph()
        assert "studentType" in checker.node_typing(pg.get_node("s"))

    def test_missing_required_property(self):
        checker = ConformanceChecker(build_schema())
        pg = PropertyGraph()
        node = pg.add_node("p", labels={"Person"}, properties={"iri": "u"})
        assert not checker.node_conforms(node, build_schema().node_type("personType"))

    def test_optional_property_may_be_absent(self):
        checker = ConformanceChecker(build_schema())
        pg = PropertyGraph()
        node = pg.add_node("p", labels={"Person"},
                           properties={"iri": "u", "name": "N"})
        assert checker.node_conforms(node, build_schema().node_type("personType"))

    def test_wrong_type_for_optional_property(self):
        schema = build_schema()
        checker = ConformanceChecker(schema)
        pg = PropertyGraph()
        node = pg.add_node("p", labels={"Person"},
                           properties={"iri": "u", "name": "N", "age": "old"})
        assert not checker.node_conforms(node, schema.node_type("personType"))

    def test_undeclared_property_violates_closed_record(self):
        schema = build_schema()
        checker = ConformanceChecker(schema)
        pg = PropertyGraph()
        node = pg.add_node("p", labels={"Person"},
                           properties={"iri": "u", "name": "N", "extra": 1})
        assert not checker.node_conforms(node, schema.node_type("personType"))

    def test_missing_label_fails(self):
        schema = build_schema()
        checker = ConformanceChecker(schema)
        pg = PropertyGraph()
        node = pg.add_node("p", labels=set(), properties={"iri": "u", "name": "N"})
        assert not checker.node_conforms(node, schema.node_type("personType"))

    def test_inherited_labels_required(self):
        schema = build_schema()
        checker = ConformanceChecker(schema)
        pg = PropertyGraph()
        # Student without the inherited Person label.
        node = pg.add_node("s", labels={"Student"},
                           properties={"iri": "u", "name": "N", "regNo": "1"})
        assert not checker.node_conforms(node, schema.node_type("studentType"))


class TestEdgeConformance:
    def test_conforming_edge(self):
        report = check_conformance(conforming_graph(), build_schema())
        assert report.conforms

    def test_wrong_target_type(self):
        pg = conforming_graph()
        pg.add_edge("s", "s", labels={"takes"})  # takes must target a Course
        report = check_conformance(pg, build_schema())
        assert not report.conforms
        assert any(v.kind == "edge" for v in report.violations)

    def test_unknown_relationship_type(self):
        pg = conforming_graph()
        pg.add_edge("s", "c", labels={"bogus"})
        assert not check_conformance(pg, build_schema()).conforms

    def test_subtype_accepted_at_supertype_endpoint(self):
        schema = build_schema()
        schema.add_edge_type(EdgeType(
            "knowsType", label="knows",
            source_types=("personType",), target_types=("personType",),
        ))
        pg = conforming_graph()
        pg.add_node("p2", labels={"Person"},
                    properties={"iri": "http://x/p2", "name": "P"})
        # Source is a Student (subtype of Person, with extra record keys).
        pg.add_edge("s", "p2", labels={"knows"})
        assert check_conformance(pg, schema).conforms


class TestKeys:
    def test_unique_key_satisfied(self):
        schema = build_schema()
        schema.add_key(UniqueKey("Person", "iri"))
        assert check_conformance(conforming_graph(), schema).conforms

    def test_unique_key_duplicate_detected(self):
        schema = build_schema()
        schema.add_key(UniqueKey("Person", "iri"))
        pg = conforming_graph()
        pg.add_node("dup", labels={"Person"},
                    properties={"iri": "http://x/s", "name": "D"})
        report = check_conformance(pg, schema)
        assert any("duplicate" in v.message for v in report.violations)

    def test_unique_key_missing_property_detected(self):
        schema = build_schema()
        schema.add_key(UniqueKey("Person", "iri"))
        pg = conforming_graph()
        pg.add_node("x", labels={"Person"}, properties={"name": "X"})
        report = check_conformance(pg, schema)
        assert any("missing mandatory" in v.message for v in report.violations)

    def test_cardinality_key_satisfied(self):
        schema = build_schema()
        schema.add_key(CardinalityKey("Student", "takes", 1, 2, ("Course",)))
        assert check_conformance(conforming_graph(), schema).conforms

    def test_cardinality_key_lower_bound_violated(self):
        schema = build_schema()
        schema.add_key(CardinalityKey("Student", "takes", 2, UNBOUNDED, ("Course",)))
        report = check_conformance(conforming_graph(), schema)
        assert any(v.kind == "key" for v in report.violations)

    def test_cardinality_key_upper_bound_violated(self):
        schema = build_schema()
        schema.add_key(CardinalityKey("Student", "takes", 0, 0, ("Course",)))
        assert not check_conformance(conforming_graph(), schema).conforms

    def test_cardinality_key_ignores_other_targets(self):
        schema = build_schema()
        schema.add_key(CardinalityKey("Student", "takes", 0, 0, ("Person",)))
        # The takes edge targets a Course, not a Person: count is 0.
        assert check_conformance(conforming_graph(), schema).conforms

    def test_cardinality_key_counts_distinct_targets(self):
        # COUNT bounds distinct results of the WITHIN query: two parallel
        # takes edges to one course are one course.
        schema = build_schema()
        schema.add_key(CardinalityKey("Student", "takes", 1, 1, ("Course",)))
        pg = conforming_graph()
        pg.add_edge("s", "c", labels={"takes"})
        assert check_conformance(pg, schema).conforms
        pg.add_node("c2", labels={"Course"}, properties={"iri": "http://x/c2"})
        pg.add_edge("s", "c2", labels={"takes"})
        report = check_conformance(pg, schema)
        assert [v.message for v in report.violations] == ["takes count 2 outside [1, 1]"]


class TestReport:
    def test_typing_maps_filled(self):
        report = check_conformance(conforming_graph(), build_schema())
        assert set(report.typing_nodes) == {"s", "c"}
        assert all(report.typing_nodes.values())

    def test_unmatched_node_reported(self):
        pg = conforming_graph()
        pg.add_node("alien", labels={"Alien"})
        report = check_conformance(pg, build_schema())
        assert not report.conforms
        assert report.typing_nodes["alien"] == []


class TestStrictLoose:
    """The paper's STRICT vs LOOSE graph-type options (Section 2.2)."""

    def test_loose_tolerates_untyped_elements(self):
        pg = conforming_graph()
        pg.add_node("alien", labels={"Alien"})
        schema = build_schema()
        assert not check_conformance(pg, schema).conforms
        assert check_conformance(pg, schema, mode="LOOSE").conforms

    def test_loose_still_enforces_keys(self):
        schema = build_schema()
        schema.add_key(UniqueKey("Person", "iri"))
        pg = conforming_graph()
        pg.add_node("dup", labels={"Person"},
                    properties={"iri": "http://x/s", "name": "D"})
        assert not check_conformance(pg, schema, mode="LOOSE").conforms

    def test_loose_typing_maps_still_filled(self):
        pg = conforming_graph()
        pg.add_node("alien", labels={"Alien"})
        report = check_conformance(pg, build_schema(), mode="LOOSE")
        assert report.typing_nodes["alien"] == []

    def test_invalid_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ConformanceChecker(build_schema(), mode="RELAXED")


# --------------------------------------------------------------------- #
# Differential: the checker against the per-element algorithm
# --------------------------------------------------------------------- #

def reference_check(graph: PropertyGraph, schema: PGSchema, mode: str = "STRICT"):
    """Every (node, type) and (edge, type) pair tested directly, every key
    a scan of all nodes or edges — no signature, memo or index."""
    def conforms(node, name):
        literal = schema.node_type(name).is_literal_type
        specs = schema.effective_properties(name)
        if not schema.effective_labels(name) <= node.labels:
            return False
        for key, spec in specs.items():
            value = node.properties.get(key)
            if value is None:
                if not spec.optional:
                    return False
            elif not (property_value_matches(value, spec)
                      or (literal and key == "value" and isinstance(value, str))):
                return False
        return all(k in specs or k == "iri" or (literal and k == "value")
                   for k in node.properties)

    def at_or_below(node, name):
        return any(conforms(node, t) for t in (name, *schema.descendants(name)))

    def ends_ok(node, types):
        return not types or any(at_or_below(node, t) for t in types)

    report = ConformanceReport(conforms=True)

    def record(element_id, kind, message):
        report.violations.append(ConformanceViolation(element_id, kind, message))

    for node in graph.nodes.values():
        typing = report.typing_nodes[node.id] = [
            n for n, t in schema.node_types.items() if not t.abstract and conforms(node, n)]
        if mode == "STRICT" and not typing:
            record(node.id, "node", "conforms to no node type")
    for edge in graph.edges.values():
        src, dst = graph.nodes.get(edge.src), graph.nodes.get(edge.dst)
        typing = report.typing_edges[edge.id] = [
            n for n, t in schema.edge_types.items()
            if t.label in edge.labels and src is not None and dst is not None
            and ends_ok(src, t.source_types) and ends_ok(dst, t.target_types)]
        if mode == "STRICT" and not typing:
            record(edge.id, "edge", "conforms to no edge type")
    for key in schema.keys:
        if isinstance(key, UniqueKey):
            seen = {}
            for node in graph.nodes.values():
                if key.label not in node.labels:
                    continue
                value = node.properties.get(key.property_key)
                if value is None:
                    record(node.id, "key", f"missing mandatory key property {key.property_key!r}")
                    continue
                hashable = tuple(value) if isinstance(value, list) else value
                if hashable in seen:
                    record(node.id, "key", f"duplicate {key.property_key}={value!r} "
                                           f"(also on {seen[hashable]})")
                else:
                    seen[hashable] = node.id
            continue
        targets = defaultdict(set)
        for edge in graph.edges.values():
            src, dst = graph.nodes.get(edge.src), graph.nodes.get(edge.dst)
            if (key.edge_label in edge.labels and src is not None and dst is not None
                    and key.source_label in src.labels
                    and (not key.target_labels or set(key.target_labels) & dst.labels)):
                targets[edge.src].add(edge.dst)
        for node in graph.nodes.values():
            count = len(targets[node.id])
            if key.source_label in node.labels and not key.lower <= count <= key.upper:
                upper = "*" if key.upper == UNBOUNDED else int(key.upper)
                record(node.id, "key", f"{key.edge_label} count {count} outside "
                                       f"[{key.lower}, {upper}]")
    report.conforms = not report.violations
    return report


def assert_same_report(graph, schema, mode="STRICT"):
    got = check_conformance(graph, schema, mode)
    want = reference_check(graph, schema, mode)
    assert got.conforms == want.conforms
    assert got.violations == want.violations
    assert got.typing_nodes == want.typing_nodes
    assert got.typing_edges == want.typing_edges
    return got


def hierarchy_schema() -> PGSchema:
    """An abstract root, a three-level hierarchy, subtype endpoints, a
    literal type, a multi-label edge pair and both kinds of PG-Key."""
    schema = PGSchema()
    schema.add_node_type(NodeType("agentType", labels={"Agent"}, abstract=True,
                                  properties={"iri": PropertySpec("iri", STRING)}))
    schema.add_node_type(NodeType(
        "personType", labels={"Person"}, parents=("agentType",),
        properties={"name": PropertySpec("name", STRING),
                    "age": PropertySpec("age", INTEGER, optional=True)}))
    schema.add_node_type(NodeType(
        "studentType", labels={"Student"}, parents=("personType",),
        properties={"scores": PropertySpec("scores", INTEGER, optional=True,
                                           array=True, array_min=1, array_max=2)}))
    schema.add_node_type(NodeType("orgType", labels={"Org"},
                                  properties={"iri": PropertySpec("iri", STRING)}))
    schema.add_node_type(NodeType("valueType", labels={"Value"}, is_literal_type=True,
                                  properties={"value": PropertySpec("value", FLOAT)}))
    schema.add_node_type(NodeType("flagType", labels={"Value"},
                                  properties={"value": PropertySpec("value", BOOLEAN)}))
    schema.add_edge_type(EdgeType("memberOfType", "memberOf", ("agentType",), ("orgType",)))
    schema.add_edge_type(EdgeType("mentorsType", "mentors", ("personType",), ("studentType",)))
    schema.add_edge_type(EdgeType("ratedType", "rated", ("personType",),
                                  ("valueType", "flagType")))
    schema.add_edge_type(EdgeType("knowsType", "knows"))
    schema.add_key(UniqueKey("Agent", "iri"))
    schema.add_key(CardinalityKey("Student", "memberOf", 1, 1, ("Org",)))
    schema.add_key(CardinalityKey("Person", "mentors", 0, UNBOUNDED))
    schema.add_key(CardinalityKey("Person", "rated", 0, 2, ("Value",)))
    return schema


def hierarchy_graph() -> PropertyGraph:
    pg = PropertyGraph()
    person = {"Agent", "Person"}
    student = {"Agent", "Person", "Student"}
    pg.add_node("p1", labels=person, properties={"iri": "p1", "name": "P"})
    pg.add_node("p2", labels=person, properties={"iri": "p2", "name": "Q", "age": 3})
    pg.add_node("p3", labels=person, properties={"iri": "p3", "name": "R", "age": True})
    pg.add_node("p4", labels=person, properties={"iri": "p1", "name": "S", "age": 4.0})
    for i, scores in enumerate(([1], [1, 2], [1, 2, 3], [], [1, "2"], 7)):
        pg.add_node(f"s{i}", labels=student,
                    properties={"iri": f"s{i}", "name": "T", "scores": scores})
    pg.add_node("a1", labels={"Agent"}, properties={"iri": "a1"})  # abstract only
    pg.add_node("a2", labels={"Agent"}, properties={})
    pg.add_node("o1", labels={"Org"}, properties={"iri": "o1"})
    pg.add_node("o2", labels={"Org", "Value"}, properties={"iri": "o2"})
    for i, value in enumerate((1, True, 1.0, "1", [1], 1.5, "x")):
        pg.add_node(f"v{i}", labels={"Value"}, properties={"value": value})
    for src in ("p1", "a1", "s0", "s1", "s2", "o1"):
        pg.add_edge(src, "o1", labels={"memberOf"})
    pg.add_edge("s0", "o1", labels={"memberOf"})  # parallel: still one Org
    pg.add_edge("s1", "o2", labels={"memberOf"})
    pg.add_edge("p1", "o1", labels={"memberOf", "knows"})
    pg.add_edge("p1", "s0", labels={"knows", "mentors"})
    for dst in ("s0", "s2", "p2", "a1"):
        pg.add_edge("p2", dst, labels={"mentors"})
    for i in range(7):
        pg.add_edge("p1" if i < 4 else "s1", f"v{i}", labels={"rated"})
    pg.add_edge("o1", "v0", labels={"unknown"})
    pg.add_edge("v6", "v6", labels=set())
    return pg


def abc_schema() -> PGSchema:
    """Types for the A/B/C / R/S labels of ``generate_property_graph``."""
    schema = PGSchema()
    schema.add_node_type(NodeType("aType", labels={"A"}, properties={
        "k0": PropertySpec("k0", INTEGER, optional=True),
        "k1": PropertySpec("k1", STRING, optional=True, array=True, array_max=2),
        "k2": PropertySpec("k2", ANY, optional=True)}))
    schema.add_node_type(NodeType("bType", labels={"B"}, parents=("aType",), properties={
        "k0": PropertySpec("k0", BOOLEAN, optional=True)}))
    schema.add_node_type(NodeType("cType", labels={"C"}, abstract=True))
    schema.add_edge_type(EdgeType("rType", "R", ("aType",), ("bType", "cType")))
    schema.add_edge_type(EdgeType("sType", "S", (), ("cType",)))
    schema.add_key(UniqueKey("A", "k0"))
    schema.add_key(CardinalityKey("A", "R", 0, 1, ("B",)))
    return schema


class TestDifferential:
    """``check`` returns what the per-element algorithm returns, field by
    field, wherever a signature, endpoint or key memo could go wrong."""

    @pytest.mark.parametrize("mode", ["STRICT", "LOOSE"])
    def test_hierarchy_abstract_endpoints_and_value_types(self, mode):
        report = assert_same_report(hierarchy_graph(), hierarchy_schema(), mode)
        # Nodes that differ only by value type or array length type apart.
        assert [report.typing_nodes[f"v{i}"] for i in range(4)] == [
            ["valueType"], ["flagType"], ["valueType"], ["valueType"]]
        assert [report.typing_nodes[f"s{i}"] for i in range(3)] == [
            ["studentType"], ["studentType"], []]
        # An abstract-only node has no typing but is a valid Agent endpoint.
        assert report.typing_nodes["a1"] == []
        assert report.typing_edges["e1"] == ["memberOfType"]
        assert not report.conforms

    def test_signature_shared_by_many_nodes(self):
        pg = hierarchy_graph()
        for i in range(50):
            pg.add_node(f"x{i}", labels={"Value"}, properties={"value": [1.0, 2][i % 2]})
            pg.add_edge("p3", f"x{i}", labels={"rated"})
        assert_same_report(pg, hierarchy_schema())

    def test_typing_lists_are_not_shared(self):
        report = check_conformance(hierarchy_graph(), hierarchy_schema())
        report.typing_nodes["v2"].append("mutated")  # v2, v5: one signature
        assert report.typing_nodes["v5"] == ["valueType"]

    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_violation_injected_graphs(self, name):
        result = transform(_inject(VIOLATIONS[name]), university_shapes())
        for mode in ("STRICT", "LOOSE"):
            assert_same_report(result.graph, result.pg_schema, mode)

    @pytest.mark.parametrize("options", [DEFAULT_OPTIONS, MONOTONE_OPTIONS],
                             ids=["parsimonious", "non-parsimonious"])
    def test_fuzz_cases_of_every_kind(self, options):
        kinds = set()
        for index in range(100):
            case = generate_case(0, index)
            kinds.add(case.kind)
            if case.kind == "pg":
                # Codec-stress PGs (nasty values, A/B/C labels) checked
                # against a schema that types some of them.
                assert_same_report(case.pg, abc_schema(), "STRICT")
                assert_same_report(case.pg, abc_schema(), "LOOSE")
            elif case.schema is not None:
                result = transform(Graph(case.triples), case.schema, options)
                assert_same_report(result.graph, result.pg_schema)
        assert kinds == set(CASE_KINDS)

