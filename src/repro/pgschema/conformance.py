"""PG-Schema conformance and typing (Definition 2.6).

A node conforms to a node type when it carries the type's (effective)
labels and its record satisfies the type's (effective) property specs.  An
edge conforms to an edge type when its label matches and both endpoints
conform to allowed endpoint types.  A property graph conforms to a schema
when every element conforms to at least one type, and every PG-Keys
constraint holds.  A check types nodes once per *signature* (label set,
key -> value kind: all :meth:`node_conforms` can observe), edges once per
(labels, endpoint typings), and reads PG-Keys from one label index.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .keys import CardinalityKey, PGKey, UniqueKey
from ..pg.model import PGEdge, PGNode, PropertyGraph
from .model import (
    ANY, BOOLEAN, DATE, DATETIME, FLOAT, INTEGER, NodeType, PGSchema, PropertySpec,
    STRING, YEAR,
)


@dataclass(frozen=True)
class ConformanceViolation:
    """A single conformance failure."""

    element_id: str
    kind: str  # "node" | "edge" | "key"
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.element_id}: {self.message}"


@dataclass
class ConformanceReport:
    """Outcome of checking ``PG ⊨ S_PG``."""

    conforms: bool
    violations: list[ConformanceViolation] = field(default_factory=list)
    typing_nodes: dict[str, list[str]] = field(default_factory=dict)
    typing_edges: dict[str, list[str]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.conforms


def _scalar_matches(value: object, content_type: str) -> bool:
    if content_type == ANY:
        return True
    if content_type == STRING:
        return isinstance(value, str)
    if content_type == INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    if content_type == FLOAT:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if content_type == BOOLEAN:
        return isinstance(value, bool)
    if content_type in (DATE, DATETIME):
        return isinstance(value, str)
    if content_type == YEAR:
        return isinstance(value, str) or (
            isinstance(value, int) and not isinstance(value, bool)
        )
    return True


def property_value_matches(value: object, spec: PropertySpec) -> bool:
    """True when ``value`` satisfies ``spec`` (type, array bounds)."""
    if spec.array:
        values = value if isinstance(value, list) else [value]
        if len(values) < spec.array_min:
            return False
        if spec.array_max is not None and len(values) > spec.array_max:
            return False
        return all(_scalar_matches(v, spec.content_type) for v in values)
    if isinstance(value, list):
        return False
    return _scalar_matches(value, spec.content_type)


def _kind(value: object) -> object:
    """All :func:`property_value_matches` can observe of ``value``."""
    if isinstance(value, list):
        return (list, len(value), frozenset(map(type, value)))
    return type(value)


class ConformanceChecker:
    """Checks property graphs against a :class:`PGSchema` (Definition 2.6).

    Args:
        schema: the PG-Schema ``S_PG``.
        max_violations: bound on the number of collected failures.
    """

    #: Property keys always allowed even when not declared by a type
    #: (S3PG stores the originating IRI on every element).
    IMPLICIT_KEYS = frozenset({"iri"})

    #: The two PG-Schema graph-type options (Section 2.2 of the paper).
    STRICT = "STRICT"
    LOOSE = "LOOSE"

    def __init__(
        self,
        schema: PGSchema,
        max_violations: int = 10_000,
        mode: str = "STRICT",
    ):
        if mode not in (self.STRICT, self.LOOSE):
            raise ValueError("mode must be STRICT or LOOSE")
        self.schema = schema
        self.max_violations = max_violations
        self.mode = mode
        # The schema is static for the checker's lifetime: each node type's
        # effective labels and properties, and each endpoint declaration's
        # accepted types, are derived once.
        self._node_facts: dict[str, tuple[set[str], dict[str, PropertySpec]]] = {}
        self._accepted: dict[tuple[str, ...], frozenset[str]] = {}

    def _facts(self, type_name: str) -> tuple[set[str], dict[str, PropertySpec]]:
        if type_name not in self._node_facts:
            self._node_facts[type_name] = (self.schema.effective_labels(type_name),
                                           self.schema.effective_properties(type_name))
        return self._node_facts[type_name]

    def _accepts(self, type_names: tuple[str, ...], conforming: frozenset[str]) -> bool:
        """An endpoint declared as any of ``type_names`` (none: unconstrained)
        admits a node conforming to ``conforming`` when it shares a type with
        ``{t} ∪ descendants(t)`` — type hierarchies make an endpoint declared
        as Person accept a GraduateStudent (subtype polymorphism over gamma_S)."""
        if not type_names:
            return True
        accepted = self._accepted.get(type_names)
        if accepted is None:
            accepted = self._accepted[type_names] = frozenset(
                name for t in type_names
                for name in (self.schema.node_type(t).name, *self.schema.descendants(t)))
        return not accepted.isdisjoint(conforming)

    # ------------------------------------------------------------------ #
    # Element-level conformance
    # ------------------------------------------------------------------ #

    def node_conforms(self, node: PGNode, node_type: NodeType) -> bool:
        """``n ⊨ tau``: labels and record satisfy the (effective) type."""
        required_labels, specs = self._facts(node_type.name)
        if not required_labels <= node.labels:
            return False
        for key, spec in specs.items():
            value = node.properties.get(key)
            if value is None:
                if not spec.optional:
                    return False
                continue
            if not property_value_matches(value, spec):
                # A literal node's value is stored either natively or as
                # the lexical form (e.g. "958.30"^^xsd:double keeps its
                # trailing zero); the lexical string is always admissible.
                if (
                    node_type.is_literal_type
                    and key == "value"
                    and isinstance(value, str)
                ):
                    continue
                return False
        for key in node.properties:
            if key not in specs and key not in self.IMPLICIT_KEYS:
                # Keys that belong to some edge-type annotation (literal
                # value holders) are allowed on literal node types only.
                if not (node_type.is_literal_type and key == "value"):
                    return False
        return True

    def node_typing(self, node: PGNode) -> list[str]:
        """``T(v)``: all node types the node conforms to."""
        return [
            t.name
            for t in self.schema.node_types.values()
            if not t.abstract and self.node_conforms(node, t)
        ]

    def _edge_typing(self, labels: frozenset[str], src: frozenset[str] | None,
                     dst: frozenset[str] | None) -> list[str]:
        """``T(e)`` for an edge with ``labels`` whose endpoints conform to the
        node types ``src`` / ``dst`` (abstract included; None: dangling)."""
        if src is None or dst is None:
            return []
        names = [t.name for label in labels for t in self.schema.edge_types_with_label(label)
                 if self._accepts(t.source_types, src) and self._accepts(t.target_types, dst)]
        if len(labels) > 1:
            names.sort(key=list(self.schema.edge_types).index)
        return names

    # ------------------------------------------------------------------ #
    # Graph-level conformance
    # ------------------------------------------------------------------ #

    def check(self, graph: PropertyGraph) -> ConformanceReport:
        """Check ``PG ⊨ S_PG``.

        STRICT mode (the default) requires every element to conform to at
        least one type; LOOSE mode tolerates untyped elements and only
        enforces the PG-Keys constraints, matching the paper's two
        graph-type options.
        """
        report = ConformanceReport(conforms=True)
        strict = self.mode == self.STRICT
        node_types = list(self.schema.node_types.values())
        by_signature: dict[tuple, tuple[frozenset[str], list[str]]] = {}
        conforming: dict[str, frozenset[str]] = {}
        nodes_by_label: dict[str, list[PGNode]] = defaultdict(list)
        for node in graph.nodes.values():
            signature = (frozenset(node.labels),
                         frozenset([(k, _kind(v)) for k, v in node.properties.items()]))
            typed = by_signature.get(signature)
            if typed is None:
                ok = [t for t in node_types if self.node_conforms(node, t)]
                typed = by_signature[signature] = (
                    frozenset(t.name for t in ok), [t.name for t in ok if not t.abstract])
            conforming[node.id], typing = typed
            report.typing_nodes[node.id] = list(typing)
            if strict and not typing:
                self._record(report, node.id, "node", "conforms to no node type")
            for label in node.labels:
                nodes_by_label[label].append(node)
        by_ends: dict[tuple, list[str]] = {}
        edges_by_label: dict[str, list[PGEdge]] = defaultdict(list)
        for edge in graph.edges.values():
            ends = (frozenset(edge.labels), conforming.get(edge.src), conforming.get(edge.dst))
            typing = by_ends.get(ends)
            if typing is None:
                typing = by_ends[ends] = self._edge_typing(*ends)
            report.typing_edges[edge.id] = list(typing)
            if strict and not typing:
                self._record(report, edge.id, "edge", "conforms to no edge type")
            for label in edge.labels:
                edges_by_label[label].append(edge)
        for key in self.schema.keys:
            self._check_key(graph, key, nodes_by_label, edges_by_label, report)
        return report

    def conforms(self, graph: PropertyGraph) -> bool:
        """Shortcut returning only the boolean outcome."""
        return self.check(graph).conforms

    # ------------------------------------------------------------------ #

    def _check_key(self, graph: PropertyGraph, key: PGKey, nodes_by_label: dict,
                   edges_by_label: dict, report: ConformanceReport) -> None:
        if isinstance(key, UniqueKey):
            seen: dict[object, str] = {}
            for node in nodes_by_label.get(key.label, ()):
                value = node.properties.get(key.property_key)
                if value is None:
                    self._record(report, node.id, "key",
                                 f"missing mandatory key property {key.property_key!r}")
                    continue
                hashable = tuple(value) if isinstance(value, list) else value
                other = seen.get(hashable)
                if other is not None:
                    self._record(report, node.id, "key",
                                 f"duplicate {key.property_key}={value!r} (also on {other})")
                else:
                    seen[hashable] = node.id
            return
        if isinstance(key, CardinalityKey):
            # COUNT bounds the *distinct* results of the WITHIN query, so
            # parallel edges to one target count once.
            targets: dict[str, set[str]] = defaultdict(set)
            allowed = set(key.target_labels)
            for edge in edges_by_label.get(key.edge_label, ()):
                src, dst = graph.nodes.get(edge.src), graph.nodes.get(edge.dst)
                if src is None or dst is None or key.source_label not in src.labels:
                    continue
                if allowed and not (allowed & dst.labels):
                    continue
                targets[edge.src].add(edge.dst)
            for node in nodes_by_label.get(key.source_label, ()):
                count = len(targets.get(node.id, ()))
                if count < key.lower or count > key.upper:
                    upper_text = "*" if key.upper == float("inf") else int(key.upper)
                    self._record(report, node.id, "key", f"{key.edge_label} count "
                                 f"{count} outside [{key.lower}, {upper_text}]")
            return
        raise TypeError(f"unknown PG-Key {key!r}")  # pragma: no cover

    def _record(self, report: ConformanceReport, element_id: str, kind: str, message: str) -> None:
        report.conforms = False
        if len(report.violations) < self.max_violations:
            report.violations.append(
                ConformanceViolation(element_id=element_id, kind=kind, message=message)
            )


def check_conformance(
    graph: PropertyGraph, schema: PGSchema, mode: str = "STRICT"
) -> ConformanceReport:
    """Module-level convenience wrapper around :class:`ConformanceChecker`."""
    return ConformanceChecker(schema, mode=mode).check(graph)
