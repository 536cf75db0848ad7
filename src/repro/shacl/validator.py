"""SHACL validation implementing the shape semantics of Definition 2.3.

Given a graph ``G`` and shape schema ``S_G``, every entity ``e`` with
``<e, a, tau_s> ∈ G`` for a node shape ``<s, tau_s, Phi_s>`` is checked
against all property shapes in ``Phi_s`` (including inherited ones):

* literal value-type constraints: every object of ``tau_p`` must be a
  literal of the specified datatype;
* class value-type constraints: every object must be an instance of one of
  the allowed classes (or a subclass), and conform to that class's shape
  when one exists;
* node value-type constraints: every object must conform to the referenced
  shape;
* cardinality: the number of ``<e, tau_p, ·>`` triples must lie in
  ``[min, max]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Iterable
from typing import NamedTuple

from .. import obs
from ..namespaces import RDFS
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal, Object, Subject, Triple
from .model import (
    ClassType,
    LiteralType,
    NodeShapeRef,
    PropertyShape,
    ShapeSchema,
)

_SUBCLASS_OF = IRI(RDFS.subClassOf)
#: Stands in for the table row of an entity that has none.
_NO_ROW: dict[str, bool] = {}


@dataclass(frozen=True)
class Violation:
    """A single conformance failure.

    Attributes:
        focus: the entity that fails.
        shape: the node shape being checked.
        path: the property involved, or None for shape-level problems.
        message: human-readable description.
    """

    focus: str
    shape: str
    path: str | None
    message: str

    def __str__(self) -> str:
        where = f" on {self.path}" if self.path else ""
        return f"[{self.shape}] {self.focus}{where}: {self.message}"


@dataclass
class ValidationReport:
    """The outcome of validating a graph against a shape schema."""

    conforms: bool
    violations: list[Violation] = field(default_factory=list)
    checked_entities: int = 0

    def __bool__(self) -> bool:
        return self.conforms


class _PropertyPlan(NamedTuple):
    """A property shape with everything entity-independent resolved."""

    shape: PropertyShape
    path: IRI
    #: ``T_p`` in declaration order: ``(datatype, None, None)`` for a
    #: literal type, ``(None, class term, shape name targeting it or
    #: None)`` for ``sh:class``, ``(None, None, shape name)`` for
    #: ``sh:node``; references to shapes the schema lacks never match
    #: and are left out.
    alternatives: tuple[tuple[str | None, IRI | None, str | None], ...]
    #: Message fragments that do not depend on the entity.
    bounds: str
    expected: str


class _EntityChecker:
    """The entity check ``e ⊨_G s`` of Definition 2.3 over one graph.

    Built once per :meth:`ShaclValidator.validate` call and once per
    :class:`DeltaValidator` — not cached on the schema, which callers may
    mutate between validations.  Effective property shapes, path and
    class terms and the shape a class is targeted by are resolved the
    first time a shape is checked, not once per entity.

    Reference cycles are broken optimistically: a key that is still being
    checked reads as conforming.  A verdict computed without reading such
    an in-progress key — directly, or through a memo entry that did — is
    *context-free*: its forward closure of nested checks is a DAG, so it
    is the same whichever focus node the check started from.  With a
    ``table`` those verdicts are stored there instead of in the per-focus
    ``memo`` and nested checks read them back; cycle-tainted verdicts
    stay in the memo and die with it.

    Args:
        schema: the shape schema ``S_G``.
        graph: the graph entities are checked in.
        max_violations: stop collecting after this many failures.
        table: entity -> shape name -> context-free nested verdict, owned
            and invalidated by the caller; None keeps every verdict in
            the memo.
    """

    def __init__(
        self,
        schema: ShapeSchema,
        graph: Graph,
        max_violations: int,
        table: dict[Subject, dict[str, bool]] | None = None,
    ):
        self.schema = schema
        self.graph = graph
        self.max_violations = max_violations
        self.table = table
        # Cheap plain-int/dict tallies on the hot path; ShaclValidator
        # flushes them to obs once per run.
        self.memo_hits = 0
        self.memo_misses = 0
        self.shape_checks: dict[str, int] = {}
        self._plans: dict[str, tuple[_PropertyPlan, ...]] = {}
        # shape_for_class semantics: the first shape declared for a class.
        self._shape_of_class: dict[str, str] = {}
        for shape in schema:
            if shape.target_class is not None:
                self._shape_of_class.setdefault(shape.target_class, shape.name)
        #: Reads of in-progress or cycle-tainted memo entries so far; an
        #: entity check during which it did not move is context-free.
        self._tainted_reads = 0

    def _plan(self, shape_name: str) -> tuple[_PropertyPlan, ...]:
        plan = self._plans.get(shape_name)
        if plan is None:
            plan = self._plans[shape_name] = tuple(
                self._resolve(phi)
                for phi in self.schema.effective_property_shapes(shape_name)
            )
        return plan

    def _resolve(self, phi: PropertyShape) -> _PropertyPlan:
        alternatives: list[tuple[str | None, IRI | None, str | None]] = []
        for vt in phi.value_types:
            if isinstance(vt, LiteralType):
                alternatives.append((vt.datatype, None, None))
            elif isinstance(vt, ClassType):
                alternatives.append(
                    (None, IRI(vt.cls), self._shape_of_class.get(vt.cls))
                )
            elif isinstance(vt, NodeShapeRef) and vt.shape in self.schema:
                alternatives.append((None, None, vt.shape))
        upper = "*" if phi.max_count == float("inf") else int(phi.max_count)
        return _PropertyPlan(
            shape=phi,
            path=IRI(phi.path),
            alternatives=tuple(alternatives),
            bounds=f"[{phi.min_count}, {upper}]",
            expected=str([str(v) for v in phi.value_types]),
        )

    def check(
        self,
        entity: Subject,
        shape_name: str,
        report: ValidationReport | None,
        memo: dict[tuple[Subject, str], bool],
    ) -> bool:
        """``entity ⊨_G shape_name``; violations go to ``report``.

        Nested checks of referenced values pass ``report=None``: only
        their verdict is used.
        """
        key = (entity, shape_name)
        cached = memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            # With a table the memo holds only in-progress and tainted
            # keys; without one nobody asks whether a verdict is tainted.
            self._tainted_reads += 1
            if not cached and report is not None:
                # The failure was discovered while this entity was checked
                # as a nested shape-ref target, where no violations are
                # collected; the verdict must still reach this report.
                self._record(
                    report,
                    entity,
                    shape_name,
                    None,
                    "entity does not conform (checked as a referenced value)",
                )
            return cached
        table = self.table
        if table is not None and report is None:
            # A focus check (report given) is always evaluated: the
            # standing report needs its violations, not just the verdict.
            known = table.get(entity, _NO_ROW).get(shape_name)
            if known is not None:
                self.memo_hits += 1
                return known
        self.memo_misses += 1
        self.shape_checks[shape_name] = self.shape_checks.get(shape_name, 0) + 1
        # Optimistically assume conformance to break reference cycles.
        memo[key] = True
        tainted_reads = self._tainted_reads
        ok = True
        for plan in self._plan(shape_name):
            if not self._check_property(entity, shape_name, plan, report, memo):
                ok = False
        if table is not None and self._tainted_reads == tainted_reads:
            del memo[key]
            table.setdefault(entity, {})[shape_name] = ok
        else:
            memo[key] = ok
        return ok

    def _check_property(
        self,
        entity: Subject,
        shape_name: str,
        plan: _PropertyPlan,
        report: ValidationReport | None,
        memo: dict[tuple[Subject, str], bool],
    ) -> bool:
        phi = plan.shape
        values = list(self.graph.objects(entity, plan.path))
        ok = True

        count = len(values)
        if count < phi.min_count or count > phi.max_count:
            ok = False
            if report is not None:
                self._record(
                    report,
                    entity,
                    shape_name,
                    phi.path,
                    f"cardinality {count} outside {plan.bounds}",
                )

        for value in values:
            if not self._value_matches_any(value, plan, memo):
                ok = False
                if report is not None:
                    self._record(
                        report,
                        entity,
                        shape_name,
                        phi.path,
                        f"value {value.n3()} matches none of {plan.expected}",
                    )
        return ok

    def _value_matches_any(
        self,
        value: Object,
        plan: _PropertyPlan,
        memo: dict[tuple[Subject, str], bool],
    ) -> bool:
        for datatype, cls, nested in plan.alternatives:
            if datatype is not None:
                if isinstance(value, Literal) and value.datatype == datatype:
                    return True
            elif not isinstance(value, IRI):
                continue
            elif cls is None or self.graph.is_instance_of(value, cls):
                if nested is None or self.check(value, nested, None, memo):
                    return True
        return False

    def _record(
        self,
        report: ValidationReport,
        entity: Subject,
        shape_name: str,
        path: str | None,
        message: str,
    ) -> None:
        if len(report.violations) < self.max_violations:
            report.violations.append(
                Violation(
                    focus=str(entity),
                    shape=shape_name,
                    path=path,
                    message=message,
                )
            )
        report.conforms = False


class ShaclValidator:
    """Validates RDF graphs against a :class:`ShapeSchema` (Definition 2.3).

    Args:
        schema: the shape schema ``S_G``.
        max_violations: stop collecting after this many failures
            (validation outcome is still exact; only the report is bounded).
    """

    def __init__(self, schema: ShapeSchema, max_violations: int = 10_000):
        self.schema = schema
        self.max_violations = max_violations

    def validate(self, graph: Graph) -> ValidationReport:
        """Validate every targeted entity in ``graph``."""
        checker = _EntityChecker(self.schema, graph, self.max_violations)
        with obs.span("shacl.validate", shapes=len(self.schema)) as span:
            report = self._validate(checker)
            span.set("entities", report.checked_entities)
            span.set("violations", len(report.violations))
            span.set("conforms", report.conforms)
            span.set("memo_hits", checker.memo_hits)
            span.set("memo_misses", checker.memo_misses)
        self._publish_metrics(report, checker)
        return report

    def _validate(self, checker: _EntityChecker) -> ValidationReport:
        report = ValidationReport(conforms=True)
        class_to_shape = self.schema.target_classes()
        # Memo of (entity, shape-name) conformance to keep recursive
        # shape-reference checks linear.
        memo: dict[tuple[Subject, str], bool] = {}
        for cls_iri, shape_name in class_to_shape.items():
            for entity in checker.graph.instances_of(IRI(cls_iri)):
                report.checked_entities += 1
                checker.check(entity, shape_name, report, memo)
                if len(report.violations) >= self.max_violations:
                    report.conforms = False
                    return report
        return report

    def _publish_metrics(
        self, report: ValidationReport, checker: _EntityChecker
    ) -> None:
        metrics = obs.get_metrics()
        metrics.counter(
            "repro_validator_entities_total", help="entities checked"
        ).inc(report.checked_entities)
        metrics.counter(
            "repro_validator_violations_total", help="violations reported"
        ).inc(len(report.violations))
        metrics.counter(
            "repro_validator_memo_hits_total",
            help="memoized (entity, shape) verdict reuses",
        ).inc(checker.memo_hits)
        metrics.counter(
            "repro_validator_memo_misses_total",
            help="fresh (entity, shape) checks",
        ).inc(checker.memo_misses)
        checks = metrics.counter(
            "repro_validator_checks_total", help="per-shape entity checks"
        )
        for shape_name, count in checker.shape_checks.items():
            checks.inc(count, shape=shape_name)

    def conforms(self, graph: Graph) -> bool:
        """Shortcut: True when ``graph ⊨ S_G``."""
        return self.validate(graph).conforms

    def entity_conforms(self, graph: Graph, entity: Subject, shape_name: str) -> bool:
        """Check a single entity against a single shape (``e ⊨_G s``)."""
        checker = _EntityChecker(self.schema, graph, self.max_violations)
        return checker.check(entity, shape_name, None, {})


def validate(graph: Graph, schema: ShapeSchema) -> ValidationReport:
    """Validate ``graph`` against ``schema`` (module-level convenience)."""
    return ShaclValidator(schema).validate(graph)


class DeltaValidator:
    """Delta-scoped SHACL revalidation with a standing conformance report.

    Instead of re-running whole-graph validation after every change, the
    validator keeps the violations of every focus node and, given the
    (added, removed) triples of a delta, recomputes only the focus nodes
    the delta can affect:

    * the **subjects** of every delta triple (their own property values
      or type targeting changed), and
    * transitively, every entity that **references** an affected node
      through a property whose shape carries a class or node-shape
      constraint (its conformance inspects the referenced node's types
      or nested conformance).

    The reachability uses only the shape registry's *reference paths*
    (property shapes whose value types carry ``sh:class`` or ``sh:node``
    constraints): those checks validate the referenced node's nested
    conformance, so any change to it — types or literal properties —
    can flip the referrer's verdict.  Deltas on nodes no reference path
    points at never fan out.  A delta that rewrites the
    ``rdfs:subClassOf`` taxonomy invalidates class membership globally
    and falls back to a full rebuild.

    Every focus node is checked with a fresh memo, which makes its
    violation list independent of the order entities are (re)checked.
    What a recheck does not redo is the nested checks of the nodes it
    references: their context-free verdicts (see :class:`_EntityChecker`)
    stand in one table across deltas.  A delta drops the rows of *every*
    affected entity before any of them is rechecked — a cycle the delta
    closes runs through one of its subjects, so all its nodes are
    affected, and a recheck that read a row from before the delta would
    not see the cycle.  The standing report after any delta sequence is
    therefore *equal* to checking every focus node of the final graph
    from scratch, and its ``conforms`` flag matches
    :meth:`ShaclValidator.validate`.

    Args:
        schema: the shape schema ``S_G``.
        graph: the RDF graph to track; deltas must already be applied to
            it before :meth:`apply_delta` is called.
        max_violations: per-entity violation cap (see ShaclValidator).
    """

    def __init__(
        self,
        schema: ShapeSchema,
        graph: Graph,
        max_violations: int = 10_000,
    ):
        self.schema = schema
        self.graph = graph
        #: Entity -> shape name -> context-free nested verdict.  Rows of
        #: referenced entities no shape targets live here too.
        self._table: dict[Subject, dict[str, bool]] = {}
        self._checker = _EntityChecker(schema, graph, max_violations, self._table)
        self._targets = schema.target_classes()
        self._reference_paths = self._compute_reference_paths()
        #: Focus entity -> violations of all shapes targeting its types.
        self._entries: dict[Subject, tuple[Violation, ...]] = {}
        #: Focus nodes rechecked by the last apply_delta (or rebuild).
        self.last_rechecked = 0
        #: Cumulative focus-node checks over the validator's lifetime.
        self.total_rechecked = 0
        self.rebuild()

    def _compute_reference_paths(self) -> frozenset[IRI]:
        paths: set[IRI] = set()
        for shape in self.schema:
            for phi in self.schema.effective_property_shapes(shape.name):
                if any(not vt.is_literal() for vt in phi.value_types):
                    paths.add(IRI(phi.path))
        return frozenset(paths)

    @property
    def entity_checks(self) -> int:
        """Cumulative (entity, shape) evaluations, nested ones included."""
        return self._checker.memo_misses

    # ------------------------------------------------------------------ #

    def rebuild(self) -> None:
        """Recompute the standing report from scratch (full validation)."""
        self._entries = {}
        self._table.clear()
        checked = 0
        for entity in self._targeted_entities():
            self._entries[entity] = self._check(entity, self._shapes_for(entity))
            checked += 1
        self.last_rechecked = checked
        self.total_rechecked += checked

    def _targeted_entities(self) -> Iterable[Subject]:
        seen: set[Subject] = set()
        for cls_iri in self._targets:
            for entity in self.graph.instances_of(IRI(cls_iri)):
                if entity not in seen:
                    seen.add(entity)
                    yield entity

    def _shapes_for(self, entity: Subject) -> list[str]:
        shapes = {
            self._targets[t.value]
            for t in self.graph.types_of(entity)
            if t.value in self._targets
        }
        return sorted(shapes)

    def _check(self, entity: Subject, shapes: list[str]) -> tuple[Violation, ...]:
        violations: list[Violation] = []
        for shape_name in shapes:
            report = ValidationReport(conforms=True)
            self._checker.check(entity, shape_name, report, {})
            violations.extend(report.violations)
        return tuple(violations)

    # ------------------------------------------------------------------ #

    def apply_delta(
        self,
        added: Iterable[Triple] = (),
        removed: Iterable[Triple] = (),
    ) -> int:
        """Recheck the focus nodes affected by an already-applied delta.

        Returns the number of focus nodes rechecked.
        """
        added = tuple(added)
        removed = tuple(removed)
        if any(t.p == _SUBCLASS_OF for t in (*added, *removed)):
            # Subclass-axiom changes shift class membership for every
            # ``sh:class`` check; delta scoping is unsound here.
            self.rebuild()
            return self.last_rechecked
        affected = self._affected_entities(added, removed)
        # Every affected row goes before any recheck runs, so that no
        # recheck can read a verdict from before the delta.
        for entity in affected:
            self._table.pop(entity, None)
        checked = 0
        for entity in affected:
            shapes = self._shapes_for(entity)
            if not shapes:
                self._entries.pop(entity, None)
                continue
            self._entries[entity] = self._check(entity, shapes)
            checked += 1
        self.last_rechecked = checked
        self.total_rechecked += checked
        return checked

    def _affected_entities(
        self,
        added: tuple[Triple, ...],
        removed: tuple[Triple, ...],
    ) -> set[Subject]:
        """The delta's subjects closed under reverse reference paths."""
        affected: set[Subject] = {t.s for t in (*added, *removed)}
        frontier = list(affected)
        reference_paths = self._reference_paths
        while frontier:
            for t in self.graph.triples(o=frontier.pop()):
                if t.p in reference_paths and t.s not in affected:
                    affected.add(t.s)
                    frontier.append(t.s)
        return affected

    # ------------------------------------------------------------------ #

    @property
    def focus_count(self) -> int:
        """Focus nodes currently tracked (= a full validation's targets)."""
        return len(self._entries)

    def report(self) -> ValidationReport:
        """The standing conformance report."""
        violations = [
            violation
            for entity in sorted(self._entries, key=str)
            for violation in self._entries[entity]
        ]
        return ValidationReport(
            conforms=not violations,
            violations=violations,
            checked_entities=len(self._entries),
        )

    @property
    def conforms(self) -> bool:
        """True when every tracked focus node conforms."""
        return all(not v for v in self._entries.values())

    def snapshot(self) -> dict[str, list[str]]:
        """Focus node -> sorted violation strings (comparison/persistence)."""
        return {
            str(entity): sorted(str(v) for v in violations)
            for entity, violations in self._entries.items()
        }
