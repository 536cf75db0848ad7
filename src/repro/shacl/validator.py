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

from collections.abc import Iterable, Iterator
from itertools import chain, islice
from typing import NamedTuple

from .. import obs
from ..namespaces import RDF_TYPE, RDFS
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal, Subject, Triple
from .model import (
    ClassType,
    LiteralType,
    NodeShapeRef,
    PropertyShape,
    ShapeSchema,
)

_SUBCLASS_OF = IRI(RDFS.subClassOf)
_RDF_TYPE = IRI(RDF_TYPE)
#: Stands in for an index row or a table row that is not there.
_EMPTY: dict = {}


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
    #: Interned id of the path, or None while the graph lacks the term.
    path_id: int | None
    #: ``T_p`` in declaration order: ``(datatype, None, None)`` for a
    #: literal type, ``(None, class ids, shape name targeting the class or
    #: None)`` for ``sh:class``, ``(None, None, shape name)`` for
    #: ``sh:node``; references to shapes the schema lacks never match
    #: and are left out.
    alternatives: tuple[tuple[str | None, frozenset[int] | None, str | None], ...]
    #: Message fragments that do not depend on the entity.
    bounds: str
    expected: str


class _EntityChecker:
    """The entity check ``e ⊨_G s`` of Definition 2.3 over one graph's ids.

    Built once per :meth:`ShaclValidator.validate` call and once per
    :class:`DeltaValidator` — not cached on the schema, which callers may
    mutate between validations.  Effective property shapes, path ids, the
    id set a ``sh:class`` accepts (the class and its subclasses) and the
    shape a class is targeted by are resolved the first time a shape is
    checked, not once per entity.  :meth:`reset` forgets them.

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
        table: entity id -> shape name -> context-free nested verdict,
            owned and invalidated by the caller; None keeps every verdict
            in the memo.
    """

    def __init__(
        self,
        schema: ShapeSchema,
        graph: Graph,
        table: dict[int, dict[str, bool]] | None = None,
    ):
        self.schema = schema
        self.graph = graph
        self.table = table
        # Cheap plain-int/dict tallies on the hot path; ShaclValidator
        # flushes them to obs once per run.
        self.memo_hits = 0
        self.memo_misses = 0
        self.shape_checks: dict[str, int] = {}
        # shape_for_class semantics: the first shape declared for a class.
        self._shape_of_class: dict[str, str] = {}
        for shape in schema:
            if shape.target_class is not None:
                self._shape_of_class.setdefault(shape.target_class, shape.name)
        #: Reads of in-progress or cycle-tainted memo entries so far; an
        #: entity check during which it did not move is context-free.
        self.tainted_reads = 0
        self.reset()

    def reset(self) -> None:
        """Resolve every id afresh against the graph's current interner."""
        self.terms = self.graph._terms
        self._spo = self.graph._spo
        #: The interner's size now, and whether a term looked up since was
        #: missing from it (a later delta may intern it).
        self.size = len(self.terms)
        self.missing = False
        self._plans: dict[str, tuple[_PropertyPlan, ...]] = {}
        self._classes: dict[str, frozenset[int]] = {}
        self.type_id = self.lookup(_RDF_TYPE)

    def lookup(self, term) -> int | None:
        """The id of ``term``, None (and noted) when it is not interned."""
        i = self.terms.lookup(term)
        if i is None:
            self.missing = True
        return i

    def instances(self, cls: str) -> Iterable[int]:
        """Ids of the entities typed ``cls`` (not its subclasses)."""
        cls_id = self.lookup(IRI(cls))
        by_o = self.graph._pos.get(self.type_id, _EMPTY)
        return by_o.get(cls_id, ()) if cls_id is not None else ()

    def _plan(self, shape_name: str) -> tuple[_PropertyPlan, ...]:
        plan = self._plans.get(shape_name)
        if plan is None:
            plan = self._plans[shape_name] = tuple(
                self._resolve(phi)
                for phi in self.schema.effective_property_shapes(shape_name)
            )
        return plan

    def _resolve(self, phi: PropertyShape) -> _PropertyPlan:
        alternatives: list[tuple[str | None, frozenset[int] | None, str | None]] = []
        for vt in phi.value_types:
            if isinstance(vt, LiteralType):
                alternatives.append((vt.datatype, None, None))
            elif isinstance(vt, ClassType):
                alternatives.append(
                    (None, self._class_ids(vt.cls), self._shape_of_class.get(vt.cls))
                )
            elif isinstance(vt, NodeShapeRef) and vt.shape in self.schema:
                alternatives.append((None, None, vt.shape))
        upper = "*" if phi.max_count == float("inf") else int(phi.max_count)
        return _PropertyPlan(
            shape=phi,
            path_id=self.lookup(IRI(phi.path)),
            alternatives=tuple(alternatives),
            bounds=f"[{phi.min_count}, {upper}]",
            expected=str([str(v) for v in phi.value_types]),
        )

    def _class_ids(self, cls: str) -> frozenset[int]:
        """``cls`` and its IRI subclasses, closed over ``rdfs:subClassOf``."""
        ids = self._classes.get(cls)
        if ids is None:
            root = self.lookup(IRI(cls))
            ids = self._classes[cls] = (
                frozenset() if root is None
                else self.graph._subclass_closure(root, up=False) | {root}
            )
        return ids

    def check(
        self,
        entity: int | None,
        shape_name: str,
        sink: list[tuple] | None,
        memo: dict[tuple[int | None, str], bool],
    ) -> bool:
        """``entity ⊨_G shape_name``; violations go to ``sink``.

        Nested checks of referenced values pass ``sink=None``: only their
        verdict is used.  An entity the graph never interned is None.
        """
        key = (entity, shape_name)
        cached = memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            # With a table the memo holds only in-progress and tainted
            # keys; without one nobody asks whether a verdict is tainted.
            self.tainted_reads += 1
            if not cached and sink is not None:
                # The failure was discovered while this entity was checked
                # as a nested shape-ref target, where no violations are
                # collected; the verdict must still reach this report.
                sink.append((entity, shape_name, None, None, None))
            return cached
        table = self.table
        if table is not None and sink is None:
            # A focus check (sink given) is always evaluated: the
            # standing report needs its violations, not just the verdict.
            known = table.get(entity, _EMPTY).get(shape_name)
            if known is not None:
                self.memo_hits += 1
                return known
        self.memo_misses += 1
        self.shape_checks[shape_name] = self.shape_checks.get(shape_name, 0) + 1
        # Optimistically assume conformance to break reference cycles.
        memo[key] = True
        tainted_reads = self.tainted_reads
        by_p = self._spo.get(entity, _EMPTY)
        ok = True
        for plan in self._plan(shape_name):
            if not self._check_property(entity, by_p, shape_name, plan, sink, memo):
                ok = False
        if table is not None and self.tainted_reads == tainted_reads:
            del memo[key]
            table.setdefault(entity, {})[shape_name] = ok
        else:
            memo[key] = ok
        return ok

    def focus(
        self,
        entity: int,
        shape_name: str,
        scope: set[int] | None = None,
        previous: list[list[tuple]] | None = None,
    ) -> list[list[tuple]]:
        """Per-plan violations of a focus check with a fresh memo.

        With a ``scope`` only the plans whose path id is in it are
        evaluated; the others' violations are copied from ``previous``.
        """
        self.memo_misses += 1
        self.shape_checks[shape_name] = self.shape_checks.get(shape_name, 0) + 1
        memo = {(entity, shape_name): True}
        tainted_reads = self.tainted_reads
        by_p = self._spo.get(entity, _EMPTY)
        results: list[list[tuple]] = []
        for i, plan in enumerate(self._plan(shape_name)):
            if scope is not None and plan.path_id not in scope:
                results.append(previous[i])
                continue
            sink: list[tuple] = []
            self._check_property(entity, by_p, shape_name, plan, sink, memo)
            results.append(sink or ())
        if self.table is not None and self.tainted_reads == tainted_reads:
            self.table.setdefault(entity, {})[shape_name] = not any(results)
        return results

    def _check_property(
        self,
        entity: int | None,
        by_p: dict,
        shape_name: str,
        plan: _PropertyPlan,
        sink: list[tuple] | None,
        memo: dict[tuple[int | None, str], bool],
    ) -> bool:
        phi = plan.shape
        values = by_p.get(plan.path_id)
        count = len(values) if values is not None else 0
        ok = phi.min_count <= count <= phi.max_count
        if not ok and sink is not None:
            sink.append((entity, shape_name, plan, count, None))
        for value in values or ():
            if not self._value_matches_any(value, plan, memo):
                ok = False
                if sink is not None:
                    sink.append((entity, shape_name, plan, None, value))
        return ok

    def _value_matches_any(
        self,
        value: int,
        plan: _PropertyPlan,
        memo: dict[tuple[int | None, str], bool],
    ) -> bool:
        term = self.terms.term(value)
        for datatype, classes, nested in plan.alternatives:
            if datatype is not None:
                if isinstance(term, Literal) and term.datatype == datatype:
                    return True
            elif not isinstance(term, IRI):
                continue
            elif classes is None or not classes.isdisjoint(
                self._spo.get(value, _EMPTY).get(self.type_id, ())
            ):
                if nested is None or self.check(value, nested, None, memo):
                    return True
        return False

    def violation(self, raw: tuple) -> Violation:
        """Render a recorded ``(focus, shape, plan, count, value)``: no
        value for a cardinality failure, no plan for a memo read."""
        entity, shape_name, plan, count, value = raw
        term = self.terms.term
        if plan is None:
            message = "entity does not conform (checked as a referenced value)"
        elif value is None:
            message = f"cardinality {count} outside {plan.bounds}"
        else:
            message = f"value {term(value).n3()} matches none of {plan.expected}"
        path = plan and plan.shape.path
        return Violation(str(term(entity)), shape_name, path, message)


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
        checker = _EntityChecker(self.schema, graph)
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
        sink: list[tuple] = []
        # Memo of (entity, shape-name) conformance to keep recursive
        # shape-reference checks linear.
        memo: dict[tuple[int | None, str], bool] = {}
        focus_nodes = (
            (entity, shape_name)
            for cls_iri, shape_name in self.schema.target_classes().items()
            for entity in checker.instances(cls_iri)
        )
        for entity, shape_name in focus_nodes:
            report.checked_entities += 1
            if not checker.check(entity, shape_name, sink, memo):
                report.conforms = False
            if len(sink) >= self.max_violations:
                report.conforms = False
                break
        report.violations = [
            checker.violation(raw) for raw in sink[: self.max_violations]
        ]
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
        checker = _EntityChecker(self.schema, graph)
        return checker.check(checker.lookup(entity), shape_name, None, {})


def validate(graph: Graph, schema: ShapeSchema) -> ValidationReport:
    """Validate ``graph`` against ``schema`` (module-level convenience)."""
    return ShaclValidator(schema).validate(graph)


class _Entry(NamedTuple):
    """The standing result of one focus node: per shape, per plan, its
    violations, and whether the check behind them read a tainted key."""

    shapes: list[str]
    results: list[list[list[tuple]]]
    tainted: bool


class DeltaValidator:
    """Delta-scoped SHACL revalidation with a standing conformance report.

    Instead of re-running whole-graph validation after every change, the
    validator keeps the violations of every focus node and, given the
    (added, removed) triples of a delta, recomputes only what the delta
    can change.  The *affected set* ``A`` is the delta's subjects closed
    under reverse *reference paths* — property shapes with a ``sh:class``
    or ``sh:node`` value type, whose checks read the referenced node's
    types and nested verdict.  Nothing outside ``A`` can change.

    Inside ``A`` a change travels only through verdicts that change.
    ``A`` is walked values before referrers, and a node is recomputed
    when it is a delta subject, or when a value of it in ``A`` changed
    one of its standing nested verdicts (the context-free rows of one
    verdict table, see :class:`_EntityChecker`, kept across deltas) or
    was retyped in or out of a class an ``sh:class`` test on that path
    accepts.  Any other node reads the same data and rows as before, so
    its rows and report entry stand.  That induction needs an
    acyclic, untainted ``A``: a delta invalidates every row of ``A`` and
    rechecks all of its focus nodes instead (``fallbacks`` counts these)
    when ``A``'s reference edges contain a cycle — every cycle touching
    ``A`` lies inside it, and a cycle the delta closes runs through one
    of its subjects — when a node in ``A`` has a cycle-tainted entry, or
    when a recomputed verdict comes out tainted.  A delta that rewrites
    the ``rdfs:subClassOf`` taxonomy rebuilds from scratch.

    A recheck evaluates only the property shapes on the focus's changed
    paths: the predicates of its delta triples and the reference paths to
    changed values.  The whole focus is rechecked when its last check was
    cycle-tainted, its types or targeted shapes changed, or the scoped
    check itself reads a tainted key.  Every focus node is checked with a
    fresh memo, so the standing report after any delta sequence is
    *equal* to checking every focus node of the final graph from scratch,
    and its ``conforms`` flag matches :meth:`ShaclValidator.validate`
    (DESIGN.md §12 has the argument).

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
        #: Entity id -> shape name -> context-free nested verdict.  Rows
        #: of referenced entities no shape targets live here too.
        self._table: dict[int, dict[str, bool]] = {}
        self._checker = _EntityChecker(schema, graph, self._table)
        self.max_violations = max_violations
        self._targets = schema.target_classes()
        self._reference_paths = self._compute_reference_paths()
        #: Focus entity id -> its standing result.
        self._entries: dict[int, _Entry] = {}
        #: Focus nodes rechecked by the last apply_delta (or rebuild).
        self.last_rechecked = 0
        #: Cumulative focus-node checks over the validator's lifetime.
        self.total_rechecked = 0
        #: Deltas that invalidated every affected row (see apply_delta).
        self.fallbacks = 0
        self.rebuild()

    def _compute_reference_paths(self) -> frozenset[IRI]:
        paths: set[IRI] = set()
        for shape in self.schema:
            for phi in self.schema.effective_property_shapes(shape.name):
                if any(not vt.is_literal() for vt in phi.value_types):
                    paths.add(IRI(phi.path))
        return frozenset(paths)

    def _resolve(self) -> None:
        """(Re)resolve every id the validator holds against the graph."""
        self._checker.reset()
        lookup = self._checker.lookup
        self._target_ids = {lookup(IRI(c)): s for c, s in self._targets.items()}
        self._reference_ids = frozenset(map(lookup, self._reference_paths))
        #: Path id -> the class id sets the schema's sh:class tests on it
        #: accept (filled on first use).
        self._tested: dict[int, list[frozenset[int]]] = {}

    @property
    def entity_checks(self) -> int:
        """Cumulative (entity, shape) evaluations, nested ones included."""
        return self._checker.memo_misses

    # ------------------------------------------------------------------ #

    def rebuild(self) -> None:
        """Recompute the standing report from scratch (full validation)."""
        self._resolve()
        self._entries = {}
        self._table.clear()
        for entity in self._targeted_entities():
            self._entries[entity] = self._check(entity, self._shapes_for(entity))
        self.last_rechecked = len(self._entries)
        self.total_rechecked += self.last_rechecked

    def _targeted_entities(self) -> Iterator[int]:
        seen: set[int] = set()
        for cls_iri in self._targets:
            for entity in self._checker.instances(cls_iri):
                if entity not in seen:
                    seen.add(entity)
                    yield entity

    def _shapes_for(self, entity: int) -> list[str]:
        types = self.graph._spo.get(entity, _EMPTY).get(self._checker.type_id, ())
        targets = self._target_ids
        return sorted({targets[t] for t in types if t in targets})

    def _check(self, entity: int, shapes: list[str]) -> _Entry:
        checker = self._checker
        tainted_reads = checker.tainted_reads
        results = [checker.focus(entity, shape_name) for shape_name in shapes]
        return _Entry(shapes, results, checker.tainted_reads != tainted_reads)

    def _recheck(self, entity: int, paths: set[int]) -> _Entry | None:
        """Recheck the plans of ``entity`` on ``paths``, or all of them;
        None when no shape targets it any more."""
        shapes = self._shapes_for(entity)
        entries, checker = self._entries, self._checker
        if not shapes:
            entries.pop(entity, None)
            return None
        self.last_rechecked += 1
        entry = entries.get(entity)
        if (
            entry is not None and not entry.tainted and entry.shapes == shapes
            and checker.type_id not in paths
        ):
            tainted_reads = checker.tainted_reads
            results = [
                checker.focus(entity, shape_name, paths, previous)
                for shape_name, previous in zip(shapes, entry.results)
            ]
            if checker.tainted_reads == tainted_reads:
                entries[entity] = entry = _Entry(shapes, results, False)
                return entry
        entries[entity] = entry = self._check(entity, shapes)
        return entry

    # ------------------------------------------------------------------ #

    def apply_delta(
        self,
        added: Iterable[Triple] = (),
        removed: Iterable[Triple] = (),
    ) -> int:
        """Recheck the focus nodes an already-applied delta can change.

        Returns the number of focus nodes rechecked.
        """
        added = tuple(added)
        removed = tuple(removed)
        checker = self._checker
        if self.graph._terms is not checker.terms or any(
            t.p == _SUBCLASS_OF for t in (*added, *removed)
        ):
            # Subclass-axiom changes shift class membership for every
            # ``sh:class`` check, and a cleared graph renumbered every
            # term; delta scoping is unsound here.
            self.rebuild()
            return self.last_rechecked
        if checker.missing and len(checker.terms) != checker.size:
            self._resolve()
        subjects, referrers = self._affected_entities(added, removed)
        order = _values_first(referrers)
        lookup = self.graph._terms.lookup
        retyped: dict[int, set[int]] = {}
        for t in (*added, *removed):
            if t.p == _RDF_TYPE:
                retyped.setdefault(lookup(t.s), set()).add(lookup(t.o))
        entries = self._entries
        self.last_rechecked = 0
        if (
            order is None
            or any(entries[e].tainted for e in referrers if e in entries)
            or not self._propagate(order, subjects, retyped, referrers)
        ):
            self.fallbacks += 1
            # Every affected row goes before any recheck runs, so that no
            # recheck can read a verdict from before the delta.
            paths = {e: set(subjects.get(e, ())) for e in referrers}
            for value, edges in referrers.items():
                self._table.pop(value, None)
                for s, p in edges:
                    paths[s].add(p)
            for entity, scope in paths.items():
                self._recheck(entity, scope)
        self.total_rechecked += self.last_rechecked
        return self.last_rechecked

    def _propagate(
        self,
        order: list[int],
        subjects: dict[int, set[int]],
        retyped: dict[int, set[int]],
        referrers: dict[int, list[tuple[int, int]]],
    ) -> bool:
        """Recompute, values first, the delta's subjects and the referrers
        of every node whose standing rows or tested class memberships
        changed; False when a recomputed verdict is cycle-tainted.
        ``retyped`` maps a delta subject to the classes its ``rdf:type``
        triples in the delta name."""
        checker, table = self._checker, self._table
        scope = {e: set(paths) for e, paths in subjects.items()}
        for entity in order:
            paths = scope.get(entity)
            if paths is None:
                continue  # same data, same rows read: its results stand
            old = table.pop(entity, _EMPTY)
            entry = self._recheck(entity, paths)
            # Rows read through sh:node or sh:class, not as a focus.
            for shape_name in old.keys() - table.get(entity, _EMPTY).keys():
                checker.check(entity, shape_name, None, {})
            new = table.get(entity, _EMPTY)
            if (entry is not None and entry.tainted) or not old.keys() <= new.keys():
                return False  # tainted verdicts stay out of the table
            # A row the entity did not have before was read by nobody.
            edges = referrers[entity]
            if all(new[k] == v for k, v in old.items()):
                if entity not in retyped:
                    continue
                edges = self._class_flips(entity, retyped[entity], edges)
            for s, p in edges:
                scope.setdefault(s, set()).add(p)
        return True

    def _class_flips(
        self, entity: int, touched: set[int], edges: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """The reference edges to ``entity`` whose ``sh:class`` tests a
        delta touching its types ``touched`` can flip: a tested class set
        that meets ``touched`` and no type the entity kept."""
        types = self.graph._spo.get(entity, _EMPTY).get(self._checker.type_id, ())
        kept = set(types) - touched
        return [
            (s, p) for s, p in edges
            if any(
                not classes.isdisjoint(touched) and classes.isdisjoint(kept)
                for classes in self._tested_classes(p)
            )
        ]

    def _tested_classes(self, path: int) -> list[frozenset[int]]:
        tested = self._tested.get(path)
        if tested is None:
            plan = self._checker._plan
            tested = self._tested[path] = [
                classes
                for shape in self.schema
                for property_plan in plan(shape.name)
                if property_plan.path_id == path
                for _, classes, _ in property_plan.alternatives
                if classes is not None
            ]
        return tested

    def _affected_entities(
        self,
        added: tuple[Triple, ...],
        removed: tuple[Triple, ...],
    ) -> tuple[dict[int, set[int]], dict[int, list[tuple[int, int]]]]:
        """The delta's subjects with their delta triples' predicates, and
        the affected set ``A`` — the subjects closed under reverse
        reference paths — as each member's ``(referrer, path)`` edges.
        """
        lookup = self.graph._terms.lookup
        subjects: dict[int, set[int]] = {}
        for t in (*added, *removed):
            s = lookup(t.s)
            if s is not None:
                subjects.setdefault(s, set()).add(lookup(t.p))
        referrers: dict[int, list[tuple[int, int]]] = {s: [] for s in subjects}
        frontier = list(subjects)
        reference_ids = self._reference_ids
        osp = self.graph._osp
        while frontier:
            node = frontier.pop()
            edges = referrers[node]
            for s, predicates in osp.get(node, _EMPTY).items():
                for p in predicates:
                    if p in reference_ids:
                        edges.append((s, p))
                        if s not in referrers:
                            referrers[s] = []
                            frontier.append(s)
        return subjects, referrers

    # ------------------------------------------------------------------ #

    def _violations(self, entry: _Entry) -> list[Violation]:
        """The entry's violations, at most ``max_violations`` per shape."""
        return [
            self._checker.violation(raw)
            for results in entry.results
            for raw in islice(chain.from_iterable(results), self.max_violations)
        ]

    @property
    def focus_count(self) -> int:
        """Focus nodes currently tracked (= a full validation's targets)."""
        return len(self._entries)

    def report(self) -> ValidationReport:
        """The standing conformance report."""
        term = self._checker.terms.term
        violations = [
            violation
            for entity in sorted(self._entries, key=lambda i: str(term(i)))
            for violation in self._violations(self._entries[entity])
        ]
        return ValidationReport(
            conforms=not violations,
            violations=violations,
            checked_entities=len(self._entries),
        )

    @property
    def conforms(self) -> bool:
        """True when every tracked focus node conforms."""
        return not any(
            any(results) for entry in self._entries.values() for results in entry.results
        )

    def snapshot(self) -> dict[str, list[str]]:
        """Focus node -> sorted violation strings (comparison/persistence)."""
        term = self._checker.terms.term
        return {
            str(term(entity)): sorted(str(v) for v in self._violations(entry))
            for entity, entry in self._entries.items()
        }


def _values_first(referrers: dict[int, list[tuple[int, int]]]) -> list[int] | None:
    """The nodes of ``referrers`` with every value before its referrers
    (Kahn's sort); None when their reference edges contain a cycle."""
    pending = dict.fromkeys(referrers, 0)
    for refs in referrers.values():
        for s, _ in refs:
            pending[s] += 1
    order = [e for e, n in pending.items() if not n]
    for value in order:  # grows while it is walked
        for s, _ in referrers[value]:
            pending[s] -= 1
            if not pending[s]:
                order.append(s)
    return order if len(order) == len(pending) else None
