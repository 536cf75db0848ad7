"""SHACL shape extraction from RDF data (the paper's reference [33]).

The paper assumes a shape schema is available, extracting one with QSE
[Rabbani, Lissandrini, Hose; PVLDB 2023] when it is not.  This module
implements the same frequency-based idea: for every class, observe which
predicates its instances use, the kinds and datatypes of their values, and
their per-entity multiplicities, then emit node/property shapes with
support- and confidence-based pruning.

Every count is a grouped count over the graph's interned postings: a
class's instances are its ``rdf:type`` POS bucket, each instance's SPO
row gives its predicates and their object ids, and the kinds of each
distinct object id are worked out once per extraction.  Terms are
decoded only for those kinds (a literal's datatype, a class's IRI) and
to name and sort the shapes.

Extraction rules:

* one node shape per class with at least ``min_class_support`` instances;
* one property shape per (class, predicate) with support above
  ``min_property_support`` (fraction of the class's instances using it);
* value types: every observed literal datatype, plus a class constraint
  for every observed object class (pruned below ``min_type_confidence``);
* ``sh:minCount 1`` when every instance has the property, else 0;
  ``sh:maxCount 1`` when no instance has two values, else unbounded;
* ``rdfs:subClassOf`` links between shaped classes become ``sh:node``
  inheritance, and property shapes identical to a parent's are removed
  from the child.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain

from ..namespaces import RDF_TYPE, RDFS, SHAPES, local_name
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal
from ..shacl.model import (
    UNBOUNDED,
    ClassType,
    LiteralType,
    NodeShape,
    PropertyShape,
    ShapeSchema,
    ValueType,
)
from ..storage.intern import Memo

_TYPE = IRI(RDF_TYPE)
_SUBCLASS = IRI(RDFS.subClassOf)


@dataclass(frozen=True)
class ExtractionConfig:
    """Support/confidence thresholds for shape extraction.

    Attributes:
        min_class_support: minimum number of instances for a class to get
            a node shape.
        min_property_support: minimum fraction of instances using a
            predicate for it to get a property shape.
        min_type_confidence: minimum fraction of a property's values a
            value type must cover to be kept in ``sh:or``.
        derive_hierarchy: turn ``rdfs:subClassOf`` into ``sh:node``.
    """

    min_class_support: int = 1
    min_property_support: float = 0.0
    min_type_confidence: float = 0.0
    derive_hierarchy: bool = True


class ShapeExtractor:
    """Extracts a :class:`ShapeSchema` from instance data (QSE-style)."""

    def __init__(self, config: ExtractionConfig | None = None):
        self.config = config or ExtractionConfig()

    def extract(self, graph: Graph) -> ShapeSchema:
        """Run extraction over ``graph``."""
        schema = ShapeSchema()
        classes = self._shaped_classes(graph)
        class_set = {cls for cls, _ in classes}
        shape_names = {cls: SHAPES.term(local_name(cls) + "Shape") for cls, _ in classes}
        # Disambiguate local-name collisions across namespaces.
        seen: dict[str, str] = {}
        for class_iri, shape_name in list(shape_names.items()):
            other = seen.get(shape_name)
            if other is not None:
                shape_names[class_iri] = shape_name + "_" + str(len(seen))
            seen[shape_names[class_iri]] = class_iri

        for cls, property_shapes in classes:
            schema.add(
                NodeShape(
                    name=shape_names[cls],
                    target_class=cls,
                    property_shapes=property_shapes,
                )
            )

        if self.config.derive_hierarchy:
            self._apply_hierarchy(graph, schema, shape_names, class_set)
        return schema

    # ------------------------------------------------------------------ #

    def _shaped_classes(self, graph: Graph) -> list[tuple[str, list[PropertyShape]]]:
        """Every class with at least ``min_class_support`` instances, in
        IRI order, with its property shapes: the counting pass."""
        terms = graph._terms
        term = terms.term
        type_id = terms.lookup(_TYPE)
        by_class = graph._pos.get(type_id, {})
        # The set C of Definition 2.1: IRI objects of rdf:type and the IRIs
        # on either side of rdfs:subClassOf.
        class_ids = set(by_class)
        for o, subs in graph._pos.get(terms.lookup(_SUBCLASS), {}).items():
            class_ids.add(o)
            class_ids.update(subs)
        support = self.config.min_class_support
        superclasses = Memo(partial(graph._subclass_closure, up=True))
        kinds_of = Memo(partial(_object_kinds, graph, type_id, superclasses))
        return [
            (iri, self._property_shapes(graph, by_class.get(c, ()), type_id, kinds_of))
            for iri, c in sorted(
                (term(c).value, c) for c in class_ids
                if isinstance(term(c), IRI) and len(by_class.get(c, ())) >= support
            )
        ]

    def _property_shapes(
        self, graph: Graph, instances, type_id: int | None, kinds_of: Memo
    ) -> list[PropertyShape]:
        """One class's property shapes, counted over the SPO rows of its
        ``instances`` (ids); ``kinds_of`` memoises each object id's kinds."""
        config = self.config
        n_instances = len(instances)
        # predicate id -> one object postings per instance using it, so
        # usage is the list's length; postings are never empty, so some
        # instance has two values exactly when the values outnumber it.
        buckets: dict[int, list] = defaultdict(list)
        spo = graph._spo
        for entity in instances:
            for predicate, objects in spo[entity].items():
                buckets[predicate].append(objects)
        buckets.pop(type_id, None)
        term = graph._terms.term
        property_shapes: list[PropertyShape] = []
        for path, predicate in sorted((term(p).value, p) for p in buckets):
            usage = len(buckets[predicate])
            if usage / n_instances < config.min_property_support:
                continue
            # One C-level tally of the values' kind tuples, then per kind.
            per_kinds = Counter(
                map(kinds_of.__getitem__, chain.from_iterable(buckets[predicate]))
            )
            total = sum(per_kinds.values())
            counts: Counter = Counter()
            for kinds, n in per_kinds.items():
                for kind in kinds:
                    counts[kind] += n
            value_types = self._select_value_types(counts, total)
            if value_types:
                property_shapes.append(
                    PropertyShape(
                        path=path,
                        value_types=value_types,
                        min_count=1 if usage == n_instances else 0,
                        max_count=UNBOUNDED if total > usage else 1,
                    )
                )
        return property_shapes

    def _select_value_types(
        self, kinds: Counter, total: int
    ) -> tuple[ValueType, ...]:
        config = self.config
        selected: list[ValueType] = []
        # Order by descending support (the first literal type is the
        # property's dominant datatype, which schema-dependent consumers
        # like rdf2pg treat as the declared attribute type).
        for (kind, iri), count in sorted(
            kinds.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            confidence = count / total if total else 0.0
            if confidence < config.min_type_confidence:
                continue
            if kind == "literal":
                selected.append(LiteralType(iri))
            else:
                selected.append(ClassType(iri))
        return tuple(selected)

    # ------------------------------------------------------------------ #

    def _apply_hierarchy(
        self,
        graph: Graph,
        schema: ShapeSchema,
        shape_names: dict[str, str],
        class_set: set[str],
    ) -> None:
        for triple in graph.triples(p=_SUBCLASS):
            if not (isinstance(triple.s, IRI) and isinstance(triple.o, IRI)):
                continue
            child_iri, parent_iri = triple.s.value, triple.o.value
            if child_iri not in class_set or parent_iri not in class_set:
                continue
            child = schema[shape_names[child_iri]]
            parent_name = shape_names[parent_iri]
            # An edge whose parent already reaches the child would close
            # an inheritance cycle (subclass cycles are legal RDFS).
            if parent_name not in child.extends and child.name not in (
                parent_name, *schema.ancestors(parent_name)
            ):
                child.extends = (*child.extends, parent_name)
        # Remove child-local property shapes identical to an inherited one.
        for shape in schema:
            if not shape.extends:
                continue
            inherited: dict[str, PropertyShape] = {}
            for ancestor in schema.ancestors(shape.name):
                for phi in schema[ancestor].property_shapes:
                    inherited.setdefault(phi.path, phi)
            shape.property_shapes = [
                phi
                for phi in shape.property_shapes
                if not (
                    phi.path in inherited
                    and set(phi.value_types) == set(inherited[phi.path].value_types)
                    and phi.cardinality() == inherited[phi.path].cardinality()
                )
            ]


def _object_kinds(
    graph: Graph, type_id: int | None, superclasses: Memo, oid: int
) -> tuple[tuple[str, str], ...]:
    """The kinds of object id ``oid``: a literal's datatype
    (``rdf:langString`` when tagged), or an IRI's or blank node's most
    specific IRI types; ``superclasses`` memoises the closure per class."""
    term = graph._terms.term
    value = term(oid)
    if isinstance(value, Literal):
        return (("literal", value.datatype),)
    types = graph._spo.get(oid, {}).get(type_id) or ()
    types = [c for c in types if isinstance(term(c), IRI)]
    # Keep only the most specific types: drop any type that is a
    # superclass of another type the object carries, so that an object
    # typed {Settlement, Place} yields just Settlement.
    return tuple(sorted(
        ("class", term(c).value)
        for c in types
        if not any(c in superclasses[other] for other in types if other != c)
    ))  # untyped IRIs contribute no constraint


def extract_shapes(
    graph: Graph, config: ExtractionConfig | None = None
) -> ShapeSchema:
    """Extract a shape schema from ``graph`` (module-level convenience)."""
    return ShapeExtractor(config).extract(graph)
