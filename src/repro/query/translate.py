"""Automated SPARQL-to-Cypher translation for S3PG-transformed graphs.

The paper translates its benchmark queries manually and leaves an
automated translator as future work; this module implements one for the
supported SELECT/BGP/FILTER fragment, driven by the schema mapping
``F_st`` (Section 4.3 sketches exactly this: "``F_qt`` can make use of
``S_PG`` to translate Q into Q' as ``PG ⊨ S_PG``").

Translation rules (mirroring the Q22 example of Section 5.2):

* ``?e a :C``                -> label constraint ``(e:label(C))``;
* ``?e :p ?v`` (key/value)   -> ``UNWIND e.key AS v`` (a scalar unwinds to
  itself; an absent property yields no row, matching BGP semantics);
* ``?e :p ?v`` (edge)        -> ``(e)-[:rel]->(v)`` and ``?v`` projects as
  ``COALESCE(v.value, v.iri)`` — the heterogeneous-target access pattern;
* constant subjects/objects  -> ``{iri: "..."}`` / ``{value: ...}`` node
  property constraints or WHERE equalities;
* FILTER comparisons         -> WHERE comparisons over translated terms.

The translated value space follows ``tr(mu)`` of Definition 3.2: IRIs and
blank-node ids become their string representations.
"""

from __future__ import annotations

from ..errors import TranslationError
from ..core.data_transform import encode_literal_value
from ..core.mapping import SchemaMapping
from ..rdf.terms import IRI, BlankNode, Literal
from .sparql.ast import (
    BooleanOp,
    Comparison,
    Expression,
    NotOp,
    SelectQuery,
    TriplePattern,
    Var,
)
from ..namespaces import RDF_TYPE
from .normalize import cypher_value_text


class SparqlToCypherTranslator:
    """Translates parsed SPARQL queries into Cypher text.

    Args:
        mapping: the ``F_st`` mapping of the S3PG transformation whose
            output graph the Cypher query will run on.

    Raises:
        TranslationError: for constructs outside the supported fragment
            (variable predicates, variable classes, unsupported builtins).
    """

    def __init__(self, mapping: SchemaMapping):
        self.mapping = mapping

    def translate(self, query: SelectQuery) -> str:
        """Translate ``query``; returns Cypher text."""
        if query.unions:
            return self._translate_union(query)
        return _Translation(self.mapping, query).build()

    def _translate_union(self, query: SelectQuery) -> str:
        """``{A} UNION {B}`` becomes one translated part per alternative,
        combined with Cypher's UNION ALL (both have bag semantics)."""
        from copy import copy

        if query.distinct or query.order_by or query.limit is not None:
            raise TranslationError(
                "DISTINCT/ORDER BY/LIMIT over UNION are not supported"
            )
        if query.count is not None or query.ask:
            raise TranslationError("COUNT/ASK over UNION are not supported")
        parts = []
        for alternative in query.unions:
            branch = copy(query)
            branch.patterns = [*query.patterns, *alternative]
            branch.unions = []
            parts.append(_Translation(self.mapping, branch).build())
        return "\nUNION ALL\n".join(parts)

    def translate_text(self, sparql_text: str) -> str:
        """Parse SPARQL text and translate it."""
        from .sparql.parser import parse_sparql

        return self.translate(parse_sparql(sparql_text))


class _Translation:
    """One translation run (collects MATCH paths, UNWINDs, WHERE, RETURN)."""

    def __init__(self, mapping: SchemaMapping, query: SelectQuery):
        self.mapping = mapping
        self.query = query
        self.subject_labels: dict[str, list[str]] = {}
        self.subject_classes: dict[str, list[str]] = {}
        self.paths: list[str] = []
        self.optional_paths: list[str] = []
        self.unwinds: list[str] = []
        self.where: list[str] = []
        # var -> how to project it: ("node", cypher_var) | ("value", cypher_var)
        #        | ("mixed", cypher_var)
        self.projections: dict[str, tuple[str, str]] = {}
        self.standalone_nodes: set[str] = set()
        #: Constant subject term -> the Cypher variable standing for it.
        self.constant_vars: dict[IRI | BlankNode, str] = {}
        self._fresh = 0

    # ------------------------------------------------------------------ #

    def build(self) -> str:
        type_patterns, other_patterns = self._split_patterns()
        for pattern in type_patterns:
            self._handle_type_pattern(pattern)
        for pattern in other_patterns:
            self._handle_property_pattern(pattern)
        for group in self.query.optionals:
            self._handle_optional_group(group)
        for var in self.subject_labels:
            if var not in self.projections:
                self.projections[var] = ("node", var)
        for filter_expr in self.query.filters:
            self.where.append(self._translate_filter(filter_expr))
        return self._render()

    def _handle_optional_group(self, group) -> None:
        """OPTIONAL groups: edge-mode properties become OPTIONAL MATCH;
        single-valued key/value properties become nullable projections."""
        for pattern in group:
            if isinstance(pattern.p, Var):
                raise TranslationError("variable predicates are not supported")
            if pattern.p.value == RDF_TYPE:
                raise TranslationError("rdf:type inside OPTIONAL is not supported")
            if not isinstance(pattern.s, Var):
                raise TranslationError("OPTIONAL requires a variable subject")
            subject_var = pattern.s.name
            self.subject_labels.setdefault(subject_var, [])
            classes = self.subject_classes.get(subject_var, [])
            prop = self.mapping.property_for(classes, pattern.p.value)
            if prop is None:
                raise TranslationError(
                    f"predicate {pattern.p.value} is not covered by the mapping"
                )
            if not isinstance(pattern.o, Var):
                raise TranslationError("OPTIONAL objects must be variables")
            value_var = pattern.o.name
            if prop.is_key_value():
                if prop.array:
                    raise TranslationError(
                        "multi-valued key/value properties inside OPTIONAL "
                        "are not supported"
                    )
                self.standalone_nodes.add(subject_var)
                self.projections.setdefault(
                    value_var, ("prop", f"{subject_var}.{prop.pg_key}")
                )
            else:
                self.optional_paths.append(
                    f"({subject_var})-[:{prop.rel_type}]->({value_var})"
                )
                self.projections.setdefault(value_var, ("mixed", value_var))

    def _split_patterns(self) -> tuple[list[TriplePattern], list[TriplePattern]]:
        type_patterns: list[TriplePattern] = []
        other: list[TriplePattern] = []
        for pattern in self.query.patterns:
            if isinstance(pattern.p, Var):
                raise TranslationError("variable predicates are not supported")
            if pattern.p.value == RDF_TYPE:
                type_patterns.append(pattern)
            else:
                other.append(pattern)
        return type_patterns, other

    def _fresh_var(self, base: str) -> str:
        self._fresh += 1
        return f"{base}_{self._fresh}"

    def _subject_var(self, term) -> str:
        if isinstance(term, Var):
            return term.name
        if isinstance(term, (IRI, BlankNode)):
            # Constant subject: one var per constant, constrained by iri,
            # so every pattern on it lands on the same (connected) node
            # and sees the classes its type patterns gave it.
            var = self.constant_vars.get(term)
            if var is None:
                var = self.constant_vars[term] = self._fresh_var("s")
                iri_text = term.value if isinstance(term, IRI) else f"_:{term.label}"
                self.subject_labels.setdefault(var, [])
                self.where.append(f"{var}.iri = {cypher_value_text(iri_text)}")
            return var
        raise TranslationError(f"unsupported subject term {term!r}")

    # ------------------------------------------------------------------ #

    def _handle_type_pattern(self, pattern: TriplePattern) -> None:
        if not isinstance(pattern.o, IRI):
            raise TranslationError("rdf:type with a non-constant class is unsupported")
        var = self._subject_var(pattern.s)
        label = self.mapping.label_for_class(pattern.o.value)
        if label is None:
            raise TranslationError(f"class {pattern.o.value} has no PG label")
        self.subject_labels.setdefault(var, []).append(label)
        self.subject_classes.setdefault(var, []).append(pattern.o.value)

    def _handle_property_pattern(self, pattern: TriplePattern) -> None:
        subject_var = self._subject_var(pattern.s)
        self.subject_labels.setdefault(subject_var, [])
        classes = self.subject_classes.get(subject_var, [])
        prop = self.mapping.property_for(classes, pattern.p.value)
        if prop is None:
            raise TranslationError(
                f"predicate {pattern.p.value} is not covered by the mapping"
            )
        if prop.is_key_value():
            self._key_value_pattern(subject_var, prop.pg_key, pattern)
        else:
            self._edge_pattern(subject_var, prop.rel_type, pattern)

    def _key_value_pattern(self, subject_var: str, key: str, pattern: TriplePattern) -> None:
        self.standalone_nodes.add(subject_var)
        if isinstance(pattern.o, Var):
            value_var = pattern.o.name
            if any(line.endswith(f" AS {value_var}") for line in self.unwinds):
                # The value variable is already bound by a previous UNWIND;
                # a second ``UNWIND ... AS value_var`` would silently rebind
                # it and drop the join.  Unwind into a fresh helper and
                # equate (the equality mentions an UNWIND variable, so the
                # renderer places it after both UNWINDs).
                helper = self._fresh_var("kv")
                self.unwinds.append(f"UNWIND {subject_var}.{key} AS {helper}")
                self.where.append(f"{helper} = {value_var}")
                return
            self.unwinds.append(f"UNWIND {subject_var}.{key} AS {value_var}")
            self.projections.setdefault(value_var, ("value", value_var))
            return
        if isinstance(pattern.o, Literal):
            constant = encode_literal_value(pattern.o)
            helper = self._fresh_var("kv")
            self.unwinds.append(f"UNWIND {subject_var}.{key} AS {helper}")
            self.where.append(f"{helper} = {cypher_value_text(constant)}")
            return
        raise TranslationError("key/value property cannot target an IRI object")

    def _edge_pattern(self, subject_var: str, rel_type: str, pattern: TriplePattern) -> None:
        if isinstance(pattern.o, Var):
            target_var = pattern.o.name
            self.paths.append(f"({subject_var})-[:{rel_type}]->({target_var})")
            self.projections.setdefault(target_var, ("mixed", target_var))
            # If the object var is also used as a subject, its own label
            # constraints are added by the type patterns.
            self.subject_labels.setdefault(target_var, self.subject_labels.get(target_var, []))
            return
        if isinstance(pattern.o, (IRI, BlankNode)):
            iri_text = (
                pattern.o.value if isinstance(pattern.o, IRI) else f"_:{pattern.o.label}"
            )
            target_var = self._fresh_var("t")
            self.paths.append(
                f"({subject_var})-[:{rel_type}]->({target_var} {{iri: {cypher_value_text(iri_text)}}})"
            )
            return
        # Constant literal object: match the literal node by value.
        constant = encode_literal_value(pattern.o)
        target_var = self._fresh_var("t")
        self.paths.append(
            f"({subject_var})-[:{rel_type}]->({target_var} {{value: {cypher_value_text(constant)}}})"
        )
        if pattern.o.language is not None:
            self.where.append(f"{target_var}.lang = {cypher_value_text(pattern.o.language)}")

    # ------------------------------------------------------------------ #

    def _translate_filter(self, expression: Expression) -> str:
        if isinstance(expression, Comparison):
            lhs = self._filter_operand(expression.lhs)
            rhs = self._filter_operand(expression.rhs)
            op = "<>" if expression.op == "!=" else expression.op
            return f"{lhs} {op} {rhs}"
        if isinstance(expression, BooleanOp):
            joiner = " AND " if expression.op == "and" else " OR "
            return "(" + joiner.join(
                self._translate_filter(op) for op in expression.operands
            ) + ")"
        if isinstance(expression, NotOp):
            return f"NOT ({self._translate_filter(expression.operand)})"
        raise TranslationError(f"unsupported FILTER expression {expression!r}")

    def _filter_operand(self, expression: Expression) -> str:
        if isinstance(expression, Var):
            kind, var = self.projections.get(expression.name, ("node", expression.name))
            if kind == "value":
                return var
            if kind == "mixed":
                return f"COALESCE({var}.value, {var}.iri)"
            return f"{var}.iri"
        if isinstance(expression, Literal):
            return cypher_value_text(encode_literal_value(expression))
        if isinstance(expression, IRI):
            return cypher_value_text(expression.value)
        raise TranslationError(f"unsupported FILTER operand {expression!r}")

    # ------------------------------------------------------------------ #

    def _render(self) -> str:
        path_texts = list(self.paths)
        mentioned = " ".join(path_texts)
        for var in sorted(set(self.subject_labels) | self.standalone_nodes):
            if f"({var})" in mentioned or f"({var} " in mentioned:
                continue
            if not path_texts or all(
                f"({var})" not in p and f"({var} " not in p for p in path_texts
            ):
                # A node variable that appears in no path yet: standalone.
                path_texts.append(f"({var})")
                mentioned = " ".join(path_texts)

        # Attach label constraints to the first occurrence of each var
        # across all paths (replacing once in the joined text).
        joined = "\x00".join(path_texts)
        for var, labels in self.subject_labels.items():
            if not labels:
                continue
            label_suffix = "".join(f":{label}" for label in labels)
            if f"({var})" in joined:
                joined = joined.replace(f"({var})", f"({var}{label_suffix})", 1)
            else:
                joined = joined.replace(f"({var} {{", f"({var}{label_suffix} {{", 1)
        path_texts = joined.split("\x00") if joined else []

        # Conditions mentioning an UNWIND variable must be applied after
        # the UNWIND (rendered as ``WITH * WHERE ...``).
        import re as _re

        unwind_vars = {
            line.split(" AS ", 1)[1] for line in self.unwinds if " AS " in line
        }

        def mentions_unwind(condition: str) -> bool:
            return any(
                _re.search(rf"\b{_re.escape(var)}\b", condition)
                for var in unwind_vars
            )

        pre_where = [c for c in self.where if not mentions_unwind(c)]
        post_where = [c for c in self.where if mentions_unwind(c)]

        lines: list[str] = []
        if path_texts:
            lines.append("MATCH " + ", ".join(path_texts))
        if pre_where:
            lines.append("WHERE " + " AND ".join(pre_where))
        for optional_path in self.optional_paths:
            lines.append("OPTIONAL MATCH " + optional_path)
        lines.extend(self.unwinds)
        if post_where:
            lines.append("WITH * WHERE " + " AND ".join(post_where))
        lines.append(self._render_return())
        return "\n".join(lines)

    def _render_return(self) -> str:
        if self.query.ask:
            # ASK translates to a count; a non-zero count means true.
            return "RETURN count(*) AS ask"
        if self.query.count is not None:
            return f"RETURN count(*) AS {self.query.count}"
        items: list[str] = []
        variables = [v.name for v in self.query.variables] or list(self.projections)
        for name in variables:
            kind, var = self.projections.get(name, ("node", name))
            if kind == "value":
                items.append(f"{var} AS {name}")
            elif kind == "prop":
                items.append(f"{var} AS {name}")
            elif kind == "mixed":
                items.append(f"COALESCE({var}.value, {var}.iri) AS {name}")
            else:
                items.append(f"{var}.iri AS {name}")
        distinct = "DISTINCT " if self.query.distinct else ""
        order = ""
        if self.query.order_by:
            keys = []
            for order_key in self.query.order_by:
                name = order_key.var.name
                if name not in set(variables):
                    raise TranslationError(
                        "ORDER BY variables must be projected"
                    )
                keys.append(name + (" DESC" if order_key.descending else ""))
            order = " ORDER BY " + ", ".join(keys)
        limit = f" LIMIT {self.query.limit}" if self.query.limit is not None else ""
        return f"RETURN {distinct}" + ", ".join(items) + order + limit


def translate_sparql_to_cypher(sparql_text: str, mapping: SchemaMapping) -> str:
    """Translate SPARQL text to Cypher text for an S3PG-transformed graph.

    Args:
        sparql_text: the SELECT/ASK query to translate.
        mapping: the ``F_st`` mapping of the target graph's transformation.
    """
    return SparqlToCypherTranslator(mapping).translate_text(sparql_text)
