"""Query shapes: the one ``$n`` normaliser of both query languages.

A query's *shape* is the query with its non-structural constants lifted
into ordered ``$n`` parameters and its variables renumbered ``v0, v1,
...`` in first-use order, rendered as canonical text in the fragment the
repo's own parsers accept.  Three readers consume it:

* the planners, which key their plan caches on the shape of a BGP or
  MATCH clause and execute the cached *generic* plan with each call's
  parameter vector (:func:`lift_bgp`, :func:`lift_paths`);
* the workload tracker in :mod:`repro.obs`, whose statement fingerprint
  is a hash of the canonical text of the whole query
  (:func:`normalize_sparql`, :func:`normalize_cypher`);
* the prepared statements of :mod:`repro.query.statements`, which
  normalise each statement's template once.

What is lifted and what is structure is decided here; a prepared
statement's template (:class:`~repro.lexer.TokenParser`) keeps exactly
these constants as values, which ``tests/query/test_statement_cache.py``
pins by comparing fingerprints:

* SPARQL: subject and object terms (IRIs, blank nodes, literals) and
  FILTER constants are lifted; predicates and the object of ``rdf:type``
  (a class names query shape, not a value) stay in the shape;
* Cypher: every literal value is lifted, including node-pattern
  property values; labels, relationship types, property keys and LIMIT
  stay in the shape.

A lifted constant becomes a :class:`Param` in the lifted patterns.
"""

from __future__ import annotations

from ..lexer import Param, resolve
from ..namespaces import RDF_TYPE
from ..rdf.terms import IRI, Literal
from .cypher import ast as cypher_ast
from .cypher.ast import NodePattern, PathPattern
from .sparql import ast as sparql_ast
from .sparql.ast import TriplePattern, Var

__all__ = [
    "Param",
    "lift_bgp",
    "lift_paths",
    "cypher_value_text",
    "normalize_cypher",
    "normalize_sparql",
    "resolve",
]


class _Shape:
    """One normalisation pass: variable renumbering + parameter lifting."""

    def __init__(self) -> None:
        #: Original variable name -> canonical name, in first-use order.
        self.vars: dict[str, str] = {}
        #: Lifted constants, in ``$n`` order.
        self.params: list = []
        #: Each rendered triple pattern / path with its lifted constants
        #: as slots.
        self.lifted: list = []

    def var(self, name: str) -> str:
        canonical = self.vars.get(name)
        if canonical is None:
            canonical = f"v{len(self.vars)}"
            self.vars[name] = canonical
        return canonical

    def lift(self, value) -> tuple[str, Param]:
        self.params.append(value)
        return f"${len(self.params)}", Param(len(self.params) - 1)


# --------------------------------------------------------------------- #
# SPARQL
# --------------------------------------------------------------------- #

class _SparqlShape(_Shape):
    def term(self, term, structural: bool):
        if isinstance(term, Var):
            return "?" + self.var(term.name), term
        if structural and not isinstance(term, Param):
            return term.n3(), term
        # a statement's slot is lifted wherever FILTER pinning put it
        return self.lift(term)

    def triple(self, pattern) -> str:
        # The object of rdf:type names a *class* — that is query shape,
        # not a parameter (U3 over :Student and U3 over :Course are
        # different statements).
        is_type = isinstance(pattern.p, IRI) and pattern.p.value == RDF_TYPE
        s, s_slot = self.term(pattern.s, structural=False)
        p, p_slot = self.term(pattern.p, structural=True)
        o, o_slot = self.term(pattern.o, structural=is_type)
        self.lifted.append(TriplePattern(s_slot, p_slot, o_slot))
        return f"{s} {p} {o} ."

    def group(self, patterns) -> str:
        return " ".join(self.triple(p) for p in patterns)

    def expr(self, node) -> str:
        ast = sparql_ast
        if isinstance(node, ast.Var):
            return "?" + self.var(node.name)
        if isinstance(node, (IRI, Literal, Param)):
            return self.lift(node)[0]
        if isinstance(node, ast.Comparison):
            return f"({self.expr(node.lhs)} {node.op} {self.expr(node.rhs)})"
        if isinstance(node, ast.BooleanOp):
            glue = " && " if node.op == "and" else " || "
            return "(" + glue.join(self.expr(op) for op in node.operands) + ")"
        if isinstance(node, ast.NotOp):
            return f"(! {self.expr(node.operand)})"
        if isinstance(node, ast.IsLiteralFn):
            return f"isLiteral({self.expr(node.operand)})"
        if isinstance(node, ast.IsIriFn):
            return f"isIRI({self.expr(node.operand)})"
        if isinstance(node, ast.StrFn):
            return f"STR({self.expr(node.operand)})"
        if isinstance(node, ast.RegexFn):
            pattern = self.lift(Literal(node.pattern))[0]
            return f"REGEX({self.expr(node.operand)}, {pattern})"
        raise TypeError(f"unknown SPARQL expression node {type(node).__name__}")


def lift_bgp(patterns) -> tuple[tuple, list, list[TriplePattern]]:
    """``(shape, parameters, lifted patterns)`` of a basic graph pattern.

    ``shape`` is the canonical text plus the original variable names in
    first-use order, so it names one plan: the plan's columns carry the
    query's own variable names.
    """
    n = _SparqlShape()
    text = n.group(patterns)
    return (text, tuple(n.vars)), n.params, n.lifted


def normalize_sparql(query) -> tuple[str, list]:
    """Canonical text + lifted constants (values, or a template's slots)."""
    n = _SparqlShape()
    body: list[str] = []
    if query.patterns:
        body.append(n.group(query.patterns))
    if query.unions:
        body.append(
            " UNION ".join("{ " + n.group(g) + " }" for g in query.unions)
        )
    for group in query.optionals:
        body.append("OPTIONAL { " + n.group(group) + " }")
    for expression in query.filters:
        body.append(f"FILTER({n.expr(expression)})")
    where = "{ " + " ".join(body) + " }" if body else "{ }"
    if query.ask:
        text = f"ASK {where}"
    elif query.count is not None:
        text = f"SELECT (COUNT(*) AS ?{n.var(query.count)}) WHERE {where}"
    else:
        if query.variables:
            projection = " ".join("?" + n.var(v.name) for v in query.variables)
        else:
            projection = "*"
        distinct = "DISTINCT " if query.distinct else ""
        text = f"SELECT {distinct}{projection} WHERE {where}"
    if query.order_by:
        keys = " ".join(
            f"DESC(?{n.var(k.var.name)})" if k.descending else "?" + n.var(k.var.name)
            for k in query.order_by
        )
        text += f" ORDER BY {keys}"
    if query.limit is not None:
        text += f" LIMIT {query.limit}"
    return text, n.params


# --------------------------------------------------------------------- #
# Cypher
# --------------------------------------------------------------------- #

def cypher_value_text(value: object) -> str:
    """Render a parsed Cypher literal value back into parseable syntax."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\")
        if "'" in value and '"' not in value:
            return '"' + escaped + '"'
        return "'" + escaped.replace("'", "\\'") + "'"
    return repr(value)


class _CypherShape(_Shape):
    def node(self, pattern) -> tuple[str, NodePattern]:
        inner = self.var(pattern.var) if pattern.var else ""
        inner += "".join(f":{label}" for label in pattern.labels)
        if not pattern.properties:
            return f"({inner})", pattern
        pairs, properties = [], []
        for key, value in pattern.properties:
            text, slot = self.lift(value)
            pairs.append(f"{key}: {text}")
            properties.append((key, slot))
        inner += ("{" if not inner else " {") + ", ".join(pairs) + "}"
        return f"({inner})", NodePattern(pattern.var, pattern.labels, tuple(properties))

    def rel(self, pattern) -> str:
        inner = self.var(pattern.var) if pattern.var else ""
        if pattern.types:
            inner += ":" + "|".join(pattern.types)
        if pattern.direction == "in":
            return f"<-[{inner}]-"
        if pattern.direction == "any":
            return f"-[{inner}]-"
        return f"-[{inner}]->"

    def path(self, pattern) -> str:
        text, start = self.node(pattern.start)
        parts, hops = [text], []
        for rel, node in pattern.hops:
            parts.append(self.rel(rel))
            text, node = self.node(node)
            parts.append(text)
            hops.append((rel, node))
        self.lifted.append(PathPattern(start, tuple(hops)))
        return "".join(parts)

    def expr(self, node) -> str:
        ast = cypher_ast
        if isinstance(node, ast.CypherLiteral):
            return self.lift(node.value)[0]
        if isinstance(node, ast.VarRef):
            return self.var(node.name)
        if isinstance(node, ast.PropertyAccess):
            return f"{self.var(node.var)}.{node.key}"
        if isinstance(node, ast.Coalesce):
            args = ", ".join(self.expr(a) for a in node.args)
            return f"COALESCE({args})"
        if isinstance(node, ast.CountStar):
            return "count(*)"
        if isinstance(node, ast.CypherComparison):
            return f"({self.expr(node.lhs)} {node.op} {self.expr(node.rhs)})"
        if isinstance(node, ast.CypherBoolean):
            glue = " AND " if node.op == "and" else " OR "
            return "(" + glue.join(self.expr(op) for op in node.operands) + ")"
        if isinstance(node, ast.CypherNot):
            return f"(NOT {self.expr(node.operand)})"
        if isinstance(node, ast.IsNull):
            op = "IS NOT NULL" if node.negated else "IS NULL"
            return f"({self.expr(node.operand)} {op})"
        if isinstance(node, ast.HasLabel):
            return f"({self.var(node.var)}:{node.label})"
        raise TypeError(f"unknown Cypher expression node {type(node).__name__}")

    def clause(self, clause) -> str:
        ast = cypher_ast
        if isinstance(clause, ast.MatchClause):
            text = "OPTIONAL MATCH " if clause.optional else "MATCH "
            text += ", ".join(self.path(p) for p in clause.paths)
            if clause.where is not None:
                text += f" WHERE {self.expr(clause.where)}"
            return text
        if isinstance(clause, ast.UnwindClause):
            return f"UNWIND {self.expr(clause.expr)} AS {self.var(clause.var)}"
        if isinstance(clause, ast.WithClause):
            text = "WITH *"
            if clause.where is not None:
                text += f" WHERE {self.expr(clause.where)}"
            return text
        if isinstance(clause, ast.ReturnClause):
            items = []
            for item in clause.items:
                rendered = self.expr(item.expr)
                if item.alias:
                    rendered += f" AS {self.var(item.alias)}"
                items.append(rendered)
            text = "RETURN "
            if clause.distinct:
                text += "DISTINCT "
            text += ", ".join(items)
            if clause.order_by:
                keys = ", ".join(
                    self.expr(k.expr) + (" DESC" if k.descending else "")
                    for k in clause.order_by
                )
                text += f" ORDER BY {keys}"
            if clause.limit is not None:
                text += f" LIMIT {clause.limit}"
            return text
        raise TypeError(f"unknown Cypher clause {type(clause).__name__}")


def lift_paths(paths) -> tuple[tuple, list, list[PathPattern]]:
    """``(shape, parameters, lifted paths)`` of a MATCH clause's paths."""
    n = _CypherShape()
    text = ", ".join(n.path(p) for p in paths)
    return (text, tuple(n.vars)), n.params, n.lifted


def normalize_cypher(query) -> tuple[str, list]:
    """Canonical text + lifted constants (values, or a template's slots)."""
    n = _CypherShape()
    parts = [
        " ".join(n.clause(clause) for clause in part.clauses)
        for part in query.parts
    ]
    return " UNION ALL ".join(parts), n.params
