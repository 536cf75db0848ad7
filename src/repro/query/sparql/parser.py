"""Parser for the SPARQL SELECT fragment (see :mod:`.ast`).

Grammar (informal)::

    query    := prologue SELECT [DISTINCT] (vars | * | (COUNT(*) AS ?v))
                WHERE { block } [LIMIT n]
    prologue := (PREFIX name: <iri>)*
    block    := (triples | FILTER(expr))*
    triples  := subject pov (';' pov)* '.'
    pov      := predicate object (',' object)*
"""

from __future__ import annotations

import re
from functools import partial

from ...errors import ParseError, QueryError
from ...lexer import SPARQL, Token, TokenParser, unescape
from ...namespaces import RDF_TYPE, XSD
from ...rdf.namespace import PrefixMap
from ...rdf.terms import IRI, Literal
from .ast import (
    BooleanOp,
    Comparison,
    Expression,
    IsIriFn,
    IsLiteralFn,
    NotOp,
    OrderKey,
    RegexFn,
    SelectQuery,
    StrFn,
    TriplePattern,
    Var,
)

_RDF_TYPE = IRI(RDF_TYPE)
_IRIS = ("iri", "iri_bnode")
_LITERAL = re.compile(r'"(.*)"\s*(?:@(.+)|\^\^\s*(.+))')


def _iri(text: str) -> IRI:
    return IRI(text[1:-1])


def _literal(prefixes: PrefixMap, text: str) -> Literal:
    """A string with its ``@lang`` or ``^^datatype``."""
    body, language, datatype = _LITERAL.fullmatch(text).groups()
    if language is not None:
        return Literal(unescape(body, QueryError), language=language)
    if datatype.startswith("<"):
        return Literal(unescape(body, QueryError), datatype[1:-1])
    try:
        return Literal(unescape(body, QueryError), prefixes.expand(datatype))
    except ParseError as exc:
        raise QueryError(str(exc)) from None


#: How a constant token of each class decodes (a ``literal`` needs the
#: prefixes, see :meth:`SparqlParser._value`).  xsd:decimal reads as
#: xsd:double.
_DECODE = {
    "iri": _iri, "iri_bnode": _iri,
    "string": lambda text: Literal(unescape(text[1:-1], QueryError)),
    "integer": lambda text: Literal(text, XSD.integer),
    "decimal": lambda text: Literal(text, XSD.double),
    "double": lambda text: Literal(text, XSD.double),
}


class SparqlParser(TokenParser):
    """Recursive-descent parser for the supported SELECT fragment.

    With ``template`` set it parses a prepared statement's template (see
    :class:`~repro.lexer.TokenParser`): predicates, the object of
    ``rdf:type``, PREFIX IRIs, REGEX patterns and LIMIT keep their
    values, every other constant becomes a ``Param``.
    """

    lexer = SPARQL
    _LOGIC = {"or": ("op", "||"), "and": ("op", "&&"), "not": ("op", "!")}
    _boolean, _negation = BooleanOp, NotOp

    def __init__(self, prefixes: PrefixMap | None = None, template: bool = False):
        super().__init__(template)
        self.prefixes = prefixes or PrefixMap.with_defaults()

    def parse(self, text: str) -> SelectQuery:
        """Parse ``text``; raises :class:`QueryError` on invalid input."""
        self._start(text)
        query = SelectQuery()
        self._parse_prologue()
        if self._at_word("ask"):
            self._next()
            query.ask = True
            if self._at_word("where"):
                self._next()
        else:
            self._expect_word("select")
            if self._at_word("distinct"):
                self._next()
                query.distinct = True
            self._parse_projection(query)
            self._expect_word("where")
        self._expect_punct("{")
        while not self._at_punct("}"):
            if self._at_word("filter"):
                self._next()
                self._expect_punct("(")
                query.filters.append(self._parse_expression())
                self._expect_punct(")")
                if self._at_punct("."):
                    self._next()
                continue
            if self._at_punct("{"):
                # { A } UNION { B } [ UNION { C } ... ]
                if query.unions:
                    raise QueryError("only one UNION group is supported")
                alternatives = [self._parse_group_patterns()]
                while self._at_word("union"):
                    self._next()
                    alternatives.append(self._parse_group_patterns())
                if len(alternatives) < 2:
                    raise QueryError("a braced group must be part of a UNION")
                query.unions = alternatives
                if self._at_punct("."):
                    self._next()
                continue
            if self._at_word("optional"):
                self._next()
                query.optionals.append(self._parse_group_patterns())
                if self._at_punct("."):
                    self._next()
                continue
            self._parse_triples_block(query.patterns)
        self._expect_punct("}")
        if self._at_word("order"):
            self._next()
            self._expect_word("by")
            while True:
                token = self._peek()
                if token.kind == "var":
                    self._next()
                    query.order_by.append(OrderKey(Var(token.text[1:])))
                elif token.kind == "word" and token.text.lower() in ("asc", "desc"):
                    descending = token.text.lower() == "desc"
                    self._next()
                    self._expect_punct("(")
                    var_token = self._next()
                    if var_token.kind != "var":
                        raise QueryError("ORDER BY ASC/DESC requires a variable")
                    self._expect_punct(")")
                    query.order_by.append(
                        OrderKey(Var(var_token.text[1:]), descending=descending)
                    )
                else:
                    break
            if not query.order_by:
                raise QueryError("ORDER BY requires at least one key")
        if self._at_word("limit"):
            self._next()
            token = self._next()
            if token.kind != "integer":
                raise QueryError("LIMIT requires an integer")
            query.limit = self._constant(token, int, structural=True)
        if not self._at("eof"):
            raise QueryError(f"trailing content: {self._peek().text!r}")
        return query

    # ------------------------------------------------------------------ #

    def _parse_group_patterns(self) -> list[TriplePattern]:
        """Parse ``{ triples... }`` into a pattern list."""
        self._expect_punct("{")
        patterns: list[TriplePattern] = []
        while not self._at_punct("}"):
            self._parse_triples_block(patterns)
        self._expect_punct("}")
        return patterns

    def _value(self, token: Token, structural: bool = False):
        """The term a constant token stands for (a Param in a template)."""
        if token.kind == "literal":
            decode = partial(_literal, self.prefixes)
        else:
            decode = _DECODE[token.kind]
        return self._constant(token, decode, structural)

    # ------------------------------------------------------------------ #

    def _parse_prologue(self) -> None:
        while self._at_word("prefix"):
            self._next()
            name_token = self._next()
            if name_token.kind != "word" or not name_token.text.endswith(":"):
                raise QueryError("PREFIX requires 'name:'")
            iri_token = self._next()
            if iri_token.kind not in _IRIS:
                raise QueryError("PREFIX requires an <iri>")
            namespace = self._constant(
                iri_token, lambda text: text[1:-1], structural=True
            )
            self.prefixes.bind(name_token.text[:-1], namespace)

    def _parse_projection(self, query: SelectQuery) -> None:
        if self._at_punct("*"):
            self._next()
            return
        if self._at_punct("("):
            # (COUNT(*) AS ?name)
            self._next()
            self._expect_word("count")
            self._expect_punct("(")
            self._expect_punct("*")
            self._expect_punct(")")
            self._expect_word("as")
            var_token = self._next()
            if var_token.kind != "var":
                raise QueryError("COUNT(*) AS requires a variable")
            self._expect_punct(")")
            query.count = var_token.text[1:]
            return
        while self._at("var"):
            query.variables.append(Var(self._next().text[1:]))
        if not query.variables:
            raise QueryError("SELECT requires variables, *, or COUNT(*)")

    def _parse_triples_block(self, patterns: list[TriplePattern]) -> None:
        subject = self._parse_term("subject")
        self._predicate_objects(
            lambda: self._parse_term("predicate"),
            # The object of rdf:type names a class: query shape.
            lambda p: self._parse_term("object", structural=p == _RDF_TYPE),
            lambda p, o: patterns.append(TriplePattern(subject, p, o)), ".}",
        )
        if self._at_punct("."):
            self._next()

    def _parse_term(self, position: str, structural: bool = False):
        token = self._next()
        if token.kind == "var":
            return Var(token.text[1:])
        if token.kind in _IRIS:
            return self._value(token, structural or position == "predicate")
        if token.kind == "word":
            lowered = token.text.lower()
            if lowered == "a" and position == "predicate":
                return _RDF_TYPE
            if ":" in token.text:
                try:
                    return IRI(self.prefixes.expand(token.text))
                except Exception as exc:
                    raise QueryError(str(exc)) from exc
            raise QueryError(f"unexpected word {token.text!r} as {position}")
        if token.slot is not None and position == "object":
            return self._value(token, structural)
        raise QueryError(f"invalid {position} term {token.text!r}")

    # ------------------------------------------------------------------ #
    # FILTER expressions (precedence: || < && < ! < comparison)
    # ------------------------------------------------------------------ #

    def _parse_comparison(self) -> Expression:
        lhs = self._parse_primary()
        token = self._peek()
        if token.kind == "op" and token.text in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            rhs = self._parse_primary()
            return Comparison(token.text, lhs, rhs)
        return lhs

    def _parse_primary(self) -> Expression:
        token = self._next()
        if token.kind == "var":
            return Var(token.text[1:])
        if token.slot is not None:
            return self._value(token)
        if token.kind == "word":
            lowered = token.text.lower()
            if lowered in ("isliteral", "isiri", "str", "regex"):
                self._expect_punct("(")
                operand = self._parse_expression()
                if lowered == "regex":
                    self._expect_punct(",")
                    pat_token = self._next()
                    if pat_token.kind != "string":
                        raise QueryError("REGEX requires a string pattern")
                    self._expect_punct(")")
                    pattern = self._constant(
                        pat_token, _DECODE["string"], structural=True
                    )
                    return RegexFn(operand, pattern.lexical)
                self._expect_punct(")")
                if lowered == "isliteral":
                    return IsLiteralFn(operand)
                if lowered == "isiri":
                    return IsIriFn(operand)
                return StrFn(operand)
            if ":" in token.text:
                return IRI(self.prefixes.expand(token.text))
        if token.kind == "punct" and token.text == "(":
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        raise QueryError(f"invalid expression token {token.text!r}")


def parse_sparql(text: str, prefixes: PrefixMap | None = None) -> SelectQuery:
    """Parse a SPARQL SELECT query (module-level convenience)."""
    return SparqlParser(prefixes).parse(text)
