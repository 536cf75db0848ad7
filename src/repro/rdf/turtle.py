"""A Turtle parser and serializer for the subset used by SHACL documents.

Supported syntax: ``@prefix``/``PREFIX`` directives, ``@base``, prefixed
names, IRIs, the ``a`` keyword, string literals (single/triple quoted) with
language tags and datatypes, numeric and boolean shorthand, labelled and
anonymous blank nodes (``[ ... ]``), RDF collections (``( ... )``), and the
``;`` / ``,`` predicate-object shorthand.  This covers every construct in
the paper's Figure 4 shapes and all shapes emitted by our extractor.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from ..errors import ParseError
from ..lexer import TURTLE, Token, TokenParser, unescape
from ..namespaces import RDF, XSD
from .graph import Graph
from .namespace import PrefixMap
from .terms import IRI, BlankNode, Literal, Object, Subject, Triple

_RDF_FIRST = IRI(RDF.first)
_RDF_REST = IRI(RDF.rest)
_RDF_NIL = IRI(RDF.nil)
_RDF_TYPE = IRI(RDF.type)
#: Turtle's literal shorthands and their datatypes.
_SHORTHAND = {"integer": XSD.integer, "decimal": XSD.decimal,
              "double": XSD.double, "boolean": XSD.boolean}

class TurtleParser(TokenParser):
    """Recursive-descent parser producing a :class:`Graph`.

    Args:
        prefixes: initial prefix bindings (the document's own ``@prefix``
            directives extend/override these).
    """

    lexer = TURTLE

    def __init__(self, prefixes: PrefixMap | None = None):
        super().__init__()
        self.prefixes = prefixes or PrefixMap.with_defaults()
        self.base = ""
        self._graph = Graph()
        self._bnode_counter = 0

    # ------------------------------------------------------------------ #

    def parse(self, text: str) -> Graph:
        """Parse a Turtle document and return the resulting graph."""
        self._start(text)
        self._graph = Graph()
        while not self._at("eof"):
            if self._at("prefix_directive"):
                self._parse_directive()
            else:
                self._parse_statement()
        return self._graph

    # ------------------------------------------------------------------ #

    def _error(self, message: str, token: Token) -> ParseError:
        return ParseError(message, line=self._text.count("\n", 0, token.end) + 1)

    def _fresh_bnode(self) -> BlankNode:
        self._bnode_counter += 1
        return BlankNode(f"ttl{self._bnode_counter}")

    # ------------------------------------------------------------------ #

    def _parse_directive(self) -> None:
        directive = self._next()
        keyword = directive.text.lower().lstrip("@")
        if keyword == "prefix":
            pname = self._next()
            if pname.kind != "pname":
                raise self._error("expected prefix name after @prefix", pname)
            prefix = pname.text[:-1] if pname.text.endswith(":") else pname.text.split(":")[0]
            iri_tok = self._next()
            if iri_tok.kind != "iri":
                raise self._error("expected IRI after prefix name", iri_tok)
            self.prefixes.bind(prefix, iri_tok.text[1:-1])
        elif keyword == "base":
            iri_tok = self._next()
            if iri_tok.kind != "iri":
                raise self._error("expected IRI after @base", iri_tok)
            self.base = iri_tok.text[1:-1]
        else:  # pragma: no cover - regex only matches prefix/base
            raise self._error(f"unknown directive {directive.text!r}", directive)
        if directive.text.startswith("@"):
            self._expect_punct(".")
        elif self._at_punct("."):
            self._next()

    def _parse_statement(self) -> None:
        subject = self._parse_object("subject")
        self._parse_predicate_object_list(subject)
        self._expect_punct(".")

    def _parse_iri(self) -> IRI:
        token = self._next()
        value = token.text[1:-1]
        if self.base and not re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", value):
            value = self.base + value
        return IRI(value)

    def _parse_pname(self) -> IRI:
        token = self._next()
        try:
            return IRI(self.prefixes.expand(token.text))
        except ParseError as exc:
            raise self._error(str(exc), token) from exc

    def _parse_predicate(self) -> IRI:
        token = self._peek()
        if token.kind == "a_kw":
            self._next()
            return _RDF_TYPE
        if token.kind == "iri":
            return self._parse_iri()
        if token.kind == "pname":
            return self._parse_pname()
        raise self._error(f"invalid predicate {token.text!r}", token)

    def _parse_predicate_object_list(self, subject: Subject) -> None:
        self._predicate_objects(
            self._parse_predicate, lambda _: self._parse_object(),
            lambda p, o: self._graph.add(Triple(subject, p, o)), ".]",
        )

    def _parse_object(self, position: str = "object") -> Object:
        """An object, or with ``position="subject"`` a subject (no literal)."""
        token = self._peek()
        if token.kind == "iri":
            return self._parse_iri()
        if token.kind == "pname":
            return self._parse_pname()
        if token.kind == "bnode":
            self._next()
            return BlankNode(token.text[2:])
        if token.kind == "punct" and token.text == "[":
            return self._parse_bnode_property_list()
        if token.kind == "punct" and token.text == "(":
            return self._parse_collection()
        if position == "object":
            if token.kind in ("string", "triple_string"):
                return self._parse_literal()
            if token.kind in _SHORTHAND:
                self._next()
                return Literal(token.text, _SHORTHAND[token.kind])
        raise self._error(f"invalid {position} {token.text!r}", token)

    def _parse_literal(self) -> Literal:
        token = self._next()
        if token.kind == "triple_string":
            raw = token.text[3:-3]
        else:
            raw = token.text[1:-1]
        try:
            lexical = unescape(raw)
        except ParseError as exc:
            raise self._error(str(exc), token) from None
        nxt = self._peek()
        if nxt.kind == "langtag":
            self._next()
            return Literal(lexical, language=nxt.text[1:])
        if nxt.kind == "dtype_marker":
            self._next()
            dtype_token = self._peek()
            if dtype_token.kind not in ("iri", "pname"):
                raise self._error("expected datatype IRI after ^^", dtype_token)
            return Literal(lexical, self._parse_object().value)
        return Literal(lexical)

    def _parse_bnode_property_list(self) -> BlankNode:
        self._expect_punct("[")
        node = self._fresh_bnode()
        if not self._at_punct("]"):
            self._parse_predicate_object_list(node)
        self._expect_punct("]")
        return node

    def _parse_collection(self) -> Object:
        self._expect_punct("(")
        items: list[Object] = []
        while not self._at_punct(")"):
            items.append(self._parse_object())
        self._expect_punct(")")
        if not items:
            return _RDF_NIL
        head = self._fresh_bnode()
        current = head
        for index, item in enumerate(items):
            self._graph.add(Triple(current, _RDF_FIRST, item))
            if index + 1 < len(items):
                nxt = self._fresh_bnode()
                self._graph.add(Triple(current, _RDF_REST, nxt))
                current = nxt
            else:
                self._graph.add(Triple(current, _RDF_REST, _RDF_NIL))
        return head


def parse_turtle(text: str, prefixes: PrefixMap | None = None) -> Graph:
    """Parse a Turtle document into a :class:`Graph`."""
    from .. import obs

    with obs.span("rdf.parse_turtle") as span:
        graph = TurtleParser(prefixes).parse(text)
        span.set("triples", len(graph))
    obs.get_metrics().counter(
        "repro_parse_triples_total", help="RDF triples parsed"
    ).inc(len(graph), format="turtle")
    return graph


def rdf_list_items(graph: Graph, head: Object) -> list[Object]:
    """Materialize an RDF collection starting at ``head`` into a list."""
    items: list[Object] = []
    seen: set[Object] = set()
    current = head
    while current != _RDF_NIL:
        if not isinstance(current, (IRI, BlankNode)) or current in seen:
            raise ParseError("malformed RDF collection")
        seen.add(current)
        first = graph.value(current, _RDF_FIRST)
        if first is None:
            raise ParseError("RDF collection node missing rdf:first")
        items.append(first)
        rest = graph.value(current, _RDF_REST)
        if rest is None:
            raise ParseError("RDF collection node missing rdf:rest")
        current = rest
    return items


def serialize_turtle(
    graph: Graph | Iterable[Triple],
    prefixes: PrefixMap | None = None,
) -> str:
    """Serialize triples as Turtle, grouping by subject with ';' shorthand.

    Blank-node structures are emitted with explicit ``_:`` labels (not
    nested ``[ ]``), which is always valid Turtle and round-trips exactly.
    """
    pm = prefixes or PrefixMap.with_defaults()
    triples = list(graph)
    used_prefixes: set[str] = set()

    def term_text(term: object) -> str:
        if isinstance(term, IRI):
            compacted = pm.compact(term.value)
            if compacted != term.value:
                used_prefixes.add(compacted.split(":", 1)[0])
                return compacted
            return f"<{term.value}>"
        if isinstance(term, BlankNode):
            return f"_:{term.label}"
        if isinstance(term, Literal):
            if term.language is None and term.datatype not in (XSD.string,):
                compacted = pm.compact(term.datatype)
                if compacted != term.datatype:
                    used_prefixes.add(compacted.split(":", 1)[0])
                    body = term.n3().rsplit("^^", 1)[0]
                    return f"{body}^^{compacted}"
            return term.n3()
        raise TypeError(f"not an RDF term: {term!r}")

    by_subject: dict[str, list[tuple[str, str]]] = {}
    subject_order: list[str] = []
    for t in sorted(triples, key=lambda t: (t.s.n3(), t.p.n3(), t.o.n3())):
        s_text = term_text(t.s)
        if s_text not in by_subject:
            by_subject[s_text] = []
            subject_order.append(s_text)
        by_subject[s_text].append((term_text(t.p), term_text(t.o)))

    body_lines: list[str] = []
    for s_text in subject_order:
        pairs = by_subject[s_text]
        by_pred: dict[str, list[str]] = {}
        pred_order: list[str] = []
        for p_text, o_text in pairs:
            if p_text not in by_pred:
                by_pred[p_text] = []
                pred_order.append(p_text)
            by_pred[p_text].append(o_text)
        parts = []
        for p_text in pred_order:
            display_p = "a" if p_text == "rdf:type" else p_text
            parts.append(f"{display_p} {', '.join(by_pred[p_text])}")
        body_lines.append(f"{s_text} " + " ;\n    ".join(parts) + " .")

    header_lines = [
        f"@prefix {prefix}: <{pm.namespaces()[prefix]}> ."
        for prefix in sorted(used_prefixes | ({"rdf"} if any("a " in line or " a " in line for line in body_lines) else set()))
        if prefix in pm.namespaces()
    ]
    sections = []
    if header_lines:
        sections.append("\n".join(header_lines))
    sections.append("\n\n".join(body_lines))
    return "\n\n".join(sections) + "\n"
