"""N-Triples parser and serializer.

N-Triples is the line-oriented RDF serialization used for the streaming
data-transformation pipeline (Algorithm 1 reads the input graph "triple by
triple" from a file), so :func:`iter_ntriples` is a generator that never
holds more than one line in memory.

Every line is first tried against one regular expression for
*escape-free* statements (IRIs, ASCII blank-node labels, plain /
``@lang`` / ``^^<dt>`` literals without ``\\``), which covers nearly all
of a typical file; any other line goes to :func:`parse_line`, the
grammar's reference and its only error reporter.  A matched line denotes
exactly the triple :func:`parse_line` returns for it.
"""

from __future__ import annotations

import io
import re
from array import array
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from pathlib import Path

from ..errors import ParseError, TermError
from ..lexer import unescape, unescape_iri
from ..storage.intern import Memo, TermInterner
from .graph import Graph
from .terms import IRI, BlankNode, Literal, Object, Subject, Triple

_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


class _LineParser:
    """A cursor over a single N-Triples line."""

    def __init__(self, line: str, lineno: int):
        self.line = line
        self.pos = 0
        self.lineno = lineno

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.lineno, column=self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def parse_iri(self) -> IRI:
        self.expect("<")
        end = self.line.find(">", self.pos)
        if end == -1:
            raise self.error("unterminated IRI")
        value = self.line[self.pos:end]
        self.pos = end + 1
        try:
            return IRI(unescape_iri(value))
        except (ParseError, TermError) as exc:
            raise self.error(str(exc)) from exc

    def parse_bnode(self) -> BlankNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.line) and (
            self.line[self.pos].isalnum() or self.line[self.pos] in "_-."
        ):
            self.pos += 1
        # A label may contain '.' but must not end with one: a trailing
        # dot is the statement terminator (whitespace before '.' is
        # optional), as in ``<s> <p> _:b.``.
        while self.pos > start and self.line[self.pos - 1] == ".":
            self.pos -= 1
        label = self.line[start:self.pos]
        if not label:
            raise self.error("empty blank node label")
        return BlankNode(label)

    def parse_literal(self) -> Literal:
        match = _STRING.match(self.line, self.pos)
        if match is None:
            raise self.error("unterminated string literal")
        try:
            lexical = unescape(match[1])
        except ParseError as exc:
            raise self.error(str(exc)) from None
        self.pos = match.end()
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.line) and (
                self.line[self.pos].isalnum() or self.line[self.pos] == "-"
            ):
                self.pos += 1
            tag = self.line[start:self.pos]
            if not tag:
                raise self.error("empty language tag")
            return Literal(lexical, language=tag)
        if self.line.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.parse_iri()
            return Literal(lexical, datatype.value)
        return Literal(lexical)

    def parse_subject(self) -> Subject:
        ch = self.peek()
        if ch == "<":
            return self.parse_iri()
        if ch == "_":
            return self.parse_bnode()
        raise self.error(f"invalid subject start {ch!r}")

    def parse_object(self) -> Object:
        ch = self.peek()
        if ch == "<":
            return self.parse_iri()
        if ch == "_":
            return self.parse_bnode()
        if ch == '"':
            return self.parse_literal()
        raise self.error(f"invalid object start {ch!r}")


def parse_line(line: str, lineno: int = 1) -> Triple | None:
    """Parse one N-Triples line; return None for blank/comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parser = _LineParser(stripped, lineno)
    s = parser.parse_subject()
    parser.skip_ws()
    if parser.peek() != "<":
        raise parser.error("predicate must be an IRI")
    p = parser.parse_iri()
    parser.skip_ws()
    o = parser.parse_object()
    parser.skip_ws()
    parser.expect(".")
    parser.skip_ws()
    if not parser.at_end():
        raise parser.error("trailing content after '.'")
    return Triple(s, p, o)


# The escape-free subset of the grammar: IRIs without ``\u`` escapes,
# ASCII blank-node labels (never ending in '.', the terminator), and
# literals without escapes.
_IRIREF = r'<[^\x00-\x20<>"{}|^`\\]+>'
_BNODE = r"_:[A-Za-z0-9_-](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
#: One escape-free statement; the groups are its three term tokens.
_STATEMENT = re.compile(
    rf"[ \t]*({_IRIREF}|{_BNODE})[ \t]*({_IRIREF})[ \t]*"
    rf'({_IRIREF}|{_BNODE}|"[^"\\\n\r]*"(?:@[A-Za-z0-9-]+|\^\^{_IRIREF})?)'
    r"[ \t]*\.[ \t\r\n]*"
)


def _term(token: str) -> Object:
    """The term of one token matched by ``_STATEMENT``, built through the
    public constructors."""
    head = token[0]
    if head == "<":
        return IRI(token[1:-1])
    if head == "_":
        return BlankNode(token[2:])
    end = token.index('"', 1)
    lexical, suffix = token[1:end], token[end + 1:]
    if not suffix:
        return Literal(lexical)
    if suffix[0] == "@":
        return Literal(lexical, language=suffix[1:])
    return Literal(lexical, suffix[3:-1])


def _is_text(source: str) -> bool:
    """A ``str`` is document text, not a path, when it holds a line break,
    is blank, or starts (after whitespace) with ``<``, ``_:`` or ``#``."""
    head = source.lstrip()
    return (
        not head
        or head.startswith(("<", "_:", "#"))
        or "\n" in source
        or "\r" in source
    )


def _statements(
    source: str | Path | io.TextIOBase,
) -> Iterator[tuple[str, str, str] | Triple]:
    """Each statement of a document: the three tokens of an escape-free
    line, or the :class:`Triple` :func:`parse_line` reads from any other."""
    if isinstance(source, io.TextIOBase):
        opened = nullcontext(source)
    elif isinstance(source, str) and _is_text(source):
        opened = nullcontext(source.splitlines())
    else:
        opened = open(source, "r", encoding="utf-8")
    match = _STATEMENT.fullmatch
    with opened as lines:
        for lineno, line in enumerate(lines, start=1):
            m = match(line)
            if m is not None:
                yield m.groups()
            else:
                triple = parse_line(line, lineno)
                if triple is not None:
                    yield triple


def iter_ntriples(source: str | Path | io.TextIOBase) -> Iterator[Triple]:
    """Stream triples from an N-Triples document.

    Args:
        source: a path, an open text file, or the document text itself (a
            string holding a line break, blank, or starting with ``<``,
            ``_:`` or ``#``).
    """
    for statement in _statements(source):
        if type(statement) is tuple:
            s, p, o = statement
            statement = Triple(_term(s), _term(p), _term(o))
        yield statement


def parse_ntriples(source: str | Path | io.TextIOBase) -> Graph:
    """Parse a complete N-Triples document into a :class:`Graph`.

    Each distinct token's term is built and interned once; the statements
    become one flat id array, indexed in bulk.
    """
    from .. import obs

    with obs.span("rdf.parse_ntriples") as span:
        terms = TermInterner()
        intern = terms.intern
        memo = Memo(lambda token: intern(_term(token)))
        ids = array("q")
        for statement in _statements(source):
            ids.extend(map(
                memo.__getitem__ if type(statement) is tuple else intern,
                statement,
            ))
        del memo  # the token table is dead weight during the index build
        graph = Graph._from_ids(terms, ids)
        span.set("triples", len(graph))
    obs.get_metrics().counter(
        "repro_parse_triples_total", help="RDF triples parsed"
    ).inc(len(graph), format="ntriples")
    return graph


def serialize_ntriples(triples: Iterable[Triple], sort: bool = False) -> str:
    """Serialize triples as an N-Triples document.

    Args:
        triples: any iterable of triples (a :class:`Graph` works).
        sort: emit statements in lexicographic order for stable output.
    """
    lines = [t.n3() for t in triples]
    if sort:
        lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def write_ntriples(triples: Iterable[Triple], path: str | Path) -> int:
    """Write triples to ``path`` in N-Triples format; return the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for t in triples:
            handle.write(t.n3())
            handle.write("\n")
            count += 1
    return count
