"""One lexer for the three text grammars: Turtle, SPARQL and Cypher.

A grammar (:data:`TURTLE`, :data:`SPARQL`, :data:`CYPHER`) is an ordered
list of its own token classes, scanned in one ``finditer`` pass of a
single regex whose matches tile the text: whitespace and comments (``#``,
or ``//`` in Cypher) are skipped inside a match, and an unexpected
character is the ``error`` class.  Cypher has no IRIREF, so
``(a)<-[:R]-(b)-->(c)`` lexes as arrows.  :meth:`Lexer.tokens` feeds the
parsers; :meth:`Lexer.shape` is the prepared-statement key of
:mod:`repro.query.statements` and builds no per-token objects.
:func:`unescape` is the one string unescape of the three grammars and of
N-Triples (:func:`unescape_iri` its ``\\u``-only form for N-Triples
IRIs), :class:`TokenParser` the cursor their parsers share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError, QueryError

__all__ = [
    "CYPHER",
    "SPARQL",
    "TURTLE",
    "Lexer",
    "Param",
    "Token",
    "TokenParser",
    "resolve",
    "unescape",
    "unescape_iri",
]

_IRIREF = r'<[^<>"{}|^`\\\s]*>'
_STRING = r'"[^"\\\n]*+(?:\\.[^"\\\n]*+)*+"'
_LANGTAG = r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
_PNAME = r"(?:[A-Za-z_][\w.-]*)?:(?:[A-Za-z0-9_%][\w.%-]*)?"

#: The RDF term classes Turtle and SPARQL share.
_TERMS = (
    ("double", r"[-+]?(?:\d+\.\d*|\.\d+|\d+)[eE][-+]?\d+"),
    ("decimal", r"[-+]?\d*\.\d+"),
    ("integer", r"[-+]?\d+"),
)


class Token(NamedTuple):
    """One token; ``end`` is the offset just past it, ``slot`` numbers
    the constant tokens in text order (None for the others)."""

    kind: str
    text: str
    end: int
    slot: int | None = None


@dataclass(frozen=True)
class Param:
    """The ``$n`` slot of a lifted constant (``index`` counts from 0).

    ``kind`` is the token class of a prepared statement's slot (empty
    for a constant lifted out of a parsed query).
    """

    index: int
    kind: str = ""

    def n3(self) -> str:
        return f"${self.index + 1}"


def resolve(value, params):
    """``value``, or this execution's parameter when it is a slot."""
    return params[value.index] if isinstance(value, Param) else value


class Lexer:
    """A grammar's token classes compiled into one scanning regex.

    Args:
        classes: ``(name, regex)`` of each token class, in match order.
        comment: the regex of a comment.
        constants: the classes whose tokens are constants (slots).
        fail: ``fail(text, offset)`` builds the error raised for an
            unexpected character.
    """

    def __init__(self, classes, comment: str, fail, constants=()):
        alternatives = [f"(?P<{name}>{regex})" for name, regex in classes]
        skip = rf"\s*+(?:{comment}\s*+)*+"
        self._scan = re.compile(
            f"{skip}(?:{'|'.join(alternatives)}|(?P<error>\\S)|\\Z)"
        ).finditer
        self._fail = fail
        #: constant class -> the int standing for it in a shape key
        #: (token texts are strings, so the two never collide).
        self._codes = {name: code for code, name in enumerate(constants)}

    def tokens(self, text: str) -> list[Token]:
        """The tokens of ``text``, closed by an ``eof`` token."""
        tokens: list[Token] = []
        codes, slot = self._codes, 0
        for match in self._scan(text):
            kind = match.lastgroup
            if kind is None:
                continue
            if kind == "error":
                raise self._fail(text, match.start(kind))
            if kind in codes:
                tokens.append(Token(kind, match[kind], match.end(), slot))
                slot += 1
            else:
                tokens.append(Token(kind, match[kind], match.end()))
        tokens.append(Token("eof", "", len(text)))
        return tokens

    def shape(self, text: str) -> tuple[tuple, list[str]]:
        """``(key, constants)``: the token texts with each constant
        replaced by its class code, and the constants' texts."""
        key: list = []
        constants: list[str] = []
        codes = self._codes
        for match in self._scan(text):
            kind = match.lastgroup
            code = codes.get(kind)
            if code is not None:
                key.append(code)
                constants.append(match[kind])
            elif kind is not None:
                if kind == "error":
                    raise self._fail(text, match.start(kind))
                key.append(match[kind])
        return tuple(key), constants


TURTLE = Lexer(
    (
        ("iri", _IRIREF),
        ("triple_string", r'"""(?:[^"\\]|\\.|"(?!""))*"""'),
        ("string", _STRING),
        ("prefix_directive", r"@prefix\b|@base\b|PREFIX\b|BASE\b"),
        ("langtag", _LANGTAG),
        ("dtype_marker", r"\^\^"),
        *_TERMS,
        ("boolean", r"\btrue\b|\bfalse\b"),
        ("a_kw", r"\ba\b"),
        ("bnode", r"_:[A-Za-z0-9_][A-Za-z0-9_.-]*"),
        ("pname", _PNAME),
        ("punct", r"[;,.\[\]()]"),
    ),
    comment=r"\#[^\n]*",
    fail=lambda text, at: ParseError(
        f"unexpected character {text[at]!r}", line=text.count("\n", 0, at) + 1
    ),
)

# Classes that share no first character come first in SPARQL and Cypher
# in order of frequency: the scan tries the alternatives in order.
SPARQL = Lexer(
    (
        ("var", r"[?$][A-Za-z_][A-Za-z0-9_]*+"),
        ("word", r"[A-Za-z_][\w]*+(?::[\w.%-]*+)?|:[\w.%-]*+"),
        # An IRI spelled like a blank node is its own class: FILTER
        # treats it differently (see sparql.evaluator._pin_filter_iris).
        ("iri_bnode", r'<_:[^<>"{}|^`\\\s]*>'),
        ("iri", _IRIREF),
        ("literal", rf"{_STRING}\s*(?:{_LANGTAG}|\^\^\s*(?:{_IRIREF}|{_PNAME}))"),
        ("string", _STRING),
        *_TERMS,
        ("punct", r"[{}().;,*]"),
        ("op", r"<=|>=|!=|=|<|>|&&|\|\||!"),
    ),
    comment=r"\#[^\n]*",
    constants=("iri_bnode", "iri", "literal", "string", "double", "decimal", "integer"),
    fail=lambda text, at: QueryError(
        f"unexpected character {text[at]!r} in SPARQL query"
    ),
)

CYPHER = Lexer(
    (
        ("word", r"[A-Za-z_][A-Za-z0-9_]*+"),
        ("punct", r"[(){}\[\]:.,|*]"),
        ("string", r"""'[^'\\]*+(?:\\.[^'\\]*+)*+'|"[^"\\]*+(?:\\.[^"\\]*+)*+\""""),
        ("number", r"[-+]?(?:\d+\.\d+|\d+)"),
        ("arrow_out", r"->"),
        ("arrow_in", r"<-"),
        ("op", r"<>|<=|>=|=|<|>"),
        ("dash", r"-"),
    ),
    comment=r"//[^\n]*",
    constants=("string", "number"),
    fail=lambda text, at: QueryError(
        f"unexpected character {text[at]!r} in Cypher query"
    ),
)

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\", "'": "'",
            "b": "\b", "f": "\f"}
_ESCAPE = re.compile(
    r"\\(?:([tnr\"\\'bf])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.S
)


def _escaped(match: re.Match) -> str:
    echar, short, long, bad = match.groups()
    if echar:
        return _ESCAPES[echar]
    if bad is not None:
        raise ParseError(f"invalid escape \\{bad}" if bad else "dangling escape")
    code = int(short or long, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ParseError(f"unicode escape out of range \\{match[0][1:]}")
    return chr(code)


#: An IRI's escapes: only ``\u`` / ``\U`` (group 1, ECHAR, never
#: matches; any other backslash stays for the IRI to reject).
_UCHAR = re.compile(r"\\(?:((?!))|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([uU]))")


def unescape_iri(raw: str) -> str:
    """Decode an N-Triples IRI's ``\\u`` / ``\\U`` escapes."""
    return _UCHAR.sub(_escaped, raw) if "\\" in raw else raw


def unescape(raw: str, error=ParseError) -> str:
    """Decode a string body's ECHAR and ``\\u`` / ``\\U`` escapes.

    Raises:
        error: on an unknown, dangling or truncated escape, or a code
            point outside Unicode or in the surrogate range.
    """
    try:
        return _ESCAPE.sub(_escaped, raw) if "\\" in raw else raw
    except ParseError as exc:
        raise error(str(exc)) from None


class TokenParser:
    """The token cursor of the three recursive-descent parsers.

    With ``template`` set, a constant that the grammar does not treat as
    structure parses to a :class:`Param` instead of its value;
    :attr:`structural` and :attr:`slots` then record which slots kept
    their value and how each ``Param``'s value is decoded.
    """

    lexer: Lexer

    def __init__(self, template: bool = False):
        self._template = template
        self._text = ""
        self._tokens: list[Token] = []
        self._index = 0
        #: Slots whose value the parse depended on (template mode).
        self.structural: list[int] = []
        #: ``(slot, decode)`` of each Param, and its value, in Param
        #: index order.
        self.slots: list[tuple] = []
        self.values: list = []

    def _start(self, text: str) -> None:
        self._text = text
        self._tokens = self.lexer.tokens(text)
        self._index = 0

    def _error(self, message: str, token: Token) -> Exception:
        return QueryError(message)

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _next(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _at(self, kind: str) -> bool:
        return self._tokens[self._index].kind == kind

    def _at_punct(self, text: str) -> bool:
        token = self._tokens[self._index]
        return token.kind == "punct" and token.text == text

    def _at_word(self, word: str) -> bool:
        token = self._tokens[self._index]
        return token.kind == "word" and token.text.lower() == word

    def _expect_punct(self, text: str) -> None:
        token = self._peek()
        if token.kind != "punct" or token.text != text:
            raise self._error(f"expected {text!r}, found {token.text!r}", token)
        self._index += 1

    def _expect_word(self, word: str) -> None:
        if not self._at_word(word):
            raise self._error(
                f"expected {word.upper()}, found {self._peek().text!r}", self._peek()
            )
        self._index += 1

    def _predicate_objects(self, predicate, obj, emit, closers: str) -> None:
        """``p o (, o)* (; p o (, o)*)*``, calling ``emit(p, o)`` per
        object; trailing ``;`` are allowed before a punct in ``closers``."""
        while True:
            p = predicate()
            emit(p, obj(p))
            while self._at_punct(","):
                self._next()
                emit(p, obj(p))
            if not self._at_punct(";"):
                return
            while self._at_punct(";"):
                self._next()
            token = self._peek()
            if token.kind == "punct" and token.text in closers:
                return

    #: How OR, AND and NOT are spelled (``(kind, lowercased text)``),
    #: and the AST nodes they build.
    _LOGIC: dict
    _boolean = _negation = None

    def _parse_expression(self, op: str = "or"):
        """OR over AND over NOT over the grammar's comparison."""
        if op == "not":
            if not self._at_logic("not"):
                return self._parse_comparison()
            self._next()
            return self._negation(self._parse_expression("not"))
        inner = "and" if op == "or" else "not"
        operands = [self._parse_expression(inner)]
        while self._at_logic(op):
            self._next()
            operands.append(self._parse_expression(inner))
        return operands[0] if len(operands) == 1 else self._boolean(op, tuple(operands))

    def _at_logic(self, op: str) -> bool:
        token = self._tokens[self._index]
        return (token.kind, token.text.lower()) == self._LOGIC[op]

    def _constant(self, token: Token, decode, structural: bool = False):
        """The value of a constant token, or its Param in a template."""
        value = decode(token.text)  # a template raises what a parse raises
        if not self._template:
            return value
        if structural:
            self.structural.append(token.slot)
            return value
        self.slots.append((token.slot, decode))
        self.values.append(value)
        return Param(len(self.slots) - 1, token.kind)
