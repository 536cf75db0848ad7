"""Unit tests for the N-Triples parser and serializer."""

import io

import pytest

from repro.errors import ParseError
from repro.fuzz import graph_layout, reference_parse
from repro.namespaces import XSD
from repro.rdf import (
    BlankNode,
    IRI,
    Literal,
    Triple,
    iter_ntriples,
    parse_ntriples,
    serialize_ntriples,
    write_ntriples,
)
from repro.rdf.ntriples import _STATEMENT, parse_line


class TestParseLine:
    def test_simple_triple(self):
        triple = parse_line("<http://x/s> <http://x/p> <http://x/o> .")
        assert triple == Triple(IRI("http://x/s"), IRI("http://x/p"), IRI("http://x/o"))

    def test_plain_literal(self):
        triple = parse_line('<http://x/s> <http://x/p> "hello" .')
        assert triple.o == Literal("hello")

    def test_typed_literal(self):
        line = f'<http://x/s> <http://x/p> "5"^^<{XSD.integer}> .'
        assert parse_line(line).o == Literal("5", XSD.integer)

    def test_language_literal(self):
        triple = parse_line('<http://x/s> <http://x/p> "hi"@en-GB .')
        assert triple.o == Literal("hi", language="en-GB")

    def test_blank_nodes(self):
        triple = parse_line("_:a <http://x/p> _:b .")
        assert triple.s == BlankNode("a") and triple.o == BlankNode("b")

    def test_escapes_in_literal(self):
        triple = parse_line('<http://x/s> <http://x/p> "a\\"b\\nc\\\\d" .')
        assert triple.o.lexical == 'a"b\nc\\d'

    def test_unicode_escapes(self):
        triple = parse_line('<http://x/s> <http://x/p> "\\u00e9\\U0001F600" .')
        assert triple.o.lexical == "é\U0001F600"

    def test_comment_line_is_none(self):
        assert parse_line("# a comment") is None

    def test_blank_line_is_none(self):
        assert parse_line("   ") is None

    @pytest.mark.parametrize(
        "bad",
        [
            "<http://x/s> <http://x/p> <http://x/o>",      # missing dot
            '"s" <http://x/p> <http://x/o> .',              # literal subject
            "<http://x/s> _:p <http://x/o> .",              # bnode predicate
            "<http://x/s> <http://x/p> .",                  # missing object
            '<http://x/s> <http://x/p> "unterminated .',
            "<http://x/s <http://x/p> <http://x/o> .",      # unterminated IRI
            "<http://x/s> <http://x/p> <http://x/o> . junk",
        ],
    )
    def test_invalid_lines_raise(self, bad):
        with pytest.raises(ParseError):
            parse_line(bad)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_line("<http://x/s> ???", lineno=7)
        assert err.value.line == 7


class TestDocuments:
    DOC = (
        "# header comment\n"
        "<http://x/a> <http://x/p> <http://x/b> .\n"
        "\n"
        '<http://x/a> <http://x/name> "A" .\n'
    )

    def test_parse_document(self):
        g = parse_ntriples(self.DOC)
        assert len(g) == 2

    def test_iter_streaming(self):
        triples = list(iter_ntriples(io.StringIO(self.DOC)))
        assert len(triples) == 2

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(self.DOC, encoding="utf-8")
        assert len(parse_ntriples(path)) == 2

    def test_str_path_starting_with_underscore_is_a_path(self, tmp_path, monkeypatch):
        (tmp_path / "_data.nt").write_text(self.DOC, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert len(parse_ntriples("_data.nt")) == 2
        assert len(list(iter_ntriples("_data.nt"))) == 2

    @pytest.mark.parametrize(
        "text, size",
        [("", 0), ("  ", 0), ("# only a comment", 0),
         ("_:b <http://x/p> <http://x/o> .", 1),
         ("  <http://x/s> <http://x/p> <http://x/o> .", 1),
         ("<http://x/s> <http://x/p> <http://x/o> .\r", 1)],
    )
    def test_str_document_text(self, text, size):
        assert len(parse_ntriples(text)) == size
        assert len(list(iter_ntriples(text))) == size

    def test_round_trip(self):
        g = parse_ntriples(self.DOC)
        again = parse_ntriples(serialize_ntriples(g))
        assert again == g

    def test_serialize_sorted_is_deterministic(self):
        g = parse_ntriples(self.DOC)
        assert serialize_ntriples(g, sort=True) == serialize_ntriples(g, sort=True)

    def test_serialize_empty(self):
        assert serialize_ntriples([]) == ""

    def test_write_ntriples(self, tmp_path):
        g = parse_ntriples(self.DOC)
        path = tmp_path / "out.nt"
        count = write_ntriples(g, path)
        assert count == 2
        assert parse_ntriples(path) == g

    def test_round_trip_special_values(self):
        g = parse_ntriples(
            '_:b1 <http://x/p> "line1\\nline2"@en .\n'
            f'<http://x/s> <http://x/q> "3.14"^^<{XSD.double}> .\n'
        )
        assert parse_ntriples(serialize_ntriples(g)) == g


class TestUnicodeEscapeBounds:
    """Escapes outside the Unicode range must raise ParseError, not crash."""

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\UFFFFFFFF"])
    def test_out_of_range_in_literal(self, escape):
        with pytest.raises(ParseError):
            parse_line(f'<http://x/s> <http://x/p> "a{escape}b" .')

    @pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\UD9999999"])
    def test_surrogate_in_literal(self, escape):
        with pytest.raises(ParseError):
            parse_line(f'<http://x/s> <http://x/p> "a{escape}b" .')

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\uD800", "\\uDFFF"])
    def test_out_of_range_in_iri(self, escape):
        with pytest.raises(ParseError):
            parse_line(f'<http://x/s{escape}> <http://x/p> <http://x/o> .')

    def test_non_hex_digits_in_iri(self):
        with pytest.raises(ParseError):
            parse_line('<http://x/s\\uZZZZ> <http://x/p> <http://x/o> .')

    def test_max_codepoint_still_parses(self):
        triple = parse_line('<http://x/s> <http://x/p> "\\U0010FFFF" .')
        assert triple.o == Literal("\U0010FFFF")


class TestBnodeTerminator:
    """A '.' directly after a blank node label is the statement terminator."""

    def test_object_bnode_tight_dot(self):
        triple = parse_line("<http://x/s> <http://x/p> _:b.")
        assert triple.o == BlankNode("b")

    def test_dots_inside_labels_survive(self):
        triple = parse_line("_:a.b <http://x/p> _:c.d .")
        assert triple.s == BlankNode("a.b")
        assert triple.o == BlankNode("c.d")

    def test_label_trailing_dots_all_given_back(self):
        # "_:b.." = label "b" followed by terminator plus trailing junk.
        with pytest.raises(ParseError):
            parse_line("<http://x/s> <http://x/p> _:b..")


class TestSerializerEscaping:
    """serialize_ntriples must provably emit parseable output.

    The historical asymmetry: the parser unescaped ``\\uXXXX`` in IRIs
    and named escapes in literals, but the serializer only escaped the
    named subset — so literals with line separators (``\\x0c``,
    ``\\u2028``, ...) or IRIs containing a backslash produced documents
    the parser split or decoded differently.
    """

    def _round_trip_one(self, obj):
        g = [Triple(IRI("http://x/s"), IRI("http://x/p"), obj)]
        text = serialize_ntriples(g)
        assert len(text.splitlines()) == 1, f"statement split: {text!r}"
        (again,) = parse_ntriples(text)
        return text, again.o

    @pytest.mark.parametrize(
        "ch", ["\x00", "\x07", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x7f", "\x85", " ", " "]
    )
    def test_control_and_line_separator_literals(self, ch):
        _, again = self._round_trip_one(Literal(f"a{ch}b"))
        assert again == Literal(f"a{ch}b")

    def test_non_bmp_literal_passes_through(self):
        text, again = self._round_trip_one(Literal("smile \U0001f600"))
        assert again == Literal("smile \U0001f600")
        assert "\U0001f600" in text  # no needless ASCII-folding

    def test_lone_surrogate_replaced_with_ufffd(self):
        # Lone surrogates cannot be written: the parser (correctly)
        # rejects surrogate \uXXXX escapes and surrogates cannot be
        # UTF-8 encoded. Policy: replace at serialization time.
        text, again = self._round_trip_one(Literal("a\ud800b\udfffc"))
        assert again == Literal("a�b�c")
        assert "�" in text

    def test_iri_backslash_round_trips(self):
        # A literal backslash inside an IRI must not be re-interpreted
        # as an escape sequence on the way back in.
        iri = IRI("http://x/path\\u0041")
        _, again = self._round_trip_one(iri)
        assert again == iri  # NOT IRI("http://x/pathA")

    def test_iri_grammar_forbidden_chars_escaped(self):
        iri = IRI('http://x/a"b^c`d{e|f}g')
        text, again = self._round_trip_one(iri)
        assert again == iri
        # None of the N-Triples-forbidden raw characters appear in the
        # serialized IRI token.
        iri_token = text.split(" ")[2]
        assert not any(c in iri_token for c in '"^`{|}')

    def test_escaped_output_is_pure_single_line_per_statement(self):
        g = [
            Triple(IRI("http://x/s"), IRI("http://x/p"),
                   Literal("x y\x1cz", language="en")),
            Triple(IRI("http://x/s"), IRI("http://x/q r"),
                   Literal("\x00")),
        ]
        text = serialize_ntriples(g)
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == 2
        assert set(parse_ntriples(text)) == set(g)


def _outcome(build):
    """A graph's full layout, or the ParseError's message and position."""
    try:
        return graph_layout(build())
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


def _reference_triples(lines):
    return [t for n, line in enumerate(lines, start=1)
            if (t := parse_line(line, n)) is not None]


_S, _P = "<http://x/s>", "<http://x/p>"
_LANG_STRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


class TestFastPathAgreesWithReference:
    """Every line through ``parse_ntriples`` / ``iter_ntriples`` and through
    ``parse_line`` + ``Graph.add``: the same graph structure (term ids,
    key orders, postings, counters) or the same ParseError."""

    DOCS = [
        # \u / \U escapes, in range and out of it
        f'<http://x/s\\u0041> {_P} "a\\u00e9\\U0001F600" .',
        f'{_S} {_P} "x"^^<http://x/dt\\u0041> .',
        f'{_S} {_P} "\\U00110000" .',
        f'{_S} {_P} "\\uD800" .',
        f'<http://x/s\\uDFFF> {_P} <http://x/o> .',
        f'<http://x/s\\uZZZZ> {_P} <http://x/o> .',
        f'{_S} {_P} "\\u12" .',
        # named escapes, and an unknown one
        f'{_S} {_P} "a\\"b\\nc\\\\d\\te\\rf\\bg\\fh\\\'i" .',
        f'{_S} {_P} "\\q" .',
        # tight terminators and dotted blank-node labels
        f"{_S} {_P} _:b.",
        f"_:a.b {_P} _:c.d .",
        f"{_S} {_P} _:b..",
        f"_:a. {_P} <http://x/o> .",
        f"_:a.b.{_P} <http://x/o> .",
        f"_:.a {_P} <http://x/o> .",
        f"{_S}{_P}<http://x/o>.",
        # non-ASCII alphanumerics in labels and language tags
        f"_:été {_P} _:b² .",
        f'{_S} {_P} "x"@日本 .',
        f'{_S} {_P} "x"@en-GB .',
        # tabs, CRLF, comments, a trailing comment after '.'
        f"\t{_S}\t{_P}\t<http://x/o>\t.\t",
        f"{_S} {_P} <http://x/o> .\r\n_:b {_P} \"v\" .\r\n",
        f"# header\n{_S} {_P} <http://x/o> .\n   # indented\n",
        f"{_S} {_P} <http://x/o> . # trailing comment",
        # a langString datatype without a tag; tags that do not parse
        f'{_S} {_P} "x"^^<{_LANG_STRING}> .',
        f'{_S} {_P} "x"@ .',
        f'{_S} {_P} "x" @en .',
        # one term spelled two ways, a duplicate statement, shared terms
        f'{_S} {_P} "5" .\n{_S} {_P} "5"^^<http://www.w3.org/2001/XMLSchema#string> .',
        f"{_S} {_P} <http://x/o> .\n{_S} {_P} <http://x/o> .",
        f"<http://x/o> {_P} {_S} .\n{_S} {_P} <http://x/o> .\n_:o {_P} _:o .",
        # IRIs the fast path leaves to the reference
        f'<http://x/a"b{{c}}> {_P} <http://x/o> .',
        f"<> {_P} <http://x/o> .",
        f"<http://x/a<b> {_P} <http://x/o> .",
        f"\x0c{_S} {_P} <http://x/o> .",
        f"\ufeff{_S} {_P} <http://x/o> .\n",
        f"{_S} {_P} <http://x/o> .\x85{_S} {_P} <http://x/q> .",
    ]

    @pytest.mark.parametrize("text", DOCS)
    def test_parse_ntriples_matches_reference(self, text):
        assert _outcome(lambda: parse_ntriples(text)) == _outcome(
            lambda: reference_parse(text.splitlines()))
        assert _outcome(lambda: parse_ntriples(io.StringIO(text))) == _outcome(
            lambda: reference_parse(io.StringIO(text)))

    @pytest.mark.parametrize("text", DOCS)
    def test_iter_ntriples_matches_reference(self, text):
        def listed(build):
            try:
                return build()
            except ParseError as exc:
                return (str(exc), exc.line, exc.column)

        assert listed(lambda: list(iter_ntriples(text))) == listed(
            lambda: _reference_triples(text.splitlines()))

    @pytest.mark.parametrize(
        "line, matched",
        [
            (f'{_S} {_P} "x"@en .', True),
            (f"_:a.b {_P} _:c.d .", True),
            (f"{_S} {_P} _:b.", True),
            (f'{_S} {_P} "x"^^<http://x/dt> .\r\n', True),
            (f'{_S} {_P} "a\\nb" .', False),
            (f'{_S} {_P} "x"@日本 .', False),
            (f"_:été {_P} <http://x/o> .", False),
            (f"{_S} {_P} <http://x/o> . # c", False),
        ],
    )
    def test_which_lines_take_the_fast_path(self, line, matched):
        assert (_STATEMENT.fullmatch(line) is not None) is matched
