"""Parser for the Cypher fragment (see :mod:`.ast`)."""

from __future__ import annotations

from ...errors import QueryError
from ...lexer import CYPHER, TokenParser, unescape
from .ast import (
    Coalesce,
    CountStar,
    CypherBoolean,
    CypherComparison,
    CypherExpr,
    CypherLiteral,
    CypherNot,
    CypherOrderKey,
    CypherQuery,
    HasLabel,
    IsNull,
    MatchClause,
    NodePattern,
    PathPattern,
    PropertyAccess,
    RelPattern,
    ReturnClause,
    ReturnItem,
    SingleQuery,
    UnwindClause,
    VarRef,
    WithClause,
)

def _string(text: str) -> str:
    return unescape(text[1:-1], QueryError)


def _number(text: str) -> int | float:
    return float(text) if "." in text else int(text)


_WORD_LITERALS = {"true": True, "false": False, "null": None}


def strip_statement(text: str) -> str:
    """The statement without its trailing whitespace and ``;``."""
    return text.rstrip().rstrip(";")


class CypherParser(TokenParser):
    """Recursive-descent parser for the supported Cypher fragment.

    With ``template`` set it parses a prepared statement's template (see
    :class:`~repro.lexer.TokenParser`): LIMIT keeps its value, every
    other string or number becomes a ``Param``.
    """

    lexer = CYPHER
    _LOGIC = {"or": ("word", "or"), "and": ("word", "and"), "not": ("word", "not")}
    _boolean, _negation = CypherBoolean, CypherNot

    def parse(self, text: str) -> CypherQuery:
        """Parse ``text``; raises :class:`QueryError` on invalid input."""
        self._start(strip_statement(text))
        parts = [self._parse_single()]
        while self._at_word("union"):
            self._next()
            self._expect_word("all")
            parts.append(self._parse_single())
        if not self._at("eof"):
            raise QueryError(f"trailing content: {self._peek().text!r}")
        return CypherQuery(parts=parts)

    # ------------------------------------------------------------------ #

    def _parse_single(self) -> SingleQuery:
        query = SingleQuery()
        while True:
            if self._at_word("match"):
                self._next()
                query.clauses.append(self._parse_match())
            elif self._at_word("optional"):
                self._next()
                self._expect_word("match")
                clause = self._parse_match()
                clause.optional = True
                query.clauses.append(clause)
            elif self._at_word("unwind"):
                self._next()
                expr = self._parse_expression()
                self._expect_word("as")
                var_token = self._next()
                if var_token.kind != "word":
                    raise QueryError("UNWIND ... AS requires a variable name")
                query.clauses.append(UnwindClause(expr=expr, var=var_token.text))
            elif self._at_word("with"):
                self._next()
                self._expect_punct("*")
                where = None
                if self._at_word("where"):
                    self._next()
                    where = self._parse_expression()
                query.clauses.append(WithClause(where=where))
            elif self._at_word("return"):
                self._next()
                query.clauses.append(self._parse_return())
                return query
            else:
                raise QueryError(
                    f"expected MATCH, UNWIND, or RETURN, found {self._peek().text!r}"
                )

    def _parse_match(self) -> MatchClause:
        paths = [self._parse_path()]
        while self._at_punct(","):
            self._next()
            paths.append(self._parse_path())
        where = None
        if self._at_word("where"):
            self._next()
            where = self._parse_expression()
        return MatchClause(paths=paths, where=where)

    def _parse_path(self) -> PathPattern:
        start = self._parse_node_pattern()
        hops: list[tuple[RelPattern, NodePattern]] = []
        while self._at("dash") or self._at("arrow_in"):
            rel = self._parse_rel_pattern()
            node = self._parse_node_pattern()
            hops.append((rel, node))
        return PathPattern(start=start, hops=tuple(hops))

    def _parse_node_pattern(self) -> NodePattern:
        self._expect_punct("(")
        var = None
        labels: list[str] = []
        properties: list[tuple[str, object]] = []
        if self._at("word"):
            var = self._next().text
        while self._at_punct(":"):
            self._next()
            label_token = self._next()
            if label_token.kind != "word":
                raise QueryError("expected label after ':'")
            labels.append(label_token.text)
        if self._at_punct("{"):
            self._next()
            while not self._at_punct("}"):
                key_token = self._next()
                if key_token.kind != "word":
                    raise QueryError("expected property key")
                self._expect_punct(":")
                properties.append((key_token.text, self._parse_literal_value()))
                if self._at_punct(","):
                    self._next()
            self._expect_punct("}")
        self._expect_punct(")")
        return NodePattern(var=var, labels=tuple(labels), properties=tuple(properties))

    def _parse_rel_pattern(self) -> RelPattern:
        direction = "out"
        if self._at("arrow_in"):
            self._next()
            direction = "in"
        elif self._at("dash"):
            self._next()
        var = None
        types: list[str] = []
        if self._at_punct("["):
            self._next()
            if self._at("word"):
                var = self._next().text
            if self._at_punct(":"):
                self._next()
                while True:
                    type_token = self._next()
                    if type_token.kind != "word":
                        raise QueryError("expected relationship type")
                    types.append(type_token.text)
                    if self._at_punct("|"):
                        self._next()
                        if self._at_punct(":"):
                            self._next()
                        continue
                    break
            self._expect_punct("]")
        if self._at("arrow_out"):
            self._next()
            if direction == "in":
                raise QueryError("relationship cannot point both ways")
            direction = "out"
        elif self._at("dash"):
            self._next()
            if direction != "in":
                direction = "any"
        else:
            raise QueryError("unterminated relationship pattern")
        return RelPattern(var=var, types=tuple(types), direction=direction)

    def _at_literal(self) -> bool:
        token = self._peek()
        return token.kind in ("string", "number") or (
            token.kind == "word" and token.text.lower() in _WORD_LITERALS
        )

    def _parse_literal_value(self) -> object:
        token = self._next()
        if token.kind == "string":
            return self._constant(token, _string)
        if token.kind == "number":
            return self._constant(token, _number)
        if token.kind == "word" and token.text.lower() in _WORD_LITERALS:
            return _WORD_LITERALS[token.text.lower()]
        raise QueryError(f"invalid literal {token.text!r}")

    def _parse_return(self) -> ReturnClause:
        distinct = False
        if self._at_word("distinct"):
            self._next()
            distinct = True
        items = [self._parse_return_item()]
        while self._at_punct(","):
            self._next()
            items.append(self._parse_return_item())
        order_by: list[CypherOrderKey] = []
        if self._at_word("order"):
            self._next()
            self._expect_word("by")
            while True:
                expr = self._parse_expression()
                descending = False
                if self._at_word("desc"):
                    self._next()
                    descending = True
                elif self._at_word("asc"):
                    self._next()
                order_by.append(CypherOrderKey(expr=expr, descending=descending))
                if self._at_punct(","):
                    self._next()
                    continue
                break
        limit = None
        if self._at_word("limit"):
            self._next()
            token = self._next()
            if token.kind != "number" or "." in token.text:
                raise QueryError("LIMIT requires an integer")
            limit = self._constant(token, int, structural=True)
        return ReturnClause(
            items=items, distinct=distinct, order_by=order_by, limit=limit
        )

    def _parse_return_item(self) -> ReturnItem:
        expr = self._parse_expression()
        alias = None
        if self._at_word("as"):
            self._next()
            alias_token = self._next()
            if alias_token.kind != "word":
                raise QueryError("AS requires an alias name")
            alias = alias_token.text
        return ReturnItem(expr=expr, alias=alias)

    # ------------------------------------------------------------------ #
    # Expressions (precedence: OR < AND < NOT < comparison < primary)
    # ------------------------------------------------------------------ #

    def _parse_comparison(self) -> CypherExpr:
        lhs = self._parse_primary()
        token = self._peek()
        if token.kind == "op":
            self._next()
            rhs = self._parse_primary()
            return CypherComparison(token.text, lhs, rhs)
        if self._at_word("is"):
            self._next()
            negated = False
            if self._at_word("not"):
                self._next()
                negated = True
            self._expect_word("null")
            return IsNull(lhs, negated=negated)
        return lhs

    def _parse_primary(self) -> CypherExpr:
        if self._at_literal():
            return CypherLiteral(self._parse_literal_value())
        token = self._next()
        if token.kind == "punct" and token.text == "(":
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.kind == "word":
            lowered = token.text.lower()
            if lowered == "coalesce":
                self._expect_punct("(")
                args = [self._parse_expression()]
                while self._at_punct(","):
                    self._next()
                    args.append(self._parse_expression())
                self._expect_punct(")")
                return Coalesce(tuple(args))
            if lowered == "count":
                self._expect_punct("(")
                self._expect_punct("*")
                self._expect_punct(")")
                return CountStar()
            name = token.text
            if self._at_punct("."):
                self._next()
                key_token = self._next()
                if key_token.kind != "word":
                    raise QueryError("expected property key after '.'")
                return PropertyAccess(var=name, key=key_token.text)
            if self._at_punct(":"):
                self._next()
                label_token = self._next()
                if label_token.kind != "word":
                    raise QueryError("expected label after ':'")
                return HasLabel(var=name, label=label_token.text)
            return VarRef(name)
        raise QueryError(f"invalid expression token {token.text!r}")


def parse_cypher(text: str) -> CypherQuery:
    """Parse a Cypher query (module-level convenience)."""
    return CypherParser().parse(text)
