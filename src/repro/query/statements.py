"""Prepared statements: a statement is parsed once per token shape.

A statement's *token shape* is its token stream with every constant
replaced by its token class (:meth:`repro.lexer.Lexer.shape`).  The first
statement of a shape is parsed as a template (:class:`~repro.lexer.
TokenParser`): constants the grammar treats as structure keep their
values, which join the key; every other constant becomes a ``Param``.
A later statement of the shape decodes its parameters straight from its
tokens and runs the prepared template: nothing is parsed, lifted or
normalised.  Templates do not depend on the data, so nothing here is
invalidated (plans still come from the planner's version-keyed
``PlanCache``); entries are never keyed by raw text, and both maps are
LRU-bounded.  DESIGN.md §11 has the decision record.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .plan.cache import PlanCache

__all__ = ["Bound", "Statement", "StatementCache"]


class Statement:
    """One prepared statement of a token shape."""

    def __init__(self, template, prepared, slots: tuple, fingerprint):
        #: The parse template: the AST with ``Param`` slots.
        self.template = template
        #: What the engine executes: the template, prepared once.
        self.prepared = prepared
        #: ``(slot, decode)`` of each Param, in Param index order.
        self.slots = slots
        self._fingerprint = fingerprint

    @cached_property
    def fingerprint(self) -> tuple[str, str]:
        """Fingerprint and canonical text (:func:`repro.obs.
        fingerprint_query`), computed when the workload tracker first
        reads them."""
        return self._fingerprint(self.template)


class Bound(NamedTuple):
    """A prepared statement with one call's parameters."""

    statement: Statement
    params: list


class StatementCache:
    """Statements of one engine, prepared once per token shape.

    Args:
        parser: the language's parser class (parses templates).
        prepare: turns a template into what the engine executes.
        fingerprint: the workload fingerprint and canonical text of a
            template.
    """

    def __init__(self, parser, prepare, fingerprint):
        self._parser = parser
        self._prepare = prepare
        self._fingerprint = fingerprint
        #: token shape -> its structural slots (union over its entries).
        self._structure = PlanCache()
        #: token shape + structural values -> Statement.
        self.cache = PlanCache()

    def prepare(self, text: str) -> Bound:
        """The statement of ``text`` with its parameters."""
        key, constants = self._parser.lexer.shape(text)
        structural = self._structure.get(key)
        signature = (key, *[constants[i] for i in structural or ()])
        statement = self.cache.get(signature)
        if statement is None:
            return self._build(text, key, constants, structural or ())
        return Bound(statement, [
            decode(constants[slot]) for slot, decode in statement.slots
        ])

    def _build(self, text, key, constants, structural) -> Bound:
        parser = self._parser(template=True)
        template = parser.parse(text)
        # Which slots are structure may depend on a structural value (a
        # predicate that is rdf:type): the shape keys on every one seen.
        structural = tuple(sorted({*structural, *parser.structural}))
        self._structure.put(key, structural)
        statement = Statement(
            template, self._prepare(template), tuple(parser.slots), self._fingerprint
        )
        self.cache.put((key, *[constants[i] for i in structural]), statement)
        return Bound(statement, parser.values)
