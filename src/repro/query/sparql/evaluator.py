"""Evaluation of the SPARQL fragment over the indexed RDF store.

Basic graph patterns are evaluated by iterative binding extension with a
greedy join order: at each step the pattern with the most bound positions
(under the current bindings) is evaluated next, which keeps the common
``?e a :C ; :p ?v`` workload queries index-driven.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import partial

from ... import obs
from ...errors import QueryError
from ...lexer import Param, resolve
from ...rdf.graph import Graph
from ...rdf.terms import IRI, BlankNode, Literal, Term
from ..engine import Engine
from .ast import (
    BooleanOp,
    Comparison,
    Expression,
    IsIriFn,
    IsLiteralFn,
    NotOp,
    RegexFn,
    SelectQuery,
    StrFn,
    TriplePattern,
    Var,
)

#: A solution mapping: variable name -> bound term.
Binding = dict[str, Term]


class _EvalStats:
    """Per-query operator tallies (flushed to obs after evaluation)."""

    __slots__ = ("matches", "selections", "selectivity")

    def __init__(self) -> None:
        #: Bindings yielded by triple-pattern matches.
        self.matches = 0
        #: Greedy join-order decisions taken.
        self.selections = 0
        #: How often the chosen pattern had 0/1/2/3 bound positions —
        #: the selectivity profile of the join order.
        self.selectivity = [0, 0, 0, 0]


def _resolve(term, binding: Binding, params=()):
    """Bound value of a pattern term under ``binding`` (None if unbound)."""
    if isinstance(term, Var):
        return binding.get(term.name)
    return resolve(term, params)


def _pattern_selectivity(pattern: TriplePattern, binding: Binding) -> int:
    """Number of positions that are concrete under the current bindings."""
    return sum(
        1
        for term in (pattern.s, pattern.p, pattern.o)
        if not isinstance(term, Var) or binding.get(term.name) is not None
    )


def _match_pattern(
    graph: Graph,
    pattern: TriplePattern,
    binding: Binding,
    stats: _EvalStats | None = None,
    params=(),
) -> Iterator[Binding]:
    s = _resolve(pattern.s, binding, params)
    p = _resolve(pattern.p, binding, params)
    o = _resolve(pattern.o, binding, params)
    if p is not None and not isinstance(p, IRI):
        return  # a bound predicate that is not an IRI can never match
    if s is not None and isinstance(s, Literal):
        return
    for triple in graph.triples(
        s if isinstance(s, (IRI, BlankNode)) else None,
        p,
        o,
    ):
        extended = dict(binding)
        ok = True
        for term, value in ((pattern.s, triple.s), (pattern.p, triple.p), (pattern.o, triple.o)):
            if isinstance(term, Var):
                bound = extended.get(term.name)
                if bound is None:
                    extended[term.name] = value
                elif bound != value:
                    ok = False
                    break
        if ok:
            if stats is not None:
                stats.matches += 1
            yield extended


def _evaluate_optional_group(
    graph: Graph,
    group: list[TriplePattern],
    binding: Binding,
    stats: _EvalStats | None = None,
    params=(),
) -> Iterator[Binding]:
    """All extensions of ``binding`` that satisfy every pattern of ``group``.

    The reference matcher: OPTIONAL and UNION groups extend a solution
    with it, and ``planner=False`` evaluates the whole BGP with it from
    the empty binding.
    """

    def extend(current: Binding, remaining: list[TriplePattern]) -> Iterator[Binding]:
        if not remaining:
            yield current
            return
        best_index = max(
            range(len(remaining)),
            key=lambda i: _pattern_selectivity(remaining[i], current),
        )
        pattern = remaining[best_index]
        if stats is not None:
            stats.selections += 1
            stats.selectivity[_pattern_selectivity(pattern, current)] += 1
        rest = remaining[:best_index] + remaining[best_index + 1:]
        for extended in _match_pattern(graph, pattern, current, stats, params):
            yield from extend(extended, rest)

    yield from extend(binding, list(group))


# --------------------------------------------------------------------- #
# FILTER evaluation
# --------------------------------------------------------------------- #

def _effective_value(term: object) -> object:
    """The comparison value of a term: literals compare by typed value,
    IRIs/blank nodes by their string form."""
    if isinstance(term, Literal):
        return term.to_python()
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, BlankNode):
        return str(term)
    return term


def _evaluate_expression(
    expression: Expression, binding: Binding, params=()
) -> object:
    if isinstance(expression, Var):
        value = binding.get(expression.name)
        if value is None:
            raise QueryError(f"unbound variable ?{expression.name} in FILTER")
        return value
    if isinstance(expression, (IRI, Literal)):
        return expression
    if isinstance(expression, Param):
        return params[expression.index]
    if isinstance(expression, Comparison):
        lhs = _effective_value(_evaluate_expression(expression.lhs, binding, params))
        rhs = _effective_value(_evaluate_expression(expression.rhs, binding, params))
        try:
            if expression.op == "=":
                return lhs == rhs
            if expression.op == "!=":
                return lhs != rhs
            if expression.op == "<":
                return lhs < rhs
            if expression.op == "<=":
                return lhs <= rhs
            if expression.op == ">":
                return lhs > rhs
            if expression.op == ">=":
                return lhs >= rhs
        except TypeError:
            return False
        raise QueryError(f"unknown comparison {expression.op}")
    if isinstance(expression, BooleanOp):
        values = (
            _as_bool(_evaluate_expression(op, binding, params))
            for op in expression.operands
        )
        return all(values) if expression.op == "and" else any(values)
    if isinstance(expression, NotOp):
        return not _as_bool(_evaluate_expression(expression.operand, binding, params))
    if isinstance(expression, IsLiteralFn):
        return isinstance(
            _evaluate_expression(expression.operand, binding, params), Literal
        )
    if isinstance(expression, IsIriFn):
        return isinstance(
            _evaluate_expression(expression.operand, binding, params), IRI
        )
    if isinstance(expression, StrFn):
        value = _evaluate_expression(expression.operand, binding, params)
        if isinstance(value, Literal):
            return Literal(value.lexical)
        if isinstance(value, IRI):
            return Literal(value.value)
        return Literal(str(value))
    if isinstance(expression, RegexFn):
        value = _evaluate_expression(expression.operand, binding, params)
        text = value.lexical if isinstance(value, Literal) else str(value)
        return re.search(expression.pattern, text) is not None
    raise QueryError(f"cannot evaluate expression {expression!r}")


def _as_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        return bool(value.to_python())
    return bool(value)


def _pin_filter_iris(
    query: SelectQuery,
) -> tuple[list[TriplePattern], dict[str, IRI | Param]]:
    """The BGP with each FILTER-bound ``?v = <iri>`` substituted in.

    Returns the rewritten patterns and the pinned ``{var: iri}``; the
    caller re-binds each pinned variable on every solution and keeps the
    FILTER.  A top-level ``?v = <iri>`` conjunct (either operand order)
    is pinned only when ``?v`` sits in a subject or predicate position
    of the BGP: every solution then binds ``?v`` to an IRI or a blank
    node, and ``=`` holds for exactly the one IRI.  In object position a
    string literal spelling the IRI would compare equal too, so such a
    FILTER (and any literal constant) stays a plain filter.  In a
    prepared statement's template the IRI may be a slot of the ``iri``
    token class, which excludes ``<_:...>``.
    """
    positional = {
        term.name
        for pattern in query.patterns
        for term in (pattern.s, pattern.p)
        if isinstance(term, Var)
    }
    pinned: dict[str, IRI | Param] = {}
    conjuncts = list(query.filters)
    while conjuncts:
        expr = conjuncts.pop()
        if isinstance(expr, BooleanOp) and expr.op == "and":
            conjuncts.extend(expr.operands)
            continue
        if not isinstance(expr, Comparison) or expr.op != "=":
            continue
        for var, constant in ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs)):
            if (
                isinstance(var, Var)
                and var.name in positional
                # a blank node compares equal to an IRI spelled "_:label"
                and (
                    isinstance(constant, IRI) and not constant.value.startswith("_:")
                    or isinstance(constant, Param) and constant.kind == "iri"
                )
            ):
                pinned.setdefault(var.name, constant)
    if not pinned:
        return query.patterns, pinned
    patterns = [
        TriplePattern(*(
            pinned.get(term.name, term) if isinstance(term, Var) else term
            for term in (pattern.s, pattern.p, pattern.o)
        ))
        for pattern in query.patterns
    ]
    return patterns, pinned


# --------------------------------------------------------------------- #
# Query execution
# --------------------------------------------------------------------- #

class PreparedSelect:
    """A SELECT ready for the planner, prepared once per statement: the
    FILTER-pinned IRIs substituted into the BGP and the BGP lifted to
    its plan shape (``(shape, parameters, lifted patterns)``)."""

    __slots__ = ("query", "pinned", "bgp")

    def __init__(self, query: SelectQuery):
        from ..normalize import lift_bgp

        self.query = query
        patterns, self.pinned = _pin_filter_iris(query)
        self.bgp = lift_bgp(patterns) if patterns else None


def evaluate(
    graph: Graph,
    query: SelectQuery | PreparedSelect,
    planner=None,
    analyze: bool = False,
    params=(),
    stats: _EvalStats | None = None,
) -> list[dict[str, Term]]:
    """Evaluate ``query`` over ``graph``; returns solution mappings.

    For ``SELECT (COUNT(*) AS ?n)`` a single row with an integer literal
    is returned under the chosen variable name.  When ``planner`` (a
    :class:`~repro.query.plan.SparqlPlanner`) is given, the basic graph
    pattern runs through its cost-based batch plan instead of the
    reference per-binding greedy strategy (a prepared statement's
    :class:`PreparedSelect` has ``$n`` slots, which ``params`` fill);
    all other constructs are unaffected.
    ``analyze`` additionally collects per-operator loop counts and wall
    times for ``EXPLAIN ANALYZE`` (small per-row overhead).  ``stats``
    receives the operator tallies; they are only collected under an
    active tracer, so the per-match bookkeeping stays off the
    disabled-path hot loop.
    """
    prepared = None
    if planner is not None:
        if not isinstance(query, PreparedSelect):
            query = PreparedSelect(query)
        prepared, query = query, query.query
        planner.last_executions = []
    if stats is None and obs.enabled():
        stats = _EvalStats()
    with obs.span("sparql.evaluate", patterns=len(query.patterns)) as span:
        rows = _evaluate(graph, query, stats, planner, prepared, analyze, params)
        span.set("rows", len(rows))
        if stats is not None:
            span.set("bgp_matches", stats.matches)
            span.set("join_selections", stats.selections)
            span.set("selectivity_profile", list(stats.selectivity))
        if planner is not None:
            planner.finish()
    return rows


def _evaluate(
    graph: Graph,
    query: SelectQuery,
    stats: _EvalStats | None,
    planner=None,
    prepared: PreparedSelect | None = None,
    analyze: bool = False,
    params=(),
) -> list[dict[str, Term]]:
    projected = [v.name for v in query.variables] or query.all_variables()
    solutions: list[Binding] = []
    if prepared is not None and prepared.bgp is not None:
        if not (
            query.unions or query.optionals or query.filters or query.ask
            or query.count is not None
        ):
            # A tail-free SELECT: the batches project its rows directly.
            rows = list(planner.execute_bgp(
                prepared.bgp, params, stats, analyze, projected
            ))
            return _order_and_truncate(rows, query)
        bgp = planner.execute_bgp(prepared.bgp, params, stats, analyze)
        if prepared.pinned:
            pinned = {
                var: resolve(term, params) for var, term in prepared.pinned.items()
            }
            bgp = (binding | pinned for binding in bgp)
    else:
        bgp = _evaluate_optional_group(graph, query.patterns, {}, stats, params)
    for binding in bgp:
        extended = [binding]
        if query.unions:
            # UNION: bag-union of the alternatives' extensions.
            unioned: list[Binding] = []
            for alternative in query.unions:
                for current in extended:
                    unioned.extend(_evaluate_optional_group(
                        graph, alternative, current, stats, params
                    ))
            extended = unioned
        # OPTIONAL groups: left outer join — keep the original binding
        # whenever the group does not match.
        for group in query.optionals:
            next_round: list[Binding] = []
            for current in extended:
                matches = list(
                    _evaluate_optional_group(graph, group, current, stats, params)
                )
                next_round.extend(matches if matches else [current])
            extended = next_round
        for candidate in extended:
            try:
                ok = all(
                    _as_bool(_evaluate_expression(f, candidate, params))
                    for f in query.filters
                )
            except QueryError:
                ok = False  # unbound optional variable in FILTER -> error -> false
            if ok:
                solutions.append(candidate)

    if query.ask:
        from ...namespaces import XSD

        return [{
            "ask": Literal("true" if solutions else "false", XSD.boolean)
        }]
    if query.count is not None:
        from ...namespaces import XSD

        return [{query.count: Literal(str(len(solutions)), XSD.integer)}]

    rows = [
        {name: binding[name] for name in projected if name in binding}
        for binding in solutions
    ]
    return _order_and_truncate(rows, query)


def _order_and_truncate(
    rows: list[dict[str, Term]], query: SelectQuery
) -> list[dict[str, Term]]:
    """Apply DISTINCT, then ORDER BY fully, then LIMIT.

    Kept as the single exit point for solution modifiers so pipelined
    physical plans can never truncate before the sort is complete (the
    SPARQL algebra applies Slice after OrderBy).
    """
    if query.distinct:
        seen: set[tuple] = set()
        unique_rows = []
        for row in rows:
            key = tuple(sorted((k, v.n3()) for k, v in row.items()))
            if key not in seen:
                seen.add(key)
                unique_rows.append(row)
        rows = unique_rows
    for key in reversed(query.order_by):
        def sort_key(row, name=key.var.name):
            value = row.get(name)
            if value is None:
                return (0, "")  # unbound sorts first, as in SPARQL
            effective = _effective_value(value)
            if isinstance(effective, bool):
                return (1, ("bool", str(effective)))
            if isinstance(effective, (int, float)):
                return (1, ("num", float(effective)))
            return (1, (type(effective).__name__, effective))

        rows.sort(key=sort_key, reverse=key.descending)
    if query.limit is not None:
        rows = rows[:query.limit]
    return rows


class SparqlEngine(Engine):
    """A tiny SPARQL endpoint over a :class:`Graph`.

    Args:
        graph: the graph to query.
        planner: False selects the reference arm — the per-binding
            greedy matcher that OPTIONAL and UNION groups already run
            on — which the differential oracle compares the planned
            batch execution against.

    Example:
        >>> engine = SparqlEngine(graph)
        >>> rows = engine.query('SELECT ?s WHERE { ?s a <http://x/C> . }')
    """

    lang = "sparql"

    def __init__(self, graph: Graph, planner: bool = True):
        self.graph = graph
        if planner:
            from ..plan import SparqlPlanner
            from ..statements import StatementCache
            from .parser import SparqlParser

            self.planner = SparqlPlanner(graph)
            self.statements = StatementCache(
                SparqlParser, PreparedSelect,
                partial(obs.fingerprint_query, "sparql", None),
            )

    def _prepare(self, text: str):
        """``(what to evaluate, its parameters, what the tracker reads)``."""
        if self.statements is None:
            from .parser import parse_sparql

            query = parse_sparql(text)
            return query, (), query
        bound = self.statements.prepare(text)
        return bound.statement.prepared, bound.params, bound

    def _execute(self, query, params, analyze: bool):
        stats = _EvalStats() if obs.enabled() else None
        rows = evaluate(self.graph, query, self.planner, analyze, params, stats)
        return rows, stats and {"pattern_matches": stats.matches}

    def _assemble_explain(self, prepared, result_rows: int, executions):
        from ..plan import explain_select

        plan = executions[0].explain() if executions else None
        return explain_select(prepared.query, plan, result_rows)

    def ask(self, text: str) -> bool:
        """Evaluate an ASK query to a boolean."""
        rows = self.query(text)
        return bool(rows and rows[0].get("ask", Literal("false")).to_python())
