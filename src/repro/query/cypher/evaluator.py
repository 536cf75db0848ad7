"""Evaluation of the Cypher fragment over :class:`PropertyGraphStore`.

MATCH paths are evaluated left-to-right, seeding from the label index when
the start pattern carries a label; UNWIND expands array properties;
RETURN projects (with DISTINCT, LIMIT, and ``count(*)`` with implicit
grouping, as in openCypher).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import repeat

from ... import obs
from ...errors import QueryError
from ...lexer import resolve
from ...pg.model import PGEdge, PGNode
from ...pg.store import PropertyGraphStore
from ..plan.cypher_plan import PreparedQuery, prepare_cypher
from ..engine import Engine
from .ast import (
    Coalesce,
    CountStar,
    CypherBoolean,
    CypherComparison,
    CypherExpr,
    CypherLiteral,
    CypherNot,
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

#: A row of variable bindings.
Binding = dict[str, object]


def _node_matches(node: PGNode, pattern: NodePattern, params=()) -> bool:
    for label in pattern.labels:
        if label not in node.labels:
            return False
    for key, value in pattern.properties:
        if node.properties.get(key) != resolve(value, params):
            return False
    return True


def _sort_key(value: object) -> tuple:
    """A total order over heterogeneous values (nulls first, as Cypher
    sorts them with ORDER BY ... ASC in this engine)."""
    if value is None:
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "bool", str(value))
    if isinstance(value, (int, float)):
        return (1, "num", float(value))
    if isinstance(value, str):
        return (1, "str", value)
    if isinstance(value, PGNode):
        return (1, "node", value.id)
    if isinstance(value, PGEdge):
        return (1, "edge", value.id)
    return (1, "other", repr(value))


def _alias_index(clause: ReturnClause, key) -> int | None:
    """The returned column an ORDER BY key names, if it names one."""
    return next(
        (
            i for i, item in enumerate(clause.items)
            if isinstance(key.expr, VarRef) and item.column_name() == key.expr.name
        ),
        None,
    )


def _value_key(value: object) -> object:
    """A hashable identity for DISTINCT / grouping."""
    if isinstance(value, PGNode):
        return ("node", value.id)
    if isinstance(value, PGEdge):
        return ("edge", value.id)
    if isinstance(value, list):
        return ("list", tuple(_value_key(v) for v in value))
    return (type(value).__name__, value)


class CypherEngine(Engine):
    """Evaluates parsed Cypher queries against an indexed PG store.

    Args:
        store: the store to query.
        planner: False selects the reference arm — the left-to-right
            path matcher that OPTIONAL MATCH already runs on — which
            the differential oracle compares the planned batch
            execution against.

    Example:
        >>> engine = CypherEngine(store)
        >>> rows = engine.query("MATCH (n:Person) RETURN n.iri")
    """

    lang = "cypher"

    def __init__(self, store: PropertyGraphStore, planner: bool = True):
        self.store = store
        #: Edges considered by pattern expansion in the current query.
        self._expansions = 0
        #: Values of the current query's ``$n`` slots.
        self._params = ()
        if planner:
            from ..plan import CypherPlanner
            from ..statements import StatementCache
            from .parser import CypherParser

            self.planner = CypherPlanner(store)
            self.statements = StatementCache(
                CypherParser, prepare_cypher,
                partial(obs.fingerprint_query, "cypher", None),
            )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def _prepare(self, text: str):
        """``(what to run, its parameters, what the tracker reads)``."""
        from .parser import parse_cypher, strip_statement

        if self.statements is None:
            query = parse_cypher(text)
            return query, (), query
        bound = self.statements.prepare(strip_statement(text))
        return bound.statement.prepared, bound.params, bound

    def _execute(self, query, params, analyze: bool):
        rows = self.evaluate(query, analyze, params)
        return rows, {"expansions": self._expansions, "rows": len(rows)}

    def _assemble_explain(self, query: CypherQuery, result_rows: int, executions):
        from ..plan.explain import ExplainNode

        snapshots = [execution.explain() for execution in executions]
        cursor = 0
        part_nodes = []
        for part in query.parts:
            chain: ExplainNode | None = None
            for clause in part.clauses:
                prev = (chain,) if chain is not None else ()
                if isinstance(clause, MatchClause):
                    if clause.optional:
                        chain = ExplainNode(
                            "OptionalMatch",
                            f"{len(clause.paths)} paths (naive)",
                            children=prev,
                        )
                    else:
                        plan_node = snapshots[cursor]
                        cursor += 1
                        # only a WHERE left over after absorption runs
                        detail = "with WHERE" if clause.where is not None else ""
                        chain = ExplainNode(
                            "Match", detail, children=prev + (plan_node,)
                        )
                elif isinstance(clause, UnwindClause):
                    chain = ExplainNode("Unwind", f"AS {clause.var}", children=prev)
                elif isinstance(clause, WithClause):
                    chain = ExplainNode("Filter", "WITH * WHERE", children=prev)
                elif isinstance(clause, ReturnClause):
                    columns = ", ".join(
                        item.column_name() for item in clause.items
                    )
                    op = (
                        "Aggregate"
                        if any(isinstance(i.expr, CountStar) for i in clause.items)
                        else "Return"
                    )
                    chain = ExplainNode(op, columns, children=prev)
                    if clause.order_by:
                        chain = ExplainNode(
                            "Sort", f"{len(clause.order_by)} keys", children=(chain,)
                        )
                    if clause.distinct:
                        chain = ExplainNode("Distinct", children=(chain,))
                    if clause.limit is not None:
                        chain = ExplainNode(
                            "Limit", str(clause.limit), children=(chain,)
                        )
            part_nodes.append(chain)
        if len(part_nodes) == 1:
            root = part_nodes[0]
        else:
            root = ExplainNode(
                "UnionAll", f"{len(part_nodes)} parts", children=tuple(part_nodes)
            )
        root.actual_rows = result_rows
        return root

    def evaluate(
        self, query: CypherQuery, analyze: bool = False, params=()
    ) -> list[dict[str, object]]:
        """Evaluate a query (UNION ALL concatenates parts).

        A planned engine runs the query's :func:`prepare_cypher` form,
        with the ``params`` that fill a prepared statement's ``$n`` slots.
        """
        if self.planner is not None and not isinstance(query, PreparedQuery):
            query = prepare_cypher(query)
        self._params = params
        self._expansions = 0
        if self.planner is not None:
            self.planner.last_executions = []
        with obs.span("cypher.evaluate", parts=len(query.parts)) as span:
            rows: list[dict[str, object]] = []
            columns: list[str] | None = None
            for part in query.parts:
                part_columns = [item.column_name() for item in part.return_clause.items]
                if columns is None:
                    columns = part_columns
                elif len(columns) != len(part_columns):
                    raise QueryError("UNION ALL parts must have the same arity")
                part_rows = self._evaluate_single(part, analyze)
                rows.extend(map(dict, map(zip, repeat(columns), part_rows)))
            span.set("rows", len(rows))
            span.set("expansions", self._expansions)
        return rows

    # ------------------------------------------------------------------ #
    # Pipeline
    # ------------------------------------------------------------------ #

    def _evaluate_single(
        self, query: SingleQuery, analyze: bool = False
    ) -> list[tuple]:
        fast = self._batched_return_fast_path(query, analyze)
        if fast is not None:
            return fast
        bindings: list[Binding] = [{}]
        for clause in query.clauses:
            if isinstance(clause, MatchClause):
                kind = "cypher.optional_match" if clause.optional else "cypher.match"
                with obs.span(kind, rows_in=len(bindings)) as span:
                    bindings = self._apply_match(bindings, clause, analyze)
                    span.set("rows_out", len(bindings))
            elif isinstance(clause, UnwindClause):
                with obs.span("cypher.unwind", rows_in=len(bindings)) as span:
                    bindings = self._apply_unwind(bindings, clause)
                    span.set("rows_out", len(bindings))
            elif isinstance(clause, WithClause):
                if clause.where is not None:
                    with obs.span("cypher.filter", rows_in=len(bindings)) as span:
                        bindings = [
                            b for b in bindings
                            if self._truthy(self._eval(clause.where, b))
                        ]
                        span.set("rows_out", len(bindings))
            elif isinstance(clause, ReturnClause):
                with obs.span("cypher.return", rows_in=len(bindings)) as span:
                    rows = self._apply_return(bindings, clause)
                    span.set("rows_out", len(rows))
                return rows
            else:  # pragma: no cover - parser only emits these
                raise QueryError(f"unsupported clause {clause!r}")
        raise QueryError("query did not end with RETURN")

    def _batched_return_fast_path(
        self, query: SingleQuery, analyze: bool
    ) -> list[tuple] | None:
        """MATCH + simple RETURN on the planner, fully columnar.

        When the whole query is one non-optional MATCH (whose WHERE, if
        any, is absorbed into its patterns entirely) returning literals,
        variables, property accesses, and COALESCEs of those — with
        ORDER BY keys limited to returned aliases — the projection runs
        straight off the plan's interned-id columns and no per-row
        binding dicts are built.  Any other shape falls back to the
        generic pipeline (returns None).
        """
        planner = self.planner
        if planner is None or len(query.clauses) != 2:
            return None
        match, ret = query.clauses
        if (
            not isinstance(match, MatchClause)
            or match.optional
            or not isinstance(ret, ReturnClause)
        ):
            return None
        if match.where is not None:
            return None
        simple = (CypherLiteral, VarRef, PropertyAccess)
        items = []
        for item in ret.items:
            expr = item.expr
            if isinstance(expr, Coalesce) and all(
                isinstance(arg, simple) for arg in expr.args
            ):
                expr = Coalesce(tuple(map(self._resolved, expr.args)))
            elif not isinstance(expr, simple):
                return None
            items.append(ReturnItem(self._resolved(expr), item.alias))
        if any(_alias_index(ret, key) is None for key in ret.order_by):
            return None
        with obs.span("cypher.match", rows_in=1) as span:
            rows = planner.execute_match_projected(
                match, items, self, analyze, self._params
            )
            span.set("rows_out", len(rows))
        with obs.span("cypher.return", rows_in=len(rows)) as span:
            rows = self._modifiers(rows, ret, None)
            span.set("rows_out", len(rows))
        return rows

    def _apply_match(
        self,
        bindings: list[Binding],
        clause: MatchClause,
        analyze: bool = False,
    ) -> list[Binding]:
        if not clause.optional:
            if self.planner is not None:
                result = self.planner.execute_match(
                    bindings, clause, self, analyze, self._params
                )
            else:
                result = bindings
                for path in clause.paths:
                    extended: list[Binding] = []
                    for binding in result:
                        extended.extend(self._match_path(binding, path))
                    result = extended
            if clause.where is not None:
                result = [
                    b for b in result if self._truthy(self._eval(clause.where, b))
                ]
            return result
        # OPTIONAL MATCH: per input row, keep the row (with the clause's
        # variables bound to null) when the pattern finds no match.
        pattern_vars = clause.pattern_variables()
        result = []
        for binding in bindings:
            extended = [binding]
            for path in clause.paths:
                next_round: list[Binding] = []
                for current in extended:
                    next_round.extend(self._match_path(current, path))
                extended = next_round
            if clause.where is not None:
                extended = [
                    b for b in extended
                    if self._truthy(self._eval(clause.where, b))
                ]
            if extended:
                result.extend(extended)
            else:
                nulled = dict(binding)
                for name in pattern_vars:
                    nulled.setdefault(name, None)
                result.append(nulled)
        return result

    def _match_path(self, binding: Binding, path: PathPattern) -> Iterator[Binding]:
        for start_node, start_binding in self._candidate_starts(binding, path.start):
            yield from self._extend_hops(start_binding, start_node, path.hops, 0)

    def _candidate_starts(
        self, binding: Binding, pattern: NodePattern
    ) -> Iterator[tuple[PGNode, Binding]]:
        if pattern.var is not None and pattern.var in binding:
            bound = binding[pattern.var]
            if isinstance(bound, PGNode) and _node_matches(
                bound, pattern, self._params
            ):
                yield bound, binding
            return
        if pattern.labels:
            candidates: Iterator[PGNode] = self.store.nodes_with_label(pattern.labels[0])
        else:
            candidates = iter(self.store.graph.nodes.values())
        for node in candidates:
            if _node_matches(node, pattern, self._params):
                if pattern.var is not None:
                    extended = dict(binding)
                    extended[pattern.var] = node
                    yield node, extended
                else:
                    yield node, binding

    def _extend_hops(
        self,
        binding: Binding,
        current: PGNode,
        hops: tuple[tuple[RelPattern, NodePattern], ...],
        index: int,
    ) -> Iterator[Binding]:
        if index == len(hops):
            yield binding
            return
        rel_pattern, node_pattern = hops[index]
        for edge, neighbour in self._neighbours(current, rel_pattern):
            if not _node_matches(neighbour, node_pattern, self._params):
                continue
            extended = binding
            if rel_pattern.var is not None:
                bound = binding.get(rel_pattern.var)
                if bound is not None and bound is not edge:
                    continue
                extended = dict(extended)
                extended[rel_pattern.var] = edge
            if node_pattern.var is not None:
                bound = extended.get(node_pattern.var)
                if bound is not None:
                    if not (isinstance(bound, PGNode) and bound.id == neighbour.id):
                        continue
                else:
                    if extended is binding:
                        extended = dict(extended)
                    extended[node_pattern.var] = neighbour
            yield from self._extend_hops(extended, neighbour, hops, index + 1)

    def _neighbours(
        self, node: PGNode, rel: RelPattern
    ) -> Iterator[tuple[PGEdge, PGNode]]:
        directions = []
        if rel.direction in ("out", "any"):
            directions.append("out")
        if rel.direction in ("in", "any"):
            directions.append("in")
        types = rel.types or (None,)
        undirected = len(directions) == 2
        for direction in directions:
            for rel_type in types:
                edges = (
                    self.store.out_edges(node.id, rel_type)
                    if direction == "out"
                    else self.store.in_edges(node.id, rel_type)
                )
                for edge in edges:
                    self._expansions += 1
                    if undirected and direction == "in" and edge.src == edge.dst:
                        # A self-loop satisfies an undirected pattern once,
                        # not once per traversal direction (openCypher
                        # relationship uniqueness).
                        continue
                    other_id = edge.dst if direction == "out" else edge.src
                    yield edge, self.store.graph.nodes[other_id]

    def _apply_unwind(self, bindings: list[Binding], clause: UnwindClause) -> list[Binding]:
        result: list[Binding] = []
        for binding in bindings:
            value = self._eval(clause.expr, binding)
            if value is None:
                continue
            items = value if isinstance(value, list) else [value]
            for item in items:
                extended = dict(binding)
                extended[clause.var] = item
                result.append(extended)
        return result

    def _apply_return(self, bindings: list[Binding], clause: ReturnClause) -> list[tuple]:
        has_count = any(isinstance(item.expr, CountStar) for item in clause.items)
        if has_count:
            rows = self._aggregate_count(bindings, clause)
        else:
            evals = [self._compile_eval(item.expr) for item in clause.items]
            rows = [
                tuple(evaluate(binding) for evaluate in evals)
                for binding in bindings
            ]
        return self._modifiers(rows, clause, None if has_count else bindings)

    def _modifiers(self, rows: list[tuple], clause: ReturnClause, bindings):
        """ORDER BY, DISTINCT, then LIMIT over projected ``rows``.

        An ORDER BY referencing a returned alias sorts by that column;
        otherwise the expression is evaluated per row, which needs the
        ``bindings`` the rows were projected from (still aligned).
        """
        for key in reversed(clause.order_by):
            column_index = _alias_index(clause, key)
            if column_index is not None:
                rows.sort(
                    key=lambda row, i=column_index: _sort_key(row[i]),
                    reverse=key.descending,
                )
            elif bindings is not None and len(rows) == len(bindings):
                decorated = [
                    (_sort_key(self._eval(key.expr, binding)), row)
                    for row, binding in zip(rows, bindings)
                ]
                decorated.sort(key=lambda d: d[0], reverse=key.descending)
                rows = [row for _, row in decorated]
            else:
                raise QueryError(
                    "ORDER BY with aggregation must reference a returned alias"
                )
        if clause.distinct:
            seen: set[tuple] = set()
            unique: list[tuple] = []
            for row in rows:
                key = tuple(_value_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        # LIMIT must stay the last modifier: pipelined physical plans
        # upstream may deliver rows in any order, so truncating before
        # the sort above has completed would change the result.
        if clause.limit is not None:
            rows = rows[: clause.limit]
        return rows

    def _aggregate_count(self, bindings: list[Binding], clause: ReturnClause) -> list[tuple]:
        """``count(*)`` with implicit grouping by the other return items."""
        group_indexes = [
            i for i, item in enumerate(clause.items)
            if not isinstance(item.expr, CountStar)
        ]
        groups: dict[tuple, list] = {}
        group_values: dict[tuple, tuple] = {}
        for binding in bindings:
            values = tuple(
                self._eval(clause.items[i].expr, binding) for i in group_indexes
            )
            key = tuple(_value_key(v) for v in values)
            groups.setdefault(key, []).append(binding)
            group_values[key] = values
        if not group_indexes and not groups:
            return [tuple(0 for _ in clause.items)]
        rows: list[tuple] = []
        for key, members in groups.items():
            values = iter(group_values[key])
            row = tuple(
                len(members) if isinstance(item.expr, CountStar) else next(values)
                for item in clause.items
            )
            rows.append(row)
        return rows

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #

    def _compile_eval(self, expr: CypherExpr):
        """A per-row closure for ``expr``, bypassing the dispatch chain
        of :meth:`_eval` for the projection-hot expression kinds."""
        if isinstance(expr, CypherLiteral):
            value = self._value(expr)
            return lambda binding: value
        if isinstance(expr, VarRef):
            name = expr.name

            def ref(binding, name=name):
                if name not in binding:
                    raise QueryError(f"unbound variable {name!r}")
                return binding[name]

            return ref
        if isinstance(expr, PropertyAccess):
            var, key = expr.var, expr.key

            def prop(binding, var=var, key=key):
                element = binding.get(var)
                if isinstance(element, (PGNode, PGEdge)):
                    return element.properties.get(key)
                return None

            return prop
        return lambda binding: self._eval(expr, binding)

    def _value(self, literal: CypherLiteral) -> object:
        return resolve(literal.value, self._params)

    def _resolved(self, expr: CypherExpr) -> CypherExpr:
        """``expr`` with a literal's parameter slot filled in."""
        if isinstance(expr, CypherLiteral):
            return CypherLiteral(self._value(expr))
        return expr

    def _eval(self, expr: CypherExpr, binding: Binding) -> object:
        if isinstance(expr, CypherLiteral):
            return self._value(expr)
        if isinstance(expr, VarRef):
            if expr.name not in binding:
                raise QueryError(f"unbound variable {expr.name!r}")
            return binding[expr.name]
        if isinstance(expr, PropertyAccess):
            element = binding.get(expr.var)
            if isinstance(element, (PGNode, PGEdge)):
                return element.properties.get(expr.key)
            return None
        if isinstance(expr, Coalesce):
            for arg in expr.args:
                value = self._eval(arg, binding)
                if value is not None:
                    return value
            return None
        if isinstance(expr, CypherComparison):
            lhs = self._eval(expr.lhs, binding)
            rhs = self._eval(expr.rhs, binding)
            if lhs is None or rhs is None:
                return None
            try:
                if expr.op == "=":
                    return lhs == rhs
                if expr.op == "<>":
                    return lhs != rhs
                if expr.op == "<":
                    return lhs < rhs
                if expr.op == "<=":
                    return lhs <= rhs
                if expr.op == ">":
                    return lhs > rhs
                if expr.op == ">=":
                    return lhs >= rhs
            except TypeError:
                return None
            raise QueryError(f"unknown operator {expr.op}")
        if isinstance(expr, CypherBoolean):
            values = [self._truthy(self._eval(op, binding)) for op in expr.operands]
            return all(values) if expr.op == "and" else any(values)
        if isinstance(expr, CypherNot):
            return not self._truthy(self._eval(expr.operand, binding))
        if isinstance(expr, IsNull):
            value = self._eval(expr.operand, binding)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, HasLabel):
            element = binding.get(expr.var)
            return isinstance(element, PGNode) and expr.label in element.labels
        if isinstance(expr, CountStar):
            raise QueryError("count(*) is only allowed in RETURN")
        raise QueryError(f"cannot evaluate {expr!r}")

    @staticmethod
    def _truthy(value: object) -> bool:
        return bool(value) and value is not None
