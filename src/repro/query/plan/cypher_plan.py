"""Cost-based planning of Cypher MATCH clauses.

The reference engine matches each path left-to-right, seeding from the
label index only when the *start* pattern is labelled and falling back
to a full node scan otherwise.  The planner instead:

* seeds each path at its cheapest node pattern — a bound variable, a
  property-index hit, or the smallest label — and expands the path
  forward and backward from there (a backward hop flips the traversal
  direction; the pattern semantics are unchanged);
* orders the paths of a multi-path MATCH by estimated cardinality,
  connected paths first;
* decorrelates a path from the incoming rows with a hash join (build
  the path once, probe per row) when the cost model says so — a
  disconnected path always hash-joins, replacing the reference arm's
  per-row rescan with one cartesian build.

Before planning, :func:`absorb_where` moves each ``var.key = constant``
conjunct of the clause's WHERE into that variable's node pattern, so a
bound constant reaches seed selection (an ``iri`` index seek) instead
of filtering a scan afterwards.

Plans are built from, and executed by, the batch operators of
:mod:`repro.query.plan.vectorized`: batches carry an ``anchor`` column
(the node the next expansion starts from) and a ``pivot`` column (the
seed, so a forward chain can rewind before expanding backward).

Null caveat: a variable bound to null (from OPTIONAL MATCH) is treated
as *unbound* by Cypher pattern matching, which a hash-join key cannot
express — the planner detects nullable shared variables per execution
and keeps those paths on the correlated pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...lexer import Param, resolve
from ...pg.store import PropertyGraphStore
from ..cypher.ast import (
    CypherBoolean,
    CypherComparison,
    CypherExpr,
    CypherLiteral,
    CypherQuery,
    MatchClause,
    NodePattern,
    PathPattern,
    PropertyAccess,
    RelPattern,
    SingleQuery,
)
from ..normalize import lift_paths
from .cache import CachingPlanner
from .stats import SeedChoice, StoreCatalog
from .vectorized import BatchMatchPlan, build_batched_match

__all__ = [
    "CypherPlanner", "PreparedMatch", "PreparedQuery", "absorb_where", "prepare_cypher"
]

Binding = dict[str, object]

COST_HASH_BUILD = 2.0
COST_HASH_PROBE = 1.0

_FLIP = {"out": "in", "in": "out", "any": "any"}


def _flip(rel: RelPattern) -> RelPattern:
    """The same relationship pattern traversed from the other endpoint."""
    return RelPattern(rel.var, rel.types, _FLIP[rel.direction])


def _path_variables(path: PathPattern) -> set[str]:
    names = {node.var for node in path.node_patterns() if node.var is not None}
    names |= {rel.var for rel, _ in path.hops if rel.var is not None}
    return names


def _conjuncts(expr: CypherExpr):
    """The top-level AND operands of ``expr`` (flattened)."""
    if isinstance(expr, CypherBoolean) and expr.op == "and":
        for operand in expr.operands:
            yield from _conjuncts(operand)
    else:
        yield expr


def _bound_constant(expr: CypherExpr) -> tuple[str, str, object] | None:
    """``(var, key, value)`` when ``expr`` is ``var.key = scalar``."""
    if not isinstance(expr, CypherComparison) or expr.op != "=":
        return None
    for access, constant in ((expr.lhs, expr.rhs), (expr.rhs, expr.lhs)):
        if isinstance(access, PropertyAccess) and isinstance(constant, CypherLiteral):
            value = constant.value
            # None matches nothing under WHERE but "absent" in a pattern,
            # and NaN equals nothing, not even itself: neither is pushed.
            # A template's slot holds a string or a number, never NaN.
            if isinstance(value, (str, int, float, bool, Param)) and value == value:
                return access.var, access.key, value
    return None


def absorb_where(clause: MatchClause) -> MatchClause:
    """Push WHERE's ``var.key = scalar`` conjuncts into node patterns.

    Returns a MATCH whose paths carry the pushed constants and whose
    WHERE is the residual (None when every conjunct was absorbed).  Only
    top-level AND conjuncts on a node variable of the clause move;
    anything under OR / NOT, and any comparison on a relationship
    variable, stays in the residual.  The rewrite is exact for a
    non-optional MATCH: a pattern property, the store's property index
    and WHERE ``=`` all compare scalars with Python ``==``, and WHERE
    runs on the match's output rows, where the variable is bound to the
    node the pattern matched.  OPTIONAL MATCH is not planned, so the
    engine keeps its WHERE as written.
    """
    if clause.where is None:
        return clause
    node_vars: set[str] = set()
    rel_vars: set[str] = set()
    for path in clause.paths:
        node_vars.update(n.var for n in path.node_patterns() if n.var is not None)
        rel_vars.update(rel.var for rel, _ in path.hops if rel.var is not None)
    node_vars -= rel_vars
    pushed: dict[str, list[tuple[str, object]]] = {}
    residual: list[CypherExpr] = []
    for conjunct in _conjuncts(clause.where):
        constant = _bound_constant(conjunct)
        if constant is None or constant[0] not in node_vars:
            residual.append(conjunct)
        else:
            var, key, value = constant
            pushed.setdefault(var, []).append((key, value))
    if not pushed:
        return clause

    def absorb(node: NodePattern) -> NodePattern:
        properties = node.properties
        for constraint in pushed.get(node.var, ()):
            if constraint not in properties:
                properties += (constraint,)
        if properties is node.properties:
            return node
        return NodePattern(node.var, node.labels, properties)

    paths = [
        PathPattern(
            absorb(path.start), tuple((rel, absorb(node)) for rel, node in path.hops)
        )
        for path in clause.paths
    ]
    if len(residual) > 1:
        return MatchClause(paths, CypherBoolean("and", tuple(residual)))
    return MatchClause(paths, residual[0] if residual else None)


@dataclass
class PreparedMatch(MatchClause):
    """A MATCH ready for the planner, prepared once per statement: WHERE
    absorbed into the paths (``where`` is the residual) and the paths
    lifted to their plan shape (``(shape, parameters, lifted paths)``)."""

    lifted: tuple = ()


class PreparedQuery(CypherQuery):
    """A query whose non-optional MATCH clauses are :class:`PreparedMatch`."""


def prepare_cypher(query: CypherQuery) -> PreparedQuery:
    """``query`` with each non-optional MATCH a :class:`PreparedMatch`."""

    def prepare(clause):
        if not isinstance(clause, MatchClause) or clause.optional:
            return clause
        absorbed = absorb_where(clause)
        return PreparedMatch(
            absorbed.paths, absorbed.where, lifted=lift_paths(absorbed.paths)
        )

    return PreparedQuery([
        SingleQuery([prepare(clause) for clause in part.clauses])
        for part in query.parts
    ])


class CypherPlanner(CachingPlanner):
    """Plans MATCH clauses for one :class:`PropertyGraphStore`.

    Args:
        store: the store queried.
        cache_size: LRU plan-cache capacity.
    """

    lang = "cypher"

    def __init__(self, store: PropertyGraphStore, cache_size: int = 128):
        self.store = store
        super().__init__(StoreCatalog(store), cache_size)

    def _lookup_plan(
        self, rows: list[Binding], clause: PreparedMatch, params
    ) -> tuple[tuple, bool, BatchMatchPlan, list]:
        """``(shape key, hit, plan, parameters)`` of a MATCH clause.

        The constants :func:`absorb_where` pushed out of WHERE are
        pattern properties, lifted into the parameters like inline ones:
        two texts that differ only in a constant share one plan.  A
        parameter that is itself a prepared statement's slot takes its
        value from ``params``.
        """
        bound = frozenset(rows[0].keys()) if rows else frozenset()
        clause_vars = set(clause.pattern_variables())
        nullable = frozenset(
            name
            for name in (clause_vars & bound)
            if any(row.get(name) is None for row in rows)
        )
        shape, lifted_params, paths = clause.lifted
        key = (bound, nullable, *shape)
        plan, hit = self._plan(
            key,
            lambda: build_batched_match(
                self, MatchClause(paths), set(bound), nullable
            ),
            paths=len(paths),
        )
        return key, hit, plan, [resolve(value, params) for value in lifted_params]

    def execute_match(
        self,
        rows: list[Binding],
        clause: PreparedMatch,
        engine,
        analyze: bool = False,
        params=(),
    ) -> list[Binding]:
        """Plan and run the (non-optional) paths of a MATCH clause."""
        key, hit, plan, params = self._lookup_plan(rows, clause, params)
        result = plan.execute(rows, engine, analyze, params)
        self._record(key, hit, plan, params, analyze)
        return result

    def execute_match_projected(
        self, clause: PreparedMatch, items, engine, analyze: bool = False, params=()
    ) -> list[tuple]:
        """Run a whole-query MATCH and project RETURN items batch-wise.

        Property and variable columns are materialized straight from the
        interned-id columns, so no per-row binding dicts are built.
        """
        key, hit, plan, params = self._lookup_plan([{}], clause, params)
        result = plan.execute_projected([{}], engine, items, analyze, params)
        self._record(key, hit, plan, params, analyze)
        return result

    # ------------------------------------------------------------------ #
    # Plan construction
    # ------------------------------------------------------------------ #

    def _seed_position(
        self, path: PathPattern, bound: set[str]
    ) -> tuple[int, SeedChoice]:
        """The node-pattern index with the cheapest access path."""
        best_index = 0
        best_choice: SeedChoice | None = None
        for index, pattern in enumerate(path.node_patterns()):
            choice = self.catalog.seed_choice(pattern, bound)
            if best_choice is None or choice.est < best_choice.est:
                best_index, best_choice = index, choice
        return best_index, best_choice

    def _path_estimate(self, path: PathPattern, bound: set[str]) -> float:
        """Expected matches of the path for one row with ``bound`` bound."""
        seed_index, choice = self._seed_position(path, bound)
        est = choice.est
        nodes = path.node_patterns()
        for i in range(seed_index, len(path.hops)):
            rel, _ = path.hops[i]
            est *= self.catalog.hop_fanout(rel) * self.catalog.node_selectivity(
                nodes[i + 1]
            )
        for i in range(seed_index - 1, -1, -1):
            rel, _ = path.hops[i]
            est *= self.catalog.hop_fanout(rel) * self.catalog.node_selectivity(
                nodes[i]
            )
        return est
