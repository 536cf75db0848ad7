"""Batch operators: the one planned execution path of both engines.

A batch is a set of columnar ``array('q')`` columns (one per variable)
over the storage substrate's dense integer ids, so the hot join loops
are int comparisons and C-level ``array`` extends (one
:meth:`~repro.storage.postings.IntPostings.extend_into` per index
bucket) rather than one Python dict per row.  Operators stream: each
pulls batches from its child, in the planner's static join order.
Terms and graph elements are decoded back to objects only at plan
boundaries, each distinct id once per column.  A tail-free SPARQL
SELECT and a whole-query Cypher MATCH with a simple RETURN project
their rows straight from the columns; FILTER, OPTIONAL and the other
clause tails run on the engines' existing code over decoded bindings.
Planned execution is bag-identical to the ``planner=False`` reference
by test: the directed tests and the differential fuzz oracles.
"""

from __future__ import annotations

from array import array
from itertools import chain
from itertools import repeat as _repeat

from ...rdf.terms import IRI, Literal
from ...storage.postings import IntPostings
from ..normalize import Param, resolve
from ..sparql.ast import TriplePattern, Var
from .operator import PhysicalOperator

__all__ = [
    "BatchConst",
    "BatchExpand",
    "BatchFilter",
    "BatchHashJoin",
    "BatchInput",
    "BatchMatchPlan",
    "BatchBindJoin",
    "BatchPathHashJoin",
    "BatchPivot",
    "BatchScan",
    "BatchSeed",
    "BatchedBGP",
    "DEFAULT_BATCH_SIZE",
    "build_batched_bgp",
    "build_batched_match",
]

#: Rows per batch: large enough to amortize the per-batch Python
#: overhead, small enough to stay cache-resident (8 KiB per column).
DEFAULT_BATCH_SIZE = 1024

#: Interned-id sentinel for "can never match" (real ids are >= 0).
_DEAD = -3


def _gather(arr: array, sel) -> array:
    """``arr`` indexed by every position in ``sel``, as a new array."""
    return array("q", map(arr.__getitem__, sel))


def _repeat_each(seq, times: int):
    """Every element of ``seq`` ``times`` times in a row (lazy).

    The probe side of a cartesian product: with the build columns tiled
    (``col * n``), no selection vectors are materialized or gathered.
    """
    return chain.from_iterable(map(_repeat, seq, _repeat(times)))


def _concat(batches) -> tuple[dict[str, array], int]:
    """The columns (and row count) of a run of batches, concatenated."""
    cols: dict[str, array] = {}
    n = 0
    for batch in batches:
        for name, col in batch.cols.items():
            cols.setdefault(name, array("q")).extend(col)
        n += batch.n
    return cols, n


def _hash_table(cols: dict[str, array], key: tuple[str, ...], n: int) -> dict:
    """Build-side row indices by key value (a tuple for a multi-key)."""
    table: dict = {}
    if not key or not n:  # an empty build side has no columns to key on
        return table
    if len(key) == 1:
        for j, v in enumerate(cols[key[0]]):
            table.setdefault(v, []).append(j)
    else:
        kcols = [cols[name] for name in key]
        for j in range(n):
            table.setdefault(tuple(col[j] for col in kcols), []).append(j)
    return table


def _probe(table: dict, pcols) -> tuple[array, array]:
    """Selection vectors ``(probe rows, build rows)`` of the key matches.

    Table keys are real ids (>= 0), so a negative probe id — an unbound
    or impossible constraint — matches nothing.
    """
    sel_p = array("q")
    sel_b = array("q")
    for i, k in enumerate(pcols[0] if len(pcols) == 1 else zip(*pcols)):
        hits = table.get(k)
        if hits:
            sel_p.extend(_repeat(i, len(hits)))
            sel_b.extend(hits)
    return sel_p, sel_b


def _cartesian(build_cols: dict, build_n: int, probe_cols: dict, n: int) -> dict:
    """Every probe row once per build row, against the tiled build
    columns — no selection vectors."""
    out = {name: col * n for name, col in build_cols.items()}
    out.update(
        (name, array("q", _repeat_each(col, build_n)))
        for name, col in probe_cols.items()
    )
    return out


# ===================================================================== #
# SPARQL: columnar batches of interned term ids
# ===================================================================== #

class TermBatch:
    """A batch of solution bindings: one ``array('q')`` per variable."""

    __slots__ = ("cols", "n")

    def __init__(self, cols: dict[str, array], n: int):
        self.cols = cols
        self.n = n


def _term_id(lookup, pos: int, term) -> int:
    """The interned id of a constant at ``pos`` (``_DEAD`` if it can't match)."""
    if pos == 1 and not isinstance(term, IRI):
        return _DEAD  # a non-IRI predicate can never match
    if pos == 0 and isinstance(term, Literal):
        return _DEAD  # a literal subject can never match
    tid = lookup(term)
    return _DEAD if tid is None else tid


def _fill(pattern: TriplePattern, params) -> TriplePattern:
    """``pattern`` with its parameter slots replaced by ``params``."""
    terms = (pattern.s, pattern.p, pattern.o)
    if not any(isinstance(term, Param) for term in terms):
        return pattern
    return TriplePattern(*(resolve(term, params) for term in terms))


class _CompiledPattern:
    """A triple pattern resolved against the interner, probe-ready.

    Each position is compiled to a constant id (``_DEAD`` when the
    term is absent from the graph or statically invalid), a reference
    to a bound input column, or a free output variable.  A parameter
    slot is resolved to its constant id by :meth:`bind`, once per
    execution.  Matching writes whole index buckets into the output
    columns.
    """

    __slots__ = (
        "graph", "pattern", "specs", "slots", "out_names", "writes",
        "eq_groups", "_pred_memo", "_subj_memo",
    )

    def __init__(self, graph, pattern: TriplePattern, bound_cols):
        self.graph = graph
        self.pattern = pattern
        lookup = graph._terms.lookup
        specs = []
        slots = []
        out: list[str] = []
        positions: dict[str, list[int]] = {}
        for pos, term in enumerate((pattern.s, pattern.p, pattern.o)):
            if isinstance(term, Var):
                if term.name in bound_cols:
                    specs.append(("col", term.name))
                else:
                    specs.append(("var", term.name))
                    positions.setdefault(term.name, []).append(pos)
                    if term.name not in out:
                        out.append(term.name)
            elif isinstance(term, Param):
                specs.append(("const", _DEAD))
                slots.append((pos, term))
            else:
                specs.append(("const", _term_id(lookup, pos, term)))
        self.specs = tuple(specs)
        #: (position, slot) of every parameter of the pattern.
        self.slots = tuple(slots)
        self.out_names = tuple(out)
        #: (name, position) for the first occurrence of each free var.
        self.writes = tuple((name, plist[0]) for name, plist in positions.items())
        #: Positions that must carry equal ids (repeated free variable).
        self.eq_groups = tuple(
            tuple(plist) for plist in positions.values() if len(plist) > 1
        )
        self._pred_memo: dict[int, bool] = {}
        self._subj_memo: dict[int, bool] = {}

    def bind(self, params) -> None:
        """Resolve the parameter slots against this execution's values."""
        if self.slots:
            specs = list(self.specs)
            lookup = self.graph._terms.lookup
            for pos, slot in self.slots:
                specs[pos] = ("const", _term_id(lookup, pos, params[slot.index]))
            self.specs = tuple(specs)

    def pred_ok(self, tid: int) -> bool:
        ok = self._pred_memo.get(tid)
        if ok is None:
            ok = self._pred_memo[tid] = isinstance(self.graph._terms.term(tid), IRI)
        return ok

    def subj_ok(self, tid: int) -> bool:
        ok = self._subj_memo.get(tid)
        if ok is None:
            ok = self._subj_memo[tid] = not isinstance(
                self.graph._terms.term(tid), Literal
            )
        return ok

    def static_ids(self):
        """(si, pi, oi) for a standalone scan: const ids or None."""
        return tuple(
            spec[1] if spec[0] == "const" else None for spec in self.specs
        )

    def match_into(self, si, pi, oi, out_cols: dict[str, array]) -> int:
        """Append every match to the free-variable columns; return count."""
        if si == _DEAD or pi == _DEAD or oi == _DEAD:
            return 0
        graph = self.graph
        total = 0
        writes = self.writes
        if not self.eq_groups:
            for srcs_s, srcs_p, srcs_o, cnt in _buckets(
                graph._spo, graph._pos, graph._osp, si, pi, oi
            ):
                srcs = (srcs_s, srcs_p, srcs_o)
                for name, pos in writes:
                    src = srcs[pos]
                    col = out_cols[name]
                    if isinstance(src, int):
                        col.extend(_repeat(src, cnt))
                    else:
                        src.extend_into(col)
                total += cnt
            return total
        # Repeated free variable (e.g. ``?x ?p ?x``): materialize the
        # bucket row-wise and keep only rows where the positions agree.
        eq_groups = self.eq_groups
        for srcs_s, srcs_p, srcs_o, cnt in _buckets(
            graph._spo, graph._pos, graph._osp, si, pi, oi
        ):
            srcs = (srcs_s, srcs_p, srcs_o)
            seqs = [
                src if isinstance(src, int) else src.sorted_array()
                for src in srcs
            ]

            def at(pos: int, j: int):
                seq = seqs[pos]
                return seq if isinstance(seq, int) else seq[j]

            for j in range(cnt):
                ok = True
                for group in eq_groups:
                    first = at(group[0], j)
                    for pos in group[1:]:
                        if at(pos, j) != first:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                for name, pos in writes:
                    out_cols[name].append(at(pos, j))
                total += 1
        return total


def _buckets(spo, pos_index, osp, si, pi, oi):
    """Index buckets matching ``(si, pi, oi)`` (``None`` = wildcard).

    Yields ``(s, p, o, count)`` where each position is either a
    concrete id or an :class:`IntPostings` run (at most one per
    bucket), mirroring :meth:`Graph.triples`' index selection.
    """
    if si is not None:
        by_p = spo.get(si)
        if by_p is None:
            return
        if pi is not None:
            objs = by_p.get(pi)
            if objs is None:
                return
            if oi is not None:
                if oi in objs:
                    yield si, pi, oi, 1
                return
            yield si, pi, objs, len(objs)
            return
        if oi is not None:
            preds = osp.get(oi, {}).get(si)
            if preds is None:
                return
            yield si, preds, oi, len(preds)
            return
        for pi2, objs in by_p.items():
            yield si, pi2, objs, len(objs)
        return
    if pi is not None:
        by_o = pos_index.get(pi)
        if by_o is None:
            return
        if oi is not None:
            subs = by_o.get(oi)
            if subs is None:
                return
            yield subs, pi, oi, len(subs)
            return
        for oi2, subs in by_o.items():
            yield subs, pi, oi2, len(subs)
        return
    if oi is not None:
        for si2, preds in osp.get(oi, {}).items():
            yield si2, preds, oi, len(preds)
        return
    for si2, by_p in spo.items():
        for pi2, objs in by_p.items():
            yield si2, pi2, objs, len(objs)


class _PatternOperator(PhysicalOperator):
    """An operator yielding :class:`TermBatch` items for one pattern."""

    def __init__(self, est_rows, children, graph, pattern: TriplePattern,
                 bound_cols):
        super().__init__(est_rows, children)
        self.graph = graph
        self.pattern = pattern
        self.compiled = _CompiledPattern(graph, pattern, frozenset(bound_cols))

    def prepare(self, analyze: bool = False, params=()) -> None:
        super().prepare(analyze, params)
        self.compiled.bind(params)

    def detail(self, params=()) -> str:
        return str(_fill(self.pattern, params))


class BatchScan(_PatternOperator):
    """Leaf: scan one triple pattern's index buckets into batches."""

    op = "BatchScan"

    def __init__(self, graph, pattern: TriplePattern, est_rows: float,
                 batch_size: int = DEFAULT_BATCH_SIZE):
        super().__init__(est_rows, (), graph, pattern, ())
        self.batch_size = batch_size

    def execute(self, stats=None):
        self.actual_loops += 1
        compiled = self.compiled
        cols = {name: array("q") for name in compiled.out_names}
        si, pi, oi = compiled.static_ids()
        n = compiled.match_into(si, pi, oi, cols)
        self.actual_rows += n
        if stats is not None:
            stats.matches += n
        bs = self.batch_size
        for start in range(0, n, bs):
            stop = min(start + bs, n)
            yield TermBatch(
                {name: col[start:stop] for name, col in cols.items()},
                stop - start,
            )


class BatchBindJoin(_PatternOperator):
    """Index nested-loop join, one index probe per input row."""

    op = "BatchBindJoin"

    def __init__(self, child, graph, pattern: TriplePattern,
                 bound_cols, est_rows: float):
        super().__init__(est_rows, (child,), graph, pattern, bound_cols)

    def execute(self, stats=None):
        compiled = self.compiled
        specs = compiled.specs
        for batch in self.children[0].run(stats):
            n = batch.n
            if n == 0:
                continue
            cols = batch.cols
            srcs = [
                cols[spec[1]] if spec[0] == "col" else None for spec in specs
            ]
            sel = array("q")
            new_cols = {name: array("q") for name in compiled.out_names}
            for i in range(n):
                self.actual_loops += 1
                spec = specs[0]
                if spec[0] == "col":
                    si = srcs[0][i]
                    if not compiled.subj_ok(si):
                        continue
                else:
                    si = spec[1] if spec[0] == "const" else None
                spec = specs[1]
                if spec[0] == "col":
                    pi = srcs[1][i]
                    if not compiled.pred_ok(pi):
                        continue
                else:
                    pi = spec[1] if spec[0] == "const" else None
                spec = specs[2]
                oi = (
                    srcs[2][i] if spec[0] == "col"
                    else (spec[1] if spec[0] == "const" else None)
                )
                cnt = compiled.match_into(si, pi, oi, new_cols)
                if cnt:
                    sel.extend(_repeat(i, cnt))
            m = len(sel)
            if m == 0:
                continue
            out_cols = {name: _gather(col, sel) for name, col in cols.items()}
            out_cols.update(new_cols)
            self.actual_rows += m
            if stats is not None:
                stats.matches += m
            yield TermBatch(out_cols, m)


class BatchHashJoin(PhysicalOperator):
    """Hash join on the shared variables' interned ids."""

    op = "BatchHashJoin"

    def __init__(self, probe, build, key: tuple[str, ...], est_rows: float):
        super().__init__(est_rows, (probe, build))
        self.key = key

    def detail(self, params=()) -> str:
        if not self.key:
            return "cartesian"
        return "on " + ", ".join(f"?{name}" for name in self.key)

    def execute(self, stats=None):
        self.actual_loops += 1
        key = self.key
        build_cols, build_n = _concat(self.children[1].run(stats))
        table = _hash_table(build_cols, key, build_n)
        for batch in self.children[0].run(stats):
            n = batch.n
            if n == 0 or build_n == 0:
                continue
            cols = batch.cols
            if not key:
                self.actual_rows += n * build_n
                yield TermBatch(_cartesian(build_cols, build_n, cols, n), n * build_n)
                continue
            sel_p, sel_b = _probe(table, [cols[name] for name in key])
            m = len(sel_p)
            if m == 0:
                continue
            out_cols = {name: _gather(col, sel_p) for name, col in cols.items()}
            for name, col in build_cols.items():
                if name not in out_cols:
                    out_cols[name] = _gather(col, sel_b)
            self.actual_rows += m
            yield TermBatch(out_cols, m)


def _decode_term_batches(graph, batches, memo: dict, names=None):
    """Decode each batch to a list of row dicts (the plan boundary).

    A row holds the variables of ``names`` the batch binds, in that
    order (every column when None).  Each column decodes the distinct
    ids ``memo`` lacks, and the rows are zipped from the columns read
    through ``memo``.
    """
    term = graph._terms.term
    for batch in batches:
        cols = batch.cols
        keys = list(cols) if names is None else [k for k in names if k in cols]
        columns = []
        for key in keys:
            missing = set(cols[key]).difference(memo)
            memo.update(zip(missing, map(term, missing)))
            columns.append(map(memo.__getitem__, cols[key]))
        if columns:
            yield list(map(dict, map(zip, _repeat(keys), zip(*columns))))
        else:
            yield [{} for _ in range(batch.n)]


class BatchedBGP(PhysicalOperator):
    """A statically planned BGP executed over columnar batches.

    ``run(stats)`` yields decoded binding dicts, so the evaluator's
    downstream constructs (OPTIONAL, UNION, FILTER, modifiers) consume
    it exactly like the reference evaluator's bindings;
    ``run(stats, names)`` yields a tail-free SELECT's projected rows
    straight from the columns instead.
    ``selectivity_profile`` holds the bound-position count of each
    pattern in join order, for trace parity with the reference arm.
    """

    op = "BatchedBGP"

    def __init__(
        self,
        graph,
        root: PhysicalOperator,
        selectivity_profile: tuple[int, ...] = (),
    ):
        super().__init__(root.est_rows, (root,))
        self.graph = graph
        self.selectivity_profile = selectivity_profile
        self._memo: dict = {}
        #: The operator tree EXPLAIN shows, and its operators pre-order.
        self.root = root
        self.ops = tuple(root.walk())
        #: Per-operator row and plan-cache lookup counters, bound once
        #: (see obs.report_query).
        self.row_counters = None

    def execute(self, stats=None, names=None):
        return chain.from_iterable(_decode_term_batches(
            self.graph, self.children[0].run(stats), self._memo, names
        ))


def _sparql_use_hash(shared, per_binding, standalone, out_est) -> bool:
    from .sparql_plan import (
        COST_EMIT,
        COST_HASH_BUILD,
        COST_HASH_PROBE,
        COST_INDEX_PROBE,
    )

    if not shared:
        # A per-binding rescan of a disconnected pattern is never
        # cheaper than building its scan once.
        return True
    next_est = out_est * per_binding
    bind_cost = out_est * COST_INDEX_PROBE + next_est * COST_EMIT
    hash_cost = (
        standalone * COST_HASH_BUILD
        + out_est * COST_HASH_PROBE
        + next_est * COST_EMIT
    )
    return hash_cost < bind_cost


def build_batched_bgp(planner, patterns) -> BatchedBGP:
    """Compile a BGP to batch operators in the planner's join order.

    Greedy: start from the cheapest standalone pattern, then keep
    appending the connected pattern with the smallest estimated
    per-binding cardinality (any pattern once none is connected),
    choosing bind join or hash join per stage by the cost model.
    """
    graph = planner.graph
    catalog = planner.catalog
    batch_size = planner.batch_size
    remaining = list(range(len(patterns)))
    bound: set[str] = set()
    profile: list[int] = []
    plan: PhysicalOperator | None = None
    out_est = 1.0
    while remaining:
        connected = [i for i in remaining if patterns[i].variables() & bound]
        index = min(
            connected or remaining,
            key=lambda i: (catalog.estimate_pattern(patterns[i], bound), i),
        )
        pattern = patterns[index]
        # Bound positions of the chosen pattern: the selectivity profile
        # the reference evaluator reports for its greedy selections.
        profile.append(sum(
            1
            for term in (pattern.s, pattern.p, pattern.o)
            if not isinstance(term, Var) or term.name in bound
        ))
        shared = tuple(sorted(pattern.variables() & bound))
        per_binding = catalog.estimate_pattern(pattern, bound)
        standalone = catalog.estimate_pattern(pattern, set())
        next_est = out_est * per_binding
        if plan is None:
            plan = BatchScan(graph, pattern, next_est, batch_size)
        elif _sparql_use_hash(shared, per_binding, standalone, out_est):
            build = BatchScan(graph, pattern, standalone, batch_size)
            plan = BatchHashJoin(plan, build, shared, next_est)
        else:
            plan = BatchBindJoin(plan, graph, pattern, bound, next_est)
        bound |= pattern.variables()
        out_est = next_est
        remaining.remove(index)
    return BatchedBGP(graph, plan, tuple(profile))


# ===================================================================== #
# Cypher: columnar path batches over the PG store substrate
# ===================================================================== #

class PathBatch:
    """A batch of partial path matches.

    ``rows`` holds the incoming binding dict per output row (shared
    references, replicated on fanout); variables bound *by this MATCH
    clause* live in the columnar ``cols`` as interned node/edge name
    ids (``kinds`` says which).  ``anchor`` is the node id the next
    expansion starts from; ``pivot`` remembers the seed for backward
    expansion.  Decoding merges ``rows[i]`` with the decoded columns
    (columns win — they carry the clause's rebinds).
    """

    __slots__ = ("rows", "cols", "kinds", "anchor", "pivot")

    def __init__(self, rows, cols, kinds, anchor, pivot):
        self.rows = rows
        self.cols = cols
        self.kinds = kinds
        self.anchor = anchor
        self.pivot = pivot

    @property
    def n(self) -> int:
        return len(self.rows)


class BatchInput(PhysicalOperator):
    """Source: incoming clause rows, chunked into batches."""

    op = "Input"

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE):
        super().__init__(None)
        self.rows: list[dict] = []
        #: The variables some incoming row has a key for, this execution.
        self.row_vars: frozenset[str] = frozenset()
        self.batch_size = batch_size

    def execute(self, engine):
        self.actual_loops += 1
        rows = self.rows
        self.row_vars = frozenset().union(*rows)
        bs = self.batch_size
        for start in range(0, len(rows), bs):
            chunk = rows[start:start + bs]
            self.actual_rows += len(chunk)
            yield PathBatch(chunk, {}, {}, None, None)


class BatchConst(PhysicalOperator):
    """Source: a single empty binding (hash-join build sides)."""

    op = "Const"
    row_vars: frozenset[str] = frozenset()

    def __init__(self):
        super().__init__(1.0)

    def execute(self, engine):
        self.actual_loops += 1
        self.actual_rows += 1
        yield PathBatch([{}], {}, {}, None, None)


def _source(op: PhysicalOperator) -> PhysicalOperator:
    """The leaf (``BatchInput`` or ``BatchConst``) a pipeline pulls from."""
    while op.children:
        op = op.children[0]
    return op


def _resolve_constraint(var, want_kind, batch, names, row_vars):
    """Per-row id constraints for ``var``: -1 unbound, -2 never-match.

    A value of the wrong kind (a node where an edge is required, a
    non-graph value) can never match, exactly like the reference
    evaluator's identity checks.  ``row_vars`` are the variables the
    execution's incoming rows have keys for; the rows are scanned only
    for one of those.
    """
    if var is None:
        return None
    col = batch.cols.get(var)
    if col is not None:
        if batch.kinds.get(var) == want_kind:
            return col
        return array("q", (-2,)) * batch.n
    if var not in row_vars:
        return None
    from ...pg.model import PGEdge, PGNode

    expected = PGNode if want_kind == "node" else PGEdge
    out = array("q")
    any_set = False
    lookup = names.lookup
    for row in batch.rows:
        value = row.get(var)
        if value is None:
            out.append(-1)
        elif isinstance(value, expected):
            vid = lookup(value.id)
            out.append(vid if vid is not None else -2)
            any_set = True
        else:
            out.append(-2)
            any_set = True
    return out if any_set else None


class BatchSeed(PhysicalOperator):
    """Bind one node pattern via its chosen access path, batch-wise.

    Emits the raw candidate ids of the access path (whole postings
    runs when the row carries no equality constraint); residual
    label/property checks are applied by a downstream
    :class:`BatchFilter`.
    """

    op = "BatchSeed"

    def __init__(self, child, store, pattern, choice, est_rows: float):
        super().__init__(est_rows, (child,))
        self.source = _source(child)
        self.store = store
        self.pattern = pattern
        self.choice = choice

    def detail(self, params=()) -> str:
        name = self.pattern.var or "_"
        return f"({name}) via {self.choice.describe(params)}"

    def _candidates(self):
        store = self.store
        choice = self.choice
        if choice.mode == "label":
            li = store._labels.lookup(choice.label)
            bucket = store._label_index.get(li) if li is not None else None
            return bucket.sorted_array() if bucket is not None else array("q")
        if choice.mode == "prop":
            value = resolve(choice.value, self.params)
            bucket = store._property_index.get((choice.key, value))
            return bucket.sorted_array() if bucket is not None else array("q")
        return store.node_id_array()

    def execute(self, engine):
        store = self.store
        names = store._names
        var = self.pattern.var
        bound_mode = self.choice.mode == "bound"
        candidates = None if bound_mode else self._candidates()
        cand_set = None
        for batch in self.children[0].run(engine):
            n = batch.n
            if n == 0:
                continue
            self.actual_loops += n
            sel = array("q")
            out = array("q")
            if bound_mode:
                cons = _resolve_constraint(var, "node", batch, names, self.source.row_vars)
                if cons is not None:
                    for i in range(n):
                        v = cons[i]
                        if v >= 0:
                            out.append(v)
                            sel.append(i)
            elif len(candidates):
                cons = _resolve_constraint(var, "node", batch, names, self.source.row_vars)
                if cons is None:
                    cnt = len(candidates)
                    for i in range(n):
                        out.extend(candidates)
                        sel.extend(_repeat(i, cnt))
                else:
                    if cand_set is None:
                        cand_set = set(candidates)
                    cnt = len(candidates)
                    for i in range(n):
                        v = cons[i]
                        if v == -1:
                            out.extend(candidates)
                            sel.extend(_repeat(i, cnt))
                        elif v >= 0 and v in cand_set:
                            out.append(v)
                            sel.append(i)
            m = len(sel)
            if m == 0:
                continue
            out_rows = [batch.rows[i] for i in sel]
            out_cols = {
                name: _gather(col, sel) for name, col in batch.cols.items()
            }
            out_kinds = dict(batch.kinds)
            if var is not None:
                out_cols[var] = out
                out_kinds[var] = "node"
            self.actual_rows += m
            yield PathBatch(out_rows, out_cols, out_kinds, out, out)


class BatchFilter(PhysicalOperator):
    """Apply residual label/property constraints to the anchor column."""

    op = "BatchFilter"

    def __init__(self, child, store, var, labels, properties, est_rows: float):
        super().__init__(est_rows, (child,))
        self.store = store
        self.var = var
        self.labels = tuple(labels)
        self.properties = tuple(properties)

    def detail(self, params=()) -> str:
        name = self.var or "_"
        labels = "".join(f":{label}" for label in self.labels)
        props = ""
        if self.properties:
            inner = ", ".join(
                f"{k}: {resolve(v, params)!r}" for k, v in self.properties
            )
            props = f" {{{inner}}}"
        return f"({name}){labels}{props}"

    def execute(self, engine):
        store = self.store
        buckets = []
        dead = False
        for label in self.labels:
            li = store._labels.lookup(label)
            bucket = store._label_index.get(li) if li is not None else None
            if bucket is None:
                dead = True
                break
            buckets.append(bucket)
        value_of = store._names.value
        nodes = store.graph.nodes
        properties = [(k, resolve(v, self.params)) for k, v in self.properties]
        for batch in self.children[0].run(engine):
            n = batch.n
            self.actual_loops += n
            if dead or n == 0:
                continue
            anchor = batch.anchor
            sel = array("q")
            for i in range(n):
                nid = anchor[i]
                ok = True
                for bucket in buckets:
                    if nid not in bucket:
                        ok = False
                        break
                if ok and properties:
                    node = nodes[value_of(nid)]
                    for key, value in properties:
                        if node.properties.get(key) != value:
                            ok = False
                            break
                if ok:
                    sel.append(i)
            m = len(sel)
            if m == 0:
                continue
            self.actual_rows += m
            if m == n:
                yield batch
                continue
            yield PathBatch(
                [batch.rows[i] for i in sel],
                {name: _gather(col, sel) for name, col in batch.cols.items()},
                dict(batch.kinds),
                _gather(anchor, sel),
                _gather(batch.pivot, sel) if batch.pivot is not None else None,
            )


class BatchExpand(PhysicalOperator):
    """Follow one hop from the anchor column through the adjacency index.

    The directions, adjacency maps, endpoint arrays and type ids are
    decided once per execution.  A typed one-direction hop over a batch
    without constraint columns extends whole edge-postings runs per
    anchor and gathers the far endpoints once per batch; rel/node
    equality constraints, undirected and untyped hops take the per-edge
    checks.
    """

    op = "BatchExpand"

    def __init__(self, child, store, rel, node, reverse: bool, est_rows: float):
        super().__init__(est_rows, (child,))
        from .cypher_plan import _flip

        self.source = _source(child)
        self.store = store
        self.rel = rel
        self.node = node
        self.reverse = reverse
        self.traverse_rel = _flip(rel) if reverse else rel

    def detail(self, params=()) -> str:
        types = "|".join(self.rel.types)
        rel = f"[:{types}]" if types else "[]"
        arrow = {"out": f"-{rel}->", "in": f"<-{rel}-", "any": f"-{rel}-"}[
            self.rel.direction
        ]
        far = f"({self.node.var or '_'})"
        if self.reverse:
            return f"{far}{arrow}(*)"
        return f"(*){arrow}{far}"

    def execute(self, engine):
        store = self.store
        names = store._names
        rel = self.traverse_rel
        rel_var = self.rel.var
        node_var = self.node.var
        if rel_var is not None and rel_var == node_var:
            # ``-[x]->(x)`` can never match: the same variable cannot
            # be both the edge and its endpoint.
            for _ in self.children[0].run(engine):
                pass
            return
        src_arr, dst_arr = store.endpoint_arrays()
        # (adjacency, far-endpoint array, skip self-loops) per traversal
        # direction: an undirected hop's second pass skips self-loops.
        passes = []
        if rel.direction in ("out", "any"):
            passes.append((store._out, dst_arr, False))
        if rel.direction in ("in", "any"):
            passes.append((store._in, src_arr, bool(passes)))
        if rel.types:
            type_ids = [
                li for li in map(store._labels.lookup, rel.types)
                if li is not None
            ]
        else:
            type_ids = None
        for batch in self.children[0].run(engine):
            n = batch.n
            if n == 0:
                continue
            self.actual_loops += n
            anchor = batch.anchor
            row_vars = self.source.row_vars
            e_cons = _resolve_constraint(rel_var, "rel", batch, names, row_vars)
            n_cons = _resolve_constraint(node_var, "node", batch, names, row_vars)
            sel = array("q")
            edge_out = array("q")
            if (
                e_cons is None and n_cons is None and len(passes) == 1
                and type_ids is not None
            ):
                # Every edge of every typed bucket matches: whole postings
                # runs, and the far endpoints gathered once per batch.
                adjacency, endpoint, _ = passes[0]
                for i, nid in enumerate(anchor):
                    by_type = adjacency.get(nid)
                    if by_type:
                        for li in type_ids:
                            bucket = by_type.get(li)
                            if bucket is not None:
                                sel.extend(_repeat(i, bucket.extend_into(edge_out)))
                expansions = len(edge_out)
                far_out = _gather(endpoint, edge_out)
            else:
                # Anchor by anchor: each edge is checked against the row's
                # rel/node constraints, the self-loop rule and (untyped)
                # the edges already seen under another type.
                far_out = array("q")
                expansions = 0
                for i, nid in enumerate(anchor):
                    be = e_cons[i] if e_cons is not None else -1
                    if be == -2:
                        continue
                    bn = n_cons[i] if n_cons is not None else -1
                    if bn == -2:
                        continue
                    for adjacency, endpoint, skip_loops in passes:
                        by_type = adjacency.get(nid)
                        if not by_type:
                            continue
                        if type_ids is None:
                            buckets = list(by_type.values())
                            seen = set() if len(buckets) > 1 else None
                        else:
                            buckets = [by_type[li] for li in type_ids if li in by_type]
                            seen = None
                        for bucket in buckets:
                            expansions += len(bucket)
                            if be < 0 and bn < 0 and seen is None and not skip_loops:
                                # Wholesale: the whole postings run matches.
                                run = bucket.sorted_array()
                                edge_out.extend(run)
                                far_out.extend(map(endpoint.__getitem__, run))
                                sel.extend(_repeat(i, len(run)))
                                continue
                            if be >= 0:
                                eids = (be,) if be in bucket else ()
                            else:
                                eids = bucket
                            for eid in eids:
                                if seen is not None:
                                    if eid in seen:
                                        continue
                                    seen.add(eid)
                                if skip_loops and src_arr[eid] == dst_arr[eid]:
                                    # A self-loop satisfies an undirected
                                    # pattern once, not once per direction.
                                    continue
                                far = endpoint[eid]
                                if bn >= 0 and far != bn:
                                    continue
                                edge_out.append(eid)
                                far_out.append(far)
                                sel.append(i)
            engine._expansions += expansions
            m = len(sel)
            if m == 0:
                continue
            out_cols = {
                name: _gather(col, sel) for name, col in batch.cols.items()
            }
            out_kinds = dict(batch.kinds)
            if rel_var is not None:
                out_cols[rel_var] = edge_out
                out_kinds[rel_var] = "rel"
            if node_var is not None:
                out_cols[node_var] = far_out
                out_kinds[node_var] = "node"
            self.actual_rows += m
            yield PathBatch(
                [batch.rows[i] for i in sel],
                out_cols,
                out_kinds,
                far_out,
                _gather(batch.pivot, sel) if batch.pivot is not None else None,
            )


class BatchPivot(PhysicalOperator):
    """Rewind the anchor to the seed node (forward chain -> backward)."""

    op = "Pivot"

    def __init__(self, child, est_rows: float | None):
        super().__init__(est_rows, (child,))

    def execute(self, engine):
        self.actual_loops += 1
        for batch in self.children[0].run(engine):
            self.actual_rows += batch.n
            yield PathBatch(
                batch.rows, batch.cols, batch.kinds, batch.pivot, batch.pivot
            )


def _elements(store, col, is_node: bool, memo: dict) -> dict:
    """Graph element per distinct id of ``col``, resolved through ``memo``."""
    value_of = store._names.value
    source = store.graph.nodes if is_node else store.graph.edges
    lookup = {}
    for vid in set(col):
        key = (vid, is_node)
        obj = memo.get(key)
        if obj is None:
            obj = memo[key] = source[value_of(vid)]
        lookup[vid] = obj
    return lookup


def _decode_path_batch(store, batch: PathBatch, memo: dict) -> list[dict]:
    """Decode a path batch to binding dicts (the plan boundary).

    Ids repeat heavily after joins and expansions, so each column
    resolves its *unique* ids through the memo once and the rows are
    assembled with C-level ``zip``/``map`` passes.
    """
    rows = batch.rows
    if not batch.cols:
        return list(rows)
    names = list(batch.cols)
    object_columns = []
    for name in names:
        col = batch.cols[name]
        lookup = _elements(store, col, batch.kinds[name] == "node", memo)
        object_columns.append(map(lookup.__getitem__, col))
    if not any(rows):
        return [dict(zip(names, values)) for values in zip(*object_columns)]
    out = []
    for row, values in zip(rows, zip(*object_columns)):
        binding = dict(row)
        binding.update(zip(names, values))
        out.append(binding)
    return out


class BatchPathHashJoin(PhysicalOperator):
    """Decorrelate a path: build its batches once, probe per row.

    The build side is a freshly compiled path over one empty input row,
    so it is purely columnar: both sides join on interned ids and are
    gathered, never decoded here.
    """

    op = "BatchHashJoin"

    def __init__(self, probe, build, key: tuple[str, ...], est_rows, store):
        super().__init__(est_rows, (probe, build))
        self.source = _source(probe)
        self.key = key
        self.store = store

    def detail(self, params=()) -> str:
        if not self.key:
            return "cartesian"
        return "on " + ", ".join(self.key)

    def execute(self, engine):
        self.actual_loops += 1
        build = list(self.children[1].run(engine))
        key = self.key
        names = self.store._names
        b_cols, total = _concat(build)
        b_kinds = {name: kind for batch in build for name, kind in batch.kinds.items()}
        table = _hash_table(b_cols, key, total)
        for batch in self.children[0].run(engine):
            n = batch.n
            if n == 0 or total == 0:
                continue
            if not key:
                self.actual_rows += n * total
                yield PathBatch(
                    list(_repeat_each(batch.rows, total)),
                    _cartesian(b_cols, total, batch.cols, n),
                    {**b_kinds, **batch.kinds},
                    None,
                    None,
                )
                continue
            probe_keys = [
                _resolve_constraint(k, b_kinds[k], batch, names, self.source.row_vars)
                for k in key
            ]
            if any(col is None for col in probe_keys):
                continue  # the variable is set in no probe row
            sel_p, sel_b = _probe(table, probe_keys)
            m = len(sel_p)
            if m == 0:
                continue
            rows = batch.rows
            out_cols = {
                name: _gather(col, sel_p) for name, col in batch.cols.items()
            }
            out_kinds = dict(batch.kinds)
            for name, col in b_cols.items():
                if name not in out_cols:
                    out_cols[name] = _gather(col, sel_b)
                    out_kinds[name] = b_kinds[name]
            self.actual_rows += m
            yield PathBatch(
                [rows[i] for i in sel_p], out_cols, out_kinds, None, None
            )


def _residual_node_constraints(pattern, choice):
    """Label/property checks not already guaranteed by the access path."""
    labels = list(pattern.labels)
    properties = list(pattern.properties)
    if choice is not None:
        if choice.mode == "label" and choice.label in labels:
            labels.remove(choice.label)
        elif choice.mode == "prop" and (choice.key, choice.value) in properties:
            properties.remove((choice.key, choice.value))
    return tuple(labels), tuple(properties)


def _append_node_filter(planner, current, pattern, choice, est):
    """Chain a BatchFilter for the pattern's residual constraints."""
    labels, properties = _residual_node_constraints(pattern, choice)
    if not labels and not properties:
        return current, est
    from ..cypher.ast import NodePattern

    residual = NodePattern(None, labels, properties)
    est = est * planner.catalog.node_selectivity(residual)
    current = BatchFilter(
        current, planner.store, pattern.var, labels, properties, est
    )
    return current, est


def _compile_path_batched(planner, path, bound, child, in_est: float):
    """Compile one path to Seed/Filter/Expand/Pivot batch operators."""
    store = planner.store
    catalog = planner.catalog
    seed_index, choice = planner._seed_position(path, bound)
    nodes = path.node_patterns()
    est = in_est * choice.est
    current: PhysicalOperator = BatchSeed(
        child, store, nodes[seed_index], choice, est
    )
    current, est = _append_node_filter(
        planner, current, nodes[seed_index],
        None if choice.mode == "bound" else choice, est,
    )
    for i in range(seed_index, len(path.hops)):
        rel, node = path.hops[i]
        est *= catalog.hop_fanout(rel)
        current = BatchExpand(current, store, rel, node, False, est)
        current, est = _append_node_filter(planner, current, node, None, est)
    if seed_index > 0:
        current = BatchPivot(current, est)
        for i in range(seed_index - 1, -1, -1):
            rel, _ = path.hops[i]
            far = nodes[i]
            est *= catalog.hop_fanout(rel)
            current = BatchExpand(current, store, rel, far, True, est)
            current, est = _append_node_filter(planner, current, far, None, est)
    return current


def _cypher_use_hash(shared, nullable, per_row, standalone, in_est) -> bool:
    from .cypher_plan import COST_HASH_BUILD, COST_HASH_PROBE

    if not shared:
        return True
    if set(shared) & nullable:
        # A null-bound variable is *unbound* to pattern matching, which
        # a hash-join key cannot express: stay correlated.
        return False
    bind_cost = in_est * per_row
    hash_cost = standalone * COST_HASH_BUILD + in_est * COST_HASH_PROBE
    return hash_cost < bind_cost


class BatchMatchPlan:
    """A compiled (and cacheable) batched plan for one MATCH clause."""

    def __init__(self, input_op: BatchInput, root: PhysicalOperator, store):
        self.input = input_op
        self.root = root
        self.store = store
        self._memo: dict = {}
        #: The operators pre-order, and their bound row and lookup counters.
        self.ops = tuple(root.walk())
        self.row_counters = None

    def execute(
        self, rows, engine, analyze: bool = False, params=()
    ) -> list[dict]:
        self.input.rows = rows
        self.root.prepare(analyze, params)
        out: list[dict] = []
        for batch in self.root.run(engine):
            out.extend(_decode_path_batch(self.store, batch, self._memo))
        return out

    def execute_projected(
        self, rows, engine, items, analyze: bool = False, params=()
    ) -> list[tuple]:
        """Project simple RETURN items straight off the path batches.

        ``items`` are return items whose expressions are literals,
        variable references, property accesses, or COALESCEs of those
        (the caller checks, and fills the literals' slots).  An item's
        value is computed once per distinct id of the columns it reads,
        so no binding dicts are materialized.  ``rows`` is the single
        empty input row of a whole-query MATCH, so every variable the
        plan binds is a column: an unbound variable is an error, a
        property of one is null.
        """
        self.input.rows = rows
        self.root.prepare(analyze, params)
        out: list[tuple] = []
        for batch in self.root.run(engine):
            if batch.n:
                out.extend(zip(*(
                    _project(self.store, item.expr, batch, self._memo)
                    for item in items
                )))
        return out


def _project(store, expr, batch: PathBatch, memo: dict):
    """The values of one projected expression over ``batch``'s rows.

    A COALESCE takes the first non-null argument, as the engine's
    ``_eval`` does.  Over one bound variable each argument is computed
    once per distinct id still null; otherwise the arguments' columns
    are combined row by row, and an unbound variable reached is an
    error.
    """
    from ...errors import QueryError
    from ..cypher.ast import Coalesce, CypherLiteral, VarRef

    args = expr.args if isinstance(expr, Coalesce) else (expr,)
    names = {
        arg.name if isinstance(arg, VarRef) else arg.var
        for arg in args if not isinstance(arg, CypherLiteral)
    }
    cols = batch.cols
    if len(names) == 1 and names <= cols.keys():
        name = names.pop()
        col = cols[name]
        pending = _elements(store, col, batch.kinds[name] == "node", memo)
        values: dict = {}
        for arg in args:
            if isinstance(arg, CypherLiteral):
                found = dict.fromkeys(pending, arg.value)
            elif isinstance(arg, VarRef):
                found = pending
            else:
                key = arg.key
                found = {vid: obj.properties.get(key) for vid, obj in pending.items()}
            values.update(found)
            pending = {vid: pending[vid] for vid, v in found.items() if v is None}
            if not pending:
                break
        return map(values.__getitem__, col)
    columns = []
    for arg in args:
        if isinstance(arg, CypherLiteral):
            columns.append(_repeat(arg.value, batch.n))
        elif isinstance(arg, VarRef) and arg.name not in cols:
            unbound = QueryError(f"unbound variable {arg.name!r}")
            columns.append(_repeat(unbound, batch.n))
        elif (arg.name if isinstance(arg, VarRef) else arg.var) in cols:
            columns.append(_project(store, arg, batch, memo))
        else:
            columns.append(_repeat(None, batch.n))  # a property of nothing
    return map(_first_non_null, zip(*columns))


def _first_non_null(values):
    """COALESCE of one row's argument values (raising an unbound one)."""
    for value in values:
        if isinstance(value, Exception):
            raise value
        if value is not None:
            return value
    return None


def build_batched_match(planner, clause, bound, nullable) -> BatchMatchPlan:
    """Compile a MATCH clause to batched operators, planner join order."""
    from .cypher_plan import _path_variables

    input_op = BatchInput(planner.batch_size)
    current: PhysicalOperator = input_op
    bound = set(bound)
    remaining = list(range(len(clause.paths)))
    in_est = 1.0
    while remaining:
        connected = [
            i for i in remaining if _path_variables(clause.paths[i]) & bound
        ]
        pool = connected or remaining
        index = min(
            pool, key=lambda i: (planner._path_estimate(clause.paths[i], bound), i)
        )
        path = clause.paths[index]
        path_vars = _path_variables(path)
        shared = tuple(sorted(path_vars & bound))
        per_row = planner._path_estimate(path, bound)
        standalone = planner._path_estimate(path, set())
        next_est = in_est * per_row
        if _cypher_use_hash(shared, nullable, per_row, standalone, in_est):
            build = _compile_path_batched(planner, path, set(), BatchConst(), 1.0)
            current = BatchPathHashJoin(
                current, build, shared, next_est, planner.store
            )
        else:
            current = _compile_path_batched(planner, path, bound, current, in_est)
        bound |= path_vars
        in_est = next_est
        remaining.remove(index)
    return BatchMatchPlan(input_op, current, planner.store)
