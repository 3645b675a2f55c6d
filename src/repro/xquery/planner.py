"""FLWOR clause planning for the batch executor.

The paper delegates "any/all optimizations ... to the XQuery processor"
(section 3.2); this module is that processor's planner, read by the
batch executor's lowering (``repro.xquery.compile`` / ``vector``) and
by EXPLAIN. The tree-walking ``Evaluator`` does not use it: it is the
oracle and runs the clauses as written, so a planner fault shows as a
difference between the two. Planning is purely structural — it
rewrites a FLWOR's clause list, never evaluates anything — so one plan
is valid for every evaluation of the query.

Rewrites, in order:

1. **Filter hoisting** — each ``where`` conjunct moves to the earliest
   point at which all the variables it reads are bound (never across a
   group/order boundary).
2. **Let/for fusion** — ``let $x := E for $y in $x`` collapses to
   ``for $y in E`` when ``$x`` is referenced nowhere else. The section-4
   delimited wrapper has exactly this shape (``let $actualQuery := (...)
   for $tokenQuery in $actualQuery``); fusing it lets the streaming
   executor pull rows through the wrapper without materializing the
   inner query's full result.
3. **For-clause reorder** — with statistics only: independent for
   clauses run smallest estimated input first, and a
   :class:`RestoreOrderClause` re-sorts the frames into the written
   order. It is the one rewrite statistics make.
4. **Hash equi-joins** — a ``for`` followed by where-conjuncts of the
   shape ``keyOf($new) eq keyOf(stream)`` becomes a hash join. Multiple
   such conjuncts on the same new variable fuse into ONE multi-key hash
   join (a composite-key join probes one table with a key tuple instead
   of chaining a single-key join with residual pairwise filters). Only
   the leading prefix of joinable conjuncts fuses, so a non-join guard
   conjunct keeps its evaluation position and its short-circuit
   behavior.

Correctness invariants preserved by the join (see the batch executor's
apply side): NULL (empty) keys never match, cross-category key
comparisons fall back to pairwise evaluation so type errors still
surface, and NaN never matches itself.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import NamedTuple, Optional

from ..errors import XQueryError
from ..sources.spi import Predicate, ScanRequest
from . import ast
from .analysis import (bound_vars, children, free_vars, map_children,
                       subexpressions)
from .atomic import cast_to, is_node


class HashJoinClause:
    """A (for, where-eq...) group replaced by the planner.

    ``keys`` holds one ``(build_key, probe_key, condition)`` triple per
    fused equality conjunct, in conjunct order: *build_key* reads only
    the for clause's new variable, *probe_key* reads only the incoming
    tuple stream (possibly nothing, for a constant selection), and
    *condition* is the original ``eq`` comparison kept for the pairwise
    fallback path.

    ``filters`` (outer joins only) are ON conjuncts reading only the
    join variable, applied in the build phase: each build item is
    filtered once before entering the hash table. Safe because such a
    conjunct evaluates identically on a build item and on any output
    frame binding it.

    ``outer`` marks the left outer join :func:`match_outer_join` makes
    of stage 3's ``if (fn:empty($t))`` pattern: a probe tuple no build
    item matches is kept, once, with the join variable unbound. Its
    ``residuals`` are the ON conjuncts that are neither keys nor build
    filters, in conjunct order: one that does not read the join
    variable rules a probe tuple's matches out before the probe, the
    rest rule out (probe tuple, build item) pairs after it — either way
    before NULL-extension. With no keys at all the join is a product.
    """

    __slots__ = ("for_clause", "keys", "filters", "outer", "residuals")

    def __init__(self, for_clause: ast.ForClause,
                 keys: tuple[tuple[ast.XExpr, ast.XExpr, ast.XExpr], ...],
                 filters: tuple[ast.XExpr, ...] = (),
                 outer: bool = False,
                 residuals: tuple[ast.XExpr, ...] = ()):
        self.for_clause = for_clause
        self.keys = keys
        self.filters = filters
        self.outer = outer
        self.residuals = residuals


def split_conjuncts(condition: ast.XExpr) -> list:
    """Flatten nested ``and`` / ``fn-bea:and3`` conjunctions."""
    if isinstance(condition, ast.AndExpr):
        return (split_conjuncts(condition.left)
                + split_conjuncts(condition.right))
    if isinstance(condition, ast.XFunctionCall) and \
            condition.prefix == "fn-bea" and condition.local == "and3" \
            and len(condition.args) == 2:
        return (split_conjuncts(condition.args[0])
                + split_conjuncts(condition.args[1]))
    return [condition]


def hoist_filters(clauses):
    """Move each where clause to the earliest point at which all of
    its variables are bound.

    A where clause is a pure filter, so it commutes with any for/let
    over variables it does not read: both orders evaluate the same
    condition over the same bindings and drop the same tuples. The
    translator emits all fors before all wheres, so without hoisting
    only the final (for, where) pair of an N-way join would be
    adjacent and hash-joinable.
    """
    # Segments are delimited by group/order clauses: filters never
    # move across those boundaries. Within a segment, every where
    # conjunct attaches to the earliest point at which all the
    # variables it reads (among those this FLWOR declares) are bound.
    declared: set[str] = set()
    for clause in clauses:
        if isinstance(clause, (ast.ForClause, ast.LetClause)):
            declared.add(clause.var)
        elif isinstance(clause, ast.GroupClause):
            declared.add(clause.partition_var)
            declared.update(var for _e, var in clause.keys)

    segments: list[tuple[list, list]] = [([], [])]  # (binders, filters)
    boundaries: list = []
    for clause in clauses:
        if isinstance(clause, ast.WhereClause):
            # Split conjunctions (and / fn-bea:and3): a row passes
            # and3(a, b) exactly when it passes both, so
            # per-conjunct wheres keep the same rows while each
            # conjunct places independently.
            for conjunct in split_conjuncts(clause.condition):
                needed = frozenset(free_vars(conjunct) & declared)
                segments[-1][1].append(
                    (ast.WhereClause(condition=conjunct), needed))
        elif isinstance(clause, (ast.GroupClause, ast.OrderClause)):
            boundaries.append(clause)
            segments.append(([], []))
        else:
            segments[-1][0].append(clause)

    bound: set[str] = set()
    hoisted: list = []
    for index, (binders, filters) in enumerate(segments):
        filters = list(filters)

        def release() -> None:
            remaining = []
            for where, needed in filters:
                if needed <= bound:
                    hoisted.append(where)
                else:
                    remaining.append((where, needed))
            filters[:] = remaining

        release()
        for clause in binders:
            hoisted.append(clause)
            if isinstance(clause, (ast.ForClause, ast.LetClause)):
                bound.add(clause.var)
            release()
        # Anything still pending reads group/partition variables of
        # a later boundary (or is unplaceable); emit it here, in
        # source order, before the boundary clause.
        hoisted.extend(where for where, _n in filters)
        if index < len(boundaries):
            boundary = boundaries[index]
            hoisted.append(boundary)
            if isinstance(boundary, ast.GroupClause):
                bound.add(boundary.partition_var)
                bound.update(var for _e, var in boundary.keys)
    return hoisted


def _fuse_lets(clauses, return_expr: Optional[ast.XExpr]):
    """Rewrite ``let $x := E for $y in $x`` to ``for $y in E`` when $x
    is used nowhere else.

    Sound because the only consumer of the let binding is the for
    clause's source, so inlining E preserves every binding the stream
    produces; it matters because a for source can be iterated lazily
    while a let binding is a materialized sequence.
    """
    if return_expr is None:
        return list(clauses)
    fused: list = []
    index = 0
    clauses = list(clauses)
    while index < len(clauses):
        clause = clauses[index]
        follower = clauses[index + 1] if index + 1 < len(clauses) else None
        if isinstance(clause, ast.LetClause) \
                and isinstance(follower, ast.ForClause) \
                and isinstance(follower.source, ast.VarRef) \
                and follower.source.name == clause.var \
                and follower.var != clause.var \
                and not _used_later(clause.var, clauses[index + 2:],
                                    return_expr):
            fused.append(ast.ForClause(var=follower.var,
                                       source=clause.value))
            index += 2
            continue
        fused.append(clause)
        index += 1
    return fused


def _used_later(name: str, clauses, return_expr: ast.XExpr) -> bool:
    for clause in clauses:
        if isinstance(clause, ast.ForClause):
            if name in free_vars(clause.source):
                return True
            if clause.var == name:  # rebound: later uses see the new one
                return False
        elif isinstance(clause, ast.LetClause):
            if name in free_vars(clause.value):
                return True
            if clause.var == name:
                return False
        elif isinstance(clause, ast.WhereClause):
            if name in free_vars(clause.condition):
                return True
        elif isinstance(clause, ast.GroupClause):
            if clause.source_var == name:
                return True
            if any(name in free_vars(key) for key, _v in clause.keys):
                return True
            if clause.partition_var == name or \
                    name in {var for _e, var in clause.keys}:
                return False
        elif isinstance(clause, ast.OrderClause):
            if any(name in free_vars(spec.key) for spec in clause.specs):
                return True
    return name in free_vars(return_expr)


def plan_clauses(clauses, return_expr: Optional[ast.XExpr] = None,
                 estimator: "Optional[CostEstimator]" = None,
                 external_vars: frozenset = frozenset()):
    """Produce the executable clause list: hoist filters, fuse
    streaming lets, and replace (for, where-eq...) groups with (multi-
    key) hash joins. ``return_expr`` enables the let/for fusion (it is
    needed to prove a let binding is dead after the rewrite).

    With an *estimator*, independent for clauses reorder greedily
    (smallest estimated input first, original tuple order restored via
    :class:`RestoreOrderClause` ordinals): the one rewrite statistics
    make. Without an estimator the clauses keep the written order.
    The Evaluator, the differential oracle, plans nothing: it runs
    the clauses as written.
    """
    clauses = _fuse_lets(hoist_filters(clauses), return_expr)
    declared = _declared_vars(clauses)
    if estimator is not None:
        clauses = _reorder_clauses(clauses, estimator, declared,
                                   external_vars)
    planned: list = []
    bound_here: set[str] = set()
    index = 0
    while index < len(clauses):
        clause = clauses[index]
        if isinstance(clause, ast.ForClause):
            keys, consumed = _match_join_prefix(clause, clauses,
                                                index + 1, bound_here)
            if keys:
                planned.append(HashJoinClause(clause, tuple(keys)))
                bound_here.add(clause.var)
                index += 1 + consumed
                continue
        if isinstance(clause, (ast.ForClause, ast.LetClause)):
            bound_here.add(clause.var)
        elif isinstance(clause, ast.GroupClause):
            bound_here.add(clause.partition_var)
            bound_here.update(var for _e, var in clause.keys)
        planned.append(clause)
        index += 1
    return planned


def _declared_vars(clauses) -> set[str]:
    declared: set[str] = set()
    for clause in clauses:
        if isinstance(clause, (ast.ForClause, ast.LetClause)):
            declared.add(clause.var)
        elif isinstance(clause, ast.GroupClause):
            declared.add(clause.partition_var)
            declared.update(var for _e, var in clause.keys)
    return declared


def _match_join_prefix(for_clause: ast.ForClause, clauses, start: int,
                       bound_here: set[str]):
    """The maximal prefix of where clauses following *for_clause* that
    fuse into one hash join: ``([(build, probe, cond), ...], consumed)``.

    Only a leading prefix fuses — the first non-joinable where ends the
    scan — so residual conjuncts keep their original position relative
    to the join and their evaluation order among themselves.
    """
    if bound_here & free_vars(for_clause.source):
        return [], 0  # correlated source: hash table is not reusable
    keys: list = []
    index = start
    while index < len(clauses) and \
            isinstance(clauses[index], ast.WhereClause):
        triple = _match_join_conjunct(for_clause,
                                      clauses[index].condition)
        if triple is None:
            break
        keys.append(triple)
        index += 1
    return keys, index - start


def _match_join_conjunct(for_clause: ast.ForClause,
                         condition: ast.XExpr):
    """Match one ``eq`` conjunct splitting cleanly between the for
    clause's new variable and the earlier stream."""
    if not (isinstance(condition, ast.ValueComparison)
            and condition.op == "eq"):
        return None
    var = for_clause.var
    left_free = free_vars(condition.left)
    right_free = free_vars(condition.right)
    if var in left_free and var not in right_free \
            and left_free <= {var}:
        return condition.left, condition.right, condition
    if var in right_free and var not in left_free \
            and right_free <= {var}:
        return condition.right, condition.left, condition
    return None


# ---------------------------------------------------------------------------
# Stage 3's left-outer-join pattern
# ---------------------------------------------------------------------------


class OuterJoin(NamedTuple):
    """What :func:`match_outer_join` found: the left outer
    :class:`HashJoinClause` that stands for the FLWOR's last ``let``
    (None when the pattern is there but is not such a join) and the
    matched-branch record that stands for the ``if``."""

    join: Optional[HashJoinClause]
    record: ast.XExpr


def match_outer_join(clauses, return_expr, planned_clauses, is_fn,
                     external_vars: frozenset) -> Optional[OuterJoin]:
    """Recognise stage 3's left outer join (``_gen_join``)::

        for $a in A ...
        let $t := (for $b in B where <conjuncts> return $b)
        return if (fn:empty($t)) then R1 else for $b in $t return R2

    on a FLWOR's planned *clauses* and *return_expr*; None when it is
    not there. *planned_clauses* gives the planned clauses of the inner
    FLWOR, *is_fn* is ``(expr, local, arity) -> bool`` for ``fn:`` calls
    (the caller owns the static context).

    The pattern is a left outer hash join when the inner FLWOR planned
    to one hash join on ``$b`` — its equality conjuncts are the keys;
    with none, a ``for $b`` the join takes as a product — preceded only
    by conjuncts that do not read ``$b`` and followed only by conjuncts
    (a conjunct reading only ``$b`` is a build filter, any other one a
    residual), and R1 is R2 without the cells that read ``$b``, each of
    those a plain ``fn:data($b/COL)``: with ``$b`` unbound such a cell
    is an empty element, which atomizes like the child R1 does not
    have, so one R2 serves both branches. Anything else keeps ``join``
    None.
    """
    if not (clauses and isinstance(clauses[-1], ast.LetClause)
            and isinstance(return_expr, ast.IfExpr)):
        return None
    let = clauses[-1]
    inner, matched = let.value, return_expr.else_
    temp = ast.VarRef(name=let.var)
    if not (isinstance(inner, ast.FLWOR)
            and isinstance(inner.return_expr, ast.VarRef)
            and is_fn(return_expr.condition, "empty", 1)
            and return_expr.condition.args[0] == temp
            and isinstance(matched, ast.FLWOR)
            and len(matched.clauses) == 1
            and isinstance(matched.clauses[0], ast.ForClause)
            and matched.clauses[0].source == temp
            and matched.clauses[0].var == inner.return_expr.name):
        return None
    var = inner.return_expr.name
    record = matched.return_expr
    if let.var in free_vars(record) | free_vars(return_expr.then):
        return None
    clauses = list(planned_clauses(inner))
    residuals = []
    while len(clauses) > 1 and isinstance(clauses[0], ast.WhereClause):
        residuals.append(clauses.pop(0).condition)
    head, *rest = clauses
    if type(head) is ast.ForClause:
        head = HashJoinClause(head, ())
    if not (isinstance(head, HashJoinClause)
            and head.for_clause.var == var
            and all(isinstance(clause, ast.WhereClause) for clause in rest)
            and _null_extends(record, return_expr.then, var)):
        return OuterJoin(None, record)
    filters = []
    for clause in rest:
        build_only = free_vars(clause.condition) - external_vars <= {var}
        (filters if build_only else residuals).append(clause.condition)
    return OuterJoin(HashJoinClause(
        head.for_clause, head.keys, tuple(filters), outer=True,
        residuals=tuple(residuals)), record)


def _null_extends(record, unmatched, var: str) -> bool:
    """True when constructor *record* minus its children that read
    *var* — each of them exactly ``<N>{fn:data($var/COL)}</N>`` — is
    constructor *unmatched*."""
    if not (isinstance(record, ast.ElementConstructor)
            and isinstance(unmatched, ast.ElementConstructor)
            and (record.name, record.prefix, record.attributes)
            == (unmatched.name, unmatched.prefix, unmatched.attributes)):
        return False
    kept = []
    for part in record.content:
        if isinstance(part, str) or var not in free_vars(part):
            kept.append(part)
        elif not (isinstance(part, ast.ElementConstructor)
                  and not part.attributes and len(part.content) == 1
                  and not isinstance(part.content[0], str)
                  and _scan_column(part.content[0], var) is not None):
            return False
    return [p for p in kept if not isinstance(p, str)] \
        == [p for p in unmatched.content if not isinstance(p, str)]


# ---------------------------------------------------------------------------
# Cost-based planning (statistics-driven, PR 5)
# ---------------------------------------------------------------------------


class RestoreOrderClause:
    """Planner-emitted pipeline breaker that undoes a cost-based for
    reorder: sorts the frames by the ordinal tuple of ``vars`` (the for
    variables in their ORIGINAL clause order). Nested-loop iteration
    emits frames in lexicographic ordinal order, so the sort restores
    the pre-reorder stream byte-for-byte regardless of how wrong the
    statistics were.
    """

    __slots__ = ("vars",)

    def __init__(self, vars: tuple[str, ...]):
        self.vars = tuple(vars)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RestoreOrderClause({self.vars!r})"


#: Selinger-style default selectivities, used when statistics cannot
#: price a conjunct (unknown column, unhashable domain, ParamRef).
DEFAULT_SELECTIVITY = {
    "eq": 0.1, "ne": 0.9, "lt": 0.3, "le": 0.3, "gt": 0.3, "ge": 0.3,
    "in": 0.2, "isnull": 0.1, "notnull": 0.9,
}

#: A reorder must beat the original order's estimated cost by this
#: factor before it is applied: the RestoreOrderClause sort is not free
#: and statistics are estimates, so near-ties keep the SQL text's order.
REORDER_HYSTERESIS = 1.2


class CostEstimator:
    """Cardinality estimation over source statistics.

    *source_statistics* maps a for-clause source expression to a
    ``TableStatistics`` (or None when the source is not a statistics-
    bearing scan); the compiler wires it to the runtime's version-
    guarded statistics cache, so a table is looked up when a rewrite
    or an estimate first needs it. Failures degrade to "no statistics"
    — costing must never turn a plannable query into an error.
    """

    def __init__(self, source_statistics):
        self._source_statistics = source_statistics

    def table_stats(self, source: ast.XExpr):
        try:
            return self._source_statistics(source)
        except Exception:
            return None


def _as_float(value) -> Optional[float]:
    """Map an orderable domain value onto the real line for range
    interpolation (day resolution for dates is plenty for estimates)."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float, Decimal)):
        return float(value)
    if isinstance(value, datetime.datetime):
        return float(value.toordinal()) \
            + (value.hour * 3600 + value.minute * 60 + value.second) / 86400
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    if isinstance(value, datetime.time):
        return value.hour * 3600 + value.minute * 60 + value.second \
            + value.microsecond / 1e6
    return None


def predicate_selectivity(predicate, stats) -> float:
    """Estimated pass fraction of one sargable conjunct, from *stats*
    (a ``TableStatistics``) when they can price it, else a default."""
    op = predicate.op
    column = stats.column(predicate.column) if stats is not None else None
    default = DEFAULT_SELECTIVITY.get(op, 0.5)
    if column is None or isinstance(predicate.value, ParamRef):
        return default
    if op == "isnull":
        return column.null_fraction
    if op == "notnull":
        return 1.0 - column.null_fraction
    non_null = 1.0 - column.null_fraction
    ndv = column.ndv
    if op == "eq":
        return non_null / ndv if ndv else default
    if op == "in":
        width = (len(predicate.value)
                 if isinstance(predicate.value, (tuple, list)) else 1)
        return min(1.0, non_null * width / ndv) if ndv else default
    if op == "ne":
        return non_null * (1.0 - 1.0 / ndv) if ndv else default
    low = _as_float(column.low)
    high = _as_float(column.high)
    value = _as_float(predicate.value)
    if low is None or high is None or value is None:
        return default
    if high <= low:  # single-valued (or unknown-span) domain
        if op in ("lt", "gt"):
            return non_null if (value > low if op == "lt"
                                else value < low) else 0.0
        return non_null if (value >= low if op == "le"
                            else value <= low) else 0.0
    span = high - low
    if op in ("lt", "le"):
        fraction = (value - low) / span
    else:
        fraction = (high - value) / span
    return non_null * min(1.0, max(0.0, fraction))


def _shape_selectivity(condition) -> float:
    """Default selectivity for a conjunct statistics cannot price,
    keyed on its syntactic shape."""
    if isinstance(condition, ast.ValueComparison):
        return DEFAULT_SELECTIVITY.get(condition.op, 0.5)
    if isinstance(condition, ast.XFunctionCall):
        if condition.prefix == "fn" and condition.local == "empty":
            return DEFAULT_SELECTIVITY["isnull"]
        if condition.prefix == "fn" and condition.local == "exists":
            return DEFAULT_SELECTIVITY["notnull"]
        if condition.prefix == "fn-bea" and condition.local == "in3":
            return DEFAULT_SELECTIVITY["in"]
    return 0.5


def conjunct_selectivity(condition, var: str, stats,
                         external_vars: frozenset) -> float:
    """Selectivity of *condition* as a filter over *var*'s rows."""
    predicate = _sargable(condition, var, external_vars)
    if predicate is not None:
        return predicate_selectivity(predicate, stats)
    return _shape_selectivity(condition)


def _column_ndv(stats, column: Optional[str]) -> int:
    if stats is None or column is None:
        return 0
    col = stats.column(column)
    return col.ndv if col is not None else 0


class _Unit:
    """One reorderable binder: a for/let clause plus the conjuncts
    local to its variable (which travel with it)."""

    __slots__ = ("clause", "var", "is_for", "pos", "local", "deps",
                 "stats", "rows", "sel")

    def __init__(self, clause, pos: int):
        self.clause = clause
        self.var = clause.var
        self.is_for = isinstance(clause, ast.ForClause)
        self.pos = pos
        self.local: list = []       # [(pos, WhereClause)]
        self.deps: frozenset = frozenset()
        self.stats = None
        self.rows: Optional[float] = None
        self.sel = 1.0


class _Floating:
    """A conjunct referencing two or more of the run's binders; it
    places after the last binder it needs in whatever order is chosen
    (exactly where filter hoisting would have put it)."""

    __slots__ = ("pos", "where", "needs", "sel", "applied")

    def __init__(self, pos: int, where, needs: frozenset, sel: float):
        self.pos = pos
        self.where = where
        self.needs = needs
        self.sel = sel
        self.applied = False


def _reorder_clauses(clauses, estimator: CostEstimator,
                     declared: set[str], external_vars: frozenset):
    """Greedy smallest-first reorder of independent for clauses, run by
    run (a run is a maximal for/let/where stretch; group/order clauses
    are hard boundaries)."""
    out: list = []
    run: list = []
    bound: set[str] = set()

    def flush() -> None:
        nonlocal run
        if run:
            out.extend(_reorder_run(run, estimator, declared, set(bound),
                                    external_vars))
            for clause in run:
                if isinstance(clause, (ast.ForClause, ast.LetClause)):
                    bound.add(clause.var)
            run = []

    for clause in clauses:
        if isinstance(clause, (ast.ForClause, ast.LetClause,
                               ast.WhereClause)):
            run.append(clause)
        else:
            flush()
            out.append(clause)
            if isinstance(clause, ast.GroupClause):
                bound.add(clause.partition_var)
                bound.update(var for _e, var in clause.keys)
    flush()
    return out


def _join_eq_selectivity(condition, needs: frozenset, units_by_var: dict,
                         external_vars: frozenset) -> float:
    """Selectivity of a floating conjunct; equi-join conjuncts price as
    ``1/max(ndv)`` over the columns they connect (Selinger)."""
    if isinstance(condition, ast.ValueComparison) and condition.op == "eq":
        ndvs = []
        for side in (condition.left, condition.right):
            for var in needs:
                column = _scan_column(side, var)
                if column is not None:
                    unit = units_by_var.get(var)
                    ndvs.append(_column_ndv(
                        unit.stats if unit is not None else None, column))
                    break
        known = [n for n in ndvs if n]
        if known:
            return 1.0 / max(known)
        return DEFAULT_SELECTIVITY["eq"]
    return _shape_selectivity(condition)


def _simulate_cost(order, floating) -> float:
    """Cost of placing *order*'s units: sum of per-step intermediate
    cardinalities plus each for clause's scan (build) cost."""
    card = 1.0
    cost = 0.0
    placed: set[str] = set()
    applied: set[int] = set()
    for unit in order:
        placed.add(unit.var)
        if unit.is_for:
            card *= unit.rows * unit.sel
            cost += unit.rows
        for index, floater in enumerate(floating):
            if index not in applied and floater.needs <= placed:
                card *= floater.sel
                applied.add(index)
        cost += card
    return cost


#: Built-in calls that never raise: a run whose conjuncts are built
#: only of these may be reordered.
_SAFE_CALLS = frozenset(
    [("fn", f) for f in ("data", "empty", "exists", "not", "true", "false")]
    + [("fn-bea", f) for f in ("and3", "or3", "not3", "in3", "any3", "all3",
                               "distinct-records")])


def _may_raise(condition) -> bool:
    """True unless *condition* is built of comparisons, :data:`_SAFE_CALLS`,
    ``xs:`` casts of literals and data-service reads (a subquery too)."""
    for node, _in_predicate in subexpressions(condition):
        if isinstance(node, ast.Arithmetic):
            return True
        if not isinstance(node, ast.XFunctionCall):
            continue
        if node.prefix == "xs":
            if not all(isinstance(arg, ast.XLiteral) for arg in node.args):
                return True
        elif node.prefix in ("fn", "fn-bea") \
                and (node.prefix, node.local) not in _SAFE_CALLS:
            return True
    return False


def _reorder_run(run, estimator: CostEstimator, declared: set[str],
                 outer_bound: set[str], external_vars: frozenset):
    """Reorder one for/let/where run, or return it unchanged when the
    rewrite is illegal (correlation, shadowing, missing statistics, a
    conjunct that may raise) or not clearly profitable. A reorder
    changes which rows each conjunct sees first, so a run holding a
    conjunct that may raise keeps the written order: whether a
    statement raises never depends on statistics."""
    binder_vars = [c.var for c in run
                   if isinstance(c, (ast.ForClause, ast.LetClause))]
    for_count = sum(1 for c in run if isinstance(c, ast.ForClause))
    if for_count < 2 or len(set(binder_vars)) != len(binder_vars) \
            or any(isinstance(c, ast.WhereClause) and _may_raise(c.condition)
                   for c in run):
        return run
    run_vars = set(binder_vars)

    units: list[_Unit] = []
    units_by_var: dict[str, _Unit] = {}
    prefix: list = []    # wheres before any binder (stay first)
    tail: list = []      # wheres that must stay at the run's end
    floating: list[_Floating] = []
    current: Optional[_Unit] = None
    bound_in_run: set[str] = set()

    for pos, clause in enumerate(run):
        if isinstance(clause, (ast.ForClause, ast.LetClause)):
            unit = _Unit(clause, pos)
            source = clause.source if unit.is_for else clause.value
            unit.deps = frozenset(free_vars(source) & run_vars)
            if unit.is_for:
                if free_vars(source) & declared:
                    return run  # correlated for: keep the written order
                unit.stats = estimator.table_stats(source)
                if unit.stats is None or unit.stats.row_count is None:
                    return run  # cost model needs every for estimated
                unit.rows = float(unit.stats.row_count)
            units.append(unit)
            units_by_var[unit.var] = unit
            current = unit
            bound_in_run.add(clause.var)
            continue
        needed = frozenset(free_vars(clause.condition) & declared)
        if not needed <= (outer_bound | bound_in_run):
            tail.append(clause)  # reads later-bound vars; do not move
            continue
        run_deps = needed & run_vars
        if len(run_deps) >= 2:
            floating.append(_Floating(pos, clause, run_deps, 1.0))
        elif len(run_deps) == 1:
            units_by_var[next(iter(run_deps))].local.append((pos, clause))
        elif current is None:
            prefix.append(clause)
        else:
            current.local.append((pos, clause))

    for floater in floating:
        floater.sel = _join_eq_selectivity(
            floater.where.condition, floater.needs, units_by_var,
            external_vars)
    for unit in units:
        if unit.is_for:
            for _pos, where in unit.local:
                unit.sel *= conjunct_selectivity(
                    where.condition, unit.var, unit.stats, external_vars)

    # Greedy placement: lets go as soon as their dependencies are
    # bound (preserving their relative order); among ready fors, pick
    # the one minimizing the resulting intermediate cardinality.
    lets = [u for u in units if not u.is_for]
    fors = [u for u in units if u.is_for]
    order: list[_Unit] = []
    placed: set[str] = set()
    applied: set[int] = set()
    card = 1.0
    let_index = 0
    remaining = list(fors)

    def place(unit: _Unit) -> None:
        nonlocal card
        placed.add(unit.var)
        if unit.is_for:
            card *= unit.rows * unit.sel
        for index, floater in enumerate(floating):
            if index not in applied and floater.needs <= placed:
                card *= floater.sel
                applied.add(index)
        order.append(unit)

    while let_index < len(lets) or remaining:
        progressed = False
        while let_index < len(lets) \
                and lets[let_index].deps <= placed:
            place(lets[let_index])
            let_index += 1
            progressed = True
        if not remaining:
            if let_index < len(lets):
                return run  # a let is stuck (shadowed dep); bail out
            break
        best = None
        best_card = None
        for unit in remaining:
            trial = placed | {unit.var}
            trial_card = card * unit.rows * unit.sel
            for index, floater in enumerate(floating):
                if index not in applied and floater.needs <= trial:
                    trial_card *= floater.sel
            if best is None or trial_card < best_card \
                    or (trial_card == best_card and unit.pos < best.pos):
                best, best_card = unit, trial_card
        remaining.remove(best)
        place(best)
        progressed = True
        if not progressed:  # pragma: no cover - defensive
            return run

    original_cost = _simulate_cost(units, floating)
    chosen_cost = _simulate_cost(order, floating)
    if original_cost <= chosen_cost * REORDER_HYSTERESIS:
        return run

    # Emit: prefix, then each unit with its now-placeable conjuncts —
    # eq comparisons first so the join-fusion pass sees a fusable
    # prefix — then the pinned tail, then the order-restoring sort.
    emitted: list = list(prefix)
    placed = set()
    pending_floats = list(floating)
    for unit in order:
        emitted.append(unit.clause)
        placed.add(unit.var)
        ready: list = list(unit.local)
        for floater in list(pending_floats):
            if floater.needs <= placed:
                ready.append((floater.pos, floater.where))
                pending_floats.remove(floater)
        ready.sort(key=lambda entry: entry[0])
        eqs = [w for _p, w in ready
               if isinstance(w.condition, ast.ValueComparison)
               and w.condition.op == "eq"]
        rest = [w for _p, w in ready
                if not (isinstance(w.condition, ast.ValueComparison)
                        and w.condition.op == "eq")]
        emitted.extend(eqs)
        emitted.extend(rest)
    emitted.extend(where for _p, where in
                   sorted(((f.pos, f.where) for f in pending_floats)))
    emitted.extend(tail)
    original_for_vars = tuple(u.var for u in units if u.is_for)
    emitted_for_vars = tuple(u.var for u in order if u.is_for)
    if emitted_for_vars != original_for_vars:
        emitted.append(RestoreOrderClause(original_for_vars))
    return emitted


def _advance_estimate(card: Optional[float], clause,
                      estimator: CostEstimator, external_vars: frozenset,
                      var_stats: dict) -> Optional[float]:
    """Fold one planned clause into a running cardinality estimate
    (None = unknown from here on)."""
    if isinstance(clause, ast.ForClause):
        stats = estimator.table_stats(clause.source)
        var_stats[clause.var] = stats
        if card is None or stats is None:
            return None
        return card * float(stats.row_count)
    if isinstance(clause, HashJoinClause):
        var = clause.for_clause.var
        stats = estimator.table_stats(clause.for_clause.source)
        var_stats[var] = stats
        if card is None or stats is None:
            return None
        result = card * float(stats.row_count)
        for build, probe, _cond in clause.keys:
            ndv = _column_ndv(stats, _scan_column(build, var))
            probe_ndv = 0
            for probe_var, probe_stats in var_stats.items():
                column = _scan_column(probe, probe_var)
                if column is not None:
                    probe_ndv = _column_ndv(probe_stats, column)
                    break
            ok, _value = _constant_value(probe, external_vars)
            if ok:
                result *= (1.0 / ndv) if ndv \
                    else DEFAULT_SELECTIVITY["eq"]
            else:
                known = [n for n in (ndv, probe_ndv) if n]
                result *= (1.0 / max(known)) if known \
                    else DEFAULT_SELECTIVITY["eq"]
        for condition in clause.filters:
            result *= conjunct_selectivity(condition, var, stats,
                                           external_vars)
        # A left outer join keeps every probe tuple at least once.
        return max(result, card) if clause.outer else result
    if isinstance(clause, ast.WhereClause):
        if card is None:
            return None
        condition = clause.condition
        for var, stats in var_stats.items():
            if stats is None:
                continue
            predicate = _sargable(condition, var, external_vars)
            if predicate is not None:
                return card * predicate_selectivity(predicate, stats)
        return card * _shape_selectivity(condition)
    if isinstance(clause, (ast.LetClause, RestoreOrderClause,
                           ast.OrderClause)):
        return card
    if isinstance(clause, ast.GroupClause):
        return None  # group count is not modeled
    return card


def estimate_plan(planned, estimator: CostEstimator,
                  external_vars: frozenset = frozenset()) \
        -> list[Optional[float]]:
    """Estimated frames flowing OUT of each planned clause (aligned
    with *planned*; None where statistics ran out)."""
    estimates: list[Optional[float]] = []
    card: Optional[float] = 1.0
    var_stats: dict[str, object] = {}
    for clause in planned:
        card = _advance_estimate(card, clause, estimator, external_vars,
                                 var_stats)
        estimates.append(card)
    return estimates


# ---------------------------------------------------------------------------
# Source pushdown hints (the repro.sources SPI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamRef:
    """A pushdown predicate value that resolves from an external
    variable at evaluation time (``WHERE COL = ?`` translates to
    ``$p1``, whose value arrives with each execution); ``-?`` is a
    negated one."""

    name: str
    negate: bool = False


def _bound(value, lookup):
    """``(ok, value)``: a predicate value (an IN list's too) for one
    execution; ok when each parameter binds one atomic value (a number
    if negated)."""
    if isinstance(value, tuple):
        members = [_bound(item, lookup) for item in value]
        return all(ok for ok, _v in members), tuple(v for _ok, v in members)
    if not isinstance(value, ParamRef):
        return True, value
    bound = lookup(value.name)
    if len(bound) != 1 or is_node(bound[0]):
        return False, None
    if not value.negate:
        return True, bound[0]
    number = isinstance(bound[0], (int, float, Decimal)) \
        and not isinstance(bound[0], bool)
    return number, -bound[0] if number else None


def bind_scan_request(request, lookup):
    """Resolve *request*'s :class:`ParamRef` predicate values for one
    execution; *lookup* maps an external variable name to its bound
    sequence. A conjunct whose parameter does not bind (:func:`_bound`)
    is dropped (the residual filter still decides the row's fate), and
    a request left trivial becomes None.
    """
    if request is None or not any(isinstance(p.value, (ParamRef, tuple))
                                  for p in request.predicates):
        return request
    predicates = []
    for pred in request.predicates:
        ok, value = _bound(pred.value, lookup)
        if ok:
            predicates.append(Predicate(pred.column, pred.op, value))
    live = ScanRequest(columns=request.columns,
                       predicates=tuple(predicates))
    return None if live.is_trivial else live


#: Operator seen by the column when the comparison is written with the
#: column on the right (``30 lt $c/COL`` means ``COL gt 30``).
_MIRROR = {"eq": "eq", "ne": "ne", "lt": "gt", "le": "ge",
           "gt": "lt", "ge": "le"}


def scan_requests(clauses, return_expr, external_vars: frozenset,
                  is_scan_source) -> dict:
    """Advisory pushdown requests for the planned *clauses*.

    Returns ``{clause_index: ScanRequest}`` for every for/hash-join
    clause whose source *is_scan_source* recognizes as a 0-argument
    data-service scan. Each request carries:

    * the sargable conjuncts over the clause's variable — equality
      keys of a hash join against constants, plus the contiguous
      where-conjuncts the filter hoisting placed right after the
      binder (``COL op literal``, ``fn:empty``/``fn:exists`` for
      IS [NOT] NULL); constants may be literals, ``xs:`` constructor
      casts of literals, or external-variable references (emitted as
      :class:`ParamRef` for late binding);
    * the projection: the set of columns the rest of the FLWOR reads
      through the variable (None when the variable escapes whole).

    Requests are *advisory*: every conjunct stays in the plan as a
    residual filter, so a source honoring a request may only shrink
    the scan, never change the result.
    """
    hints: dict = {}
    for index, clause in enumerate(clauses):
        if isinstance(clause, HashJoinClause):
            source, var = clause.for_clause.source, clause.for_clause.var
        elif isinstance(clause, ast.ForClause):
            source, var = clause.source, clause.var
        else:
            continue
        if not is_scan_source(source):
            continue
        predicates: list = []
        if isinstance(clause, HashJoinClause):
            for build, probe, _cond in clause.keys:
                column = _scan_column(build, var)
                if column is None:
                    continue
                ok, value = _constant_value(probe, external_vars)
                if ok:
                    predicates.append(Predicate(column, "eq", value))
        follow = index + 1
        while follow < len(clauses) and \
                isinstance(clauses[follow], ast.WhereClause):
            predicate = _sargable(clauses[follow].condition, var,
                                  external_vars)
            if predicate is not None:
                predicates.append(predicate)
            follow += 1
        columns = _projection(var, clauses, return_expr, index)
        if predicates or columns is not None:
            hints[index] = ScanRequest(columns=columns,
                                       predicates=tuple(predicates))
    return hints


def _scan_column(expr, var: str) -> Optional[str]:
    """COL when *expr* is ``fn:data($var/COL)`` or ``$var/COL``."""
    if isinstance(expr, ast.XFunctionCall) and expr.prefix == "fn" \
            and expr.local == "data" and len(expr.args) == 1:
        expr = expr.args[0]
    if isinstance(expr, ast.PathExpr) \
            and isinstance(expr.base, ast.VarRef) \
            and expr.base.name == var and len(expr.steps) == 1:
        step = expr.steps[0]
        if step.name is not None and not step.predicates:
            return step.name
    return None


def _constant_value(expr, external_vars: frozenset):
    """(ok, value) when *expr* is known per-execution: a literal, an
    ``xs:`` constructor over a literal (``xs:date("2005-03-01")``), or
    an external-variable reference (→ :class:`ParamRef`)."""
    if isinstance(expr, ast.XLiteral):
        return True, expr.value
    if isinstance(expr, ast.XFunctionCall) and expr.prefix == "xs" \
            and len(expr.args) == 1 \
            and isinstance(expr.args[0], ast.XLiteral):
        try:
            result = cast_to(expr.local, [expr.args[0].value])
        except XQueryError:
            return False, None
        if len(result) == 1:
            return True, result[0]
        return False, None
    if isinstance(expr, ast.VarRef) and expr.name in external_vars:
        return True, ParamRef(expr.name)
    if isinstance(expr, ast.UnaryMinus):  # a signed number: -5, -?
        ok, value = _constant_value(expr.operand, external_vars)
        if ok and isinstance(value, ParamRef) and not value.negate:
            return True, ParamRef(value.name, negate=True)
        if ok and isinstance(value, (int, float, Decimal)) \
                and not isinstance(value, bool):
            return True, -value
    return False, None


def _sargable(condition, var: str, external_vars: frozenset):
    """The :class:`Predicate` for a sargable conjunct, else None."""
    if isinstance(condition, ast.ValueComparison) \
            and condition.op in _MIRROR:
        column = _scan_column(condition.left, var)
        if column is not None:
            ok, value = _constant_value(condition.right, external_vars)
            if ok:
                return Predicate(column, condition.op, value)
        column = _scan_column(condition.right, var)
        if column is not None:
            ok, value = _constant_value(condition.left, external_vars)
            if ok:
                return Predicate(column, _MIRROR[condition.op], value)
        return None
    if isinstance(condition, ast.XFunctionCall) \
            and condition.prefix == "fn" \
            and condition.local in ("empty", "exists") \
            and len(condition.args) == 1:
        column = _scan_column(condition.args[0], var)
        if column is not None:
            return Predicate(column, "isnull" if condition.local ==
                              "empty" else "notnull")
    if isinstance(condition, ast.XFunctionCall) \
            and condition.prefix == "fn-bea" and condition.local == "in3" \
            and len(condition.args) == 2:
        # The translator's literal IN-list shape:
        # fn-bea:in3($var/COL, (v1, v2, ...)). Literal members can
        # never be NULL, so membership matches the source's IN exactly.
        column = _scan_column(condition.args[0], var)
        if column is None:
            return None
        members = condition.args[1]
        items = members.items if isinstance(members, ast.SequenceExpr) \
            else [members]
        values: list = []
        for item in items:
            ok, value = _constant_value(item, frozenset())
            if not ok:
                return None
            values.append(value)
        if values:
            return Predicate(column, "in", tuple(values))
    if isinstance(condition, ast.XFunctionCall) \
            and condition.prefix == "fn-bea" and condition.local == "or3":
        return _in_chain(condition, var, external_vars)
    return None


def _in_chain(condition, var: str, external_vars: frozenset):
    """``COL in (...)`` for an IN list with a ``?`` member, which the
    translator makes nested ``fn-bea:or3`` over ``COL eq constant`` (a
    ``?`` may bind NULL). An OR of literals only stays residual."""
    pending, values, columns = [condition], [], set()
    while pending:
        node = pending.pop()
        if isinstance(node, ast.XFunctionCall) and node.prefix == "fn-bea" \
                and node.local == "or3" and len(node.args) == 2:
            pending.extend(reversed(node.args))
            continue
        predicate = _sargable(node, var, external_vars)
        if predicate is None or predicate.op != "eq":
            return None
        columns.add(predicate.column)
        values.append(predicate.value)
    if len(columns) != 1 \
            or not any(isinstance(value, ParamRef) for value in values):
        return None
    return Predicate(columns.pop(), "in", tuple(values))


def _projection(var: str, clauses, return_expr,
                scan_index: int) -> Optional[tuple[str, ...]]:
    """The columns the FLWOR reads through *var*, or None when the
    variable is used whole (or not at all) and the scan must stay
    full-width."""
    exprs: list = []
    for index, clause in enumerate(clauses):
        if isinstance(clause, ast.ForClause):
            if index != scan_index:
                exprs.append(clause.source)
        elif isinstance(clause, HashJoinClause):
            if index != scan_index:
                exprs.append(clause.for_clause.source)
            for build, probe, cond in clause.keys:
                exprs.extend((build, probe, cond))
        elif isinstance(clause, ast.LetClause):
            exprs.append(clause.value)
        elif isinstance(clause, ast.WhereClause):
            exprs.append(clause.condition)
        elif isinstance(clause, ast.GroupClause):
            if clause.source_var == var:
                return None  # whole rows flow into the partition
            exprs.extend(key for key, _v in clause.keys)
        elif isinstance(clause, ast.OrderClause):
            exprs.extend(spec.key for spec in clause.specs)
    if return_expr is not None:
        exprs.append(return_expr)
    used = _columns_used(var, exprs)
    if not used:
        return None
    return tuple(sorted(used))


def _columns_used(var: str, exprs) -> Optional[set]:
    """Column names reached via ``$var/COL`` paths across *exprs*;
    None as soon as any other use of *var* appears (whole-element
    use, wildcard/predicated step, shadow-prone nesting)."""
    used: set = set()

    def walk(node) -> bool:
        if isinstance(node, ast.PathExpr) \
                and isinstance(node.base, ast.VarRef) \
                and node.base.name == var:
            if not node.steps:
                return False
            first = node.steps[0]
            if first.name is None or first.predicates:
                return False
            used.add(first.name)
            for step in node.steps[1:]:
                for predicate in step.predicates:
                    if not walk(predicate):
                        return False
            return True
        if isinstance(node, ast.VarRef):
            return node.name != var
        for child in children(node):
            if not walk(child):
                return False
        return True

    for expr in exprs:
        if not walk(expr):
            return None
    return used


# ---------------------------------------------------------------------------
# Grouped-aggregation lowering (vector executor)
# ---------------------------------------------------------------------------

#: Reserved prefix for the synthetic variables that hold finalized
#: aggregate values after an :class:`AggregateClause` (a \\x00 prefix,
#: so no user query can collide).
AGG_VAR_PREFIX = "\x00agg:"

class AggregateSpec:
    """One aggregate column of an :class:`AggregateClause`.

    ``value`` is the per-row argument expression, rewritten to read the
    group *source* variable (the translator emits a fresh row variable
    per aggregate occurrence; lowering substitutes it away so identical
    aggregates unify). ``star`` marks ``fn:count($partition)`` — SQL
    ``COUNT(*)`` — which counts rows, not values. ``empty_zero``
    distinguishes 1-arg ``fn:sum`` (empty input → 0) from the
    translator's 2-arg ``fn:sum(..., ())`` (empty input → NULL).
    """

    __slots__ = ("func", "star", "distinct", "empty_zero", "value", "var")

    def __init__(self, func: str, star: bool, distinct: bool,
                 empty_zero: bool, value, var: str):
        self.func = func
        self.star = star
        self.distinct = distinct
        self.empty_zero = empty_zero
        self.value = value
        self.var = var


class AggregateClause:
    """A ``group ... by`` plus every aggregate read from its partition,
    lowered into one hash-aggregation operator.

    ``keys`` keeps the GroupClause's ``(key_expr, key_var)`` pairs —
    key expressions read ``source_var`` per row, and downstream clauses
    reference the key variables. ``specs`` are the aggregates; after
    this clause only key variables and spec variables are in scope.
    """

    __slots__ = ("source_var", "partition_var", "keys", "specs")

    def __init__(self, source_var: str, partition_var: str,
                 keys: tuple, specs: tuple):
        self.source_var = source_var
        self.partition_var = partition_var
        self.keys = keys
        self.specs = specs


def _rewrite_expr(node, hook):
    """Rebuild *node* bottom-up, replacing any sub-expression for which
    *hook* returns a non-None node (the replacement is NOT re-visited)."""
    replacement = hook(node)
    if replacement is not None:
        return replacement
    return map_children(node, lambda child: _rewrite_expr(child, hook))


def substitute_var(expr, old: str, new: str):
    """*expr* with every ``VarRef(old)`` replaced by ``VarRef(new)``.
    Callers guarantee no binding form in *expr* binds *old* or *new*,
    so no shadowing analysis is needed."""
    return _rewrite_expr(
        expr,
        lambda node: ast.VarRef(name=new)
        if isinstance(node, ast.VarRef) and node.name == old else None)


def _match_aggregate(node, partition_var: str, is_fn):
    """Match one translator-emitted aggregate call over *partition_var*.

    *is_fn* is ``(expr, local, arity) -> bool`` testing for an ``fn:``
    namespace call (supplied by the caller, which owns the static
    context for prefix resolution). Recognized shapes (stage 3's
    ``_gen_aggregate``)::

        fn:count($P)                            COUNT(*)
        fn:count((for $r in $P return V))       COUNT(V)
        fn:sum((for $r in $P return V), ())     SUM(V), empty → NULL
        fn:sum((for $r in $P return V))         SUM(V), empty → 0
        fn:avg|min|max((for $r in $P return V))
        ...(fn:distinct-values((for ...)))      DISTINCT variants

    Returns ``(func, star, distinct, empty_zero, row_var, value)`` or
    None. *value* may not read the partition, and no binder nested in
    it (a subquery's) may rebind the row variable.
    """
    if not isinstance(node, ast.XFunctionCall):
        return None
    if is_fn(node, "count", 1) and isinstance(node.args[0], ast.VarRef) \
            and node.args[0].name == partition_var:
        return ("count", True, False, False, None, None)
    empty_zero = False
    if is_fn(node, "sum", 2):
        second = node.args[1]
        if not (isinstance(second, ast.SequenceExpr) and not second.items):
            return None
        func, inner = "sum", node.args[0]
    elif is_fn(node, "sum", 1):
        func, inner, empty_zero = "sum", node.args[0], True
    elif is_fn(node, "count", 1):
        func, inner = "count", node.args[0]
    elif is_fn(node, "avg", 1):
        func, inner = "avg", node.args[0]
    elif is_fn(node, "min", 1):
        func, inner = "min", node.args[0]
    elif is_fn(node, "max", 1):
        func, inner = "max", node.args[0]
    else:
        return None
    distinct = False
    if is_fn(inner, "distinct-values", 1):
        distinct = True
        inner = inner.args[0]
    if not (isinstance(inner, ast.FLWOR) and len(inner.clauses) == 1):
        return None
    head = inner.clauses[0]
    if not (isinstance(head, ast.ForClause)
            and isinstance(head.source, ast.VarRef)
            and head.source.name == partition_var):
        return None
    value = inner.return_expr
    if partition_var in free_vars(value) or head.var in bound_vars(value):
        return None
    return (func, False, distinct, empty_zero, head.var, value)


def lower_group_aggregates(group: ast.GroupClause, post_clauses,
                           return_expr, is_fn):
    """Lower *group* plus everything downstream of it into an
    :class:`AggregateClause`.

    Walks the post-group clauses (only where/order are eligible — HAVING
    and grouped ORDER BY) and the return expression, replacing each
    recognized aggregate call with a reference to a synthetic
    ``AGG_VAR_PREFIX`` variable (structurally identical aggregates
    unify). Returns ``(clause, new_post_clauses, new_return_expr)``, or
    None when any aggregate shape is unsupported or a partition/source
    reference survives the rewrite — the caller then falls back to the
    Evaluator wholesale.
    """
    specs: list[AggregateSpec] = []

    def hook(node):
        matched = _match_aggregate(node, group.partition_var, is_fn)
        if matched is not None:
            func, star, distinct, empty_zero, row_var, value = matched
            if value is not None:
                if group.source_var in bound_vars(value):
                    return node  # left whole: its partition read fails
                value = substitute_var(value, row_var, group.source_var)
            for spec in specs:
                if (spec.func == func and spec.star == star
                        and spec.distinct == distinct
                        and spec.empty_zero == empty_zero
                        and spec.value == value):
                    return ast.VarRef(name=spec.var)
            var = f"{AGG_VAR_PREFIX}{len(specs)}"
            specs.append(AggregateSpec(func, star, distinct, empty_zero,
                                       value, var))
            return ast.VarRef(name=var)
        if isinstance(node, (ast.FLWOR, ast.QuantifiedExpr)):
            # Don't descend into binders: an aggregate buried inside one
            # leaves a partition reference behind and fails validation.
            return node
        return None

    new_post = []
    rewritten = []
    for clause in post_clauses:
        if isinstance(clause, ast.WhereClause):
            condition = _rewrite_expr(clause.condition, hook)
            new_post.append(ast.WhereClause(condition=condition))
            rewritten.append(condition)
        elif isinstance(clause, ast.OrderClause):
            new_specs = tuple(replace(spec, key=_rewrite_expr(spec.key, hook))
                              for spec in clause.specs)
            new_post.append(ast.OrderClause(specs=new_specs))
            rewritten.extend(spec.key for spec in new_specs)
        else:
            return None
    new_return = _rewrite_expr(return_expr, hook)
    rewritten.append(new_return)
    for expr in rewritten:
        fv = free_vars(expr)
        if group.partition_var in fv or group.source_var in fv:
            return None
    clause = AggregateClause(group.source_var, group.partition_var,
                             group.keys, tuple(specs))
    return clause, tuple(new_post), new_return
