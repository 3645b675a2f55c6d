"""Vectorized (columnar batch) execution of the delimited wrapper.

The tuple pipeline in ``repro.xquery.compile`` moves one row element at a
time through for/where/join stages, constructing a RECORD element per row
and re-atomizing it in the wrapper's per-cell closures — and, for the
patterns stage 3 writes outer joins, derived tables and GROUP BY inputs
in, a RECORDSET of such elements per nesting level. All of that is
schema-determined at compile time, so this module lowers the section-4
delimited wrapper onto column-oriented batches instead:

* a :class:`_Batch` holds plain Python lists, one per referenced column,
  ``None`` marking SQL NULL; operators slice, filter, and gather whole
  columns;
* scans pull entire columns through the runtime's ``scan_columns``
  columnar API (cached per storage version) and slice them into batches
  of ``batch_size`` rows;
* predicates evaluate column-wise into three-valued masks, hash joins
  (inner and left outer) build and probe on key columns, GROUP BY folds
  a hash table, ORDER BY sorts an index permutation, and the delimited
  codec's cells are encoded a column at a time;
* the plan is recursive (:func:`lower_flwor`): a source or a join build
  side is a scan or a *record-set sub-plan* — the FLWOR inside a
  ``<RECORDSET>`` — whose RECORD cells cross the boundary as untyped
  lexical columns, never as elements; an invariant subquery is such a
  sub-plan evaluated once per execution;
* the generator protocol is preserved: each stage yields batches, so
  deadlines/cancellation tick per batch (``QueryContext.tick_rows``) and
  a lazily-consumed cursor materializes O(batches fetched) rows.

Correctness contract: the vector compiler only engages for shapes it can
prove equivalent — all or nothing per statement: anything else declines
under one of :data:`DECLINE_REASONS` and the statement keeps the tuple
pipeline, as does a run whose parameter is bound to a non-scalar.
Within a supported shape the byte output is identical to the tuple
path; the one relaxation is error *granularity*: a dynamic error raised
while evaluating a batch surfaces before that batch's earlier rows are
emitted, where the tuple path would have emitted them first (the error
itself, and whether the query errors at all, are unchanged).
"""

from __future__ import annotations

import datetime
import math
import operator
import threading
from decimal import Decimal
from itertools import chain, compress, repeat
from typing import Callable, Iterator, Optional

from ..errors import XQueryDynamicError, XQueryTypeError
from ..xmlmodel import Element, QName
from ..xmlmodel.escape import escape_text, has_specials
from . import ast
from .analysis import subexpressions
from .atomic import (
    SERIALIZERS,
    UntypedAtomic,
    _coerce_for_value_comparison,
    arithmetic,
    cast_to,
    compare_values,
    general_comparison,
    is_node,
    negate,
    order_key,
    serialize_atomic,
)
from .compile import _SUBQUERY_ARGS, ACTUALS_KEY
from .evaluator import CONTEXT_KEY, _Directional, _Frame
from .functions import (
    _XS_CONSTRUCTOR_TYPES,
    BEA_URI,
    BUILTINS,
    FN_URI,
    XS_URI,
    PreparedIn3,
    bea_in3,
)
from .printer import print_module
from .planner import (
    KEY_KINDS,
    HashJoinClause,
    RestoreOrderClause,
    bind_scan_request,
    estimate_group_count,
    grouping_key,
    join_key,
    lower_group_aggregates,
)

#: Numeric xs: types with exact value semantics (int/Decimal in Python);
#: mixed comparisons within this set need no float promotion.
_EXACT_NUM_TYPES = frozenset({"short", "int", "long", "integer", "decimal"})
_FLOAT_TYPES = frozenset({"float", "double"})
_NUMERIC_TYPES = _EXACT_NUM_TYPES | _FLOAT_TYPES

#: Batch-column key for the planner's restore-order ordinals of a for
#: variable; shares the variables' reserved prefix convention.
_ORD = "\x00ord"

#: Batch-column namespace for post-aggregation scalar variables (group
#: keys and finalized aggregates): ``cols[(_GRP, var)]``.
_GRP = "\x00grp"

#: The vtype of a record-set column: already the untyped lexical form a
#: RECORD boundary leaves, so crossing another one is a rename.
_UNTYPED = "untypedAtomic"

_CMP_OPS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
            "le": operator.le, "gt": operator.gt, "ge": operator.ge}


class _VectorStats(threading.local):
    """Per-thread executor counters for tests: ``executions`` counts
    vector-plan runs, ``fallbacks`` run-time reversions to the tuple
    path, ``batches``/``rows`` the encoded output volume — a lazily
    consumed cursor over a large scan shows O(batches fetched) rows
    encoded, not O(table) — ``parallel`` the runs that scattered
    across the process pool, ``agg_groups`` the group-table entries
    the hash-aggregation stage emitted, ``join_builds`` the hash
    tables join stages built, ``join_reuses`` those they probed again
    (see :class:`_JoinInfo`), and ``generic_columns`` the encode, join-
    and group-key batch columns that took the per-cell path because
    their cells were not of one kind a kernel serves (:func:`_kernel`)."""

    def __init__(self):
        self.executions = 0
        self.fallbacks = 0
        self.batches = 0
        self.rows = 0
        self.parallel = 0
        self.agg_groups = 0
        self.join_builds = 0
        self.join_reuses = 0
        self.generic_columns = 0


VSTATS = _VectorStats()


class _Batch:
    """``n`` rows in column-major layout: ``cols[(var, column)]`` is a
    list of ``n`` scalars with ``None`` for SQL NULL; ``cols[(_ORD,
    var)]`` carries restore-order ordinals when a plan needs them."""

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: dict):
        self.n = n
        self.cols = cols


def _gather(batch: _Batch, idx: list) -> _Batch:
    cols = {key: [col[i] for i in idx] for key, col in batch.cols.items()}
    return _Batch(len(idx), cols)


def _slice_batch(batch: _Batch, lo: int, hi: int) -> _Batch:
    cols = {key: col[lo:hi] for key, col in batch.cols.items()}
    return _Batch(hi - lo, cols)


def _concat(batches: list) -> _Batch:
    batches = [b for b in batches if b.n]
    if not batches:
        return _Batch(0, {})
    if len(batches) == 1:
        return batches[0]
    cols: dict = {key: [] for key in batches[0].cols}
    for b in batches:
        for key, col in b.cols.items():
            cols[key].extend(col)
    return _Batch(sum(b.n for b in batches), cols)


_NONE = type(None)

#: Exact type -> comparison class: within one the Python operator is
#: ``compare_values`` (int/Decimal compare exactly, an untyped atomic
#: as its string). Floats promote both operands and zoned times may
#: refuse to order: those stay per cell.
_COMPARE_CLASS = {int: "n", Decimal: "n", str: "s", UntypedAtomic: "s",
                  bool: "b", datetime.date: "d"}


def _kind(col: list) -> tuple:
    """``(kind, nulls)`` of a batch column, observed in one C-level
    pass (a parameter has no static type, a source's declared one is
    not enforced): the exact type its non-NULL cells share — a ``bool``
    is no ``int`` — or ``NoneType`` when it has none, None when they
    mix; and whether it holds a NULL."""
    kinds = set(map(type, col))
    nulls = _NONE in kinds
    kinds.discard(_NONE)
    if len(kinds) > 1:
        return None, nulls
    return (kinds.pop() if kinds else _NONE), nulls


def _kernel(col: list, table: dict, columnar=None) -> tuple:
    """``(kind, table[kind], nulls)``: the per-kind rule resolved once
    for the whole column. No entry means the caller's per-cell loop —
    counted (``vector.generic_columns`` on the runtime *columnar*),
    unless the column is all NULL."""
    kind, nulls = _kind(col)
    entry = table.get(kind)
    if entry is None and kind is not _NONE:
        VSTATS.generic_columns += 1
        counter = getattr(columnar, "_generic_columns", None)
        if counter is not None:
            counter.increment()
    return kind, entry, nulls


def _canon_keys(col: list, columnar=None) -> Optional[tuple]:
    """``(eq categories, canonical key per row)`` of a join or group
    key column: ``join_key`` of every cell — None for a NULL or NaN,
    which equals nothing — resolved once by :data:`KEY_KINDS` when the
    cells are of one kind. None when a cell has no canonical form."""
    _kind_, entry, nulls = _kernel(col, KEY_KINDS, columnar)
    if entry is None:  # mixed kinds: cell by cell
        pairs = [v if v is None else join_key(v) for v in col]
        categories = {pair[0] for pair in pairs if pair}
        if None in categories:
            return None
        return categories, [pair and pair[1] for pair in pairs]
    category, canon = entry
    if canon is not None:
        keys = [v if v is None else canon(v) for v in col] if nulls \
            else list(map(canon, col))
    elif nulls:  # (no function: the key is the tagged value itself)
        keys = [v if v is None else (category, v) for v in col]
    else:
        keys = list(zip(repeat(category), col))
    return {category}, keys


def _group_keys(col: list, columnar=None) -> list:
    """``grouping_key`` of every cell of a group key column."""
    canon = _canon_keys(col, columnar)
    if canon is None:
        return list(map(grouping_key, col))  # (raises on that cell)
    keys = canon[1]
    if None in keys:  # NULL and NaN cells: grouping_key's own rule
        keys = [grouping_key(v) if key is None else key
                for key, v in zip(keys, col)]
    return keys


def _selected(mask: list) -> list:
    """Row indexes whose mask cell's effective boolean value is true; a
    mask of booleans and NULLs is its own truth."""
    if _kind(mask)[0] is bool:
        return list(compress(range(len(mask)), mask))
    return [i for i, cell in enumerate(mask) if _ebv_scalar(cell)]


def _ebv_scalar(value) -> bool:
    """Effective boolean value of a mask cell (``None`` = empty
    sequence = False), mirroring ``effective_boolean_value`` on the
    atomic-only sequences vector expressions produce."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return len(value) > 0
    if isinstance(value, (int, Decimal)):
        return value != 0
    if isinstance(value, float):
        return not math.isnan(value) and value != 0
    raise XQueryTypeError(
        f"no effective boolean value for {type(value).__name__}",
        code="FORG0006")


class _V:
    """A compiled vector expression: ``eval(state, batch)`` returns one
    scalar-or-None per row. ``vtype`` is the statically known xs: simple
    type of non-NULL cells, or None when unknown."""

    __slots__ = ("eval", "vtype")

    def __init__(self, eval_fn, vtype: Optional[str] = None):
        self.eval = eval_fn
        self.vtype = vtype


class _State:
    """Per-execution mutable context threaded through every stage;
    ``memo`` holds what is computed once per execution (subquery
    constants, see :func:`_vcompile_once`)."""

    __slots__ = ("plan", "frame", "ctx", "params", "actuals", "memo")

    def __init__(self, plan, frame: _Frame, params: dict, actuals):
        self.plan = plan
        self.frame = frame
        self.ctx = frame.variables.get(CONTEXT_KEY)
        self.params = params
        self.actuals = actuals
        self.memo: dict = {}


# ---------------------------------------------------------------------------
# Vector expression compilation
# ---------------------------------------------------------------------------


#: Why a wrapper kept the tuple path (``CompiledQuery.batched_reason``,
#: EXPLAIN's ``executor:`` line, ``vector.decline.<code>`` counters).
#: ``param_shape`` is the one run-time decline: an external parameter
#: bound to a sequence or a node.
DECLINE_REASONS = frozenset({
    "not_wrapper",          # body is not the section-4 cells over a FLWOR
    "window_bounds",        # fn:subsequence bounds are not int literals
    "duplicate_cell_name",  # two cells / record children of one name
    "record_shape",         # return is not a flat RECORD of {expr} cells
    "non_scan_source",      # for/join source: no columnar scan, no record set
    "unsupported_clause",   # cross product, scalar let, unread record set
    "unsupported_aggregate",  # a use of the group partition did not lower
    "outer_join_residual",  # outer-join pattern, not equi-keys + build filters
    "correlated_subquery",  # subquery argument reads a FLWOR variable
    "bare_row_var",         # a row variable used as a node
    "unsupported_expr",     # expression outside the vector subset
    "param_shape",
})


class _Decline(Exception):
    """Raised anywhere in the lowering: the whole wrapper keeps the
    tuple path, for *reason* (one of :data:`DECLINE_REASONS`)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Ctx:
    """Compile-time context of one wrapper: the host compiler, the
    parameter names the plan reads, the let-bound record sets no
    ``for`` has read yet, and what accepting the plan still has to do
    (plan-node numbering, tuple-compiling a subquery), deferred so that
    a decline leaves the compiler as it found it."""

    __slots__ = ("compiler", "params", "recordsets", "accept", "once")

    def __init__(self, compiler):
        self.compiler = compiler
        self.params: set[str] = set()
        self.recordsets: dict = {}
        self.accept: list = []
        self.once = False


def _vtype_of_literal(value) -> Optional[str]:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, Decimal):
        return "decimal"
    if isinstance(value, float):
        return "double"
    if isinstance(value, UntypedAtomic):
        return None
    if isinstance(value, str):
        return "string"
    return None


def _vconst(value, vtype: Optional[str]) -> _V:
    def run(state, batch):
        return [value] * batch.n

    return _V(run, vtype)


class _RowVar:
    """Environment entry of a row variable: ``schema`` maps the child
    names ``$var/NAME`` may step to onto their xs: type. A data-service
    row has its declared columns; a record-set row (see
    :class:`_Lowered`) has its RECORD's cells, all :data:`_UNTYPED`, and
    a *demand* hook: the sub-plan computes a plain-column cell only if
    somebody reads it."""

    __slots__ = ("schema", "demand")

    def __init__(self, schema: dict, demand=None):
        self.schema = schema
        self.demand = demand


class _ScalarCol:
    """Environment entry for a scalar-valued variable materialized as a
    batch column (post-aggregation group keys and aggregate results) —
    unlike a row variable, a bare reference to one of these IS the
    column."""

    __slots__ = ("key", "vtype")

    def __init__(self, key: tuple, vtype: Optional[str]):
        self.key = key
        self.vtype = vtype


def _column_ref(expr, env: dict) -> Optional[tuple]:
    """``(row variable entry, batch key)`` when *expr* is ``$var/NAME``
    over an in-scope row variable that has such a child."""
    if not (isinstance(expr, ast.PathExpr)
            and isinstance(expr.base, ast.VarRef)
            and len(expr.steps) == 1):
        return None
    step = expr.steps[0]
    row = env.get(expr.base.name)
    if (not isinstance(row, _RowVar) or step.predicates
            or step.name not in row.schema):
        return None
    return row, (expr.base.name, step.name)


def _vcolumn(expr, env: dict) -> Optional[_V]:
    """Match ``$var/COLUMN`` under ``fn:data`` — the translator's column
    access — against the in-scope row variables."""
    ref = _column_ref(expr, env)
    if ref is None:
        return None
    row, key = ref
    if row.demand is not None:
        row.demand(key[1])

    def run(state, batch):
        return batch.cols[key]

    return _V(run, row.schema[key[1]])


def _vcompile(cc: _Ctx, expr, env: dict) -> _V:
    """Lower *expr* to a vector expression over the variables in *env*
    (var -> :class:`_RowVar` / :class:`_ScalarCol`); a shape outside
    the supported subset raises :class:`_Decline`."""
    if isinstance(expr, ast.XLiteral):
        return _vconst(expr.value, _vtype_of_literal(expr.value))
    if isinstance(expr, ast.VarRef):
        entry = env.get(expr.name)
        if isinstance(entry, _ScalarCol):
            key = entry.key

            def run_scalar(state, batch):
                return batch.cols[key]

            return _V(run_scalar, entry.vtype)
        if entry is not None:
            raise _Decline("bare_row_var")  # a node sequence
        if expr.name not in cc.compiler._external_vars:
            raise _Decline("unsupported_expr")
        cc.params.add(expr.name)
        name = expr.name

        def run(state, batch):
            return [state.params[name]] * batch.n

        return _V(run)
    if isinstance(expr, ast.XFunctionCall):
        return _vcompile_call(cc, expr, env)
    if isinstance(expr, ast.ValueComparison):
        return _vcompile_value_comparison(cc, expr, env)
    if isinstance(expr, ast.GeneralComparison):
        left = _vcompile(cc, expr.left, env)
        right = _vcompile(cc, expr.right, env)
        op = expr.op

        def run(state, batch):
            xs = left.eval(state, batch)
            ys = right.eval(state, batch)
            return [general_comparison(op,
                                       [] if x is None else [x],
                                       [] if y is None else [y])
                    for x, y in zip(xs, ys)]

        return _V(run, "boolean")
    if isinstance(expr, ast.Arithmetic):
        left = _vcompile(cc, expr.left, env)
        right = _vcompile(cc, expr.right, env)
        op = expr.op

        def run(state, batch):
            out = []
            for x, y in zip(left.eval(state, batch),
                            right.eval(state, batch)):
                result = arithmetic(op,
                                    [] if x is None else [x],
                                    [] if y is None else [y])
                out.append(result[0] if result else None)
            return out

        return _V(run)
    if isinstance(expr, ast.UnaryMinus):
        operand = _vcompile(cc, expr.operand, env)

        def run(state, batch):
            out = []
            for x in operand.eval(state, batch):
                result = negate([] if x is None else [x])
                out.append(result[0] if result else None)
            return out

        return _V(run)
    raise _Decline("unsupported_expr")


def _vcompile_call(cc: _Ctx, expr: ast.XFunctionCall, env: dict) -> _V:
    compiler = cc.compiler
    uri = compiler._namespace(expr)
    local, args = expr.local, expr.args
    position = _SUBQUERY_ARGS.get((uri, local))
    if position is not None and position < len(args):
        subquery = args[position]
        if compiler._invariant_subquery(subquery):
            return _vcompile_once(cc, expr, uri, position, env)
        if any(isinstance(node, ast.FLWOR)
               for node, _p in subexpressions(subquery)):
            raise _Decline("correlated_subquery")
    if uri == FN_URI:
        if local == "data" and len(args) == 1:
            # fn:data of an already-atomic vector value is the identity.
            return _vcolumn(args[0], env) or _vcompile(cc, args[0], env)
        if local in ("empty", "exists", "not", "boolean") and len(args) == 1:
            arg = _vcompile(cc, args[0], env)
            if local == "empty":
                def run(state, batch):
                    return [x is None for x in arg.eval(state, batch)]
            elif local == "exists":
                def run(state, batch):
                    return [x is not None for x in arg.eval(state, batch)]
            elif local == "not":
                def run(state, batch):
                    return [not _ebv_scalar(x)
                            for x in arg.eval(state, batch)]
            else:
                def run(state, batch):
                    return [_ebv_scalar(x) for x in arg.eval(state, batch)]
            return _V(run, "boolean")
        if local == "true" and not args:
            return _vconst(True, "boolean")
        if local == "false" and not args:
            return _vconst(False, "boolean")
    elif uri == XS_URI:
        if local in _XS_CONSTRUCTOR_TYPES and len(args) == 1:
            arg = _vcompile(cc, args[0], env)

            def run(state, batch):
                out = []
                for x in arg.eval(state, batch):
                    if x is None:
                        out.append(None)
                    else:
                        out.append(cast_to(local, [x])[0])
                return out

            vtype = local if local != "untypedAtomic" else None
            return _V(run, vtype)
    elif uri == BEA_URI:
        if local == "not3" and len(args) == 1:
            arg = _vcompile(cc, args[0], env)

            def run(state, batch):
                return [None if x is None else not bool(x)
                        for x in arg.eval(state, batch)]

            return _V(run, "boolean")
        if local in ("and3", "or3") and len(args) == 2:
            left = _vcompile(cc, args[0], env)
            right = _vcompile(cc, args[1], env)
            want_or = local == "or3"

            def run(state, batch):
                out = []
                for x, y in zip(left.eval(state, batch),
                                right.eval(state, batch)):
                    if want_or:
                        if x is True or y is True:
                            out.append(True)
                        elif x is None or y is None:
                            out.append(None)
                        else:
                            out.append(bool(x) or bool(y))
                    else:
                        if x is False or y is False:
                            out.append(False)
                        elif x is None or y is None:
                            out.append(None)
                        else:
                            out.append(bool(x) and bool(y))
                return out

            return _V(run, "boolean")
        if local == "in3" and len(args) == 2:
            return _vcompile_in3(cc, args, env)
    raise _Decline("unsupported_expr")


def _vcompile_once(cc: _Ctx, expr: ast.XFunctionCall, uri: str,
                   position: int, env: dict) -> _V:
    """A call whose subquery argument (at *position*) the compiler
    proves invariant: a run-time constant, evaluated once per execution
    on first use by a non-empty batch (never reached, never run; a
    raise raises on every use) — as a sub-plan when it lowers, else by
    the tuple compiler under its once-memo. The builtin is applied per
    row to it and the other, vectorized, arguments; with no other
    argument (``fn-bea:scalar``, ``fn:exists``) it is one value
    broadcast; a two-argument ``in3`` probes a :class:`PreparedIn3`."""
    entry = BUILTINS.get((uri, expr.local))
    if entry is None or not entry[1] <= len(expr.args) <= entry[2]:
        raise _Decline("unsupported_expr")
    func = entry[0]
    others = [None if index == position else _vcompile(cc, arg, env)
              for index, arg in enumerate(expr.args)]
    prepared = expr.local == "in3" and len(expr.args) == 2
    subquery = expr.args[position]
    compiler = cc.compiler
    mark = (len(cc.accept), set(cc.params), dict(cc.recordsets))
    try:
        members = _subquery_members(cc, subquery, expr.local,
                                    len(others) > 1)
        slot = object()

        def constant(state):
            try:
                return state.memo[slot]
            except KeyError:
                value = members(state)
                if prepared:
                    value = PreparedIn3(value)
                state.memo[slot] = value
                return value
    except _Decline:
        del cc.accept[mark[0]:]
        cc.params, cc.recordsets = mark[1:]
        once: list = []
        cc.accept.append(lambda: once.append(compiler._subquery_once(
            expr, compiler._compile(subquery))))

        def constant(state):
            return once[0](state.frame)
    cc.once = True

    def run(state, batch):
        if not batch.n:
            return []
        members = constant(state)
        if len(others) == 1:
            result = func([members])
            return [result[0] if result else None] * batch.n
        cols = [None if other is None else other.eval(state, batch)
                for other in others]
        out = []
        for i in range(batch.n):
            if prepared:  # members is the PreparedIn3 table
                cell = cols[0][i]
                result = members([] if cell is None else [cell])
            else:
                result = func([
                    members if col is None
                    else [] if col[i] is None else [col[i]]
                    for col in cols])
            out.append(result[0] if result else None)
        return out

    return _V(run, "boolean" if expr.local != "scalar" else None)


#: The member a NULL cell of a subquery column is: like the empty
#: element the tree path holds there, it atomizes to the empty sequence.
_NULL_MEMBER = Element(QName("NULL"))


def _subquery_members(cc: _Ctx, subquery, local: str, has_needle: bool):
    """Lower an invariant subquery argument — ``(FLWOR)/COL``, the
    member column of an IN / ANY / ALL, or a bare FLWOR of RECORDs — to
    ``state -> item sequence`` on the batch executor. A column's
    members are its untyped cells (:data:`_NULL_MEMBER` for NULL); of a
    bare FLWOR its consumers read only the row count, and
    ``fn-bea:scalar`` the single cell of a single row."""
    column = None
    if (isinstance(subquery, ast.PathExpr) and len(subquery.steps) == 1
            and not subquery.steps[0].predicates):
        subquery, column = subquery.base, subquery.steps[0].name
    if not isinstance(subquery, ast.FLWOR) or (has_needle
                                               and column is None):
        raise _Decline("unsupported_expr")
    sub = lower_flwor(cc, subquery)
    sub.var, cells = "\x00sub", sub.cells
    if column is not None and column not in cells:
        raise _Decline("record_shape")
    for name in cells if column is None else (column,):
        sub.project(name)

    def members(state):
        rows = state.plan._build_side(state, sub)
        if column is not None:
            return [_NULL_MEMBER if v is None else v
                    for v in rows.cols[(sub.var, column)]]
        if local != "scalar" or rows.n != 1:
            return [True] * rows.n  # only the count is read
        if len(cells) != 1:
            raise XQueryDynamicError(
                f"scalar subquery returned {len(cells)} columns",
                code="FOBEA002")
        (value,) = rows.cols[(sub.var, next(iter(cells)))]
        return [] if value is None else [value]

    return members


def _vcompile_in3(cc: _Ctx, args, env: dict) -> _V:
    """``fn-bea:in3`` over a written-out member list: the builtin
    itself, row by row, on the members' cells."""
    needle = _vcompile(cc, args[0], env)
    listed = args[1].items if isinstance(args[1], ast.SequenceExpr) \
        else (args[1],)
    members = [_vcompile(cc, member, env) for member in listed]

    def run(state, batch):
        cols = [member.eval(state, batch) for member in members]
        out = []
        for i, x in enumerate(needle.eval(state, batch)):
            result = bea_in3([
                [] if x is None else [x],
                [_NULL_MEMBER if col[i] is None else col[i]
                 for col in cols]])
            out.append(result[0] if result else None)
        return out

    return _V(run, "boolean")


def _vcompile_value_comparison(cc: _Ctx, expr: ast.ValueComparison,
                               env: dict) -> _V:
    return _vcompare(expr.op, _vcompile(cc, expr.left, env),
                     _vcompile(cc, expr.right, env))


def _vcompare(op: str, left: _V, right: _V) -> _V:
    if op not in _CMP_OPS:
        raise _Decline("unsupported_expr")
    direct = _CMP_OPS[op]
    lt, rt = left.vtype, right.vtype
    fast = None
    if lt is not None and rt is not None:
        if lt in _EXACT_NUM_TYPES and rt in _EXACT_NUM_TYPES:
            # int/Decimal cross-compare exactly in Python, matching
            # compare_values' exact-numeric promotion.
            fast = direct
        elif lt in _NUMERIC_TYPES and rt in _NUMERIC_TYPES:
            # A float operand forces float promotion of BOTH sides
            # (Decimal-vs-float would otherwise compare exactly).
            def fast(a, b):
                return direct(float(a), float(b))
        elif lt == rt and lt in ("string", "boolean", "date", "time",
                                 "dateTime"):
            fast = direct

    if fast is not None:
        def run(state, batch):
            xs = left.eval(state, batch)
            ys = right.eval(state, batch)
            return [None if x is None or y is None else fast(x, y)
                    for x, y in zip(xs, ys)]
    else:
        def run(state, batch):
            xs = left.eval(state, batch)
            ys = right.eval(state, batch)
            shared = _COMPARE_CLASS.get(_kind(xs)[0])
            if shared is not None \
                    and shared == _COMPARE_CLASS.get(_kind(ys)[0]):
                return [None if x is None or y is None else direct(x, y)
                        for x, y in zip(xs, ys)]
            out = []
            for x, y in zip(xs, ys):
                if x is None or y is None:
                    out.append(None)
                else:
                    a, b = _coerce_for_value_comparison(x, y)
                    out.append(compare_values(op, a, b))
            return out

    return _V(run, "boolean")


# ---------------------------------------------------------------------------
# Wrapper-shape matching
# ---------------------------------------------------------------------------


def _is_fn_call(cc: _Ctx, expr, uri: str, local: str,
                arity: int) -> bool:
    return (isinstance(expr, ast.XFunctionCall) and expr.local == local
            and len(expr.args) == arity
            and cc.compiler._namespace(expr) == uri)


def _match_cell(cc: _Ctx, expr, tok: str) -> Optional[str]:
    """Match one wrapper cell against the canonical shape::

        (let $cell := fn:data($tok/NAME) return
         if (fn:empty($cell)) then "<" else
         fn:concat(">", fn-bea:xml-escape(fn-bea:serialize-atomic($cell))))

    and return NAME, or None when anything deviates."""
    if not (isinstance(expr, ast.FLWOR) and len(expr.clauses) == 1):
        return None
    let = expr.clauses[0]
    if not isinstance(let, ast.LetClause):
        return None
    value = let.value
    if not _is_fn_call(cc, value, FN_URI, "data", 1):
        return None
    path = value.args[0]
    if not (isinstance(path, ast.PathExpr)
            and isinstance(path.base, ast.VarRef)
            and path.base.name == tok and len(path.steps) == 1
            and path.steps[0].name is not None
            and not path.steps[0].predicates):
        return None
    name = path.steps[0].name
    ret = expr.return_expr
    if not isinstance(ret, ast.IfExpr):
        return None
    cond, then, else_ = ret.condition, ret.then, ret.else_
    if not (_is_fn_call(cc, cond, FN_URI, "empty", 1)
            and isinstance(cond.args[0], ast.VarRef)
            and cond.args[0].name == let.var):
        return None
    if not (isinstance(then, ast.XLiteral) and then.value == "<"):
        return None
    if not (_is_fn_call(cc, else_, FN_URI, "concat", 2)
            and isinstance(else_.args[0], ast.XLiteral)
            and else_.args[0].value == ">"):
        return None
    esc = else_.args[1]
    if not _is_fn_call(cc, esc, BEA_URI, "xml-escape", 1):
        return None
    ser = esc.args[0]
    if not (_is_fn_call(cc, ser, BEA_URI, "serialize-atomic", 1)
            and isinstance(ser.args[0], ast.VarRef)
            and ser.args[0].name == let.var):
        return None
    return name


def _match_cells(cc: _Ctx, expr, tok: str) -> list:
    if isinstance(expr, ast.SequenceExpr):
        parts = list(expr.items)
    else:
        parts = [expr]
    names = []
    for part in parts:
        name = _match_cell(cc, part, tok)
        if name is None:
            raise _Decline("not_wrapper")
        names.append(name)
    if len(set(names)) != len(names):
        # Duplicate record child names would make the tuple path's
        # per-cell fn:data multi-valued (a type error); stay exact.
        raise _Decline("duplicate_cell_name")
    return names


def _record_cells(expr, env: dict) -> tuple:
    """``(element name, {child name: content expression})`` of a return
    ``<RECORD><NAME>{expr}</NAME>...</RECORD>``, in child order."""
    if isinstance(expr, ast.VarRef) and isinstance(env.get(expr.name),
                                                   _RowVar):
        raise _Decline("bare_row_var")  # the row returned whole
    if not isinstance(expr, ast.ElementConstructor) or expr.attributes:
        raise _Decline("record_shape")
    cells: dict = {}
    for child in expr.content:
        if isinstance(child, str):
            continue
        if not (isinstance(child, ast.ElementConstructor)
                and not child.attributes and not child.prefix
                and len(child.content) == 1
                and not isinstance(child.content[0], str)):
            raise _Decline("record_shape")
        if child.name in cells:
            raise _Decline("duplicate_cell_name")
        cells[child.name] = child.content[0]
    return expr.name, cells


def _recordset_body(expr) -> Optional[ast.FLWOR]:
    """The FLWOR inside ``<RECORDSET>{FLWOR}</RECORDSET>`` (whatever
    the element is called: its consumer steps to the children)."""
    if not isinstance(expr, ast.ElementConstructor) or expr.attributes:
        return None
    parts = [part for part in expr.content if not isinstance(part, str)]
    if len(parts) == 1 and isinstance(parts[0], ast.FLWOR):
        return parts[0]
    return None


class _ScanInfo:
    """A data-service scan source (``for $var in ns:TABLE()``)."""

    __slots__ = ("var", "uri", "local", "request", "with_ordinal")
    kind = "scan"

    def __init__(self, var, uri, local, request, with_ordinal):
        self.var = var
        self.uri = uri
        self.local = local
        self.request = request
        self.with_ordinal = with_ordinal


class _Lowered:
    """One lowered FLWOR: ``stages`` — ``(kind, payload, plan node)``
    triples, a node the ``(planned FLWOR, clause index)`` EXPLAIN counts
    it under — the environment after the last, and the returned RECORD's
    cells. A cell that is a plain column of a row variable cannot raise:
    it is compiled when a reader asks (:meth:`project`) and never
    computed if nobody does; every other cell is evaluated for every
    row, as the tree path does.

    Read as a *record-set source* (``for $var in <RECORDSET>{F}
    </RECORDSET>/RECORD``) its batches carry, per ``(var, child name)``,
    what ``fn:data($var/NAME)`` yields on the tree path:
    ``UntypedAtomic(serialize_atomic(v))`` for a present value (the
    empty string included), ``None`` for an empty or absent child."""

    __slots__ = ("cc", "planned", "stages", "env", "record_name",
                 "cells", "projections", "var", "with_ordinal")
    kind = "sub"

    def __init__(self, cc, planned, stages, env, record):
        self.cc = cc
        self.planned = planned
        self.stages = stages
        self.env = env
        self.record_name, self.cells = _record_cells(record, env)
        self.projections: dict = {}
        self.var, self.with_ordinal = None, False  # set by its reader
        for name, content in self.cells.items():
            if not (_is_fn_call(cc, content, FN_URI, "data", 1)
                    and _column_ref(content.args[0], env) is not None):
                self.project(name)

    def project(self, name: str) -> _V:
        projection = self.projections.get(name)
        if projection is None:
            projection = self.projections[name] = _vcompile(
                self.cc, self.cells[name], self.env)
        return projection


class _JoinInfo:
    """``reuse``: the build key column names when the join's hash table
    may outlive its execution (see :func:`_lower_join`), else None."""

    __slots__ = ("source", "build_exprs", "probe_exprs", "cond_exprs",
                 "filter_exprs", "outer", "reuse")

    def __init__(self, source, build_exprs, probe_exprs, cond_exprs,
                 filter_exprs, outer, reuse):
        self.source = source
        self.build_exprs = build_exprs
        self.probe_exprs = probe_exprs
        self.cond_exprs = cond_exprs
        self.filter_exprs = filter_exprs
        self.outer = outer
        self.reuse = reuse


class _AggInfo:
    """Compiled hash-aggregation stage: vectorized key/value inputs plus
    the decomposition metadata the scatter executor needs.

    ``parallel_safe`` is True only when every spec's partial states
    merge associatively to the *exact* serial result: counts always do;
    sums/averages only over exact-numeric columns (float addition is
    not associative); min/max only over typed non-float columns (NaN
    breaks the fold's comparison transitivity); distinct-backed specs
    always do (ordered set union in partition order reproduces the
    serial first-occurrence order). ``group_estimate``/``row_estimate``
    come from NDV statistics and decide whether the plan scatters at
    all (worker-side partial aggregation, or one serial fold).
    """

    __slots__ = ("key_exprs", "key_vars", "specs", "value_exprs",
                 "out_vtypes", "parallel_safe", "group_estimate",
                 "row_estimate")

    def __init__(self, key_exprs, key_vars, specs, value_exprs,
                 out_vtypes, parallel_safe, group_estimate,
                 row_estimate):
        self.key_exprs = key_exprs
        self.key_vars = key_vars
        self.specs = specs
        self.value_exprs = value_exprs
        self.out_vtypes = out_vtypes
        self.parallel_safe = parallel_safe
        self.group_estimate = group_estimate
        self.row_estimate = row_estimate


def _spec_parallel_safe(spec, vtype: Optional[str]) -> bool:
    if spec.star or spec.distinct or spec.func == "count":
        return True
    if spec.func in ("sum", "avg"):
        return vtype in _EXACT_NUM_TYPES
    # min/max: a NaN inside one partition poisons that partition's fold
    # differently than the serial left-to-right fold, so floats (and
    # unknown or untyped values, which fold as floats) aggregate at the
    # parent.
    return vtype is not None and vtype != _UNTYPED \
        and vtype not in _FLOAT_TYPES


def _spec_out_vtype(spec, vtype: Optional[str]) -> Optional[str]:
    if vtype == _UNTYPED:
        vtype = None  # the folds cast untyped cells (double / string)
    if spec.func == "count":
        return "integer"
    if spec.func == "sum":
        if vtype in _EXACT_NUM_TYPES:
            return "decimal" if vtype == "decimal" else "integer"
        return "double" if vtype in _FLOAT_TYPES else None
    if spec.func == "avg":
        if vtype in _EXACT_NUM_TYPES:
            return "decimal"
        return "double" if vtype in _FLOAT_TYPES else None
    return vtype  # min/max preserve the input type


def _compile_aggregate(cc: _Ctx, agg, env: dict, lead) -> _AggInfo:
    """Vector-compile an ``AggregateClause``'s key and value expressions
    over the pre-group *env*."""
    key_exprs = [_vcompile(cc, key_expr, env)
                 for key_expr, _key_var in agg.keys]
    value_exprs = []
    out_vtypes = []
    parallel_safe = True
    for spec in agg.specs:
        if spec.star:
            value_exprs.append(None)
            out_vtypes.append("integer")
            continue
        value = _vcompile(cc, spec.value, env)
        value_exprs.append(value)
        out_vtypes.append(_spec_out_vtype(spec, value.vtype))
        if not _spec_parallel_safe(spec, value.vtype):
            parallel_safe = False
    group_estimate = None
    row_estimate = None
    estimator = cc.compiler._estimator
    if (estimator is not None and isinstance(lead, ast.ForClause)
            and lead.var == agg.source_var):
        stats = estimator.table_stats(lead.source)
        if stats is not None:
            row_estimate = stats.row_count
            group_estimate = estimate_group_count(stats, agg.keys,
                                                  agg.source_var)
    return _AggInfo(key_exprs, [kv for _k, kv in agg.keys], agg.specs,
                    value_exprs, out_vtypes, parallel_safe,
                    group_estimate, row_estimate)


def _new_agg_state(spec):
    """Fresh partial state for one aggregate: int for counts, ordered
    value list for distinct forms, ``[total, count]`` for sum/avg,
    ``[best, seen]`` for min/max. All forms pickle (they cross the
    worker pipe as partial-state tables)."""
    if spec.star or (spec.func == "count" and not spec.distinct):
        return 0
    if spec.distinct:
        return []
    if spec.func in ("sum", "avg"):
        return [None, 0]
    return [None, False]


def _fold_agg_cell(spec, states: list, j: int, cell) -> None:
    """Fold one row's value into group state *j*, replicating the tuple
    path's ``fn:sum``/``fn:avg``/``fn:min``/``fn:max``/
    ``fn:distinct-values`` folds exactly: NULL cells contribute nothing
    (the per-row value sequence is empty), untyped atomics cast to
    double (string for distinct), sums fold with ``+`` left-to-right,
    min/max keep the first value on ties."""
    if cell is None:
        return
    if spec.distinct:
        if isinstance(cell, UntypedAtomic):
            cell = str(cell)
        seen = states[j]
        for prior in seen:
            try:
                if compare_values("eq", prior, cell):
                    return
            except XQueryTypeError:
                continue
        seen.append(cell)
        return
    if isinstance(cell, UntypedAtomic):
        cell = float(cell)
    func = spec.func
    if func == "count":
        states[j] += 1
    elif func in ("sum", "avg"):
        acc = states[j]
        acc[0] = cell if acc[1] == 0 else acc[0] + cell
        acc[1] += 1
    else:
        acc = states[j]
        if not acc[1]:
            acc[0] = cell
            acc[1] = True
        elif compare_values("lt" if func == "min" else "gt",
                            cell, acc[0]):
            acc[0] = cell


def _merge_agg_states(spec, a, b):
    """Associative merge of two partial states (partition-index order:
    *a* is the earlier partition — ties and first-occurrence order
    resolve exactly as the serial fold would)."""
    if spec.star or (spec.func == "count" and not spec.distinct):
        return a + b
    if spec.distinct:
        for value in b:
            duplicate = False
            for prior in a:
                try:
                    if compare_values("eq", prior, value):
                        duplicate = True
                        break
                except XQueryTypeError:
                    continue
            if not duplicate:
                a.append(value)
        return a
    if spec.func in ("sum", "avg"):
        if b[1] == 0:
            return a
        if a[1] == 0:
            return b
        return [a[0] + b[0], a[1] + b[1]]
    if not b[1]:
        return a
    if not a[1]:
        return b
    op = "lt" if spec.func == "min" else "gt"
    return b if compare_values(op, b[0], a[0]) else a


def _final_sum_avg(spec, total, count):
    if count == 0:
        return 0 if (spec.func == "sum" and spec.empty_zero) else None
    if spec.func == "sum":
        return total
    # fn:avg's exact division rules: integer totals divide as Decimal.
    if isinstance(total, Decimal):
        return total / Decimal(count)
    if isinstance(total, int):
        return Decimal(total) / Decimal(count)
    return total / count


def _finalize_agg_state(spec, agg_state):
    """Partial state → the aggregate's final scalar (or None = NULL)."""
    func = spec.func
    if spec.distinct:
        if func == "count":
            return len(agg_state)
        if func in ("sum", "avg"):
            total, count = None, 0
            for value in agg_state:
                total = value if count == 0 else total + value
                count += 1
            return _final_sum_avg(spec, total, count)
        best, seen = None, False
        op = "lt" if func == "min" else "gt"
        for value in agg_state:
            if not seen:
                best, seen = value, True
            elif compare_values(op, value, best):
                best = value
        return best if seen else None
    if spec.star or func == "count":
        return agg_state
    if func in ("sum", "avg"):
        return _final_sum_avg(spec, agg_state[0], agg_state[1])
    return agg_state[0] if agg_state[1] else None


def _partial_agg_pays(info: _AggInfo) -> bool:
    """Scatter-or-not for an aggregate-led plan: worker-side partial
    aggregation wins when the group table is meaningfully smaller than
    its input (the gather payload is O(groups), not O(rows)); a plan it
    does not pay for runs serially. With no NDV estimate, default to
    partial aggregation — it is never wrong, only potentially no
    smaller than its input."""
    if info.group_estimate is None or not info.row_estimate:
        return True
    return info.group_estimate <= 0.5 * info.row_estimate


def _lower_source(cc: _Ctx, for_clause: ast.ForClause, hint,
                  with_ordinal: bool) -> tuple:
    """``(source, row variable entry)`` of a for / join clause: a
    columnar data-service scan, or a record-set sub-plan."""
    compiler = cc.compiler
    var, source = for_clause.var, for_clause.source
    call = compiler._scan_call(source)
    if call is not None:
        schema = compiler._columnar.column_scan_schema(*call)
        if schema is None:
            raise _Decline("non_scan_source")
        return (_ScanInfo(var, call[0], call[1], hint, with_ordinal),
                _RowVar(dict(schema)))
    # $t/RECORD over a let-bound record set nobody has read yet, or
    # over the constructor written in place.
    body = None
    if (isinstance(source, ast.PathExpr) and len(source.steps) == 1
            and not source.steps[0].predicates):
        if isinstance(source.base, ast.VarRef):
            body = cc.recordsets.pop(source.base.name, None)
        else:
            body = _recordset_body(source.base)
    if body is None:
        raise _Decline("non_scan_source")
    lowered = lower_flwor(cc, body)
    if lowered.record_name != source.steps[0].name:
        raise _Decline("record_shape")
    lowered.var, lowered.with_ordinal = var, with_ordinal
    return lowered, _RowVar(dict.fromkeys(lowered.cells, _UNTYPED),
                            lowered.project)


def _lower_join(cc: _Ctx, clause: HashJoinClause, hint, env: dict,
                with_ordinal: bool, notes: dict) -> _JoinInfo:
    """Vector-compile a hash join (extending *env*). With an empty
    *env* — a leading join — the probe keys may only read literals and
    parameters: a constant selection over the planner's unit tuple
    stream. Over a scan with no build filter and no predicate asked of
    the source, keyed by ``fn:data($v/COL)`` columns, its hash table is
    kept when the column cache serves the scan; *notes* gets the
    EXPLAIN note saying so, or why not."""
    var = clause.for_clause.var
    source, row = _lower_source(cc, clause.for_clause, hint, with_ordinal)
    build_env = {var: row}
    refs = [_is_fn_call(cc, build, FN_URI, "data", 1)
            and _column_ref(build.args[0], build_env)
            for build, _p, _c in clause.keys]
    why = ("sub-plan" if source.kind != "scan"
           else "build filters" if clause.filters
           else "computed key" if not all(refs)
           else "pushed scan" if hint is not None and hint.predicates
           else None)
    notes[id(clause)] = f"not reused: {why}" if why \
        else "reused per table version"
    reuse = None if why else tuple(ref[1][1] for ref in refs)
    builds = [_vcompile(cc, build, build_env)
              for build, _p, _c in clause.keys]
    probes = [_vcompile(cc, probe, env) for _b, probe, _c in clause.keys]
    # The pairwise condition is the ``eq`` whose two operands the
    # planner split into build and probe key, so it is assembled from
    # their lowered forms: no operand is lowered a second time.
    conds = [_vcompare(cond.op, b, p) if cond.left is build
             else _vcompare(cond.op, p, b)
             for (build, _p, cond), b, p in zip(clause.keys, builds, probes)]
    filters = [_vcompile(cc, f, build_env) for f in clause.filters]
    env[var] = row
    return _JoinInfo(source, builds, probes, conds, filters, clause.outer,
                     reuse)


def lower_flwor(cc: _Ctx, flwor: ast.FLWOR) -> _Lowered:
    """Lower one planned FLWOR — the wrapper's own, the body of a
    record set, an invariant subquery — onto batch stages, clause by
    clause: one source (scan, sub-plan, or a leading hash join), where
    / hash join / order / restore stages, and a group clause with
    everything downstream of it as one hash aggregation. A ``let`` is a
    record set bound ahead of the source for a later ``for`` (here or
    in a nested record set) to read once, or, last, the partition of an
    aggregate without GROUP BY; stage 3's outer-join ``let`` + ``if`` is
    the planner's left outer :class:`HashJoinClause`. Anything else
    raises :class:`_Decline`."""
    compiler = cc.compiler
    planned = compiler._planned(flwor)
    record = flwor.return_expr
    # (clause, the planned FLWOR whose plan node it is, node index)
    items = [(clause, planned, index)
             for index, clause in enumerate(planned.clauses)]
    last = items[-1][0]
    notes: dict = {}  # id(hash join clause) -> its EXPLAIN reuse note
    if planned.outer_join is not None:
        if planned.outer_join.join is None:
            raise _Decline("outer_join_residual")
        items[-1] = (planned.outer_join.join, planned, len(items) - 1)
        record = planned.outer_join.record
    elif isinstance(last, ast.LetClause) \
            and _recordset_body(last.value) is None:
        # SELECT aggregates without GROUP BY: ``let $P := rows`` is one
        # group over all rows (one even over none), keyed by nothing.
        # The rows are a bare source, or a FLWOR that returns its row
        # variable, whose clauses then run here in its place.
        rows, row = last.value, "\x00row"
        head = [(ast.ForClause(var=row, source=rows), planned, None)]
        if isinstance(rows, ast.FLWOR) \
                and isinstance(rows.return_expr, ast.VarRef):
            inner, row = compiler._planned(rows), rows.return_expr.name
            head = [(clause, inner, index)
                    for index, clause in enumerate(inner.clauses)]
            cc.accept.append(lambda: compiler._number(inner, notes=notes))
        items[-1:] = head + [(ast.GroupClause(
            source_var=row, partition_var=last.var, keys=()),
            planned, len(items) - 1)]
    env: dict = {}
    stages: list = []
    bound_here: list = []
    sourced = False  # a for / leading join has bound a row variable

    def order_specs(clause) -> list:
        return [(_vcompile(cc, spec.key, env), spec.ascending,
                 spec.empty_least) for spec in clause.specs]

    for at, (clause, owner, index) in enumerate(items):
        node = None if index is None else (owner, index)
        hint = owner.hints.get(index)
        if isinstance(clause, ast.LetClause):
            body = _recordset_body(clause.value)
            if body is None or sourced or clause.var in cc.recordsets:
                raise _Decline("unsupported_clause")
            cc.recordsets[clause.var] = body
            bound_here.append(clause.var)
            stages.append(("let", None, node))  # the unit tuple passes
        elif isinstance(clause, ast.ForClause):
            if sourced:  # a cross product
                raise _Decline("unsupported_clause")
            source, env[clause.var] = _lower_source(
                cc, clause, hint, clause.var in owner.ordinal_vars)
            stages.append((source.kind, source, node))
            sourced = True
        elif isinstance(clause, HashJoinClause):
            stages.append(("join", _lower_join(
                cc, clause, hint, env,
                clause.for_clause.var in owner.ordinal_vars, notes), node))
            sourced = True
        elif isinstance(clause, ast.WhereClause):
            # (ahead of the source: a conjunct that reads no row, hoisted
            # there by the planner, filters the unit tuple)
            stages.append(("where",
                           _vcompile(cc, clause.condition, env), node))
        elif not sourced:
            raise _Decline("unsupported_clause")
        elif isinstance(clause, ast.OrderClause):
            stages.append(("order", order_specs(clause), node))
        elif isinstance(clause, RestoreOrderClause):
            if not all(var in env for var in clause.vars):
                raise _Decline("unsupported_clause")
            stages.append(("restore", clause.vars, node))
        elif isinstance(clause, ast.GroupClause):
            # Lower the group plus everything downstream (HAVING,
            # grouped ORDER BY, the record) into one hash-aggregation
            # stage followed by scalar-column where/order stages.
            aggregated = lower_group_aggregates(
                clause, [item[0] for item in items[at + 1:]], record,
                compiler._is_fn)
            if aggregated is None:
                raise _Decline("unsupported_aggregate")
            agg_clause, post_clauses, record = aggregated
            info = _compile_aggregate(cc, agg_clause, env, items[0][0])
            stages.append(("agg", info, node))
            env = {key_var: _ScalarCol((_GRP, key_var), key_v.vtype)
                   for key_var, key_v in zip(info.key_vars,
                                             info.key_exprs)}
            for spec, vtype in zip(info.specs, info.out_vtypes):
                env[spec.var] = _ScalarCol((_GRP, spec.var), vtype)
            for offset, post in enumerate(post_clauses, start=1):
                node = (owner, index + offset)
                if isinstance(post, ast.WhereClause):
                    stages.append(("where", _vcompile(
                        cc, post.condition, env), node))
                else:  # OrderClause (lowering admits nothing else)
                    stages.append(("order", order_specs(post), node))
            break
        else:
            raise _Decline("unsupported_clause")
    if not sourced or any(var in cc.recordsets for var in bound_here):
        # No source at all, or a record set nobody read: the tree path
        # would still build it (and raise what it raises).
        raise _Decline("unsupported_clause")
    lowered = _Lowered(cc, planned, stages, env, record)
    cc.accept.append(lambda: compiler._number(planned, batched=True,
                                              notes=notes))
    return lowered


def try_compile_wrapper(compiler, arg) -> tuple:
    """Compile the wrapper's ``fn:string-join`` argument *arg* into
    ``(plan, None)`` — the :class:`_VectorPlan`'s ``chunks`` method is
    the chunks closure — or ``(None, one of DECLINE_REASONS)``. The
    section-4 cells are matched here, everything under them goes
    through :func:`lower_flwor`; all or nothing."""
    cc = _Ctx(compiler)
    try:
        plan = _lower_wrapper(cc, arg)
    except _Decline as decline:
        return None, decline.reason
    for step in cc.accept:
        step()
    # The plan is cached for long; what lowered it is not kept with it.
    cc.compiler, cc.accept = None, []
    return plan, None


def _lower_wrapper(cc: _Ctx, arg) -> "_VectorPlan":
    compiler = cc.compiler
    if not isinstance(arg, ast.FLWOR):
        raise _Decline("not_wrapper")
    outer_plan = compiler._planned(arg)
    outer = outer_plan.clauses
    if len(outer) != 1 or not isinstance(outer[0], ast.ForClause):
        raise _Decline("not_wrapper")
    names = _match_cells(cc, arg.return_expr, outer[0].var)

    source = outer[0].source
    window = None
    parts = compiler._subsequence_parts(source)
    if parts is not None:
        source, start, length = parts
        bounds = [bound.value if isinstance(bound, ast.XLiteral) else None
                  for bound in (start, length) if bound is not None]
        if not all(isinstance(bound, int) and not isinstance(bound, bool)
                   for bound in bounds):
            raise _Decline("window_bounds")
        window = (bounds[0],
                  bounds[0] + bounds[1] if len(bounds) == 2 else None)
    if not isinstance(source, ast.FLWOR):
        raise _Decline("not_wrapper")

    lowered = lower_flwor(cc, source)
    if list(lowered.cells) != names:
        raise _Decline("record_shape")
    cc.accept.append(lambda: compiler._number(outer_plan))
    return _VectorPlan(
        columnar=compiler._columnar,
        batch_size=compiler._batch_size,
        lowered=lowered,
        window=window,
        projections=[lowered.project(name) for name in names],
        param_names=frozenset(cc.params),
        outer_plan=outer_plan,
        scatters=not cc.once,
    )


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


def _count_rows(batches, actuals: dict, node_id) -> Iterator[_Batch]:
    """Mirror the tuple pipeline's per-stage actual-row accounting at
    batch granularity (tallied even on partial consumption)."""
    count = 0
    try:
        for b in batches:
            count += b.n
            yield b
    finally:
        actuals[node_id] = actuals.get(node_id, 0) + count


class _VectorPlan:
    __slots__ = ("columnar", "batch_size", "lowered", "stages", "window",
                 "projections", "param_names", "outer_plan",
                 "fallback", "_tuple_chunks", "module",
                 "_text",
                 "parallel_ready", "parallel_mode",
                 "partition_stage_count", "signature")

    def __init__(self, columnar, batch_size, lowered, window, projections,
                 param_names, outer_plan, scatters):
        self.columnar = columnar
        self.batch_size = batch_size
        #: The wrapper's source FLWOR, lowered; ``stages`` are its own
        #: (a sub-plan's hang off the source or join that reads it).
        self.lowered = lowered
        stages = self.stages = lowered.stages
        self.window = window
        self.projections = projections
        self.param_names = param_names
        #: The wrapper's ``for $tokenQuery`` FLWOR (its one plan node
        #: counts the rows that reach the encoder).
        self.outer_plan = outer_plan
        #: Set by the compiler: builds the tuple-path chunks closure of
        #: the same module, for a run-time parameter shape outside the
        #: scalar column model (results must stay byte-identical). Built
        #: on first use — the SQL driver never binds such a parameter.
        self.fallback = None
        self._tuple_chunks = None
        #: The module this plan was compiled from, stamped by the
        #: DSPRuntime that prepared it; only such plans scatter, because
        #: pool workers re-prepare the plan from its text.
        self.module = None
        self._text = None
        #: Scatter/gather shape analysis. A plan scatters only when it
        #: is driven by a plain scan (a leading hash join probes the
        #: unit tuple stream, a sub-plan is a pipeline of its own —
        #: there is nothing to split), holds no once-per-execution
        #: subquery (*scatters*: every worker would run it again), and
        #: what its workers send back is small next to what they read.
        #: With no pipeline breaker (order/restore need every row; agg
        #: needs every row of its group) and no window, workers run the
        #: whole pipeline including the encode and ship text ("encode").
        #: When the first breaker is a parallel-safe aggregation whose
        #: NDV estimate predicts real compression, workers fold their
        #: partition into a partial-state table and ship O(groups)
        #: ("partial_agg" mode). Every other shape would pickle O(rows)
        #: columns back to a parent that still has the whole sort or
        #: merge to do, so it runs serially — by plan shape, not by
        #: fallback. ``parallel_mode`` is read only when
        #: ``parallel_ready``.
        breakers = [i for i, (kind, _p, _i) in enumerate(stages)
                    if kind in ("order", "restore", "agg")]
        self.partition_stage_count = breakers[0] if breakers \
            else len(stages)
        kind, info = stages[breakers[0]][:2] if breakers else (None, None)
        partial = kind == "agg" and info.parallel_safe \
            and _partial_agg_pays(info)
        self.parallel_mode = "partial_agg" if partial else "encode"
        self.parallel_ready = scatters and stages[0][0] == "scan" \
            and (partial or (not breakers and window is None))
        scan0 = stages[0][1] if self.parallel_ready else None
        agg_shape = tuple(
            (len(payload.key_vars),)
            + tuple((s.func, s.star, s.distinct, s.empty_zero)
                    for s in payload.specs)
            for kind, payload, _i in stages if kind == "agg")
        self.signature = (
            tuple(kind for kind, _p, _i in stages),
            window,
            len(projections),
            tuple(sorted(param_names)),
            (scan0.uri, scan0.local, scan0.with_ordinal)
            if scan0 is not None else None,
            self.parallel_mode,
            agg_shape,
        )

    # -- entry ------------------------------------------------------------

    def _scalar_params(self, frame: _Frame) -> Optional[dict]:
        """The plan's external parameters as scalars (None = NULL), or
        None when one is sequence- or node-valued: outside the scalar
        column model, where only the tuple path is exact."""
        params: dict = {}
        for name in self.param_names:
            bound = frame.variables.get(name, [])
            if len(bound) > 1 or (bound and is_node(bound[0])):
                return None
            params[name] = bound[0] if bound else None
        return params

    def xquery_text(self) -> str:
        """The plan's query as text, for shipping to pool workers:
        printed on the first scatter, kept for the next."""
        if self._text is None:
            self._text = print_module(self.module)
        return self._text

    def chunks(self, frame: _Frame) -> Iterator[str]:
        params = self._scalar_params(frame)
        if params is None:
            VSTATS.fallbacks += 1
            note = getattr(self.columnar, "note_decline", None)
            if note is not None:
                note("param_shape")
            if self._tuple_chunks is None:
                self._tuple_chunks = self.fallback()
            # The fallback numbers its own plan nodes: its row counts
            # do not belong under this plan's ids.
            frame.variables.pop(ACTUALS_KEY, None)
            return self._tuple_chunks(frame)
        state = _State(self, frame, params,
                       frame.variables.get(ACTUALS_KEY))
        VSTATS.executions += 1
        if self.parallel_ready and state.actuals is None \
                and self.module is not None:
            # EXPLAIN (actuals) stays serial: per-node row accounting
            # happens inside worker processes and cannot be merged.
            gathered = self.columnar.try_parallel(self, state)
            if gathered is not None:
                VSTATS.parallel += 1
                return gathered
        return self._encode(state, self._batches(state))

    # -- scatter/gather (engine.parallel) ----------------------------------

    def run_partition(self, frame: _Frame, spec):
        """Worker-side entry: run this plan over one partition (the
        signature check guarantees the parent chose the same mode).

        In ``"encode"`` mode returns ``(chunk_text, out_rows)`` — the
        partition's fully encoded output. In ``"partial_agg"`` mode
        returns ``(table, scanned)`` where *table* is the partition's
        partial-state group table in first-seen order and *scanned* is
        the partition's scanned (post-pushdown, pre-filter) row count —
        the parent's admission charge.
        """
        params = self._scalar_params(frame)
        if params is None:
            raise XQueryTypeError(
                "parameter shape outside the vector subset",
                code="FORG0006")
        state = _State(self, frame, params, None)
        scanned: list = [0]
        batches = self._scan(state, self.stages[0][1], partition=spec,
                             scanned=scanned)
        # Breaker stages never sit inside the prefix: where/join only.
        batches = self._run_stages(
            state, batches, self.stages[1:self.partition_stage_count])
        if self.parallel_mode == "partial_agg":
            info = self.stages[self.partition_stage_count][1]
            table = self._fold_groups(state, batches, info)
            return [(canon, record[0], record[1])
                    for canon, record in table.items()], scanned[0]
        out_rows = 0

        def counted(source=batches):
            nonlocal out_rows
            for b in source:
                out_rows += b.n
                yield b

        text = "".join(self._encode(state, counted()))
        return text, out_rows

    def gather_partial(self, state: _State, parts) -> Iterator[str]:
        """Parent-side merge for ``"partial_agg"`` mode: *parts* is the
        per-partition ``(table, scanned)`` list in partition
        index order. Partitions are contiguous slices of the serial
        scan order, so merging their first-seen group tables in index
        order reproduces the serial group order, and every partial
        state's merge is associative (``parallel_safe`` gated the mode),
        so finalized values match the serial fold exactly. The order/
        window/encode suffix then runs in-process as usual."""
        agg_index = self.partition_stage_count
        info = self.stages[agg_index][1]
        specs = info.specs
        groups: dict = {}
        for table, _scanned in parts:
            for canon, key_values, states in table:
                record = groups.get(canon)
                if record is None:
                    groups[canon] = (key_values, states)
                else:
                    merged = record[1]
                    for j, spec in enumerate(specs):
                        merged[j] = _merge_agg_states(spec, merged[j],
                                                      states[j])
        self._count_groups(len(groups))
        # Only where/order stages survive the aggregate lowering.
        batches = self._run_stages(
            state, self._group_batches(info, groups),
            self.stages[agg_index + 1:])
        if self.window is not None:
            batches = self._window_batches(batches)
        return self._encode(state, batches)

    def _batches(self, state: _State) -> Iterator[_Batch]:
        batches = self._open(state, self.lowered)
        if self.window is not None:
            batches = self._window_batches(batches)
        if state.actuals is not None:
            batches = _count_rows(batches, state.actuals,
                                  (self.outer_plan.fid, 0))
        return batches

    def _open(self, state: _State, lowered: _Lowered) -> Iterator[_Batch]:
        """The batch stream of one lowered FLWOR — the wrapper's, or a
        sub-plan's: its stages chained onto the planner's unit tuple
        stream (one row, no bindings), which a source stage replaces
        with its rows and a leading hash join probes as it is."""
        return self._run_stages(state, iter((_Batch(1, {}),)),
                                lowered.stages)

    def _run_stages(self, state: _State, batches,
                    stages) -> Iterator[_Batch]:
        """Chain *stages* onto *batches*, each stage counting its
        output rows under its own plan node when EXPLAIN asked for
        actuals."""
        for kind, payload, node in stages:
            if kind == "where":
                batches = self._where(state, batches, payload)
            elif kind == "join":
                batches = self._join(state, batches, payload)
            elif kind == "order":
                batches = self._order(state, batches, payload)
            elif kind == "agg":
                batches = self._aggregate(state, batches, payload)
            elif kind == "restore":
                batches = self._restore(state, batches, payload)
            elif kind != "let":  # (a record-set let: read downstream)
                batches = self._source(state, batches, payload)
            if state.actuals is not None and node is not None:
                batches = _count_rows(batches, state.actuals,
                                      (node[0].fid, node[1]))
        return batches

    # -- stages -----------------------------------------------------------

    def _scan_columns(self, state: _State, info: _ScanInfo,
                      partition=None):
        request = bind_scan_request(info.request, state.frame.lookup)
        columns, values, nrows = self.columnar.scan_columns(
            info.uri, info.local, context=state.ctx, scan=request,
            partition=partition)
        colmap = {name: col
                  for (name, _xs), col in zip(columns, values)}
        return colmap, nrows

    def _source(self, state: _State, unit, source) -> Iterator[_Batch]:
        """The rows of a scan or sub-plan *source*, if the unit tuple
        reaches it (a conjunct ahead of the source may have dropped
        it: then the source is never opened)."""
        for _ in unit:
            if source.kind == "scan":
                yield from self._scan(state, source)
            else:
                yield from self._subplan(state, source)

    def _scan(self, state: _State, info: _ScanInfo, partition=None,
              scanned=None) -> Iterator[_Batch]:
        colmap, nrows = self._scan_columns(state, info, partition)
        if scanned is not None:
            scanned[0] = nrows
        var = info.var
        size = self.batch_size
        for start in range(0, nrows, size):
            stop = min(start + size, nrows)
            cols = {(var, name): col[start:stop]
                    for name, col in colmap.items()}
            if info.with_ordinal:
                cols[(_ORD, var)] = list(range(start, stop))
            batch = _Batch(stop - start, cols)
            if state.ctx is not None:
                # Batch granularity is the tick granularity: deadline /
                # cancellation latency is bounded by one batch even when
                # the columns came from the runtime's columnar cache.
                state.ctx.tick_rows(batch.n)
            yield batch

    def _subplan(self, state: _State, sub: _Lowered) -> Iterator[_Batch]:
        """Run a record-set sub-plan and re-key its RECORD cells as the
        columns of ``sub.var`` — the RECORD boundary, without the
        RECORD: a typed cell becomes its untyped lexical form, a cell
        that is a column of an inner record set is already one."""
        var = sub.var
        cells = [((var, name), projection, projection.vtype != _UNTYPED)
                 for name, projection in sub.projections.items()]
        position = 0
        for b in self._open(state, sub):
            cols = {}
            for key, projection, typed in cells:
                col = projection.eval(state, b)
                if typed:
                    col = [None if v is None
                           else UntypedAtomic(serialize_atomic(v))
                           for v in col]
                cols[key] = col
            if sub.with_ordinal:
                cols[(_ORD, var)] = list(range(position, position + b.n))
                position += b.n
            if state.ctx is not None:
                state.ctx.tick_rows(b.n)
            yield _Batch(b.n, cols)

    def _build_side(self, state: _State, source) -> _Batch:
        """A join's whole build side as one batch."""
        var = source.var
        if source.kind == "scan":
            colmap, nrows = self._scan_columns(state, source)
            return _Batch(nrows, {(var, name): col
                                  for name, col in colmap.items()})
        batches = [b for b in self._subplan(state, source) if b.n]
        if not batches:  # still one (empty) column per cell
            return _Batch(0, {(var, name): []
                              for name in source.projections})
        return _concat(batches)

    def _where(self, state: _State, batches, condition: _V) \
            -> Iterator[_Batch]:
        for b in batches:
            idx = _selected(condition.eval(state, b))
            if len(idx) == b.n:
                yield b
            elif idx:
                yield _gather(b, idx)

    def _join(self, state: _State, batches, info: _JoinInfo) \
            -> Iterator[_Batch]:
        first = next(batches, None)
        if first is None:
            return  # nothing to probe with: the build side stays shut
        batches = chain((first,), batches)
        scan = info.source
        build = self._build_side(state, scan)
        # Absorbed build filters run once, before hashing; compacting
        # between conjuncts preserves the tuple path's short-circuit
        # (a later filter never sees a row an earlier one dropped).
        for filter_expr in info.filter_exprs:
            idx = _selected(filter_expr.eval(state, build))
            if len(idx) != build.n:
                build = _gather(build, idx)
        if scan.with_ordinal:
            # Entry index within the post-filter build order — exactly
            # the tuple path's enumerate() positions.
            build.cols[(_ORD, scan.var)] = list(range(build.n))
        # A hash table over cached columns is kept beside them, keyed by
        # the key column names, for every execution over that table
        # version. One assignment publishes it: two first executions
        # may both build, and the last to assign wins.
        tables = info.reuse and self.columnar.join_tables(
            scan.uri, scan.local, build.cols[(scan.var, info.reuse[0])])
        hashed = tables.get(info.reuse) if tables else None
        name = "join_builds" if hashed is None else "join_reuses"
        setattr(VSTATS, name, getattr(VSTATS, name) + 1)
        getattr(self.columnar, "_" + name).increment()
        if hashed is None:
            # Keys are canonicalised a column at a time (see
            # _canon_keys); a row holding a NULL or NaN key is not
            # stored: eq against it never matches. A key with no
            # canonical form, or a key column mixing comparison
            # categories, sends every probe to the exact pairwise path.
            table: dict = {}
            canons = [_canon_keys(e.eval(state, build), self.columnar)
                      for e in info.build_exprs]
            pairwise = not all(canons) \
                or any(len(found) > 1 for found, _keys in canons)
            if not pairwise:
                for i, key in enumerate(zip(*[k for _c, k in canons])):
                    if None not in key:
                        table.setdefault(key, []).append(i)
            hashed = (None if pairwise else [c for c, _k in canons],
                      table, pairwise)
            if tables is not None:
                tables[info.reuse] = hashed
        categories, table, pairwise = hashed

        outer = info.outer
        for b in batches:
            probe_idx: list = []
            build_idx: list = []
            matched = None
            if not pairwise:
                probes = [_canon_keys(e.eval(state, b), self.columnar)
                          for e in info.probe_exprs]
                # (against no build key at all there is nothing to
                # compare, whatever the category)
                if all(probe and (probe[0] <= found or not found)
                       for probe, found in zip(probes, categories)):
                    matched = map(table.get,
                                  zip(*[keys for _c, keys in probes]))
            if matched is None:
                # A category the build side does not hold: eq decides
                # (or raises its type error), pair by pair.
                matched = (self._pairwise_row(state, b, i, build, info)
                           for i in range(b.n))
            for i, matches in enumerate(matched):
                if not matches:
                    if not outer:
                        continue
                    # Left outer: no build entry matched (a NULL key
                    # matches none) — the probe row goes on, once, with
                    # the build side's columns NULL.
                    matches = (None,)
                for entry in matches:
                    probe_idx.append(i)
                    build_idx.append(entry)
            if not probe_idx:
                continue
            cols = {key: [col[i] for i in probe_idx]
                    for key, col in b.cols.items()}
            if outer:
                for key, col in build.cols.items():
                    cols[key] = [None if e is None else col[e]
                                 for e in build_idx]
            else:
                for key, col in build.cols.items():
                    cols[key] = [col[e] for e in build_idx]
            out = _Batch(len(probe_idx), cols)
            if state.ctx is not None:
                state.ctx.tick_rows(out.n)
            yield out

    def _pairwise_row(self, state: _State, b: _Batch, i: int,
                      build: _Batch, info: _JoinInfo) -> list:
        """Exact fallback: re-evaluate the original eq conditions per
        (probe row, build entry) pair, conjuncts short-circuiting per
        entry like the tuple path's ``all()``."""
        matches = []
        probe_cells = {key: col[i] for key, col in b.cols.items()}
        for entry in range(build.n):
            cols = {key: [cell] for key, cell in probe_cells.items()}
            for key, col in build.cols.items():
                cols[key] = [col[entry]]
            pair = _Batch(1, cols)
            if all(_ebv_scalar(cond.eval(state, pair)[0])
                   for cond in info.cond_exprs):
                matches.append(entry)
        return matches

    def _fold_groups(self, state: _State, batches,
                     info: _AggInfo) -> dict:
        """Consume *batches* into a group table: canonical key tuple →
        ``(key_values, [partial state per spec])`` in first-seen order.
        Shared by the serial stage (which finalizes it) and the worker
        side of partial aggregation (which ships it)."""
        specs = info.specs
        groups: dict = {}
        for b in batches:
            if state.ctx is not None:
                # The group table buffers whole-input state, so
                # admission charges the pre-aggregation scanned rows
                # (ticks happened at scan granularity already).
                state.ctx.rows_buffered += b.n
            key_cols = [key.eval(state, b) for key in info.key_exprs]
            value_cols = [None if value is None else value.eval(state, b)
                          for value in info.value_exprs]
            # Rows partitioned by canonical key in row order: groups
            # are first seen, and a group's cells folded, in the order
            # a row-at-a-time fold would.
            parts: dict = {}
            if key_cols:
                canons = [_group_keys(col, self.columnar)
                          for col in key_cols]
                for i, canon in enumerate(zip(*canons)):
                    parts.setdefault(canon, []).append(i)
            else:
                parts[()] = range(b.n)
            # SUM / AVG over exact numerics fold a group's cells at
            # once, by the same ``+`` left to right (float addition
            # through ``sum`` is not that fold on every Python).
            summed = [col is not None and not spec.distinct
                      and spec.func in ("sum", "avg")
                      and _kind(col)[0] in (int, Decimal)
                      for spec, col in zip(specs, value_cols)]
            for canon, idx in parts.items():
                record = groups.get(canon)
                if record is None:
                    record = groups[canon] = (
                        [col[idx[0]] for col in key_cols],
                        [_new_agg_state(spec) for spec in specs])
                states = record[1]
                for j, spec in enumerate(specs):
                    col = value_cols[j]
                    if col is None:  # COUNT(*)
                        states[j] += len(idx)
                    elif not summed[j]:
                        for i in idx:
                            _fold_agg_cell(spec, states, j, col[i])
                    else:
                        cells = [col[i] for i in idx
                                 if col[i] is not None]
                        if cells:
                            acc = states[j]
                            acc[0] = sum(cells, acc[0]) if acc[1] \
                                else sum(cells[1:], cells[0])
                            acc[1] += len(cells)
        return groups

    def _count_groups(self, n_groups: int) -> None:
        VSTATS.agg_groups += n_groups
        queries = getattr(self.columnar, "_agg_queries", None)
        if queries is not None:
            queries.increment()
        counter = getattr(self.columnar, "_agg_groups", None)
        if counter is not None:
            counter.add(n_groups)

    def _group_batches(self, info: _AggInfo, groups: dict) \
            -> Iterator[_Batch]:
        """Finalize a group table into scalar-column batches: one
        ``(_GRP, var)`` column per group key and per aggregate."""
        if not groups and not info.key_vars:
            # Aggregates without GROUP BY: one group, even over no rows.
            groups = {(): ([], [_new_agg_state(s) for s in info.specs])}
        records = list(groups.values())
        size = self.batch_size
        for start in range(0, len(records), size):
            chunk = records[start:start + size]
            cols = {}
            for k, var in enumerate(info.key_vars):
                cols[(_GRP, var)] = [record[0][k] for record in chunk]
            for j, spec in enumerate(info.specs):
                cols[(_GRP, spec.var)] = [
                    _finalize_agg_state(spec, record[1][j])
                    for record in chunk]
            yield _Batch(len(chunk), cols)

    def _aggregate(self, state: _State, batches,
                   info: _AggInfo) -> Iterator[_Batch]:
        groups = self._fold_groups(state, batches, info)
        self._count_groups(len(groups))
        yield from self._group_batches(info, groups)

    def _order(self, state: _State, batches, specs) -> Iterator[_Batch]:
        big = _concat(list(batches))  # pipeline breaker
        if big.n == 0:
            return
        key_cols = [key.eval(state, big) for key, _a, _e in specs]

        def sort_key(i: int):
            keys = []
            for col, (_k, ascending, empty_least) in zip(key_cols, specs):
                value = col[i]
                key = order_key(value)
                if value is None and not empty_least:
                    key = (2, 0, 0)  # empty greatest
                keys.append(_Directional(key, ascending))
            return keys

        # sorted() is stable over row indexes, so ties keep the input
        # order — the same permutation the tuple path's frame sort picks.
        yield from self._reslice(big, sorted(range(big.n), key=sort_key))

    def _restore(self, state: _State, batches, vars) -> Iterator[_Batch]:
        big = _concat(list(batches))  # pipeline breaker
        if big.n == 0:
            return
        ordinal_cols = [big.cols[(_ORD, var)] for var in vars]

        def sort_key(i: int):
            return tuple(col[i] for col in ordinal_cols)

        yield from self._reslice(big, sorted(range(big.n), key=sort_key))

    def _reslice(self, big: _Batch, order: list) -> Iterator[_Batch]:
        size = self.batch_size
        for start in range(0, len(order), size):
            yield _gather(big, order[start:start + size])

    def _window_batches(self, batches) -> Iterator[_Batch]:
        """Apply the LIMIT/OFFSET window (fn:subsequence with literal
        bounds): emit 1-based positions begin <= p < end, stopping the
        upstream pipeline as soon as the window is exhausted."""
        begin, end = self.window
        position = 0  # rows seen from upstream so far
        if end is not None and end <= max(begin, 1):
            return
        for b in batches:
            lo = max(begin - 1 - position, 0)
            hi = b.n if end is None else max(0, min(b.n,
                                                    end - 1 - position))
            position += b.n
            if hi > lo:
                if lo == 0 and hi == b.n:
                    yield b
                else:
                    yield _slice_batch(b, lo, hi)
            if end is not None and position >= end - 1:
                return

    # -- encode -----------------------------------------------------------

    def _encode(self, state: _State, batches) -> Iterator[str]:
        projections = self.projections
        stats = VSTATS
        for b in batches:
            if b.n == 0:
                continue
            parts = []
            for projection in projections:
                col = projection.eval(state, b)
                kind, text, nulls = _kernel(col, SERIALIZERS,
                                            self.columnar)
                if text is None:  # mixed kinds: cell by cell
                    parts.append([
                        "<" if v is None
                        else ">" + escape_text(serialize_atomic(v))
                        for v in col])
                    continue
                # One kind: its serialiser, resolved once. Only string
                # forms can hold XML specials (elsewhere skipping
                # xml-escape is byte-identical): one test per column.
                if issubclass(kind, str) \
                        and has_specials("".join(filter(None, col))):
                    text = escape_text
                if nulls:
                    parts.append(["<" if v is None else ">" + text(v)
                                  for v in col])
                else:
                    parts.append([">" + t for t in map(text, col)])
            if len(parts) == 1:
                chunk = "".join(parts[0])
            else:
                chunk = "".join(chain.from_iterable(zip(*parts)))
            stats.batches += 1
            stats.rows += b.n
            if state.ctx is not None:
                # Whole-batch decode buffering: admission accounting
                # charges buffered rows, not just fetched ones.
                state.ctx.rows_buffered += b.n
            yield chunk
