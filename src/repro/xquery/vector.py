"""Vectorized (columnar batch) execution of the delimited wrapper.

The tuple pipeline in ``repro.xquery.compile`` moves one row element at a
time through for/where/join stages, constructing a RECORD element per row
and re-atomizing it in the wrapper's per-cell closures. For the driver's
dominant shape — the section-4 delimited wrapper over a planned FLWOR of
scans, filters, hash joins, and sorts — all of that per-row work is
schema-determined at compile time. This module lowers exactly that shape
onto column-oriented batches instead:

* a :class:`_Batch` holds plain Python lists, one per referenced column,
  ``None`` marking SQL NULL; operators slice, filter, and gather whole
  columns;
* scans pull entire columns through the runtime's ``scan_columns``
  columnar API (cached per storage version) and slice them into batches
  of ``batch_size`` rows;
* predicates evaluate column-wise into three-valued masks, hash joins
  build and probe on key columns, ORDER BY sorts an index permutation,
  and the delimited codec's cells are encoded a column at a time;
* the generator protocol is preserved: each stage yields batches, so
  deadlines/cancellation tick per batch (``QueryContext.tick_rows``) and
  a lazily-consumed cursor materializes O(batches fetched) rows.

Correctness contract: the vector compiler only engages for shapes it can
prove equivalent, and the compiled tuple ``chunks`` closure is kept as a
wholesale fallback — both at compile time (unsupported expression or
clause) and at run time (a parameter bound to a non-scalar). Within a
supported shape the byte output is identical to the tuple path; the one
relaxation is error *granularity*: a dynamic error raised while
evaluating a batch surfaces before that batch's earlier rows are
emitted, where the tuple path would have emitted them first (the error
itself, and whether the query errors at all, are unchanged).
"""

from __future__ import annotations

import math
import operator
import threading
from decimal import Decimal
from itertools import chain
from typing import Callable, Iterator, Optional

from ..errors import XQueryTypeError
from ..xmlmodel.escape import escape_text
from . import ast
from .atomic import (
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
from .evaluator import CONTEXT_KEY, _Directional, _Frame
from .functions import _XS_CONSTRUCTOR_TYPES, BEA_URI, FN_URI, XS_URI
from .printer import print_module
from .planner import (
    HashJoinClause,
    RestoreOrderClause,
    bind_scan_request,
    estimate_group_count,
    grouping_key,
    join_key,
    lower_group_aggregates,
)

#: xs: simple types whose :func:`serialize_atomic` form can never contain
#: an XML special character, so the encoder may skip ``xml-escape``.
_NO_ESCAPE_TYPES = frozenset({
    "short", "int", "long", "integer", "decimal", "float", "double",
    "boolean", "date", "time", "dateTime",
})

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

_CMP_OPS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
            "le": operator.le, "gt": operator.gt, "ge": operator.ge}


class _VectorStats(threading.local):
    """Per-thread executor counters for tests: ``executions`` counts
    vector-plan runs, ``fallbacks`` run-time reversions to the tuple
    path, ``batches``/``rows`` the encoded output volume — a lazily
    consumed cursor over a large scan shows O(batches fetched) rows
    encoded, not O(table) — ``parallel`` the runs that scattered
    across the process pool, and ``agg_groups`` the group-table entries
    the hash-aggregation stage emitted."""

    def __init__(self):
        self.executions = 0
        self.fallbacks = 0
        self.batches = 0
        self.rows = 0
        self.parallel = 0
        self.agg_groups = 0


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
    """Per-execution mutable context threaded through every stage."""

    __slots__ = ("frame", "ctx", "params", "actuals")

    def __init__(self, frame: _Frame, ctx, params: dict, actuals):
        self.frame = frame
        self.ctx = ctx
        self.params = params
        self.actuals = actuals


# ---------------------------------------------------------------------------
# Vector expression compilation
# ---------------------------------------------------------------------------


class _Ctx:
    """Compile-time context: the host compiler (namespaces, external
    vars) plus the set of parameter names the plan ends up reading."""

    __slots__ = ("compiler", "params")

    def __init__(self, compiler):
        self.compiler = compiler
        self.params: set[str] = set()


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


class _ScalarCol:
    """Environment entry for a scalar-valued variable materialized as a
    batch column (post-aggregation group keys and aggregate results) —
    unlike a row variable's ``{column: xs_type}`` schema dict, a bare
    reference to one of these IS the column."""

    __slots__ = ("key", "vtype")

    def __init__(self, key: tuple, vtype: Optional[str]):
        self.key = key
        self.vtype = vtype


def _vcolumn(cc: _Ctx, expr, env: dict) -> Optional[_V]:
    """Match ``$var/COLUMN`` under ``fn:data`` — the translator's column
    access — against the in-scope row variables."""
    if not (isinstance(expr, ast.PathExpr)
            and isinstance(expr.base, ast.VarRef)
            and len(expr.steps) == 1):
        return None
    var = expr.base.name
    step = expr.steps[0]
    columns = env.get(var)
    if (not isinstance(columns, dict) or step.name is None
            or step.predicates or step.name not in columns):
        return None
    key = (var, step.name)

    def run(state, batch):
        return batch.cols[key]

    return _V(run, columns[step.name])


def _vcompile(cc: _Ctx, expr, env: dict) -> Optional[_V]:
    """Lower *expr* to a vector expression over the row variables in
    *env* (var -> {column: xs type}); None when the shape is outside the
    supported subset (the caller then falls back to the tuple path)."""
    if isinstance(expr, ast.XLiteral):
        return _vconst(expr.value, _vtype_of_literal(expr.value))
    if isinstance(expr, ast.VarRef):
        entry = env.get(expr.name)
        if isinstance(entry, _ScalarCol):
            key = entry.key

            def run_scalar(state, batch):
                return batch.cols[key]

            return _V(run_scalar, entry.vtype)
        if expr.name in env:
            return None  # a bare row variable is a node sequence
        if expr.name not in cc.compiler._external_vars:
            return None
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
        if left is None or right is None:
            return None
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
        if left is None or right is None:
            return None
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
        if operand is None:
            return None

        def run(state, batch):
            out = []
            for x in operand.eval(state, batch):
                result = negate([] if x is None else [x])
                out.append(result[0] if result else None)
            return out

        return _V(run)
    return None


def _vcompile_call(cc: _Ctx, expr: ast.XFunctionCall,
                   env: dict) -> Optional[_V]:
    uri = cc.compiler._namespace(expr)
    local, args = expr.local, expr.args
    if uri == FN_URI:
        if local == "data" and len(args) == 1:
            column = _vcolumn(cc, args[0], env)
            if column is not None:
                return column
            # fn:data of an already-atomic vector value is the identity.
            return _vcompile(cc, args[0], env)
        if local in ("empty", "exists", "not", "boolean") and len(args) == 1:
            arg = _vcompile(cc, args[0], env)
            if arg is None:
                return None
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
        return None
    if uri == XS_URI:
        if local in _XS_CONSTRUCTOR_TYPES and len(args) == 1:
            arg = _vcompile(cc, args[0], env)
            if arg is None:
                return None

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
        return None
    if uri == BEA_URI:
        if local == "not3" and len(args) == 1:
            arg = _vcompile(cc, args[0], env)
            if arg is None:
                return None

            def run(state, batch):
                return [None if x is None else not bool(x)
                        for x in arg.eval(state, batch)]

            return _V(run, "boolean")
        if local in ("and3", "or3") and len(args) == 2:
            left = _vcompile(cc, args[0], env)
            right = _vcompile(cc, args[1], env)
            if left is None or right is None:
                return None
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
        return None
    return None


def _vcompile_in3(cc: _Ctx, args, env: dict) -> Optional[_V]:
    needle = _vcompile(cc, args[0], env)
    if needle is None:
        return None
    members_expr = args[1]
    if isinstance(members_expr, ast.SequenceExpr):
        member_exprs = list(members_expr.items)
    else:
        member_exprs = [members_expr]
    members = [_vcompile(cc, m, env) for m in member_exprs]
    if any(m is None for m in members):
        return None

    def run(state, batch):
        cols = [m.eval(state, batch) for m in members]
        needles = needle.eval(state, batch)
        out = []
        for i, x in enumerate(needles):
            if x is None:
                out.append(None)
                continue
            saw_null = False
            matched = False
            for col in cols:
                value = col[i]
                if value is None:
                    saw_null = True
                    continue
                if isinstance(value, UntypedAtomic):
                    # Mirror bea_in3's untyped coercion toward the
                    # needle's type.
                    if isinstance(x, (int, float, Decimal)) \
                            and not isinstance(x, bool):
                        try:
                            value = float(value)
                        except ValueError:
                            continue
                    else:
                        value = str(value)
                try:
                    if compare_values("eq", x, value):
                        matched = True
                        break
                except XQueryTypeError:
                    continue
            if matched:
                out.append(True)
            elif saw_null:
                out.append(None)
            else:
                out.append(False)
        return out

    return _V(run, "boolean")


def _vcompile_value_comparison(cc: _Ctx, expr: ast.ValueComparison,
                               env: dict) -> Optional[_V]:
    left = _vcompile(cc, expr.left, env)
    right = _vcompile(cc, expr.right, env)
    if left is None or right is None:
        return None
    op = expr.op
    if op not in _CMP_OPS:
        return None
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


def _match_cells(cc: _Ctx, expr, tok: str) -> Optional[list]:
    if isinstance(expr, ast.SequenceExpr):
        parts = list(expr.items)
    else:
        parts = [expr]
    names = []
    for part in parts:
        name = _match_cell(cc, part, tok)
        if name is None:
            return None
        names.append(name)
    if len(set(names)) != len(names):
        # Duplicate record child names would make the tuple path's
        # per-cell fn:data multi-valued (a type error); stay exact.
        return None
    return names


def _match_record(cc: _Ctx, expr, names: list,
                  env: dict) -> Optional[list]:
    """Match the inner return ``<RECORD><NAME>{expr}</NAME>...</RECORD>``
    and vector-compile the projection of each cell, in cell order."""
    if not isinstance(expr, ast.ElementConstructor) or expr.attributes:
        return None
    children = [part for part in expr.content
                if not isinstance(part, str)]
    if len(children) != len(names):
        return None
    projections = []
    for child, name in zip(children, names):
        if not (isinstance(child, ast.ElementConstructor)
                and child.name == name and not child.attributes
                and not child.prefix and len(child.content) == 1
                and not isinstance(child.content[0], str)):
            return None
        projection = _vcompile(cc, child.content[0], env)
        if projection is None:
            return None
        projections.append(projection)
    return projections


class _ScanInfo:
    __slots__ = ("var", "uri", "local", "request", "with_ordinal")

    def __init__(self, var, uri, local, request, with_ordinal):
        self.var = var
        self.uri = uri
        self.local = local
        self.request = request
        self.with_ordinal = with_ordinal


class _JoinInfo:
    __slots__ = ("scan", "build_exprs", "probe_exprs", "cond_exprs",
                 "filter_exprs")

    def __init__(self, scan, build_exprs, probe_exprs, cond_exprs,
                 filter_exprs):
        self.scan = scan
        self.build_exprs = build_exprs
        self.probe_exprs = probe_exprs
        self.cond_exprs = cond_exprs
        self.filter_exprs = filter_exprs


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
    # unknown types, which may hold floats) aggregate at the parent.
    return vtype is not None and vtype not in _FLOAT_TYPES


def _spec_out_vtype(spec, vtype: Optional[str]) -> Optional[str]:
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


def _compile_aggregate(cc: _Ctx, agg, env: dict,
                       compiler, clauses) -> Optional[_AggInfo]:
    """Vector-compile an ``AggregateClause``'s key and value expressions
    over the pre-group *env*; None falls back to the tuple path."""
    key_exprs = []
    for key_expr, _key_var in agg.keys:
        compiled = _vcompile(cc, key_expr, env)
        if compiled is None:
            return None
        key_exprs.append(compiled)
    value_exprs = []
    out_vtypes = []
    parallel_safe = True
    for spec in agg.specs:
        if spec.star:
            value_exprs.append(None)
            out_vtypes.append("integer")
            continue
        value = _vcompile(cc, spec.value, env)
        if value is None:
            return None
        value_exprs.append(value)
        out_vtypes.append(_spec_out_vtype(spec, value.vtype))
        if not _spec_parallel_safe(spec, value.vtype):
            parallel_safe = False
    group_estimate = None
    row_estimate = None
    estimator = compiler._estimator
    lead = clauses[0]
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
    if spec.star:
        states[j] += 1
        return
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


def try_compile_wrapper(compiler, arg) -> Optional["_VectorPlan"]:
    """Compile the wrapper's ``fn:string-join`` argument *arg* into a
    vector plan. Returns the :class:`_VectorPlan` (its ``chunks`` bound
    method is the chunks closure) or None."""
    if not isinstance(arg, ast.FLWOR):
        return None
    cc = _Ctx(compiler)
    columnar = compiler._columnar
    outer_plan = compiler._planned(arg)
    outer = outer_plan.clauses
    if len(outer) != 1 or not isinstance(outer[0], ast.ForClause):
        return None
    tok = outer[0].var
    names = _match_cells(cc, arg.return_expr, tok)
    if names is None:
        return None

    source = outer[0].source
    window = None
    parts = compiler._subsequence_parts(source)
    if parts is not None:
        inner_expr, start, length = parts
        if not (isinstance(start, ast.XLiteral)
                and isinstance(start.value, int)
                and not isinstance(start.value, bool)):
            return None
        begin = start.value
        end = None
        if length is not None:
            if not (isinstance(length, ast.XLiteral)
                    and isinstance(length.value, int)
                    and not isinstance(length.value, bool)):
                return None
            end = begin + length.value
        window = (begin, end)
        source = inner_expr
    if not isinstance(source, ast.FLWOR):
        return None

    inner_plan = compiler._planned(source)
    clauses, hints = inner_plan.clauses, inner_plan.hints
    if not clauses:
        return None

    def scan_info(for_clause, hint) -> Optional[_ScanInfo]:
        call = compiler._scan_call(for_clause.source)
        if call is None:
            return None
        if columnar.column_scan_schema(*call) is None:
            return None
        return _ScanInfo(for_clause.var, call[0], call[1], hint,
                         for_clause.var in inner_plan.ordinal_vars)

    def scan_env(info: _ScanInfo) -> dict:
        schema = columnar.column_scan_schema(info.uri, info.local)
        return {name: xs_type for name, xs_type in schema}

    env: dict = {}

    def compile_join(clause, hint) -> Optional[_JoinInfo]:
        """Vector-compile a hash join (updating *env* on success). With
        an empty *env* — a leading join — the probe keys may only read
        literals and parameters: a constant selection over the planner's
        unit tuple stream."""
        info = scan_info(clause.for_clause, hint)
        if info is None:
            return None
        build_env = {info.var: scan_env(info)}
        both_env = dict(env)
        both_env[info.var] = build_env[info.var]
        build_exprs = [_vcompile(cc, b, build_env)
                       for b, _p, _c in clause.keys]
        probe_exprs = [_vcompile(cc, p, env)
                       for _b, p, _c in clause.keys]
        cond_exprs = [_vcompile(cc, c, both_env)
                      for _b, _p, c in clause.keys]
        filter_exprs = [_vcompile(cc, f, build_env)
                        for f in clause.filters]
        if any(e is None for e in chain(build_exprs, probe_exprs,
                                        cond_exprs, filter_exprs)):
            return None
        env[info.var] = build_env[info.var]
        return _JoinInfo(info, build_exprs, probe_exprs, cond_exprs,
                         filter_exprs)

    stages: list = []
    if isinstance(clauses[0], ast.ForClause):
        first = scan_info(clauses[0], hints.get(0))
        if first is None:
            return None
        env[first.var] = scan_env(first)
        stages.append(("scan", first))
    elif isinstance(clauses[0], HashJoinClause):
        info = compile_join(clauses[0], hints.get(0))
        if info is None:
            return None
        stages.append(("join", info))
    else:
        return None
    def compile_order(clause) -> Optional[list]:
        specs = []
        for spec in clause.specs:
            key = _vcompile(cc, spec.key, env)
            if key is None:
                return None
            specs.append((key, spec.ascending, spec.empty_least))
        return specs

    record_return = source.return_expr
    for index, clause in enumerate(clauses[1:], start=1):
        if isinstance(clause, ast.WhereClause):
            condition = _vcompile(cc, clause.condition, env)
            if condition is None:
                return None
            stages.append(("where", condition))
        elif isinstance(clause, HashJoinClause):
            info = compile_join(clause, hints.get(index))
            if info is None:
                return None
            stages.append(("join", info))
        elif isinstance(clause, ast.OrderClause):
            specs = compile_order(clause)
            if specs is None:
                return None
            stages.append(("order", specs))
        elif isinstance(clause, RestoreOrderClause):
            if not all(v in env for v in clause.vars):
                return None
            stages.append(("restore", clause.vars))
        elif isinstance(clause, ast.GroupClause):
            # Lower the group plus everything downstream (HAVING,
            # grouped ORDER BY, the record) into one hash-aggregation
            # stage followed by scalar-column where/order stages.
            lowered = lower_group_aggregates(
                clause, clauses[index + 1:], source.return_expr,
                lambda e, local, arity: _is_fn_call(cc, e, FN_URI,
                                                    local, arity))
            if lowered is None:
                return None
            agg_clause, post_clauses, record_return = lowered
            info = _compile_aggregate(cc, agg_clause, env, compiler,
                                      clauses)
            if info is None:
                return None
            stages.append(("agg", info))
            env = {key_var: _ScalarCol((_GRP, key_var), key_v.vtype)
                   for key_var, key_v in zip(info.key_vars,
                                             info.key_exprs)}
            for spec, vtype in zip(info.specs, info.out_vtypes):
                env[spec.var] = _ScalarCol((_GRP, spec.var), vtype)
            for post in post_clauses:
                if isinstance(post, ast.WhereClause):
                    condition = _vcompile(cc, post.condition, env)
                    if condition is None:
                        return None
                    stages.append(("where", condition))
                else:  # OrderClause (lowering admits nothing else)
                    specs = compile_order(post)
                    if specs is None:
                        return None
                    stages.append(("order", specs))
            break
        else:
            return None

    projections = _match_record(cc, record_return, names, env)
    if projections is None:
        return None

    # Accepted: the plan's two FLWORs get their plan-node ids here, in
    # the tuple lowering's order (a FLWOR after the ones it reads).
    compiler._number(inner_plan)
    compiler._number(outer_plan)
    return _VectorPlan(
        columnar=columnar,
        batch_size=compiler._batch_size,
        stages=stages,
        window=window,
        projections=projections,
        param_names=frozenset(cc.params),
        inner_fid=inner_plan.fid,
        outer_fid=outer_plan.fid,
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
    __slots__ = ("columnar", "batch_size", "stages", "window",
                 "projections", "param_names", "inner_fid", "outer_fid",
                 "fallback", "_tuple_chunks", "_escape_flags", "module",
                 "_text",
                 "parallel_ready", "parallel_mode",
                 "partition_stage_count", "signature")

    def __init__(self, columnar, batch_size, stages, window, projections,
                 param_names, inner_fid, outer_fid):
        self.columnar = columnar
        self.batch_size = batch_size
        self.stages = stages
        self.window = window
        self.projections = projections
        self.param_names = param_names
        self.inner_fid = inner_fid
        self.outer_fid = outer_fid
        #: Set by the compiler: builds the tuple-path chunks closure of
        #: the same module, for a run-time parameter shape outside the
        #: scalar column model (results must stay byte-identical). Built
        #: on first use — the SQL driver never binds such a parameter.
        self.fallback = None
        self._tuple_chunks = None
        self._escape_flags = [p.vtype not in _NO_ESCAPE_TYPES
                              for p in projections]
        #: The module this plan was compiled from, stamped by the
        #: DSPRuntime that prepared it; only such plans scatter, because
        #: pool workers re-prepare the plan from its text.
        self.module = None
        self._text = None
        #: Scatter/gather shape analysis. A plan scatters only when it
        #: is driven by a plain scan (a leading hash join probes the
        #: unit tuple stream — there is nothing to split) and what its
        #: workers send back is small next to what they read. With no
        #: pipeline breaker (order/restore need every row; agg needs
        #: every row of its group) and no window, workers run the whole
        #: pipeline including the encode and ship text ("encode" mode).
        #: When the first breaker is a parallel-safe aggregation whose
        #: NDV estimate predicts real compression, workers fold their
        #: partition into a partial-state table and ship O(groups)
        #: ("partial_agg" mode). Every other shape would pickle O(rows)
        #: columns back to a parent that still has the whole sort or
        #: merge to do, so it runs serially — by plan shape, not by
        #: fallback. ``parallel_mode`` is read only when
        #: ``parallel_ready``.
        breakers = [i for i, (kind, _p) in enumerate(stages)
                    if kind in ("order", "restore", "agg")]
        self.partition_stage_count = breakers[0] if breakers \
            else len(stages)
        kind, info = stages[breakers[0]] if breakers else (None, None)
        partial = kind == "agg" and info.parallel_safe \
            and _partial_agg_pays(info)
        self.parallel_mode = "partial_agg" if partial else "encode"
        self.parallel_ready = bool(stages) and stages[0][0] == "scan" \
            and (partial or (not breakers and window is None))
        scan0 = stages[0][1] if self.parallel_ready else None
        agg_shape = tuple(
            (len(payload.key_vars),)
            + tuple((s.func, s.star, s.distinct, s.empty_zero)
                    for s in payload.specs)
            for kind, payload in stages if kind == "agg")
        self.signature = (
            tuple(kind for kind, _p in stages),
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
            if self._tuple_chunks is None:
                self._tuple_chunks = self.fallback()
            # The fallback numbers its own plan nodes: its row counts
            # do not belong under this plan's ids.
            frame.variables.pop(ACTUALS_KEY, None)
            return self._tuple_chunks(frame)
        state = _State(frame, frame.variables.get(CONTEXT_KEY), params,
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
        state = _State(frame, frame.variables.get(CONTEXT_KEY), params,
                       None)
        scanned: list = [0]
        _head, info = self.stages[0]
        batches = self._scan(state, info, partition=spec,
                             scanned=scanned)
        # Breaker stages never sit inside the prefix: where/join only.
        batches = self._run_stages(
            state, batches, self.stages[1:self.partition_stage_count])
        if self.parallel_mode == "partial_agg":
            _kind, info = self.stages[self.partition_stage_count]
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
        _kind, info = self.stages[agg_index]
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
        head, info = self.stages[0]
        if head == "scan":
            batches = self._scan(state, info)
        else:
            # Leading hash join: a constant selection probed from the
            # planner's unit tuple stream (one frame, no bindings).
            batches = self._join(state, iter((_Batch(1, {}),)), info)
        count_from = None
        if state.actuals is not None and self.inner_fid is not None:
            batches = _count_rows(batches, state.actuals,
                                  (self.inner_fid, 0))
            count_from = 1
        batches = self._run_stages(state, batches, self.stages[1:],
                                   count_from)
        if self.window is not None:
            batches = self._window_batches(batches)
        if state.actuals is not None and self.outer_fid is not None:
            batches = _count_rows(batches, state.actuals,
                                  (self.outer_fid, 0))
        return batches

    def _run_stages(self, state: _State, batches, stages,
                    count_from: Optional[int] = None) -> Iterator[_Batch]:
        """Chain *stages* (a slice of ``self.stages`` past the driving
        scan) onto *batches*. With *count_from* — the plan-node index
        of ``stages[0]`` — every stage's output rows are tallied into
        the EXPLAIN actuals."""
        for offset, (kind, payload) in enumerate(stages):
            if kind == "where":
                batches = self._where(state, batches, payload)
            elif kind == "join":
                batches = self._join(state, batches, payload)
            elif kind == "order":
                batches = self._order(state, batches, payload)
            elif kind == "agg":
                batches = self._aggregate(state, batches, payload)
            else:
                batches = self._restore(state, batches, payload)
            if count_from is not None:
                batches = _count_rows(batches, state.actuals,
                                      (self.inner_fid, count_from + offset))
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

    def _where(self, state: _State, batches, condition: _V) \
            -> Iterator[_Batch]:
        for b in batches:
            mask = condition.eval(state, b)
            idx = [i for i in range(b.n) if _ebv_scalar(mask[i])]
            if len(idx) == b.n:
                yield b
            elif idx:
                yield _gather(b, idx)

    def _join(self, state: _State, batches, info: _JoinInfo) \
            -> Iterator[_Batch]:
        scan = info.scan
        colmap, nrows = self._scan_columns(state, scan)
        build = _Batch(nrows, {(scan.var, name): col
                               for name, col in colmap.items()})
        # Absorbed build filters run once, before hashing; compacting
        # between conjuncts preserves the tuple path's short-circuit
        # (a later filter never sees a row an earlier one dropped).
        for filter_expr in info.filter_exprs:
            mask = filter_expr.eval(state, build)
            idx = [i for i in range(build.n) if _ebv_scalar(mask[i])]
            if len(idx) != build.n:
                build = _gather(build, idx)
        if scan.with_ordinal:
            # Entry index within the post-filter build order — exactly
            # the tuple path's enumerate() positions.
            build.cols[(_ORD, scan.var)] = list(range(build.n))

        pairwise = False
        table: dict = {}
        categories = [set() for _ in info.build_exprs]
        key_cols = [e.eval(state, build) for e in info.build_exprs]
        for i in range(build.n):
            parts: Optional[list] = []
            for j, col in enumerate(key_cols):
                value = col[i]
                if value is None:
                    parts = None
                    break  # eq against NULL never matches
                category, canon = join_key(value)
                if category is None:
                    pairwise = True
                    break
                categories[j].add(category)
                parts.append(canon)
            if pairwise:
                break
            if parts is None:
                continue
            table.setdefault(tuple(parts), []).append(i)
        if not pairwise and any(len(found) > 1 for found in categories):
            pairwise = True  # mixed-category keys: exact path only

        for b in batches:
            probe_idx: list = []
            build_idx: list = []
            if pairwise:
                for i in range(b.n):
                    for entry in self._pairwise_row(state, b, i, build,
                                                    info):
                        probe_idx.append(i)
                        build_idx.append(entry)
            else:
                probe_cols = [e.eval(state, b)
                              for e in info.probe_exprs]
                for i in range(b.n):
                    parts = []
                    row_pairwise = False
                    for j, col in enumerate(probe_cols):
                        value = col[i]
                        if value is None:
                            parts = None
                            break
                        category, canon = join_key(value)
                        if category is None or (
                                categories[j]
                                and category not in categories[j]):
                            row_pairwise = True
                            break
                        parts.append(canon)
                    if row_pairwise:
                        matches = self._pairwise_row(state, b, i, build,
                                                     info)
                    elif parts is None:
                        matches = []
                    else:
                        matches = table.get(tuple(parts), [])
                    for entry in matches:
                        probe_idx.append(i)
                        build_idx.append(entry)
            if not probe_idx:
                continue
            cols = {key: [col[i] for i in probe_idx]
                    for key, col in b.cols.items()}
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
            for i in range(b.n):
                key_cells = [col[i] for col in key_cols]
                canon = tuple(grouping_key(cell) for cell in key_cells)
                record = groups.get(canon)
                if record is None:
                    record = (key_cells,
                              [_new_agg_state(spec) for spec in specs])
                    groups[canon] = record
                states = record[1]
                for j, spec in enumerate(specs):
                    col = value_cols[j]
                    _fold_agg_cell(spec, states, j,
                                   None if col is None else col[i])
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
        escape_flags = self._escape_flags
        stats = VSTATS
        for b in batches:
            if b.n == 0:
                continue
            parts = []
            for projection, needs_escape in zip(projections,
                                                escape_flags):
                col = projection.eval(state, b)
                if needs_escape:
                    parts.append([
                        "<" if v is None
                        else ">" + escape_text(serialize_atomic(v))
                        for v in col])
                else:
                    # Numeric/date/boolean lexical forms contain no XML
                    # specials; skipping xml-escape is byte-identical.
                    parts.append([
                        "<" if v is None
                        else ">" + serialize_atomic(v)
                        for v in col])
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


# Shared with the tuple compiler; imported late to break the module
# cycle (compile imports this module inside _compile_chunks).
from .compile import ACTUALS_KEY  # noqa: E402
