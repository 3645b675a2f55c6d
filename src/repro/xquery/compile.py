"""Closure compilation of the XQuery dialect: compile once, stream always.

The tree-walking ``Evaluator`` pays a ``_DISPATCH`` dictionary lookup per
AST node per evaluation and re-plans every FLWOR it meets, then
materializes the full tuple list after every clause. This module lowers a
planned module into nested Python closures instead: all type dispatch,
namespace resolution, builtin lookup, and clause planning happen exactly
once, at compile time, and evaluation is just calling closures.

FLWOR clause lists become **generator pipelines**: for/let/where/hash-join
stages each take an iterator of frames and yield frames, so a row can
leave the pipeline before the next row is read from the source. ``group``
and ``order`` are the only pipeline breakers (both must see every input
frame before emitting their first output). The planner's let/for fusion
(see ``repro.xquery.planner``) rewrites the section-4 delimited wrapper's
``let $actualQuery := (...) for $tokenQuery in $actualQuery`` into a
directly streamable for, so even the wrapped form never materializes the
inner query's result.

Each FLWOR is planned once per compile (``_Compiler._planned``) and a
module body is lowered once: when it is the wrapper's outermost
``fn:string-join(expr, "literal")`` call, to a chunk stream that yields
the joined string in separator-interleaved pieces — the concatenation is
byte-identical to the single string the interpreter returns, but the
driver can decode delimited cells incrementally as chunks arrive — and
otherwise to one lazy item stream. :meth:`CompiledQuery.evaluate`,
``stream_items`` and ``stream_chunks`` are views of that one form.

Stage 3 writes outer joins and subqueries as expressions that sit inside
a per-tuple clause (``let $t := (for ... where k eq k' ...)``,
``fn-bea:scalar((...))``, ``fn-bea:in3($x, (...))``). What such an
expression computes from data that no enclosing FLWOR binds cannot
change while one execution runs, so with ``optimize=True`` it is
evaluated once per execution through a memo that lives in the root
frame (:data:`MEMO_KEY`): invariant subquery arguments, hash-join build
sides, and the member table of an ``in3``. ``optimize=False`` keeps the
plain per-tuple evaluation as the differential's other leg.

Semantics are defined by the interpreter (``repro.xquery.evaluator``);
the differential test suite runs both executors over the full translator
corpus and compares outputs byte-for-byte.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from typing import Callable, Iterable, Iterator, Optional

from ..errors import XQueryDynamicError, XQueryStaticError, XQueryTypeError
from ..xmlmodel import Attribute, Document, Element, QName, Text
from . import ast
from .analysis import bound_vars, free_vars, subexpressions
from .atomic import (
    Sequence,
    arithmetic,
    atomize,
    cast_to,
    effective_boolean_value,
    general_comparison,
    is_node,
    is_numeric_value,
    negate,
    order_key,
    serialize_atomic,
    single_atomic,
    string_value,
    value_comparison,
)
from .evaluator import (
    CONTEXT_KEY,
    FunctionResolver,
    StaticContext,
    _append_content,
    _build_join_table,
    _Directional,
    _Frame,
    _PAIRWISE,
    _probe_join_table,
    bind_module_variables,
)
from .functions import (
    _XS_CONSTRUCTOR_TYPES,
    BEA_URI,
    BUILTINS,
    FN_URI,
    XS_URI,
    PreparedIn3,
    call_builtin,
    is_builtin_namespace,
)
from .planner import (
    CostEstimator,
    HashJoinClause,
    ParamRef,
    OuterJoin,
    RestoreOrderClause,
    bind_scan_request,
    estimate_plan,
    grouping_key,
    match_outer_join,
    ordinal_key,
    plan_clauses,
    scan_requests,
)

#: Reserved frame key under which an actual-row-count dict rides when
#: the caller asked for estimated-vs-actual accounting; stage outputs
#: are counted per (flwor id, clause index) plan-node id.
ACTUALS_KEY = "\x00actuals"

#: Reserved frame key of the execution-scoped memo: a dict created by
#: :meth:`CompiledQuery._root` that rides every ``bind()`` by reference
#: and dies with the execution's frames. Closures that own a slot (see
#: ``_Compiler._once``) keep in it what cannot change while one
#: execution runs — invariant subquery results, hash-join builds,
#: prepared IN tables. Never stored on the shared ``CompiledQuery``.
MEMO_KEY = "\x00memo"

#: The subquery positions stage 3 emits, as (namespace, function) ->
#: argument index. Every one of these consumers atomizes its argument or
#: tests it for emptiness, so handing all callers of one execution the
#: same result sequence cannot leak node identity.
_SUBQUERY_ARGS = {
    (BEA_URI, "scalar"): 0,
    (BEA_URI, "in3"): 1,
    (BEA_URI, "any3"): 1,
    (BEA_URI, "all3"): 1,
    (FN_URI, "exists"): 0,
    (FN_URI, "empty"): 0,
}

#: A compiled expression: frame in, item sequence out.
_Thunk = Callable[[_Frame], Sequence]
#: A compiled FLWOR clause: frame iterator in, frame iterator out.
_Stage = Callable[[Iterator[_Frame]], Iterator[_Frame]]


class _ExecutorStats(threading.local):
    """Per-thread executor counters, for tests that assert streaming
    really streams: ``frames`` counts tuple-stream frames created by
    compiled for/join stages, so a lazily-consumed cursor over an
    N-row scan shows O(rows fetched) frames, not O(N)."""

    def __init__(self):
        self.frames = 0


STATS = _ExecutorStats()


class CompiledQuery:
    """A module lowered to closures, ready for repeated evaluation.

    One instance is safe to share across threads and evaluations: all
    mutable state lives in the per-call frames. The DSP runtime caches
    these in a bounded LRU keyed by (query text, optimize flag).
    """

    __slots__ = ("module", "compile_seconds", "plan_reports", "batched",
                 "batched_reason", "vector_plan", "_items", "_chunks")

    def __init__(self, module: ast.Module,
                 items: Optional[Callable[[_Frame], Iterable]],
                 chunks: Optional[Callable[[_Frame], Iterator[str]]],
                 compile_seconds: float,
                 plan_reports: Optional[list] = None,
                 vector_plan=None, batched_reason: Optional[str] = None):
        self.module = module
        self.compile_seconds = compile_seconds
        #: Per-FLWOR plan-node reports (labels + estimated rows) when
        #: the module was compiled with cost-based planning; see
        #: :data:`ACTUALS_KEY` for the matching actual counts.
        self.plan_reports = plan_reports or []
        #: True when the delimited-wrapper body lowered to the columnar
        #: batch executor (``repro.xquery.vector``); its tuple chunk
        #: stream then serves only parameter shapes outside the scalar
        #: column model.
        self.batched = vector_plan is not None
        #: Why the vector lowering declined this wrapper (one of
        #: ``repro.xquery.vector.DECLINE_REASONS``); None when batched
        #: or when it was never asked (no batch size, not a wrapper).
        self.batched_reason = batched_reason
        #: The executing ``repro.xquery.vector._VectorPlan`` when
        #: ``batched`` — the scatter/gather executor reads its shape
        #: and partition entry points. None on the tuple path.
        self.vector_plan = vector_plan
        #: The body's one compiled form: the wrapper's text-chunk
        #: stream, else (``_chunks`` is None) a lazy item stream. The
        #: three public views below all read it.
        self._items = items
        self._chunks = chunks

    @property
    def estimated_rows(self) -> Optional[float]:
        """The outermost FLWOR's estimated output cardinality (frames
        entering its return clause), or None without statistics."""
        for report in self.plan_reports:
            estimates = [node["estimate"] for node in report["nodes"]
                         if node["estimate"] is not None]
            if estimates:
                return estimates[-1]
        return None

    @property
    def executor(self) -> str:
        """EXPLAIN's executor line: ``batched``, or ``tuple`` with the
        vector lowering's decline code when it was asked."""
        if self.batched:
            return "batched"
        if self.batched_reason is None:
            return "tuple"
        return f"tuple (decline: {self.batched_reason})"

    @property
    def streams_text(self) -> bool:
        """True when the module body is the delimited wrapper shape
        (top-level ``fn:string-join(..., "lit")``) and therefore
        supports incremental text-chunk streaming."""
        return self._chunks is not None

    def _root(self, variables: Optional[dict[str, object]],
              context=None, actuals=None) -> _Frame:
        bindings = bind_module_variables(self.module, variables)
        bindings[MEMO_KEY] = {}
        if context is not None:
            # The lifecycle context rides through every frame bind()
            # under a reserved key; the frame-multiplying stages tick it
            # at tuple granularity so deadlines and cancellation abort
            # mid-stream.
            bindings[CONTEXT_KEY] = context
        if actuals is not None:
            bindings[ACTUALS_KEY] = actuals
        return _Frame(bindings)

    def evaluate(self, variables: Optional[dict[str, object]] = None,
                 context=None, actuals=None) -> Sequence:
        """Materialize the full result sequence (interpreter-compatible).
        *context* is an optional ``repro.engine.lifecycle.QueryContext``
        enforcing deadline/cancellation during evaluation. *actuals* is
        an optional dict filled with per-plan-node output row counts
        (keys match :attr:`plan_reports` node ids)."""
        if context is not None:
            context.check()
        root = self._root(variables, context, actuals)
        if self._chunks is not None:
            return ["".join(self._chunks(root))]
        return list(self._items(root))

    def stream_items(self, variables: Optional[dict[str, object]] = None,
                     context=None, actuals=None) -> Iterator:
        """Lazily yield result items; FLWOR bodies pull rows through the
        live pipeline on demand (a text wrapper's one item is its whole
        string)."""
        if self._chunks is not None:
            return iter(self.evaluate(variables, context, actuals))
        return iter(self._items(self._root(variables, context, actuals)))

    def stream_chunks(self, variables: Optional[dict[str, object]] = None,
                      context=None, actuals=None) -> Iterator[str]:
        """Yield the wrapper's single string result in pieces (only when
        :attr:`streams_text`); ``"".join(...)`` equals the evaluated
        string byte-for-byte."""
        if self._chunks is None:
            raise XQueryStaticError(
                "query body is not a streamable text wrapper")
        return self._chunks(self._root(variables, context, actuals))


def compile_module(module: ast.Module,
                   resolver: Optional[FunctionResolver] = None,
                   optimize: bool = True,
                   pushdown: bool = True,
                   statistics=None,
                   batch_size: int = 0,
                   columnar=None) -> CompiledQuery:
    """Plan and lower *module* into a :class:`CompiledQuery`.

    *pushdown* lets the compiler attach advisory
    :class:`~repro.sources.spi.ScanRequest` hints to data-service scan
    calls when the resolver's signature accepts them (the DSP runtime's
    does); each hinted conjunct stays in the plan as a residual filter,
    so hints can only shrink scans, never change results.

    *statistics* — a ``(uri, local) -> Optional[TableStatistics]``
    callback for data-service scans — switches cost-based planning on
    (requires *optimize*): build-side choice/for reorder, build-filter
    hoisting, and most-selective-first conjunct ordering, all result-
    preserving (reorders restore original tuple order via ordinals).

    *batch_size* ≥ 1 together with *columnar* (an object exposing the
    ``column_scan_schema``/``scan_columns`` columnar-scan API, i.e. the
    DSP runtime) additionally tries to lower the delimited-wrapper body
    onto the vectorized batch executor (``repro.xquery.vector``); shapes
    the vector compiler cannot prove out fall back to the tuple pipeline
    wholesale, so results are always byte-identical.
    """
    started = time.perf_counter()
    compiler = _Compiler(module, resolver, optimize, pushdown, statistics,
                         batch_size=batch_size, columnar=columnar)
    items, chunks = compiler.compile_body()
    return CompiledQuery(module, items, chunks,
                         time.perf_counter() - started,
                         compiler.plan_reports,
                         vector_plan=compiler.vector_plan,
                         batched_reason=compiler.batched_reason)


def _resolver_params(resolver) -> frozenset:
    try:
        return frozenset(inspect.signature(resolver).parameters)
    except (TypeError, ValueError):  # builtins, odd callables
        return frozenset()


def _resolver_accepts_context(resolver) -> bool:
    """True when *resolver* declares a ``context`` parameter (the DSP
    runtime's signature); plain three-argument resolvers — tests, ad-hoc
    hosts — are called without it."""
    return "context" in _resolver_params(resolver)


def _resolver_accepts_scan(resolver) -> bool:
    """True when *resolver* also declares a ``scan`` parameter, i.e. it
    can route advisory pushdown requests to an SPI source."""
    return "scan" in _resolver_params(resolver)


def _comparison_thunk(op: str, left: _Thunk, right: _Thunk) -> _Thunk:
    return lambda frame: value_comparison(op, left(frame), right(frame))


def _raiser(exc: Exception) -> _Thunk:
    """Defer a statically-detected error to call time, so dead code
    containing it stays dead — exactly the interpreter's behavior."""

    def run(frame: _Frame) -> Sequence:
        raise exc

    return run


@dataclass
class _PlannedFLWOR:
    """One FLWOR after planning — the single object every lowering of
    that FLWOR reads: the planner's clauses, advisory scan hints by
    clause index, and the for-variables a restore-order clause re-sorts
    on (their stages carry ordinals). ``fid`` is set when the lowering
    that runs numbers the pipeline; a straight-line let/where FLWOR has
    no plan nodes and keeps None. ``outer_join`` is set when the last
    clause and the return are stage 3's left-outer-join pattern: the
    vector lowering runs its join in their place, the tuple lowering
    runs them as written."""

    node: ast.FLWOR
    clauses: list
    hints: dict
    ordinal_vars: frozenset
    outer_join: Optional[OuterJoin] = None
    fid: Optional[int] = None


class _Compiler:
    def __init__(self, module: ast.Module,
                 resolver: Optional[FunctionResolver],
                 optimize: bool, pushdown: bool = True,
                 statistics=None, batch_size: int = 0, columnar=None):
        self._static = StaticContext(resolver)
        self._optimize = optimize
        #: compile_module's own arguments, for the tuple fallback of a
        #: batched plan (built on first use, see _compile_chunks).
        self._options = (resolver, optimize, pushdown, statistics)
        self._batch_size = max(0, int(batch_size))
        self._columnar = columnar
        #: The _VectorPlan when the body lowered to the batch executor;
        #: carried onto CompiledQuery for the scatter/gather executor.
        self.vector_plan = None
        self.batched_reason: Optional[str] = None
        self._external_vars = frozenset(
            decl.name for decl in module.prolog
            if isinstance(decl, ast.VarDecl))
        for decl in module.prolog:
            if isinstance(decl, (ast.SchemaImport, ast.NamespaceDecl)):
                self._static.declare(decl.prefix, decl.uri)
        self._module = module
        # Hints require the planner's filter hoisting (conjuncts sit
        # right after their binder only post-optimization) and a
        # resolver that can actually route a scan request.
        self._pushdown = (pushdown and optimize and resolver is not None
                          and _resolver_accepts_scan(resolver)
                          and _resolver_accepts_context(resolver))
        self._estimator: Optional[CostEstimator] = None
        if optimize and statistics is not None:
            self._estimator = CostEstimator(
                self._source_statistics(statistics),
                pushdown=self._pushdown)
        #: id(FLWOR ast node) -> its :class:`_PlannedFLWOR`; the tuple
        #: lowering, the vector lowering and the plan reports all read
        #: this one object (which keeps the node alive, so the id holds).
        self._plans: dict[int, _PlannedFLWOR] = {}
        #: Plan ids: one per lowered pipeline FLWOR and one per
        #: once-per-execution subquery (a one-node plan of its own).
        self._fids = count()
        self.plan_reports: list[dict] = []

    def _source_statistics(self, statistics):
        def lookup(source):
            call = self._scan_call(source)
            if call is None:
                return None
            return statistics(*call)

        return lookup

    def compile_body(self):
        """``(items, chunks)``, exactly one of them a closure: the
        section-4 wrapper compiles to its text-chunk stream, any other
        body to one lazy item stream."""
        body = self._module.body
        chunks = self._compile_chunks(body)
        if chunks is not None:
            return None, chunks
        return self._compile_stream(body), None

    # -- once per execution ------------------------------------------------

    def _fixed(self, expr: ast.XExpr,
               own: frozenset = frozenset()) -> bool:
        """True when *expr* reads nothing that can change while one
        execution runs: of variables only the module's externals (and
        *own*, names the caller binds itself), and no context item from
        outside its own predicates."""
        outer = free_vars(expr) - own
        # The cheap test first: _constants walks the whole module once.
        if not outer <= self._external_vars \
                or (outer and not outer <= self._constants):
            return False
        return not any(isinstance(node, ast.ContextItem) and not bound
                       for node, bound in subexpressions(expr))

    @cached_property
    def _constants(self) -> frozenset:
        """The externals that are the same value wherever they are
        read: one that some clause rebinds is, below that clause, a
        FLWOR variable under the external's name."""
        return self._external_vars - bound_vars(self._module.body)

    def _invariant_subquery(self, expr: ast.XExpr) -> bool:
        """A subquery argument worth evaluating once per execution: it
        is :meth:`_fixed` and holds a FLWOR or a data-service call (a
        literal list or a bare parameter costs less than the memo)."""
        if not (self._optimize and self._fixed(expr)):
            return False
        return any(isinstance(node, ast.FLWOR)
                   or self._service_call(node) is not None
                   for node, _p in subexpressions(expr))

    def _once(self, thunk: Callable[[_Frame], object], node_id=None) \
            -> Callable[[_Frame], object]:
        """Wrap *thunk* so one execution evaluates it at most once, on
        first use (an expression never reached still never runs), and
        every later use gets the same value from the execution's memo.
        A raise stores nothing: the next use evaluates, and raises,
        again. *node_id* names the plan node whose actual row count is
        the single run's ``len(value)``."""
        slot = object()

        def once(frame: _Frame):
            variables = frame.variables
            memo = variables.get(MEMO_KEY)
            if memo is None:  # a frame CompiledQuery._root did not make
                return thunk(frame)
            try:
                return memo[slot]
            except KeyError:
                value = memo[slot] = thunk(frame)
                actuals = variables.get(ACTUALS_KEY)
                if node_id is not None and actuals is not None:
                    actuals[node_id] = len(value)
                return value

        return once

    def _subquery_once(self, call: ast.XFunctionCall, members: _Thunk):
        """*members* — *call*'s compiled invariant subquery argument —
        evaluated once per execution and listed in the plan reports;
        for a two-argument ``in3`` what is kept is the member table
        (:class:`PreparedIn3`), to be called with the needle. Both
        lowerings take their subquery constants from here."""
        node_id = self._report_once(call)
        if call.local == "in3" and len(call.args) == 2:
            return self._once(
                lambda frame: PreparedIn3(members(frame)), node_id)
        return self._once(members, node_id)

    def _report_once(self, call: ast.XFunctionCall):
        """Plan-node id of a once-per-execution subquery; lists it (with
        why it qualified) in the plan reports."""
        fid = next(self._fids)
        if self._estimator is not None:
            self.plan_reports.append({"flwor": fid, "nodes": [{
                "id": (fid, 0),
                "label": (f"{call.display} subquery, once per "
                          f"execution (reads no FLWOR variable)"),
                "estimate": None}]})
        return fid, 0

    # -- dispatch (happens ONCE, at compile time) -------------------------

    def _compile(self, expr: ast.XExpr) -> _Thunk:
        method = self._COMPILE.get(type(expr))
        if method is None:
            raise XQueryStaticError(
                f"cannot compile node {type(expr).__name__}")
        return method(self, expr)

    def _compile_stream(self, expr: ast.XExpr) \
            -> Callable[[_Frame], Iterable]:
        """Like :meth:`_compile` but the closure returns a lazy iterable
        for FLWOR bodies; every other node just materializes."""
        if isinstance(expr, ast.FLWOR):
            return self._compile_flwor(expr, lazy=True)
        subsequence = self._subsequence_parts(expr)
        if subsequence is not None:
            return self._compile_subsequence_stream(*subsequence)
        return self._compile(expr)

    def _subsequence_parts(self, expr) -> Optional[tuple]:
        """``(source, start, length|None)`` when *expr* is a
        ``fn:subsequence`` call (the LIMIT/OFFSET translation), else
        None."""
        if not (isinstance(expr, ast.XFunctionCall)
                and expr.local == "subsequence"
                and 2 <= len(expr.args) <= 3
                and self._namespace(expr) == FN_URI):
            return None
        length = expr.args[2] if len(expr.args) == 3 else None
        return expr.args[0], expr.args[1], length

    def _compile_subsequence_stream(self, source, start, length) \
            -> Callable[[_Frame], Iterable]:
        """Stream ``fn:subsequence(source, start[, length])`` lazily:
        the source pipeline is consumed only up to the window's end, so
        a LIMIT query stops reading rows once satisfied. Position
        arithmetic mirrors ``fn_subsequence`` exactly."""
        from .functions import _numeric_arg

        items = self._compile_stream(source)
        start_fn = self._compile(start)
        length_fn = None if length is None else self._compile(length)

        def stream(frame: _Frame) -> Iterator:
            value = _numeric_arg([None, start_fn(frame)], 1,
                                 "fn:subsequence")
            if value is None:
                return
            begin = int(round(float(value)))
            end = None
            if length_fn is not None:
                size = _numeric_arg([None, None, length_fn(frame)], 2,
                                    "fn:subsequence")
                end = begin + int(round(float(size)))
                if end <= max(begin, 1):
                    return
            for position, item in enumerate(items(frame), start=1):
                if position < begin:
                    continue
                if end is not None and position >= end:
                    return
                yield item

        return stream

    def _compile_chunks(self, body: ast.XExpr) \
            -> Optional[Callable[[_Frame], Iterator[str]]]:
        """Recognize the delimited wrapper's top-level
        ``fn:string-join(arg, "literal")`` and compile *arg* as an item
        stream interleaved with the separator."""
        if not (isinstance(body, ast.XFunctionCall)
                and body.local == "string-join" and len(body.args) == 2
                and isinstance(body.args[1], ast.XLiteral)
                and isinstance(body.args[1].value, str)
                and self._namespace(body) == FN_URI):
            return None
        separator = body.args[1].value
        if (separator == "" and self._batch_size >= 1
                and self._columnar is not None and self._optimize):
            # Lazy import: vector imports this module for shared
            # constants, so the cycle must break here.
            from .vector import try_compile_wrapper

            plan, self.batched_reason = try_compile_wrapper(
                self, body.args[0])
            if plan is not None:
                # The tuple lowering of a batched body serves only a
                # parameter the scalar column model cannot hold, which
                # the SQL driver never binds: it is built if that
                # happens, from the same module and options.
                module, options = self._module, self._options
                plan.fallback = lambda: compile_module(
                    module, *options)._chunks
                self.vector_plan = plan
                return plan.chunks
        items = self._compile_stream(body.args[0])

        def chunks(frame: _Frame) -> Iterator[str]:
            first = True
            for item in items(frame):
                # fn:string-join stringifies the atomized argument
                # sequence; interleaving the separator reproduces
                # separator.join(parts) piecewise.
                for value in atomize([item]):
                    if first:
                        first = False
                    else:
                        yield separator
                    yield string_value(value)

        return chunks

    # -- leaves -----------------------------------------------------------

    def _compile_literal(self, expr: ast.XLiteral) -> _Thunk:
        result = [expr.value]
        return lambda frame: list(result)

    def _compile_varref(self, expr: ast.VarRef) -> _Thunk:
        name = expr.name
        return lambda frame: frame.lookup(name)

    def _compile_context(self, expr: ast.ContextItem) -> _Thunk:
        def run(frame: _Frame) -> Sequence:
            if frame.context_item is None:
                raise XQueryDynamicError("context item is undefined here",
                                         code="XPDY0002")
            return [frame.context_item]

        return run

    # -- composites -------------------------------------------------------

    def _compile_sequence(self, expr: ast.SequenceExpr) -> _Thunk:
        items = [self._compile(item) for item in expr.items]

        def run(frame: _Frame) -> Sequence:
            result: list = []
            for item in items:
                result.extend(item(frame))
            return result

        return run

    def _compile_if(self, expr: ast.IfExpr) -> _Thunk:
        condition = self._compile(expr.condition)
        then = self._compile(expr.then)
        else_ = self._compile(expr.else_)

        def run(frame: _Frame) -> Sequence:
            if effective_boolean_value(condition(frame)):
                return then(frame)
            return else_(frame)

        return run

    def _compile_or(self, expr: ast.OrExpr) -> _Thunk:
        left = self._compile(expr.left)
        right = self._compile(expr.right)

        def run(frame: _Frame) -> Sequence:
            if effective_boolean_value(left(frame)):
                return [True]
            return [effective_boolean_value(right(frame))]

        return run

    def _compile_and(self, expr: ast.AndExpr) -> _Thunk:
        left = self._compile(expr.left)
        right = self._compile(expr.right)

        def run(frame: _Frame) -> Sequence:
            if not effective_boolean_value(left(frame)):
                return [False]
            return [effective_boolean_value(right(frame))]

        return run

    def _compile_value_comparison(self, expr: ast.ValueComparison) -> _Thunk:
        return _comparison_thunk(expr.op, self._compile(expr.left),
                                 self._compile(expr.right))

    def _compile_general_comparison(self,
                                    expr: ast.GeneralComparison) -> _Thunk:
        op = expr.op
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        return lambda frame: [general_comparison(op, left(frame),
                                                 right(frame))]

    def _compile_range(self, expr: ast.RangeExpr) -> _Thunk:
        low_fn = self._compile(expr.low)
        high_fn = self._compile(expr.high)

        def run(frame: _Frame) -> Sequence:
            low = single_atomic(low_fn(frame), "range start")
            high = single_atomic(high_fn(frame), "range end")
            if low is None or high is None:
                return []
            if not isinstance(low, int) or not isinstance(high, int):
                raise XQueryTypeError("range bounds must be integers",
                                      code="XPTY0004")
            return list(range(low, high + 1))

        return run

    def _compile_arithmetic(self, expr: ast.Arithmetic) -> _Thunk:
        op = expr.op
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        return lambda frame: arithmetic(op, left(frame), right(frame))

    def _compile_unary(self, expr: ast.UnaryMinus) -> _Thunk:
        operand = self._compile(expr.operand)
        return lambda frame: negate(operand(frame))

    def _compile_quantified(self, expr: ast.QuantifiedExpr) -> _Thunk:
        source = self._compile_stream(expr.source)
        condition = self._compile(expr.condition)
        var = expr.var
        is_every = expr.kind == "every"

        def run(frame: _Frame) -> Sequence:
            for item in source(frame):
                holds = effective_boolean_value(
                    condition(frame.bind(var, [item])))
                if holds != is_every:
                    return [not is_every]
            return [is_every]

        return run

    # -- paths ------------------------------------------------------------

    def _compile_path(self, expr: ast.PathExpr) -> _Thunk:
        base = self._compile(expr.base)
        steps = [(step.name,
                  [self._compile(p) for p in step.predicates])
                 for step in expr.steps]

        if len(steps) == 1 and steps[0][0] is not None and not steps[0][1]:
            # The translator's dominant shape (``$var/COLUMN``): one
            # named step, no predicates — a single tight loop.
            name = steps[0][0]

            def fast(frame: _Frame) -> Sequence:
                matched: list = []
                for item in base(frame):
                    if isinstance(item, Element):
                        for child in item.children:
                            if (isinstance(child, Element)
                                    and child.name.local == name):
                                matched.append(child)
                    elif isinstance(item, Document):
                        for child in item.children:
                            if (isinstance(child, Element)
                                    and child.name.local == name):
                                matched.append(child)
                    else:
                        raise XQueryTypeError(
                            "path step applied to a non-node item",
                            code="XPTY0019")
                return matched

            return fast

        def run(frame: _Frame) -> Sequence:
            current = base(frame)
            for name, predicates in steps:
                matched: list = []
                for item in current:
                    if isinstance(item, Document):
                        children = [c for c in item.children
                                    if isinstance(c, Element)]
                    elif isinstance(item, Element):
                        children = item.child_elements()
                    else:
                        raise XQueryTypeError(
                            "path step applied to a non-node item",
                            code="XPTY0019")
                    if name is None:
                        matched.extend(children)
                    else:
                        for child in children:
                            if child.name.local == name:
                                matched.append(child)
                current = _apply_predicates(matched, predicates, frame)
            return current

        return run

    def _compile_filter(self, expr: ast.FilterExpr) -> _Thunk:
        base = self._compile(expr.base)
        predicates = [self._compile(p) for p in expr.predicates]
        return lambda frame: _apply_predicates(base(frame), predicates,
                                               frame)

    # -- function calls ---------------------------------------------------

    def _compile_function_call(self, expr: ast.XFunctionCall) -> _Thunk:
        args = [self._compile(arg) for arg in expr.args]
        try:
            uri = self._static.resolve_prefix(expr.prefix)
        except XQueryStaticError as exc:
            return _raiser(exc)
        local = expr.local
        position = _SUBQUERY_ARGS.get((uri, local))
        if (position is not None and position < len(args)
                and self._invariant_subquery(expr.args[position])):
            once = self._subquery_once(expr, args[position])
            if local == "in3" and len(args) == 2:
                needle = args[0]

                def probe(frame: _Frame) -> Sequence:
                    # Needle first: the plain call's argument order.
                    value = needle(frame)
                    return once(frame)(value)

                return probe
            args[position] = once
        if uri == XS_URI:
            if local in _XS_CONSTRUCTOR_TYPES and len(args) == 1:
                arg = args[0]
                return lambda frame: cast_to(local, arg(frame))
            return lambda frame: call_builtin(  # defers the static error
                uri, local, [a(frame) for a in args])
        if is_builtin_namespace(uri):
            entry = BUILTINS.get((uri, local))
            if entry is not None:
                func, min_args, max_args = entry
                if min_args <= len(args) <= max_args:
                    if len(args) == 1:
                        arg = args[0]
                        # Direct closures for the wrapper's per-cell hot
                        # path; bodies mirror the fn: library exactly.
                        if uri == FN_URI:
                            if local == "data":
                                return lambda frame: atomize(arg(frame))
                            if local == "empty":
                                return lambda frame: [not arg(frame)]
                            if local == "exists":
                                return lambda frame: [bool(arg(frame))]
                        return lambda frame: func([arg(frame)])
                    if len(args) == 2:
                        first, second = args
                        return lambda frame: func([first(frame),
                                                   second(frame)])
                    return lambda frame: func([a(frame) for a in args])
            # Unknown builtin or bad arity: keep the interpreter's
            # call-time error.
            return lambda frame: call_builtin(uri, local,
                                              [a(frame) for a in args])
        resolver = self._static.resolver
        if resolver is None:
            return _raiser(XQueryStaticError(
                f"no resolver for function {expr.display}", code="XPST0017"))
        if _resolver_accepts_context(resolver):
            # The DSP runtime's resolver takes the lifecycle context so
            # source reads (and fault wrappers) can respect deadlines
            # and retry budgets. Detected once, at compile time.
            return lambda frame: resolver(
                uri, local, [a(frame) for a in args],
                context=frame.variables.get(CONTEXT_KEY))
        return lambda frame: resolver(uri, local,
                                      [a(frame) for a in args])

    # -- constructors -----------------------------------------------------

    def _compile_constructor(self, expr: ast.ElementConstructor) -> _Thunk:
        if expr.prefix:
            try:
                uri = self._static.resolve_prefix(expr.prefix)
            except XQueryStaticError as exc:
                return _raiser(exc)
        else:
            uri = ""
        name = QName(expr.name, uri, expr.prefix)
        attributes = [
            (attr.name,
             [part if isinstance(part, str) else self._compile(part)
              for part in attr.parts])
            for attr in expr.attributes]
        content = [part if isinstance(part, str) else self._compile(part)
                   for part in expr.content]

        if not attributes and len(content) == 1 \
                and not isinstance(content[0], str):
            # The translator's cell shape ``<COL>{expr}</COL>``.
            single = content[0]

            def fast(frame: _Frame) -> Sequence:
                element = Element(name)
                _append_content(element, single(frame))
                return [element]

            return fast

        def run(frame: _Frame) -> Sequence:
            element = Element(name)
            for attr_name, parts in attributes:
                pieces: list[str] = []
                for part in parts:
                    if isinstance(part, str):
                        pieces.append(part)
                    else:
                        pieces.append(" ".join(
                            serialize_atomic(v) if not is_node(v)
                            else v.string_value() for v in part(frame)))
                element.attributes.append(
                    Attribute(QName(attr_name), "".join(pieces)))
            for part in content:
                if isinstance(part, str):
                    element.append(Text(part))
                else:
                    _append_content(element, part(frame))
            return [element]

        return run

    # -- FLWOR: the streaming pipeline ------------------------------------

    def _planned(self, expr: ast.FLWOR) -> "_PlannedFLWOR":
        """The planned form of *expr*, built on first request."""
        planned = self._plans.get(id(expr))
        if planned is None:
            clauses = list(expr.clauses)
            if self._optimize:
                clauses = plan_clauses(expr.clauses, expr.return_expr,
                                       estimator=self._estimator,
                                       external_vars=self._external_vars)
            hints: dict = {}
            if self._pushdown:
                hints = scan_requests(
                    clauses, expr.return_expr, self._external_vars,
                    lambda source: self._scan_call(source) is not None)
            planned = self._plans[id(expr)] = _PlannedFLWOR(
                expr, clauses, hints, frozenset(
                    var for clause in clauses
                    if isinstance(clause, RestoreOrderClause)
                    for var in clause.vars))
            if self._optimize:
                planned.outer_join = match_outer_join(
                    clauses, expr.return_expr,
                    lambda inner: self._planned(inner).clauses,
                    self._is_fn, self._external_vars)
        return planned

    def _is_fn(self, expr, local: str, arity: int) -> bool:
        """True when *expr* is a call of ``fn:local`` with *arity*
        arguments (by namespace, whatever the prefix)."""
        return (isinstance(expr, ast.XFunctionCall) and expr.local == local
                and len(expr.args) == arity
                and self._namespace(expr) == FN_URI)

    def _number(self, planned: "_PlannedFLWOR", batched: bool = False,
                notes: Optional[dict] = None) -> list:
        """Give a lowered pipeline FLWOR its plan id and list its nodes
        (labels + estimates) in the plan reports; returns the node ids
        its stages count actual rows under. *batched* says the vector
        lowering runs it: an outer-join ``let`` is then the planner's
        left outer hash join. *notes* (the vector lowering's) map a
        hash join clause's id to what its label adds."""
        clauses = planned.clauses
        if batched and planned.outer_join is not None:
            clauses = clauses[:-1] + [planned.outer_join.join]
        fid = planned.fid = next(self._fids)
        if self._estimator is not None:
            estimates = estimate_plan(clauses, self._estimator,
                                      self._external_vars)
            self.plan_reports.append({
                "flwor": fid,
                "nodes": [{"id": (fid, i),
                           "label": _clause_label(
                               clause,
                               isinstance(clause, HashJoinClause)
                               and self._built_once(clause),
                               (notes or {}).get(id(clause))),
                           "estimate": estimates[i]}
                          for i, clause in enumerate(clauses)],
            })
        return [(fid, i) for i in range(len(clauses))]

    def _compile_linear(self, clauses, ret: _Thunk) -> Optional[_Thunk]:
        """Straight-line lowering for FLWORs with only let/where clauses
        (e.g. the wrapper's per-cell ``let $cell := ... return if ...``):
        exactly one frame flows through, so the generator pipeline is
        pure overhead. Returns None when any clause multiplies frames."""
        if not all(isinstance(c, (ast.LetClause, ast.WhereClause))
                   for c in clauses):
            return None
        body = ret
        for clause in reversed(clauses):
            if isinstance(clause, ast.LetClause):
                def body(frame: _Frame, _value=self._compile(clause.value),
                         _var=clause.var, _next=body) -> Sequence:
                    return _next(frame.bind(_var, _value(frame)))
            else:
                def body(frame: _Frame,
                         _cond=self._compile(clause.condition),
                         _next=body) -> Sequence:
                    if effective_boolean_value(_cond(frame)):
                        return _next(frame)
                    return []
        return body

    def _compile_flwor(self, expr: ast.FLWOR, lazy: bool = False):
        """The one tuple lowering of a FLWOR: planned clauses become
        pipeline stages feeding the return thunk. *lazy* picks the view
        — an item stream for positions consumed incrementally, else the
        materialized sequence."""
        planned = self._planned(expr)
        ret = self._compile(expr.return_expr)
        linear = self._compile_linear(planned.clauses, ret)
        if linear is not None:
            return linear
        stages = [self._compile_clause(clause, planned.hints.get(i),
                                       planned.ordinal_vars)
                  for i, clause in enumerate(planned.clauses)]
        node_ids = self._number(planned)

        if lazy:
            def stream(frame: _Frame) -> Iterator:
                for t in _pipeline(stages, node_ids, frame):
                    yield from ret(t)

            return stream

        def run(frame: _Frame) -> Sequence:
            result: list = []
            for t in _pipeline(stages, node_ids, frame):
                result.extend(ret(t))
            return result

        return run

    def _scan_call(self, expr) -> Optional[tuple[str, str]]:
        """``(uri, local)`` when *expr* is a zero-argument data-service
        call the resolver will serve (the translator's scan shape,
        ``ns0:CUSTOMERS()``), else None."""
        if isinstance(expr, ast.XFunctionCall) and not expr.args:
            return self._service_call(expr)
        return None

    def _service_call(self, expr) -> Optional[tuple[str, str]]:
        """``(uri, local)`` when *expr* is a call, of any arity, that
        goes to the host's resolver (a data service), else None."""
        uri = self._namespace(expr) \
            if isinstance(expr, ast.XFunctionCall) else None
        if uri is None or uri == XS_URI or is_builtin_namespace(uri):
            return None
        return uri, expr.local

    def _namespace(self, call: ast.XFunctionCall) -> Optional[str]:
        """The namespace *call*'s prefix resolves to, None when it is
        undeclared (the call then fails when, and if, it runs)."""
        try:
            return self._static.resolve_prefix(call.prefix)
        except XQueryStaticError:
            return None

    def _compile_scan(self, expr: ast.XFunctionCall, request) -> _Thunk:
        """A scan closure that forwards the advisory *request* to the
        resolver alongside the lifecycle context.

        Predicate values that are :class:`~repro.xquery.planner.ParamRef`
        placeholders (external ``$p``-style variables) resolve per
        evaluation from the frame; a parameter that is not exactly one
        atomic value simply drops its conjunct — the residual filter
        still decides the row's fate.
        """
        uri, local = self._scan_call(expr)
        resolver = self._static.resolver
        late = any(isinstance(p.value, ParamRef)
                   for p in request.predicates)
        if not late:
            def scan(frame: _Frame) -> Sequence:
                return resolver(uri, local, [],
                                context=frame.variables.get(CONTEXT_KEY),
                                scan=request)

            return scan

        def scan_late(frame: _Frame) -> Sequence:
            return resolver(uri, local, [],
                            context=frame.variables.get(CONTEXT_KEY),
                            scan=bind_scan_request(request, frame.lookup))

        return scan_late

    def _compile_source(self, expr, hint) -> Callable[[_Frame], Iterable]:
        if hint is not None and self._scan_call(expr) is not None:
            return self._compile_scan(expr, hint)
        return self._compile_stream(expr)

    def _compile_clause(self, clause, hint=None,
                        ordinal_vars: frozenset = frozenset()) -> _Stage:
        if isinstance(clause, HashJoinClause):
            return self._compile_hash_join(clause, hint, ordinal_vars)
        if isinstance(clause, RestoreOrderClause):
            # Sort by the ordinal tuple of the original for-var order:
            # lexicographic original nested-loop order, so a reordered
            # plan's output is byte-identical to the unreordered one.
            keys = [ordinal_key(v) for v in clause.vars]

            def restore_stage(frames: Iterator[_Frame]) -> Iterator[_Frame]:
                yield from sorted(
                    frames,
                    key=lambda t: tuple(t.variables[k] for k in keys))

            return restore_stage
        if isinstance(clause, ast.ForClause):
            source = self._compile_source(clause.source, hint)
            var = clause.var
            stats = STATS
            okey = ordinal_key(var) if clause.var in ordinal_vars else None

            def for_stage(frames: Iterator[_Frame]) -> Iterator[_Frame]:
                first = next(frames, None)
                if first is None:
                    return
                # The lifecycle context (if any) rides in every frame of
                # one execution, so resolve it once from the first.
                ctx = first.variables.get(CONTEXT_KEY)
                if ctx is None:
                    if okey is None:
                        for t in chain((first,), frames):
                            for item in source(t):
                                stats.frames += 1
                                yield t.bind(var, [item])
                    else:
                        for t in chain((first,), frames):
                            for position, item in enumerate(source(t)):
                                stats.frames += 1
                                frame = t.bind(var, [item])
                                # bind() copied the dict, so stashing the
                                # ordinal in place is frame-local.
                                frame.variables[okey] = position
                                yield frame
                else:
                    # Lifecycle-bounded query: tick per tuple; the
                    # check itself fires once per batch.
                    tick = ctx.tick
                    if okey is None:
                        for t in chain((first,), frames):
                            for item in source(t):
                                stats.frames += 1
                                tick()
                                yield t.bind(var, [item])
                    else:
                        for t in chain((first,), frames):
                            for position, item in enumerate(source(t)):
                                stats.frames += 1
                                tick()
                                frame = t.bind(var, [item])
                                frame.variables[okey] = position
                                yield frame

            return for_stage
        if isinstance(clause, ast.LetClause):
            value = self._compile(clause.value)
            var = clause.var

            def let_stage(frames: Iterator[_Frame]) -> Iterator[_Frame]:
                for t in frames:
                    yield t.bind(var, value(t))

            return let_stage
        if isinstance(clause, ast.WhereClause):
            condition = self._compile(clause.condition)

            def where_stage(frames: Iterator[_Frame]) -> Iterator[_Frame]:
                for t in frames:
                    if effective_boolean_value(condition(t)):
                        yield t

            return where_stage
        if isinstance(clause, ast.GroupClause):
            return self._compile_group(clause)
        if isinstance(clause, ast.OrderClause):
            return self._compile_order(clause)
        raise XQueryStaticError(
            f"unknown FLWOR clause {type(clause).__name__}")

    def _compile_hash_join(self, join: HashJoinClause, hint=None,
                           ordinal_vars: frozenset = frozenset()) -> _Stage:
        source = self._compile_source(join.for_clause.source, hint)
        var = join.for_clause.var
        build_fns = [self._compile(build) for build, _p, _c in join.keys]
        probe_fns = [self._compile(probe) for _b, probe, _c in join.keys]
        # The pairwise condition is the ``eq`` whose two operands the
        # planner split into build and probe key, so it is assembled
        # from their thunks: no operand is lowered a second time.
        cond_fns = [
            _comparison_thunk(cond.op, build_fn, probe_fn)
            if cond.left is build
            else _comparison_thunk(cond.op, probe_fn, build_fn)
            for (build, _p, cond), build_fn, probe_fn
            in zip(join.keys, build_fns, probe_fns)]
        filter_fns = [self._compile(f) for f in join.filters]
        triples = list(zip(build_fns, probe_fns, cond_fns))
        stats = STATS
        okey = ordinal_key(var) if var in ordinal_vars else None

        class _CompiledJoin:
            """Adapter giving _build/_probe_join_table compiled key
            evaluators under the planner's (build, probe, cond) shape."""
            keys = triples

        def pairwise(t: _Frame, entries) -> Iterator:
            for entry in entries:
                item = entry[1] if okey is not None else entry
                inner = t.bind(var, [item])
                if all(effective_boolean_value(cond(inner))
                       for cond in cond_fns):
                    yield entry

        def build_side(first: _Frame):
            """``(entries, build)``: the join source's items and their
            hash table (None = probe pairwise). The source is
            independent of the stream (the planner rejects correlated
            sources), so one build against the first frame's outer
            bindings serves every frame; absorbed build filters
            (planner-proven independent of the probe side) run here,
            before the table is hashed."""
            items = list(source(first))
            if filter_fns:
                items = [
                    item for item in items
                    if all(effective_boolean_value(
                        f(first.bind(var, [item]))) for f in filter_fns)]
            if okey is None:
                entries: Sequence = items

                def eval_key(build_fn, entry):
                    return single_atomic(
                        build_fn(first.bind(var, [entry])), "join key")
            else:
                # Order-restoring plans carry (position, item) pairs so
                # a downstream RestoreOrderClause can re-sort; positions
                # within the filtered sequence are monotone in original
                # row order, which is all the sort needs.
                entries = list(enumerate(items))

                def eval_key(build_fn, entry):
                    return single_atomic(
                        build_fn(first.bind(var, [entry[1]])), "join key")

            return entries, _build_join_table(_CompiledJoin, entries,
                                              eval_key)

        if self._built_once(join):
            # Nothing the build reads belongs to an enclosing FLWOR, so
            # when this FLWOR is itself re-run per outer tuple (an
            # outer-join let, a correlated EXISTS / IN / scalar body)
            # every run probes the table the first one built.
            build_side = self._once(build_side)

        def join_stage(frames: Iterator[_Frame]) -> Iterator[_Frame]:
            first = next(frames, None)
            if first is None:
                return
            ctx = first.variables.get(CONTEXT_KEY)
            entries, build = build_side(first)
            for t in chain((first,), frames):
                if build is None:
                    matched: Iterable = pairwise(t, entries)
                else:
                    table, categories = build
                    matched = _probe_join_table(
                        _CompiledJoin, table, categories,
                        lambda probe_fn: single_atomic(probe_fn(t),
                                                       "join key"))
                    if matched is _PAIRWISE:
                        matched = pairwise(t, entries)
                tick = None if ctx is None else ctx.tick
                if okey is None:
                    for item in matched:
                        stats.frames += 1
                        if tick is not None:
                            tick()
                        yield t.bind(var, [item])
                else:
                    for position, item in matched:
                        stats.frames += 1
                        if tick is not None:
                            tick()
                        frame = t.bind(var, [item])
                        frame.variables[okey] = position
                        yield frame

        return join_stage

    def _built_once(self, join: HashJoinClause) -> bool:
        """True when *join*'s build side is the same for every run of
        its FLWOR in one execution: source, build keys and absorbed
        filters read only the join's own variable and externals."""
        own = frozenset((join.for_clause.var,))
        return self._fixed(join.for_clause.source) and all(
            self._fixed(expr, own)
            for expr in chain((build for build, _p, _c in join.keys),
                              join.filters))

    def _compile_group(self, clause: ast.GroupClause) -> _Stage:
        key_fns = [(self._compile(key_expr), key_var)
                   for key_expr, key_var in clause.keys]
        source_var = clause.source_var
        partition_var = clause.partition_var

        def group_stage(frames: Iterator[_Frame]) -> Iterator[_Frame]:
            # Pipeline breaker: every input frame must be seen before
            # the first group can be emitted.
            groups: dict[tuple, dict] = {}
            order: list[tuple] = []
            for t in frames:
                key_values = [single_atomic(key_fn(t), "group key")
                              for key_fn, _v in key_fns]
                key = tuple(grouping_key(v) for v in key_values)
                info = groups.get(key)
                if info is None:
                    info = groups[key] = {
                        "first": t,
                        "keys": key_values,
                        "partition": [],
                    }
                    order.append(key)
                info["partition"].extend(t.variables.get(source_var, []))
            for key in order:
                info = groups[key]
                frame = info["first"].bind(partition_var, info["partition"])
                for (_fn, key_var), value in zip(key_fns, info["keys"]):
                    frame = frame.bind(key_var,
                                       [] if value is None else [value])
                yield frame

        return group_stage

    def _compile_order(self, clause: ast.OrderClause) -> _Stage:
        specs = [(self._compile(spec.key), spec.ascending, spec.empty_least)
                 for spec in clause.specs]

        def sort_key(t: _Frame):
            keys = []
            for key_fn, ascending, empty_least in specs:
                value = single_atomic(key_fn(t), "order key")
                key = order_key(value)
                if value is None and not empty_least:
                    key = (2, 0, 0)  # empty greatest
                keys.append(_Directional(key, ascending))
            return keys

        def order_stage(frames: Iterator[_Frame]) -> Iterator[_Frame]:
            # Pipeline breaker: sorted() is stable, which the SQL
            # translation relies on for deterministic multi-key orders.
            yield from sorted(frames, key=sort_key)

        return order_stage

    _COMPILE = {
        ast.XLiteral: _compile_literal,
        ast.VarRef: _compile_varref,
        ast.SequenceExpr: _compile_sequence,
        ast.ContextItem: _compile_context,
        ast.IfExpr: _compile_if,
        ast.OrExpr: _compile_or,
        ast.AndExpr: _compile_and,
        ast.ValueComparison: _compile_value_comparison,
        ast.GeneralComparison: _compile_general_comparison,
        ast.RangeExpr: _compile_range,
        ast.Arithmetic: _compile_arithmetic,
        ast.UnaryMinus: _compile_unary,
        ast.QuantifiedExpr: _compile_quantified,
        ast.PathExpr: _compile_path,
        ast.FilterExpr: _compile_filter,
        ast.XFunctionCall: _compile_function_call,
        ast.ElementConstructor: _compile_constructor,
        ast.FLWOR: _compile_flwor,
    }


def _count_frames(frames: Iterator[_Frame], actuals: dict,
                  node_id) -> Iterator[_Frame]:
    """Pass frames through while tallying the stage's output rows into
    *actuals* (even on partial consumption or an abort mid-stream)."""
    count = 0
    try:
        for t in frames:
            count += 1
            yield t
    finally:
        actuals[node_id] = actuals.get(node_id, 0) + count


def _pipeline(stages: list[_Stage], node_ids: list,
              frame: _Frame) -> Iterator[_Frame]:
    """Thread *frame* through the stage pipeline; when the root frame
    carries an actuals dict, wrap every stage with an output counter so
    EXPLAIN can report estimated vs. actual rows per plan node."""
    frames: Iterator[_Frame] = iter((frame,))
    actuals = frame.variables.get(ACTUALS_KEY)
    if actuals is None:
        for stage in stages:
            frames = stage(frames)
    else:
        for stage, node_id in zip(stages, node_ids):
            frames = _count_frames(stage(frames), actuals, node_id)
    return frames


def _clause_label(clause, built_once: bool = False, note=None) -> str:
    """A short human-readable plan-node label for EXPLAIN output;
    *built_once* marks a hash join whose build side the execution's
    memo keeps (see ``_Compiler._built_once``), *note* says whether the
    batched join re-uses its hash table across executions."""
    if isinstance(clause, HashJoinClause):
        parts = f"{len(clause.keys)} keys"
        if clause.filters:
            parts += f", {len(clause.filters)} filters"
        if built_once:
            parts += ", built once"
        if note:
            parts += f", {note}"
        kind = "left outer hash join" if clause.outer else "hash-join"
        return f"{kind} ${clause.for_clause.var} ({parts})"
    if isinstance(clause, RestoreOrderClause):
        return "restore-order"
    if isinstance(clause, ast.ForClause):
        source = clause.source
        if isinstance(source, ast.XFunctionCall) and not source.args:
            prefix = f"{source.prefix}:" if source.prefix else ""
            return (f"for ${clause.var} in "
                    f"{prefix}{source.local}()")
        return f"for ${clause.var}"
    if isinstance(clause, ast.LetClause):
        return f"let ${clause.var}"
    if isinstance(clause, ast.WhereClause):
        return "where"
    if isinstance(clause, ast.GroupClause):
        return "group"
    if isinstance(clause, ast.OrderClause):
        return "order"
    return type(clause).__name__


def _apply_predicates(items: Sequence, predicates: list[_Thunk],
                      frame: _Frame) -> Sequence:
    for predicate in predicates:
        kept: list = []
        for position, item in enumerate(items, start=1):
            result = predicate(frame.with_context(item, position))
            if (len(result) == 1 and is_numeric_value(result[0])
                    and not isinstance(result[0], bool)):
                if float(result[0]) == position:
                    kept.append(item)
            elif effective_boolean_value(result):
                kept.append(item)
        items = kept
    return items
