"""Compilation of the XQuery dialect: plan once, pick the executor once.

A module whose body is translated SQL — the section-4 delimited wrapper
``fn:string-join(..., "")`` or the ``<RECORDSET>{...}</RECORDSET>``
constructor — is planned here and lowered onto the columnar batch
executor (``repro.xquery.vector``), which runs every statement the
translator writes. Everything else is run by the tree-walking
``Evaluator``: user-written XQuery text, logical data-service bodies,
the hand-written shapes the lowering declines (each under one of
``vector.DECLINE_REASONS``), and a run whose parameter is bound to a node
or a sequence (``param_shape``). The Evaluator reads the module, never
the plan: it runs the FLWOR clauses as written.

Each FLWOR is planned once per compile (``_Compiler._planned``): the
planner's clause list, its advisory pushdown hints, and stage 3's
outer-join pattern; the vector lowering reads it, EXPLAIN the operator
tree built from it. :meth:`CompiledQuery.evaluate`,
``stream_chunks`` and ``stream_columns`` are views of the one executor
a compile picked; the last hands a batched run's typed cells over
before any text is printed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, Optional

from ..errors import XQueryStaticError
from . import ast
from .analysis import bound_vars, free_vars, subexpressions
from .atomic import Sequence
from .evaluator import (
    CONTEXT_KEY,
    Evaluator,
    FunctionResolver,
    StaticContext,
    _Frame,
    bind_module_variables,
)
from .functions import FN_URI, XS_URI, is_builtin_namespace
from .planner import (
    CostEstimator,
    OuterJoin,
    RestoreOrderClause,
    match_outer_join,
    plan_clauses,
    scan_requests,
)
from .vector import try_compile_body


class CompiledQuery:
    """A planned module, ready for repeated evaluation.

    One instance is safe to share across threads and evaluations: all
    mutable state lives in the per-call frames. The DSP runtime caches
    these in a bounded LRU keyed by the query (text or statement key).
    """

    __slots__ = ("module", "compile_seconds", "batched_reason",
                 "vector_plan", "streams_text", "_resolver", "_estimator")

    def __init__(self, module: ast.Module,
                 resolver: Optional[FunctionResolver],
                 compile_seconds: float, streams_text: bool,
                 vector_plan=None, batched_reason: Optional[str] = None,
                 estimator: Optional[CostEstimator] = None):
        self.module = module
        self.compile_seconds = compile_seconds
        #: Why the vector lowering declined this body (one of
        #: ``repro.xquery.vector.DECLINE_REASONS``); None when batched
        #: or when it was never asked (no columnar host, not a
        #: translated body).
        self.batched_reason = batched_reason
        #: The executing ``repro.xquery.vector._VectorPlan`` when
        #: ``batched``; None when the Evaluator runs it.
        self.vector_plan = vector_plan
        #: True when the body is a text wrapper (top-level
        #: ``fn:string-join(..., "lit")``), whose one string
        #: :meth:`stream_chunks` yields in pieces.
        self.streams_text = streams_text
        self._resolver = resolver
        #: The compile's cost estimator, None without statistics.
        self._estimator = estimator

    @property
    def batched(self) -> bool:
        """True when the columnar batch executor runs this module."""
        return self.vector_plan is not None

    @property
    def plan_reports(self) -> list:
        """Per-FLWOR plan-node reports of the vector plan (none when the
        Evaluator runs the module): labels, and rows estimated from the
        statistics current now (None without statistics). Each call
        reads statistics; running the plan never does. See
        :meth:`evaluate` for the actual counts."""
        if self.vector_plan is None:
            return []
        return self.vector_plan.plan_reports(self._estimator)

    @property
    def executor(self) -> str:
        """EXPLAIN's executor line: ``batched``, or ``evaluator`` with
        the vector lowering's decline code when it was asked."""
        if self.batched:
            return "batched"
        if self.batched_reason is None:
            return "evaluator"
        return f"evaluator (decline: {self.batched_reason})"

    def _batched_result(self, variables, context, actuals):
        """The vector plan's output — a lazy stream of typed column
        batches — or None when the Evaluator runs this module or this
        run (``param_shape``)."""
        if self.vector_plan is None:
            return None
        bindings = bind_module_variables(self.module, variables)
        if context is not None:
            # The lifecycle context rides in the root frame under a
            # reserved key; batch stages tick it once per batch.
            bindings[CONTEXT_KEY] = context
        return self.vector_plan.run(_Frame(bindings), actuals)

    def _interpret(self, variables, context) -> Sequence:
        return Evaluator(self.module, resolver=self._resolver,
                         variables=variables, context=context).evaluate()

    def evaluate(self, variables: Optional[dict[str, object]] = None,
                 context=None, actuals=None) -> Sequence:
        """Materialize the full result sequence. *context* is an
        optional ``repro.engine.lifecycle.QueryContext`` enforcing
        deadline/cancellation during evaluation. *actuals* is an
        optional dict filled with per-plan-node output row counts
        (keys match :attr:`plan_reports` node ids)."""
        if context is not None:
            context.check()
        columns = self._batched_result(variables, context, actuals)
        if columns is None:
            return self._interpret(variables, context)
        if self.streams_text:
            return ["".join(self.vector_plan.encode(columns))]
        return [self.vector_plan.records(columns)]

    def stream_chunks(self, variables: Optional[dict[str, object]] = None,
                      context=None, actuals=None) -> Iterator[str]:
        """Yield the text wrapper's single string result in pieces (only
        when :attr:`streams_text`): batch by batch when batched, whole
        from the Evaluator. ``"".join(...)`` equals :meth:`evaluate`'s
        string byte-for-byte."""
        typed, stream = self.stream_columns(variables, context, actuals)
        return self.vector_plan.encode(stream) if typed else stream

    def stream_columns(self, variables: Optional[dict[str, object]] = None,
                       context=None, actuals=None) -> tuple[bool, Iterator]:
        """The text wrapper's result before it is printed: ``(True,
        batches)`` when the vector plan runs this run — per batch, one
        list per output cell of the values it computed, which
        ``vector_plan.encode`` prints as :meth:`stream_chunks` does —
        else ``(False, chunks)``: the Evaluator's text, as
        :meth:`stream_chunks` yields it."""
        if not self.streams_text:
            raise XQueryStaticError(
                "query body is not a streamable text wrapper")
        columns = self._batched_result(variables, context, actuals)
        if columns is None:
            return False, iter(self._interpret(variables, context))
        return True, columns


def compile_module(module: ast.Module,
                   resolver: Optional[FunctionResolver] = None,
                   statistics=None,
                   batch_size: int = 1024,
                   columnar=None, handles: bool = False) -> CompiledQuery:
    """Plan *module* and pick its executor: a :class:`CompiledQuery`.

    *columnar* — an object exposing the ``column_scan_schema`` /
    ``scan_columns`` columnar-scan API, i.e. the DSP runtime — lets a
    translated body lower onto the batch executor, in batches of
    *batch_size* rows (at least one); without it the Evaluator runs
    the module.

    With a columnar host the planner attaches advisory
    :class:`~repro.sources.spi.ScanRequest` hints to data-service scans
    (the source takes what it can and reports it); each hinted
    conjunct stays in the plan as a residual filter, so hints can only
    shrink scans, never change results.

    *statistics* — a ``(uri, local) -> Optional[TableStatistics]``
    callback for data-service scans — lets the planner reorder a run of
    two or more independent for clauses, smallest estimated input
    first; the reorder restores the original tuple order via ordinals,
    so it changes speed only. It is called only for such a run's
    tables, and again whenever :attr:`CompiledQuery.plan_reports`
    prices the plan's nodes.

    *handles* compiles a DML statement's read (the vector plan's
    ``read_handles``).
    """
    started = time.perf_counter()
    compiler = _Compiler(module, resolver, statistics,
                         batch_size=batch_size, columnar=columnar)
    plan = reason = None
    if columnar is not None:
        plan, reason = try_compile_body(compiler, module.body, handles)
    return CompiledQuery(module, resolver, time.perf_counter() - started,
                         compiler.text_wrapper(module.body) is not None,
                         vector_plan=plan, batched_reason=reason,
                         estimator=compiler._estimator)


@dataclass
class _PlannedFLWOR:
    """One FLWOR after planning — the single object its lowering
    reads: the planner's clauses, advisory scan hints by clause index,
    and the for-variables a restore-order clause re-sorts on (their
    sources carry ordinals). ``outer_join`` is set when the last clause
    and the return are stage 3's left-outer-join pattern: the vector
    lowering runs its join in their place."""

    node: ast.FLWOR
    clauses: list
    hints: dict
    ordinal_vars: frozenset
    outer_join: Optional[OuterJoin] = None


class _Compiler:
    """The planning context of one compile, which the vector lowering
    reads: static namespaces, the cost estimator and planned FLWORs."""

    def __init__(self, module: ast.Module,
                 resolver: Optional[FunctionResolver],
                 statistics=None,
                 batch_size: int = 1024, columnar=None):
        self._static = StaticContext(resolver)
        self._batch_size = max(1, int(batch_size))
        self._columnar = columnar
        self._external_vars = frozenset(
            decl.name for decl in module.prolog
            if isinstance(decl, ast.VarDecl))
        for decl in module.prolog:
            if isinstance(decl, (ast.SchemaImport, ast.NamespaceDecl)):
                self._static.declare(decl.prefix, decl.uri)
        self._module = module
        #: The cost estimator; the plan keeps it to price its nodes, so
        #: its lookup holds the static context, not the compiler.
        self._estimator = None if statistics is None else CostEstimator(
            partial(_table_statistics, self._static, statistics))
        #: id(FLWOR ast node) -> its :class:`_PlannedFLWOR` (which keeps
        #: the node alive, so the id holds).
        self._plans: dict[int, _PlannedFLWOR] = {}

    # -- once per execution ------------------------------------------------

    def _fixed(self, expr: ast.XExpr) -> bool:
        """True when *expr* reads nothing that can change while one
        execution runs: of variables only the module's externals, and
        no context item from outside its own predicates."""
        outer = free_vars(expr)
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
        if not self._fixed(expr):
            return False
        return any(isinstance(node, ast.FLWOR)
                   or _service_call(self._static, node) is not None
                   for node, _p in subexpressions(expr))

    # -- planning ------------------------------------------------------------

    def _planned(self, expr: ast.FLWOR) -> _PlannedFLWOR:
        """The planned form of *expr*, built on first request."""
        planned = self._plans.get(id(expr))
        if planned is None:
            clauses = plan_clauses(expr.clauses, expr.return_expr,
                                   estimator=self._estimator,
                                   external_vars=self._external_vars)
            hints: dict = {}
            # Hints reach a source only through the columnar host's
            # scan_columns; the Evaluator reads whole tables.
            if self._columnar is not None:
                hints = scan_requests(
                    clauses, expr.return_expr, self._external_vars,
                    lambda source: self._scan_call(source) is not None)
            planned = self._plans[id(expr)] = _PlannedFLWOR(
                expr, clauses, hints, frozenset(
                    var for clause in clauses
                    if isinstance(clause, RestoreOrderClause)
                    for var in clause.vars))
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

    def text_wrapper(self, body) -> Optional[tuple]:
        """``(argument, separator)`` when *body* is a top-level
        ``fn:string-join(argument, "literal")`` call, else None."""
        if self._is_fn(body, "string-join", 2) \
                and isinstance(body.args[1], ast.XLiteral) \
                and isinstance(body.args[1].value, str):
            return body.args[0], body.args[1].value
        return None

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

    def _scan_call(self, expr) -> Optional[tuple[str, str]]:
        return _scan_call(self._static, expr)

    def _namespace(self, call) -> Optional[str]:
        return _namespace(self._static, call)


def _table_statistics(static: StaticContext, statistics, source):
    """*statistics* of the table for source *source* scans, if it scans
    one."""
    call = _scan_call(static, source)
    return None if call is None else statistics(*call)


def _scan_call(static: StaticContext, expr) -> Optional[tuple[str, str]]:
    """``(uri, local)`` when *expr* is a zero-argument data-service
    call the resolver will serve (the translator's scan shape,
    ``ns0:CUSTOMERS()``), else None."""
    if isinstance(expr, ast.XFunctionCall) and not expr.args:
        return _service_call(static, expr)
    return None


def _service_call(static: StaticContext,
                  expr) -> Optional[tuple[str, str]]:
    """``(uri, local)`` when *expr* is a call, of any arity, that goes
    to the host's resolver (a data service), else None."""
    uri = _namespace(static, expr) \
        if isinstance(expr, ast.XFunctionCall) else None
    if uri is None or uri == XS_URI or is_builtin_namespace(uri):
        return None
    return uri, expr.local


def _namespace(static: StaticContext, call) -> Optional[str]:
    """The namespace *call*'s prefix resolves to, None when it is
    undeclared (the call then fails when, and if, it runs)."""
    try:
        return static.resolve_prefix(call.prefix)
    except XQueryStaticError:
        return None

