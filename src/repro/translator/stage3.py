"""Stage three: XQuery generation.

Paper section 3.4.1: "In stage-three, this transformed AST is traversed
and, based on the context information in the nodes, the XQuery is
generated piece by piece." The pieces here are ``repro.xquery.ast``
nodes, not text: the runtime compiles the tree as built, and
``repro.xquery.printer`` renders it (and alone decides its layout)
where text is wanted.

Generation follows the paper's patterns:

* FROM items → ``for`` clauses over data service functions (Fig. 7);
* derived tables → ``let``-bound ``<RECORDSET>`` trees, iterated with
  ``$temp/RECORD`` (Example 8);
* outer joins → ``let`` + ``if (fn:empty(...)) then ... else ...``
  (Example 10);
* GROUP BY → the BEA ``group`` extension over a (possibly materialized)
  row stream, aggregates over the partition variable (Example 12);
* generated variables follow the ``var<ctx><ZONE><n>`` naming (§3.5.iv);
* expression datatypes computed in stage two become ``xs:`` casts
  (§3.5.v).

SQL three-valued logic is preserved by emitting value comparisons (which
yield the empty sequence on NULL) and the ``fn-bea:`` 3VL combinators; see
DESIGN.md section 5.

Two rules keep the tree what the parser would build from its own text
(``parse_xquery(print_module(m)) == m``): numbers are non-negative
literals under :class:`~repro.xquery.ast.UnaryMinus`, and an expression
the patterns use twice (a BETWEEN operand, say) is copied, never shared —
the compiler memoises FLWOR plans by node identity.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Optional

from ..errors import SQLSemanticError, UnsupportedSQLError
from ..sql import ast
from ..sql.types import SQLType
from ..catalog import sql_to_xs
from ..xquery import ast as xq
from .funcmap import extract_function_for, xquery_function_for
from .rsn import DerivedRSN, JoinRSN, RSN, TableRSN
from .stage2 import (
    BoundItem,
    BoundQuery,
    BoundSelect,
    BoundSetOp,
    BoundSortItem,
    TranslationUnit,
)
from .varnames import VariableAllocator

_EXACT_INT_KINDS = frozenset({"SMALLINT", "INTEGER", "BIGINT"})

_VALUE_COMP_OPS = {"=": "eq", "<>": "ne", "<": "lt", "<=": "le",
                   ">": "gt", ">=": "ge"}

#: A second occurrence of an already generated expression.
_copy = copy.deepcopy

_call = xq.call


def _child(var: str, name: str) -> xq.PathExpr:
    return xq.PathExpr(xq.VarRef(var), (xq.PathStep(name),))


def _empty() -> xq.SequenceExpr:
    return xq.SequenceExpr(())


def _record(cells: list[tuple[str, xq.XExpr]]) -> xq.ElementConstructor:
    return xq.ElementConstructor("RECORD", content=tuple(
        xq.ElementConstructor(element, content=(value,))
        for element, value in cells))


def recordset(stream: xq.XExpr) -> xq.ElementConstructor:
    return xq.ElementConstructor("RECORDSET", content=(stream,))


def _flwor(clauses: list, result: xq.XExpr) -> xq.FLWOR:
    return xq.FLWOR(tuple(clauses), result)


def _not3_if(negated: bool, body: xq.XExpr) -> xq.XExpr:
    return _call("fn-bea:not3", body) if negated else body


@dataclass
class Accessor:
    """How a leaf RSN's rows are reached at a given point in generation.

    Modes: ``direct`` — the leaf's own typed row elements;
    ``record`` — a derived table's RECORDSET rows (children named by the
    inner query's result elements); ``join-record`` — rows of a
    materialized join (children qualified ``binding.column``, whatever
    kind of leaf the column came from).
    """

    var: str
    mode: str            # "direct" | "record" | "join-record"
    rsn: RSN

    def column_path(self, column_name: str) -> xq.PathExpr:
        if self.mode == "direct":
            return _child(self.var, column_name)
        if self.mode == "record" and isinstance(self.rsn, DerivedRSN):
            return _child(self.var, self.rsn.element_for(column_name))
        return _child(self.var,
                      record_element(self.rsn.binding_name, column_name))

    def is_typed(self) -> bool:
        return self.mode == "direct"


def record_element(binding: str, column: str) -> str:
    """Element name for a column inside an internal join RECORD."""
    raw = f"{binding}.{column}"
    return "".join(ch if ch.isalnum() or ch in "._-" else "_"
                   for ch in raw)


@dataclass
class GenContext:
    """Accessors in scope during generation, chained outward for
    correlated references. ``group`` is set while generating post-group
    expressions."""

    accessors: dict[int, Accessor] = field(default_factory=dict)
    parent: Optional["GenContext"] = None
    group: Optional["GroupContext"] = None

    def child(self) -> "GenContext":
        return GenContext(parent=self)

    def register(self, rsn: RSN, accessor: Accessor) -> None:
        self.accessors[id(rsn)] = accessor

    def lookup(self, rsn: RSN) -> Accessor:
        ctx: GenContext | None = self
        while ctx is not None:
            accessor = ctx.accessors.get(id(rsn))
            if accessor is not None:
                return accessor
            ctx = ctx.parent
        # Group contexts deliberately bypass their own query's row
        # variables (invalid after grouping), so a reference landing here
        # crossed a grouped boundary.
        raise UnsupportedSQLError(
            "correlated reference crosses a grouped query boundary or "
            "is otherwise out of scope")


@dataclass
class GroupContext:
    """Post-group evaluation state (paper Example 12)."""

    partition_var: str
    keys: list[tuple[ast.Expr, str]]          # (group-by expr, key var)
    make_row_context: Callable[[str], GenContext]

    def key_var_for(self, expr: ast.Expr) -> Optional[str]:
        for key_expr, var in self.keys:
            if expr == key_expr:
                return var
        return None


@dataclass
class _GroupRows:
    """The row stream feeding a group stage."""

    source: xq.XExpr
    factory: Callable[[str], GenContext]
    lets: list[xq.LetClause]
    where_pending: bool


@dataclass
class _SourcePlan:
    """The FLWOR clauses a FROM clause compiles to."""

    lets: list[xq.LetClause] = field(default_factory=list)
    fors: list[xq.ForClause] = field(default_factory=list)
    conditions: list[ast.Expr] = field(default_factory=list)


class Generator:
    """Builds the XQuery tree of a TranslationUnit."""

    def __init__(self, unit: TranslationUnit):
        self._unit = unit
        self._alloc = VariableAllocator()
        self._imports: dict[tuple[str, str | None], str] = {}

    # -- entry points ----------------------------------------------------

    def generate(self, wrap: Callable[[xq.XExpr], xq.XExpr] = recordset) \
            -> xq.Module:
        """The complete query: prolog + the RECORD stream under *wrap*
        (the ``<RECORDSET>`` constructor, or the section-4 wrapper)."""
        for rsn in self._unit.table_rsns:
            key = (rsn.metadata.namespace, rsn.metadata.schema_location)
            if key not in self._imports:
                self._imports[key] = f"ns{len(self._imports)}"
        prolog = (*(xq.SchemaImport(prefix, uri, location or None)
                    for (uri, location), prefix in self._imports.items()),
                  *(xq.VarDecl(f"p{index}")
                    for index in sorted(self._unit.param_types)))
        return xq.Module(prolog, wrap(self._generate_body()))

    def _generate_body(self) -> xq.XExpr:
        """The RECORD-stream expression without prolog or RECORDSET."""
        stream = self._gen_query(self._unit.bound, GenContext())
        query = self._unit.bound.query
        if query.limit is not None or query.offset is not None:
            # SQL LIMIT/OFFSET maps onto fn:subsequence over the RECORD
            # stream: OFFSET skips (1-based start), LIMIT bounds the
            # length. Applied outside ORDER BY, matching SQL semantics.
            bounds = [xq.XLiteral((query.offset or 0) + 1)]
            if query.limit is not None:
                bounds.append(xq.XLiteral(query.limit))
            stream = _call("fn:subsequence", stream, *bounds)
        return stream

    def _prefix_for(self, rsn: TableRSN) -> str:
        return self._imports[(rsn.metadata.namespace,
                              rsn.metadata.schema_location)]

    # -- query / set operations -----------------------------------------------

    def _gen_query(self, bound: BoundQuery, outer: GenContext,
                   element_names: list[str] | None = None) -> xq.XExpr:
        if isinstance(bound.body, BoundSetOp):
            stream = self._gen_setop(bound.body, outer, element_names)
            if bound.order_by:
                stream = self._order_record_stream(
                    stream, bound, bound.order_by)
            return stream
        return self._gen_select(bound.body, bound.order_by, outer,
                                element_names)

    def _gen_setop(self, setop: BoundSetOp, outer: GenContext,
                   element_names: list[str] | None) -> xq.XExpr:
        names = element_names or [c.element for c in setop.result_columns]
        left = self._gen_body(setop.left, outer, names)
        right = self._gen_body(setop.right, outer, names)
        if setop.op == "UNION":
            both = xq.SequenceExpr((left, right))
            if setop.all:
                return both
            return _call("fn-bea:distinct-records", both)
        function = "fn-bea:intersect-records" if setop.op == "INTERSECT" \
            else "fn-bea:except-records"
        return _call(function, left, right,
                     _call("fn:true" if setop.all else "fn:false"))

    def _gen_body(self, body, outer: GenContext,
                  element_names: list[str]) -> xq.XExpr:
        if isinstance(body, BoundSetOp):
            return self._gen_setop(body, outer, element_names)
        return self._gen_select(body, [], outer, element_names)

    def _order_record_stream(self, stream: xq.XExpr, bound: BoundQuery,
                             order_by: list[BoundSortItem]) -> xq.FLWOR:
        """ORDER BY over an opaque RECORD stream (set operations)."""
        var = self._alloc.var(0, "OB")
        specs = []
        for sort in order_by:
            if sort.item_index is None:
                raise SQLSemanticError(
                    "ORDER BY over a set operation must use result "
                    "columns or positions")
            column = bound.result_columns[sort.item_index]
            key = self._cast(_call("fn:data", _child(var, column.element)),
                             column.sql_type)
            specs.append(xq.OrderSpec(key, sort.ascending))
        return _flwor([xq.ForClause(var, stream),
                       xq.OrderClause(tuple(specs))], xq.VarRef(var))

    # -- SELECT generation ---------------------------------------------------------

    def _gen_select(self, bound: BoundSelect,
                    order_by: list[BoundSortItem], outer: GenContext,
                    element_names: list[str] | None = None) -> xq.XExpr:
        ctx_id = bound.context.id
        ctx = outer.child()
        plan = _SourcePlan()
        for rsn in bound.scope.rsns:
            self._plan_source(rsn, ctx, ctx_id, plan)

        names = element_names or [item.element for item in bound.items]
        if bound.is_grouped:
            stream = self._gen_grouped(bound, order_by, ctx, outer, ctx_id,
                                       plan, names)
        else:
            stream = self._gen_plain(bound, order_by, ctx, plan, names)
        if bound.distinct:
            stream = _call("fn-bea:distinct-records", stream)
        return stream

    def _gen_plain(self, bound: BoundSelect,
                   order_by: list[BoundSortItem], ctx: GenContext,
                   plan: _SourcePlan, names: list[str]) -> xq.FLWOR:
        clauses = plan.lets + self._row_clauses(
            plan.fors, plan.conditions, bound.where, ctx)
        if order_by:
            clauses.append(self._order_clause(order_by, bound, ctx))
        return _flwor(clauses, self._gen_record(bound.items, names, ctx))

    def _row_clauses(self, fors, conditions, where,
                     ctx: GenContext) -> list:
        """``for`` clauses, then one ``where`` per join condition and
        the WHERE clause."""
        clauses = fors + [xq.WhereClause(self._gen_pred(condition, ctx))
                          for condition in conditions]
        if where is not None:
            clauses.append(xq.WhereClause(self._gen_pred(where, ctx)))
        return clauses

    def _order_clause(self, order_by: list[BoundSortItem],
                      bound: BoundSelect, ctx: GenContext) \
            -> xq.OrderClause:
        specs = []
        for sort in order_by:
            if sort.item_index is not None:
                expr = bound.items[sort.item_index].expr
            else:
                expr = sort.expr
            specs.append(xq.OrderSpec(self._gen_value(expr, ctx),
                                      sort.ascending))
        return xq.OrderClause(tuple(specs))

    def _gen_record(self, items: list[BoundItem], names: list[str],
                    ctx: GenContext) -> xq.ElementConstructor:
        return _record([(element, self._gen_value(item.expr, ctx))
                        for item, element in zip(items, names)])

    # -- grouped SELECT ---------------------------------------------------------------

    def _gen_grouped(self, bound: BoundSelect,
                     order_by: list[BoundSortItem], ctx: GenContext,
                     outer: GenContext, ctx_id: int, plan: _SourcePlan,
                     names: list[str]) -> xq.FLWOR:
        rows = self._rows_for_grouping(bound, ctx, ctx_id, plan)
        if bound.group_by:
            return self._gen_group_by(bound, order_by, outer, ctx_id,
                                      rows, names)
        return self._gen_implicit_group(bound, outer, ctx_id, rows, names)

    def _rows_for_grouping(self, bound: BoundSelect, ctx: GenContext,
                           ctx_id: int, plan: _SourcePlan) \
            -> "_GroupRows":
        """A single row stream for the group stage, plus a factory that
        binds a row variable to accessors (the paper's $inter pattern for
        multi-table grouped queries). ``where_pending`` reports whether
        the WHERE clause still has to be applied before grouping."""
        lets = list(plan.lets)
        leaves = bound.scope.leaf_bindings()
        if len(plan.fors) == 1 and not plan.conditions and \
                len(leaves) == 1:
            source_rsn = leaves[0]
            mode = "direct" if isinstance(source_rsn, TableRSN) \
                else "record"

            def factory(row_var: str,
                        rsn=source_rsn, m=mode) -> GenContext:
                inner = ctx.child()
                inner.register(rsn, Accessor(var=row_var, mode=m, rsn=rsn))
                return inner

            return _GroupRows(source=plan.fors[0].source, factory=factory,
                              lets=lets,
                              where_pending=bound.where is not None)
        # General case: materialize the (filtered, joined) rows into an
        # intermediate RECORDSET, as the paper does with $inter.
        inner_rows = _flwor(
            self._row_clauses(plan.fors, plan.conditions, bound.where, ctx),
            _record(self._join_record_columns(leaves, ctx)))
        inter = self._alloc.tempvar(ctx_id, "GB")
        lets.append(xq.LetClause(inter, recordset(inner_rows)))

        def factory(row_var: str) -> GenContext:
            inner = ctx.child()
            for leaf in leaves:
                inner.register(leaf, Accessor(var=row_var,
                                              mode="join-record",
                                              rsn=leaf))
            return inner

        return _GroupRows(source=_child(inter, "RECORD"), factory=factory,
                          lets=lets, where_pending=False)

    def _gen_group_by(self, bound, order_by, outer, ctx_id, rows,
                      names) -> xq.FLWOR:
        row_var = self._alloc.var(ctx_id, "GB")
        row_ctx = rows.factory(row_var)
        partition_var = self._alloc.partition(ctx_id)
        keys: list[tuple[ast.Expr, str]] = []
        key_clauses = []
        for key_expr in bound.group_by:
            key_var = self._alloc.var(ctx_id, "GB")
            keys.append((key_expr, key_var))
            key_clauses.append((self._gen_value(key_expr, row_ctx),
                                key_var))
        # Post-group expressions must not see this query's row variables;
        # the group context chains straight to the *outer* scope so
        # correlated references still resolve.
        group_ctx = GenContext(parent=outer)
        group_ctx.group = GroupContext(
            partition_var=partition_var, keys=keys,
            make_row_context=rows.factory)

        clauses = rows.lets + [xq.ForClause(row_var, rows.source)]
        if rows.where_pending and bound.where is not None:
            clauses.append(
                xq.WhereClause(self._gen_pred(bound.where, row_ctx)))
        clauses.append(xq.GroupClause(row_var, partition_var,
                                      tuple(key_clauses)))
        if bound.having is not None:
            clauses.append(
                xq.WhereClause(self._gen_pred(bound.having, group_ctx)))
        if order_by:
            clauses.append(self._order_clause(order_by, bound, group_ctx))
        return _flwor(clauses,
                      self._gen_record(bound.items, names, group_ctx))

    def _gen_implicit_group(self, bound, outer, ctx_id, rows,
                            names) -> xq.FLWOR:
        """Aggregates without GROUP BY: one group over all rows."""
        partition_var = self._alloc.partition(ctx_id)
        group_ctx = GenContext(parent=outer)
        group_ctx.group = GroupContext(
            partition_var=partition_var, keys=[],
            make_row_context=rows.factory)
        source = rows.source
        if rows.where_pending and bound.where is not None:
            row_var = self._alloc.var(ctx_id, "GB")
            row_ctx = rows.factory(row_var)
            source = _flwor(
                [xq.ForClause(row_var, rows.source),
                 xq.WhereClause(self._gen_pred(bound.where, row_ctx))],
                xq.VarRef(row_var))
        clauses = rows.lets + [xq.LetClause(partition_var, source)]
        result = self._gen_record(bound.items, names, group_ctx)
        if bound.having is not None:
            result = xq.IfExpr(self._gen_pred(bound.having, group_ctx),
                               result, _empty())
        return _flwor(clauses, result)

    # -- FROM planning -----------------------------------------------------------------

    def _plan_source(self, rsn: RSN, ctx: GenContext, ctx_id: int,
                     plan: _SourcePlan) -> None:
        if isinstance(rsn, TableRSN):
            var = self._alloc.var(ctx_id, "FR")
            ctx.register(rsn, Accessor(var=var, mode="direct", rsn=rsn))
            plan.fors.append(xq.ForClause(var, self._table_call(rsn)))
            return
        if isinstance(rsn, DerivedRSN):
            temp = self._alloc.tempvar(ctx_id, "FR")
            inner = self._gen_query(rsn.bound_query, ctx)
            plan.lets.append(xq.LetClause(temp, recordset(inner)))
            var = self._alloc.var(ctx_id, "FR")
            ctx.register(rsn, Accessor(var=var, mode="record", rsn=rsn))
            plan.fors.append(xq.ForClause(var, _child(temp, "RECORD")))
            return
        assert isinstance(rsn, JoinRSN)
        if rsn.contains_outer():
            temp = self._alloc.tempvar(ctx_id, "FR")
            join_expr, join_lets = self._gen_join(rsn, ctx, ctx_id)
            plan.lets.extend(join_lets)
            plan.lets.append(xq.LetClause(temp, recordset(join_expr)))
            var = self._alloc.var(ctx_id, "FR")
            for leaf in rsn.leaf_bindings():
                ctx.register(leaf, Accessor(var=var, mode="join-record",
                                            rsn=leaf))
            plan.fors.append(xq.ForClause(var, _child(temp, "RECORD")))
            return
        # Inner/cross joins flatten into for clauses plus conditions.
        self._plan_source(rsn.left, ctx, ctx_id, plan)
        self._plan_source(rsn.right, ctx, ctx_id, plan)
        if rsn.condition is not None:
            plan.conditions.append(rsn.condition)

    def _table_call(self, rsn: TableRSN) -> xq.XFunctionCall:
        return xq.XFunctionCall(self._prefix_for(rsn),
                                rsn.metadata.function_name, ())

    # -- join materialization -------------------------------------------------------------

    def _gen_join(self, join: JoinRSN, outer_ctx: GenContext,
                  ctx_id: int) -> tuple[xq.XExpr, list]:
        """An outer-join RECORD stream per the paper's Example 10."""
        lets: list[xq.LetClause] = []
        ctx = outer_ctx.child()
        kind = join.kind
        left, right = join.left, join.right
        if kind == "RIGHT":
            left, right = right, left
            kind = "LEFT"
        left_var, left_source = self._join_side_source(
            left, ctx, ctx_id, lets)
        right_rows = self._join_side_rows(right, ctx, ctx_id, lets)
        right_var = self._alloc.var(ctx_id, "FR")
        self._register_join_side(right, ctx, right_var)

        left_cols = self._join_record_columns(left.leaf_bindings(), ctx)
        right_cols = self._join_record_columns(right.leaf_bindings(), ctx)

        if kind == "CROSS" or kind == "INNER":
            conditions = [] if join.condition is None else [join.condition]
            return _flwor(
                self._row_clauses([xq.ForClause(left_var, left_source),
                                   xq.ForClause(right_var, right_rows)],
                                  conditions, None, ctx),
                _record(left_cols + right_cols)), lets

        assert kind in ("LEFT", "FULL")
        temp = self._alloc.tempvar(ctx_id, "FR")
        matched = _flwor(
            [xq.ForClause(right_var, right_rows),
             xq.WhereClause(self._join_condition(join, ctx))],
            xq.VarRef(right_var))
        left_outer = _flwor(
            [xq.ForClause(left_var, left_source),
             xq.LetClause(temp, matched)],
            xq.IfExpr(
                _call("fn:empty", xq.VarRef(temp)),
                _record(left_cols),
                _flwor([xq.ForClause(right_var, xq.VarRef(temp))],
                       _record(left_cols + right_cols))))
        if kind == "LEFT":
            return left_outer, lets
        # FULL OUTER: append right-side rows with no left match, found
        # by the join condition with the left side bound to a fresh
        # variable.
        anti_left_var = self._alloc.var(ctx_id, "FR")
        anti_temp = self._alloc.tempvar(ctx_id, "FR")
        anti_ctx = ctx.child()
        for leaf in left.leaf_bindings():
            anti_ctx.register(leaf, Accessor(
                var=anti_left_var, mode=ctx.lookup(leaf).mode, rsn=leaf))
        unmatched = _flwor(
            [xq.ForClause(anti_left_var, left_source),
             xq.WhereClause(self._join_condition(join, anti_ctx))],
            xq.VarRef(anti_left_var))
        anti = _flwor(
            [xq.ForClause(right_var, right_rows),
             xq.LetClause(anti_temp, unmatched),
             xq.WhereClause(_call("fn:empty", xq.VarRef(anti_temp)))],
            _record(right_cols))
        return xq.SequenceExpr((left_outer, anti)), lets

    def _join_condition(self, join: JoinRSN, ctx: GenContext) -> xq.XExpr:
        if join.condition is None:
            return _call("fn:true")
        return self._gen_pred(join.condition, ctx)

    def _join_side_source(self, side: RSN, ctx: GenContext, ctx_id: int,
                          lets: list) -> tuple[str, xq.XExpr]:
        """(iteration variable, row-source expression) for a join side,
        registering accessors for its leaves."""
        rows = self._join_side_rows(side, ctx, ctx_id, lets)
        var = self._alloc.var(ctx_id, "FR")
        self._register_join_side(side, ctx, var)
        return var, rows

    def _join_side_rows(self, side: RSN, ctx: GenContext, ctx_id: int,
                        lets: list) -> xq.XExpr:
        if isinstance(side, TableRSN):
            return self._table_call(side)
        if isinstance(side, DerivedRSN):
            temp = self._alloc.tempvar(ctx_id, "FR")
            inner = self._gen_query(side.bound_query, ctx)
        else:
            assert isinstance(side, JoinRSN)
            inner, inner_lets = self._gen_join(side, ctx, ctx_id)
            lets.extend(inner_lets)
            temp = self._alloc.tempvar(ctx_id, "FR")
        lets.append(xq.LetClause(temp, recordset(inner)))
        return _child(temp, "RECORD")

    def _register_join_side(self, side: RSN, ctx: GenContext,
                            var: str) -> None:
        if isinstance(side, TableRSN):
            ctx.register(side, Accessor(var=var, mode="direct", rsn=side))
            return
        if isinstance(side, DerivedRSN):
            # The side's rows are the derived table's own RECORDs.
            ctx.register(side, Accessor(var=var, mode="record", rsn=side))
            return
        # A nested, materialized join: rows carry binding.column names.
        for leaf in side.leaf_bindings():
            ctx.register(leaf, Accessor(var=var, mode="join-record",
                                        rsn=leaf))

    def _join_record_columns(self, leaves: list[RSN], ctx: GenContext) \
            -> list[tuple[str, xq.XExpr]]:
        """(element, value) per column of *leaves*, named
        ``binding.column``: the cells of an internal join RECORD."""
        columns = []
        for leaf in leaves:
            accessor = ctx.lookup(leaf)
            for column in leaf.columns():
                columns.append((
                    record_element(leaf.binding_name, column.name),
                    _call("fn:data", accessor.column_path(column.name))))
        return columns

    # -- predicates (three-valued logic) ---------------------------------------------------

    def _gen_pred(self, expr: ast.Expr, ctx: GenContext) -> xq.XExpr:
        if isinstance(expr, ast.Comparison):
            return xq.ValueComparison(_VALUE_COMP_OPS[expr.op],
                                      self._gen_value(expr.left, ctx),
                                      self._gen_value(expr.right, ctx))
        if isinstance(expr, ast.And):
            return _call("fn-bea:and3", self._gen_pred(expr.left, ctx),
                         self._gen_pred(expr.right, ctx))
        if isinstance(expr, ast.Or):
            return _call("fn-bea:or3", self._gen_pred(expr.left, ctx),
                         self._gen_pred(expr.right, ctx))
        if isinstance(expr, ast.Not):
            return _call("fn-bea:not3", self._gen_pred(expr.operand, ctx))
        if isinstance(expr, ast.IsNull):
            return _call("fn:exists" if expr.negated else "fn:empty",
                         self._gen_value(expr.operand, ctx))
        if isinstance(expr, ast.Between):
            operand = self._gen_value(expr.operand, ctx)
            low = self._gen_value(expr.low, ctx)
            high = self._gen_value(expr.high, ctx)
            return _not3_if(expr.negated, _call(
                "fn-bea:and3",
                xq.ValueComparison("ge", operand, low),
                xq.ValueComparison("le", _copy(operand), high)))
        if isinstance(expr, ast.InList):
            operand = self._gen_value(expr.operand, ctx)
            values = [self._gen_value(item, ctx) for item in expr.items]
            if all(isinstance(item, ast.Literal) for item in expr.items):
                # Literal lists (the common reporting shape, sometimes
                # hundreds of values) translate to one flat membership
                # test: no item can be NULL, so fn-bea:in3 is exactly the
                # OR-chain's semantics without its nesting depth.
                members = values[0] if len(values) == 1 \
                    else xq.SequenceExpr(tuple(values))
                return _not3_if(expr.negated,
                                _call("fn-bea:in3", operand, members))
            body = xq.ValueComparison("eq", operand, values[0])
            for value in values[1:]:
                body = _call("fn-bea:or3", body, xq.ValueComparison(
                    "eq", _copy(operand), value))
            return _not3_if(expr.negated, body)
        if isinstance(expr, ast.InSubquery):
            return _not3_if(expr.negated, _call(
                "fn-bea:in3", self._gen_value(expr.operand, ctx),
                self._subquery_column_stream(expr.query, ctx)))
        if isinstance(expr, ast.QuantifiedComparison):
            function = "fn-bea:any3" if expr.quantifier == "ANY" \
                else "fn-bea:all3"
            return _call(function, self._gen_value(expr.left, ctx),
                         self._subquery_column_stream(expr.query, ctx),
                         xq.XLiteral(_VALUE_COMP_OPS[expr.op]))
        if isinstance(expr, ast.Like):
            args = [self._gen_value(expr.operand, ctx),
                    self._gen_value(expr.pattern, ctx)]
            if expr.escape is not None:
                args.append(self._gen_value(expr.escape, ctx))
            return _not3_if(expr.negated,
                            _call("fn-bea:sql-like", *args))
        if isinstance(expr, ast.Exists):
            return _call("fn:exists", self._gen_subquery(expr.query, ctx))
        raise UnsupportedSQLError(
            f"unsupported predicate {type(expr).__name__}")

    def _gen_subquery(self, query: ast.Query, ctx: GenContext) -> xq.XExpr:
        bound = self._unit.subqueries[id(query)]
        return self._gen_query(bound, ctx)

    def _subquery_column_stream(self, query: ast.Query,
                                ctx: GenContext) -> xq.PathExpr:
        bound = self._unit.subqueries[id(query)]
        stream = self._gen_query(bound, ctx)
        element = bound.result_columns[0].element
        return xq.PathExpr(stream, (xq.PathStep(element),))

    # -- value expressions ----------------------------------------------------------------

    def _cast(self, value: xq.XExpr,
              sql_type: Optional[SQLType]) -> xq.XExpr:
        if sql_type is None:
            return value
        return xq.XFunctionCall("xs", sql_to_xs(sql_type), (value,))

    def _gen_value(self, expr: ast.Expr, ctx: GenContext) -> xq.XExpr:
        if ctx.group is not None:
            key_var = ctx.group.key_var_for(expr)
            if key_var is not None:
                return xq.VarRef(key_var)
            if isinstance(expr, ast.AggregateCall):
                return self._gen_aggregate(expr, ctx)
        if isinstance(expr, ast.Literal):
            return self._gen_literal(expr)
        if isinstance(expr, ast.NullLiteral):
            return _empty()
        if isinstance(expr, ast.Parameter):
            return xq.VarRef(f"p{expr.index}")
        if isinstance(expr, ast.ColumnRef):
            return self._gen_column(expr, ctx)
        if isinstance(expr, ast.UnaryOp):
            value = self._gen_value(expr.operand, ctx)
            return xq.UnaryMinus(value) if expr.op == "-" else value
        if isinstance(expr, ast.BinaryOp):
            return self._gen_binary(expr, ctx)
        if isinstance(expr, ast.FunctionCall):
            return self._gen_function(expr, ctx)
        if isinstance(expr, ast.AggregateCall):
            raise SQLSemanticError(
                f"aggregate {expr.func} used outside a grouped query")
        if isinstance(expr, ast.CaseExpr):
            return self._gen_case(expr, ctx)
        if isinstance(expr, ast.Cast):
            return self._gen_cast(expr, ctx)
        if isinstance(expr, ast.ExtractExpr):
            return self._gen_extract(expr, ctx)
        if isinstance(expr, ast.TrimExpr):
            return self._gen_trim(expr, ctx)
        if isinstance(expr, ast.ScalarSubquery):
            stream = self._gen_subquery(expr.query, ctx)
            return self._cast(_call("fn-bea:scalar", stream),
                              self._unit.type_of(expr))
        raise UnsupportedSQLError(
            f"unsupported value expression {type(expr).__name__}")

    def _gen_literal(self, literal: ast.Literal) -> xq.XExpr:
        value = literal.value
        if isinstance(value, str):
            return xq.XLiteral(value)
        if isinstance(value, bool):
            return _call("fn:true" if value else "fn:false")
        if isinstance(value, int):
            return _call("xs:int" if -2147483648 <= value < 2147483648
                         else "xs:long", xq.XLiteral(value))
        if isinstance(value, Decimal):
            # XQuery reads digits without a fraction as an integer.
            whole = value == value.to_integral_value() \
                and value.as_tuple().exponent >= 0
            return _call("xs:decimal",
                         xq.XLiteral(int(value) if whole else value))
        if isinstance(value, float):
            return _call("xs:double", xq.XLiteral(repr(value)))
        kind = literal.type.kind
        if kind == "DATE":
            return _call("xs:date", xq.XLiteral(value.isoformat()))
        if kind == "TIME":
            return _call("xs:time", xq.XLiteral(value.isoformat()))
        if kind == "TIMESTAMP":
            return _call("xs:dateTime",
                         xq.XLiteral(value.isoformat(sep="T")))
        raise UnsupportedSQLError(f"cannot render literal {value!r}")

    def _gen_column(self, ref: ast.ColumnRef, ctx: GenContext) -> xq.XExpr:
        resolution = self._unit.resolution_of(ref)
        accessor = ctx.lookup(resolution.rsn)
        data = _call("fn:data",
                     accessor.column_path(resolution.column.name))
        if accessor.is_typed():
            return data
        return self._cast(data, resolution.column.sql_type)

    def _gen_binary(self, expr: ast.BinaryOp, ctx: GenContext) -> xq.XExpr:
        left = self._gen_value(expr.left, ctx)
        right = self._gen_value(expr.right, ctx)
        if expr.op == "||":
            return _call("fn-bea:sql-concat", left, right)
        op = expr.op
        if op == "/":
            left_type = self._unit.type_of(expr.left)
            right_type = self._unit.type_of(expr.right)
            if left_type is not None and right_type is not None and \
                    left_type.kind in _EXACT_INT_KINDS and \
                    right_type.kind in _EXACT_INT_KINDS:
                op = "idiv"
            else:
                op = "div"
        return xq.Arithmetic(op, left, right)

    def _gen_function(self, expr: ast.FunctionCall,
                      ctx: GenContext) -> xq.XExpr:
        name = expr.name.upper()
        args = [self._gen_value(arg, ctx) for arg in expr.args]
        if name == "COALESCE":
            body = args[-1]
            for arg in reversed(args[:-1]):
                body = _call("fn-bea:if-empty", arg, body)
            return body
        if name == "NULLIF":
            return xq.IfExpr(xq.ValueComparison("eq", args[0], args[1]),
                             _empty(), _copy(args[0]))
        if name == "MOD":
            return xq.Arithmetic("mod", args[0], args[1])
        if name == "ROUND":
            if len(args) == 1:
                return _call("fn:round", args[0])
            return _call("fn-bea:sql-round", args[0], args[1])
        return _call(xquery_function_for(name), *args)

    def _gen_case(self, expr: ast.CaseExpr, ctx: GenContext) -> xq.XExpr:
        branches = []
        for when, then in expr.whens:
            if expr.operand is not None:
                condition = xq.ValueComparison(
                    "eq", self._gen_value(expr.operand, ctx),
                    self._gen_value(when, ctx))
            else:
                condition = self._gen_pred(when, ctx)
            branches.append((condition, self._gen_value(then, ctx)))
        result = self._gen_value(expr.else_, ctx) \
            if expr.else_ is not None else _empty()
        for condition, value in reversed(branches):
            result = xq.IfExpr(condition, value, result)
        return result

    def _gen_cast(self, expr: ast.Cast, ctx: GenContext) -> xq.XExpr:
        value = self._gen_value(expr.operand, ctx)
        target = expr.target
        if target.kind in ("CHAR", "VARCHAR") and target.length is not None:
            return _call("fn-bea:sql-substring", _call("xs:string", value),
                         xq.XLiteral(1), xq.XLiteral(target.length))
        if target.kind == "DECIMAL" and target.scale is not None:
            return _call("fn-bea:sql-round", _call("xs:decimal", value),
                         xq.XLiteral(target.scale))
        return self._cast(value, target)

    def _gen_extract(self, expr: ast.ExtractExpr,
                     ctx: GenContext) -> xq.XExpr:
        source_type = self._unit.type_of(expr.source)
        kind = source_type.kind if source_type is not None else "TIMESTAMP"
        return _call(extract_function_for(expr.field, kind),
                     self._gen_value(expr.source, ctx))

    def _gen_trim(self, expr: ast.TrimExpr, ctx: GenContext) -> xq.XExpr:
        chars = self._gen_value(expr.chars, ctx) \
            if expr.chars is not None else xq.XLiteral(" ")
        source = self._gen_value(expr.source, ctx)
        return _call("fn-bea:sql-trim", xq.XLiteral(expr.mode), chars,
                     source)

    # -- aggregates ----------------------------------------------------------------------

    def _gen_aggregate(self, expr: ast.AggregateCall,
                       ctx: GenContext) -> xq.XExpr:
        group = ctx.group
        assert group is not None
        partition = xq.VarRef(group.partition_var)
        if expr.star:
            return _call("fn:count", partition)
        row_var = self._alloc.var(0, "SL")
        row_ctx = group.make_row_context(row_var)
        values: xq.XExpr = _flwor(
            [xq.ForClause(row_var, partition)],
            self._gen_value(expr.arg, row_ctx))
        if expr.distinct:
            values = _call("fn:distinct-values", values)
        if expr.func == "SUM":
            return _call("fn:sum", values, _empty())
        if expr.func in ("COUNT", "AVG", "MIN", "MAX"):
            return _call(f"fn:{expr.func.lower()}", values)
        raise UnsupportedSQLError(f"unknown aggregate {expr.func}")
