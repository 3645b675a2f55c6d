"""Stage two: semantic validation and AST restructuring.

Paper section 3.4.1: "The second stage modifies the AST produced in
stage-one, moving AST nodes to appropriate locations in the tree where the
tree-walker of stage-three can use them in generating XQuery."

Because our stage-one AST is immutable, the "moved" form is a parallel
*bound tree*: wildcards are expanded into concrete select items using
fetched (and cached) table metadata, every column reference is resolved to
its RSN, every expression's SQL datatype is computed bottom-up with the
SQL promotion rules (section 3.5.v), and the SQL-92 semantic rules the
paper cites (column existence, group-by legality, alias scoping, set
operation compatibility) are enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..catalog import MetadataCache
from ..errors import SQLSemanticError, UnsupportedSQLError
from ..sql import ast, lookup_function
from ..sql.types import (
    BOOLEAN,
    DECIMAL,
    DOUBLE,
    INTEGER,
    VARCHAR,
    SQLType,
    comparable,
    is_character,
    is_datetime,
    is_numeric,
    promote,
)
from ..xmlmodel import is_ncname
from .rsn import (
    ColumnResolution,
    DerivedRSN,
    JoinRSN,
    QueryScope,
    ResultColumn,
    RSN,
    TableRSN,
)
from .stage1 import QueryContext, Stage1Result


@dataclass
class BoundItem:
    """One (wildcard-expanded) select item with its computed type."""

    expr: ast.Expr
    label: str
    element: str
    sql_type: SQLType
    nullable: bool = True


@dataclass
class BoundSortItem:
    """An ORDER BY key: either a result-column index or an expression."""

    ascending: bool
    item_index: Optional[int] = None   # 0-based index into result columns
    expr: Optional[ast.Expr] = None


@dataclass
class BoundSelect:
    """A bound SELECT block (its RSNs, expanded items, and clauses)."""

    select: ast.Select
    context: QueryContext
    scope: QueryScope
    items: list[BoundItem]
    where: Optional[ast.Expr]
    group_by: tuple[ast.Expr, ...]
    having: Optional[ast.Expr]
    distinct: bool

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_by) or self.context.has_aggregates


@dataclass
class BoundSetOp:
    op: str
    all: bool
    left: "BoundBody"
    right: "BoundBody"
    result_columns: list[ResultColumn] = field(default_factory=list)


BoundBody = Union[BoundSelect, BoundSetOp]


@dataclass
class BoundQuery:
    """A bound query expression: body, order keys, result schema."""

    query: ast.Query
    body: BoundBody
    order_by: list[BoundSortItem]
    result_columns: list[ResultColumn]


@dataclass
class TranslationUnit:
    """Everything stage three needs: the bound tree plus side tables."""

    stage1: Stage1Result
    bound: BoundQuery
    types: dict[int, Optional[SQLType]]
    resolutions: dict[int, ColumnResolution]
    param_types: dict[int, SQLType]
    subqueries: dict[int, BoundQuery]  # id(ast.Query) -> BoundQuery
    table_rsns: list[TableRSN]

    def type_of(self, expr: ast.Expr) -> Optional[SQLType]:
        return self.types[id(expr)]

    def resolution_of(self, ref: ast.ColumnRef) -> ColumnResolution:
        return self.resolutions[id(ref)]


class Binder:
    """Performs the stage-two analysis for one statement."""

    def __init__(self, stage1: Stage1Result, metadata: MetadataCache):
        self._stage1 = stage1
        self._metadata = metadata
        self._types: dict[int, Optional[SQLType]] = {}
        self._resolutions: dict[int, ColumnResolution] = {}
        self._param_types: dict[int, SQLType] = {}
        self._param_indexes: set[int] = set()
        self._subqueries: dict[int, BoundQuery] = {}
        self._table_rsns: list[TableRSN] = []

    def bind(self) -> TranslationUnit:
        bound = self._bind_query(self._stage1.query, parent_scope=None)
        for index in self._param_indexes:
            self._param_types.setdefault(index, VARCHAR)
        return TranslationUnit(
            stage1=self._stage1,
            bound=bound,
            types=self._types,
            resolutions=self._resolutions,
            param_types=self._param_types,
            subqueries=self._subqueries,
            table_rsns=self._table_rsns,
        )

    # -- queries ----------------------------------------------------------

    def _bind_query(self, query: ast.Query,
                    parent_scope: Optional[QueryScope]) -> BoundQuery:
        body = self._bind_body(query.body, parent_scope)
        result_columns = _result_columns_of(body)
        order_by = self._bind_order_by(query, body, result_columns)
        bound = BoundQuery(query=query, body=body, order_by=order_by,
                           result_columns=result_columns)
        self._subqueries[id(query)] = bound
        return bound

    def _bind_body(self, body: ast.QueryBody,
                   parent_scope: Optional[QueryScope]) -> BoundBody:
        if isinstance(body, ast.SetOp):
            left = self._bind_body(body.left, parent_scope)
            right = self._bind_body(body.right, parent_scope)
            columns = self._setop_columns(body, left, right)
            return BoundSetOp(op=body.op, all=body.all, left=left,
                              right=right, result_columns=columns)
        assert isinstance(body, ast.Select)
        return self._bind_select(body, parent_scope)

    def _setop_columns(self, op: ast.SetOp, left: BoundBody,
                       right: BoundBody) -> list[ResultColumn]:
        left_cols = _result_columns_of(left)
        right_cols = _result_columns_of(right)
        if len(left_cols) != len(right_cols):
            raise SQLSemanticError(
                f"{op.op} operands have {len(left_cols)} and "
                f"{len(right_cols)} columns")
        merged = []
        for lcol, rcol in zip(left_cols, right_cols):
            merged.append(ResultColumn(
                label=lcol.label, element=lcol.element,
                sql_type=_setop_column_type(op.op, lcol.sql_type,
                                            rcol.sql_type),
                nullable=lcol.nullable or rcol.nullable))
        return merged

    # -- SELECT ------------------------------------------------------------

    def _bind_select(self, select: ast.Select,
                     parent_scope: Optional[QueryScope]) -> BoundSelect:
        context = self._stage1.context_of(select)
        scope = QueryScope(parent=parent_scope if context.correlatable
                           else None)
        for table in select.from_clause:
            scope.rsns.append(self._bind_table(table, scope, parent_scope))
        scope.check_duplicate_bindings()

        # Join conditions are typed once the whole scope is assembled.
        for rsn in scope.rsns:
            self._type_join_conditions(rsn, scope)

        if select.where is not None:
            if ast.contains_aggregate(select.where):
                raise SQLSemanticError(
                    "aggregate functions are not allowed in WHERE")
            self._require_boolean(select.where, scope, "WHERE")
        for key in select.group_by:
            if ast.contains_aggregate(key):
                raise SQLSemanticError(
                    "aggregate functions are not allowed in GROUP BY")
            self._type_expr(key, scope)

        items = self._expand_items(select, scope)
        grouped = bool(select.group_by) or context.has_aggregates
        if grouped:
            for item in items:
                self._check_group_validity(item.expr, select.group_by,
                                           scope, "select list")
        if select.having is not None:
            self._require_boolean(select.having, scope, "HAVING")
            self._check_group_validity(select.having, select.group_by,
                                       scope, "HAVING")

        return BoundSelect(select=select, context=context, scope=scope,
                           items=items, where=select.where,
                           group_by=select.group_by, having=select.having,
                           distinct=select.distinct)

    def _type_join_conditions(self, rsn: RSN, scope: QueryScope) -> None:
        if isinstance(rsn, JoinRSN):
            if rsn.condition is not None:
                if ast.contains_aggregate(rsn.condition):
                    raise SQLSemanticError(
                        "aggregate functions are not allowed in ON")
                self._require_boolean(rsn.condition, scope, "ON")
            self._type_join_conditions(rsn.left, scope)
            self._type_join_conditions(rsn.right, scope)

    def _require_boolean(self, expr: ast.Expr, scope: QueryScope,
                         where: str) -> None:
        sql_type = self._type_expr(expr, scope)
        if sql_type is not None and sql_type.kind != "BOOLEAN":
            raise SQLSemanticError(
                f"{where} condition must be a predicate, got {sql_type}")

    # -- FROM --------------------------------------------------------------

    def _bind_table(self, table: ast.TableExpr, scope: QueryScope,
                    parent_scope: Optional[QueryScope]) -> RSN:
        if isinstance(table, ast.TableRef):
            if table.column_aliases:
                raise UnsupportedSQLError(
                    "column aliases on base tables are not supported")
            metadata = self._metadata.fetch_table(
                table.name, schema=table.schema, catalog=table.catalog)
            rsn = TableRSN(metadata=metadata, alias=table.alias)
            self._table_rsns.append(rsn)
            return rsn
        if isinstance(table, ast.DerivedTable):
            inner = self._bind_query(table.query, parent_scope=None)
            return DerivedRSN(bound_query=inner, alias=table.alias,
                              column_aliases=table.column_aliases)
        assert isinstance(table, ast.Join)
        left = self._bind_table(table.left, scope, parent_scope)
        right = self._bind_table(table.right, scope, parent_scope)
        condition = table.condition
        if table.natural or table.using:
            condition = self._desugar_using(table, left, right)
        if table.kind != "CROSS" and condition is None:
            raise SQLSemanticError(f"{table.kind} JOIN requires a condition")
        return JoinRSN(kind=table.kind, left=left, right=right,
                       condition=condition)

    def _desugar_using(self, join: ast.Join, left: RSN,
                       right: RSN) -> ast.Expr:
        if join.natural:
            left_columns = {c.name for c in left.columns()}
            names = [c.name for c in right.columns()
                     if c.name in left_columns]
            if not names:
                raise SQLSemanticError("NATURAL JOIN with no common columns")
        else:
            names = list(join.using)
        condition: ast.Expr | None = None
        for name in names:
            left_leaf = _leaf_with_column(left, name, "left")
            right_leaf = _leaf_with_column(right, name, "right")
            clause = ast.Comparison(
                op="=",
                left=ast.ColumnRef((left_leaf.binding_name,), name),
                right=ast.ColumnRef((right_leaf.binding_name,), name))
            condition = clause if condition is None else \
                ast.And(left=condition, right=clause)
        assert condition is not None
        return condition

    # -- select items ---------------------------------------------------------

    def _expand_items(self, select: ast.Select,
                      scope: QueryScope) -> list[BoundItem]:
        items: list[BoundItem] = []
        used_elements: set[str] = set()
        for item in select.items:
            if isinstance(item, ast.StarItem):
                items.extend(self._expand_star(item, scope, used_elements))
                continue
            sql_type = self._type_expr(item.expr, scope)
            if sql_type is not None and sql_type.kind == "BOOLEAN":
                raise UnsupportedSQLError(
                    "predicates cannot be projected as columns in SQL-92")
            label = self._item_label(item, len(items))
            element = _element_name(self._item_element(item, len(items)),
                                    used_elements)
            items.append(BoundItem(
                expr=item.expr, label=label, element=element,
                sql_type=sql_type or VARCHAR,
                nullable=self._item_nullable(item.expr)))
        return items

    def _expand_star(self, star: ast.StarItem, scope: QueryScope,
                     used_elements: set[str]) -> list[BoundItem]:
        """The paper's stage-two wildcard expansion: substitute concrete
        column nodes for the column-wildcard using fetched metadata."""
        leaves = [leaf for leaf in scope.leaf_bindings()
                  if not star.qualifier
                  or leaf.matches_qualifier(star.qualifier)]
        if star.qualifier and not leaves:
            raise SQLSemanticError(
                f"unknown qualifier {'.'.join(star.qualifier)} "
                f"in select list")
        items = []
        for leaf in leaves:
            for column in leaf.columns():
                ref = ast.ColumnRef((leaf.binding_name,), column.name)
                self._type_expr(ref, scope)
                element = _element_name(
                    f"{leaf.binding_name}.{column.name}", used_elements)
                items.append(BoundItem(
                    expr=ref, label=column.name, element=element,
                    sql_type=column.sql_type, nullable=column.nullable))
        return items

    def _item_label(self, item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.column
        return f"EXPR${index + 1}"

    def _item_element(self, item: ast.SelectItem, index: int) -> str:
        """Element names follow the SQL display form, as in the paper's
        examples (INFO.ID, CUSTOMERS.CUSTOMERID)."""
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return ".".join(item.expr.qualifier + (item.expr.column,))
        return f"EXPR_{index + 1}"

    def _item_nullable(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.ColumnRef):
            resolution = self._resolutions.get(id(expr))
            if resolution is not None:
                return resolution.column.nullable
        if isinstance(expr, ast.Literal):
            return False
        if isinstance(expr, ast.AggregateCall):
            return expr.func != "COUNT"
        return True

    # -- ORDER BY ---------------------------------------------------------------

    def _bind_order_by(self, query: ast.Query, body: BoundBody,
                       result_columns: list[ResultColumn]) \
            -> list[BoundSortItem]:
        bound: list[BoundSortItem] = []
        for sort in query.order_by:
            if isinstance(sort.key, int):
                if not (1 <= sort.key <= len(result_columns)):
                    raise SQLSemanticError(
                        f"ORDER BY position {sort.key} out of range")
                bound.append(BoundSortItem(ascending=sort.ascending,
                                           item_index=sort.key - 1))
                continue
            index = self._order_alias_index(sort.key, body)
            if index is not None:
                bound.append(BoundSortItem(ascending=sort.ascending,
                                           item_index=index))
                continue
            if isinstance(body, ast.SetOp) or isinstance(body, BoundSetOp):
                raise SQLSemanticError(
                    "ORDER BY over a set operation must use result "
                    "columns or positions")
            assert isinstance(body, BoundSelect)
            if body.distinct:
                raise SQLSemanticError(
                    "ORDER BY over SELECT DISTINCT must use result "
                    "columns or positions")
            if ast.contains_aggregate(sort.key) or body.is_grouped:
                self._check_group_validity(sort.key, body.group_by,
                                           body.scope, "ORDER BY")
            self._type_expr(sort.key, body.scope)
            bound.append(BoundSortItem(ascending=sort.ascending,
                                       expr=sort.key))
        return bound

    def _order_alias_index(self, key: ast.Expr,
                           body: BoundBody) -> Optional[int]:
        if not isinstance(key, ast.ColumnRef) or key.qualifier:
            return None
        labels = [c.label for c in _result_columns_of(body)]
        if labels.count(key.column) > 1:
            raise SQLSemanticError(
                f"ORDER BY column {key.column} is ambiguous")
        if key.column in labels:
            return labels.index(key.column)
        return None

    # -- group-by legality ----------------------------------------------------------

    def _check_group_validity(self, expr: ast.Expr,
                              group_by: tuple[ast.Expr, ...],
                              scope: QueryScope, where: str) -> None:
        """SQL-92: outside aggregates, only grouping columns (or outer
        references, or constants) may appear (paper section 3.4.3's
        EMPNO/EMPNAME example)."""
        if any(expr == key for key in group_by):
            return
        if isinstance(expr, ast.AggregateCall):
            if expr.arg is not None and ast.contains_aggregate(expr.arg):
                raise SQLSemanticError("aggregates cannot be nested")
            return
        if isinstance(expr, ast.ColumnRef):
            resolution = self._resolutions.get(id(expr))
            if resolution is not None and resolution.depth > 0:
                return  # outer (correlated) reference: constant per group
            raise SQLSemanticError(
                f"column {expr.display()} must appear in GROUP BY or an "
                f"aggregate function ({where})")
        if isinstance(expr, (ast.Literal, ast.NullLiteral, ast.Parameter)):
            return
        children = ast.children_of(expr)
        if not children and ast.subqueries_of(expr):
            return  # uncorrelated subquery: constant per group
        for child in children:
            self._check_group_validity(child, group_by, scope, where)

    # -- expression typing --------------------------------------------------------------

    def _type_expr(self, expr: ast.Expr,
                   scope: QueryScope) -> Optional[SQLType]:
        sql_type = self._compute_type(expr, scope)
        self._types[id(expr)] = sql_type
        return sql_type

    def _compute_type(self, expr, scope):  # noqa: C901 - dispatch table
        if isinstance(expr, ast.Literal):
            return expr.type
        if isinstance(expr, ast.NullLiteral):
            return None
        if isinstance(expr, ast.Parameter):
            # None until inference assigns a type from a comparison
            # counterpart; unresolved parameters default to VARCHAR at
            # the end of binding.
            self._param_indexes.add(expr.index)
            return self._param_types.get(expr.index)
        if isinstance(expr, ast.ColumnRef):
            resolution = scope.resolve(expr)
            self._resolutions[id(expr)] = resolution
            return resolution.column.sql_type
        if isinstance(expr, ast.UnaryOp):
            operand = self._type_expr(expr.operand, scope)
            if operand is not None and not is_numeric(operand):
                raise SQLSemanticError(
                    f"unary {expr.op} requires a numeric operand, "
                    f"got {operand}")
            return operand
        if isinstance(expr, ast.BinaryOp):
            return self._type_binary(expr, scope)
        if isinstance(expr, ast.FunctionCall):
            return self._type_function(expr, scope)
        if isinstance(expr, ast.AggregateCall):
            return self._type_aggregate(expr, scope)
        if isinstance(expr, ast.CaseExpr):
            return self._type_case(expr, scope)
        if isinstance(expr, ast.Cast):
            self._type_expr(expr.operand, scope)
            return expr.target
        if isinstance(expr, ast.ExtractExpr):
            source = self._type_expr(expr.source, scope)
            if source is not None and not is_datetime(source):
                raise SQLSemanticError(
                    f"EXTRACT requires a datetime operand, got {source}")
            if expr.field == "SECOND":
                return DECIMAL
            return INTEGER
        if isinstance(expr, ast.TrimExpr):
            return self._type_trim(expr, scope)
        if isinstance(expr, ast.ScalarSubquery):
            inner = self._bind_query(expr.query, parent_scope=scope)
            if len(inner.result_columns) != 1:
                raise SQLSemanticError(
                    f"scalar subquery returns "
                    f"{len(inner.result_columns)} columns")
            return inner.result_columns[0].sql_type
        if isinstance(expr, ast.Comparison):
            self._type_comparison(expr.op, expr.left, expr.right, scope)
            return BOOLEAN
        if isinstance(expr, ast.QuantifiedComparison):
            inner = self._bind_query(expr.query, parent_scope=scope)
            column_type = _single_column_type(inner)
            left = self._type_expr(expr.left, scope)
            self._infer_parameter(expr.left, column_type)
            _check_comparable(left, column_type, expr.op)
            return BOOLEAN
        if isinstance(expr, ast.IsNull):
            self._type_expr(expr.operand, scope)
            return BOOLEAN
        if isinstance(expr, ast.Between):
            self._type_comparison(">=", expr.operand, expr.low, scope)
            self._type_comparison("<=", expr.operand, expr.high, scope)
            return BOOLEAN
        if isinstance(expr, ast.InList):
            for item in expr.items:
                self._type_comparison("=", expr.operand, item, scope)
            return BOOLEAN
        if isinstance(expr, ast.InSubquery):
            inner = self._bind_query(expr.query, parent_scope=scope)
            column_type = _single_column_type(inner)
            left = self._type_expr(expr.operand, scope)
            self._infer_parameter(expr.operand, column_type)
            _check_comparable(left, column_type, "IN")
            return BOOLEAN
        if isinstance(expr, ast.Like):
            operand = self._type_expr(expr.operand, scope)
            pattern = self._type_expr(expr.pattern, scope)
            self._infer_parameter(expr.operand, VARCHAR)
            self._infer_parameter(expr.pattern, VARCHAR)
            for name, sql_type in (("operand", operand),
                                   ("pattern", pattern)):
                if sql_type is not None and not is_character(sql_type):
                    raise SQLSemanticError(
                        f"LIKE {name} must be a character string, "
                        f"got {sql_type}")
            if expr.escape is not None:
                self._type_expr(expr.escape, scope)
                self._infer_parameter(expr.escape, VARCHAR)
            return BOOLEAN
        if isinstance(expr, ast.Exists):
            self._bind_query(expr.query, parent_scope=scope)
            return BOOLEAN
        if isinstance(expr, ast.Not):
            self._require_boolean_operand(expr.operand, scope, "NOT")
            return BOOLEAN
        if isinstance(expr, (ast.And, ast.Or)):
            name = "AND" if isinstance(expr, ast.And) else "OR"
            self._require_boolean_operand(expr.left, scope, name)
            self._require_boolean_operand(expr.right, scope, name)
            return BOOLEAN
        raise UnsupportedSQLError(
            f"unsupported expression {type(expr).__name__}")

    def _require_boolean_operand(self, expr: ast.Expr, scope: QueryScope,
                                 op: str) -> None:
        sql_type = self._type_expr(expr, scope)
        if sql_type is not None and sql_type.kind != "BOOLEAN":
            raise SQLSemanticError(
                f"{op} requires a predicate operand, got {sql_type}")

    def _type_binary(self, expr: ast.BinaryOp, scope: QueryScope):
        left = self._type_expr(expr.left, scope)
        right = self._type_expr(expr.right, scope)
        if expr.op == "||":
            self._infer_parameter(expr.left, VARCHAR)
            self._infer_parameter(expr.right, VARCHAR)
            for sql_type in (left, right):
                if sql_type is not None and not is_character(sql_type):
                    raise SQLSemanticError(
                        f"|| requires character operands, got {sql_type}")
            return VARCHAR
        if left is None and right is None:
            return None
        if left is None:
            self._infer_parameter(expr.left, right)
            return right if is_numeric(right) else _numeric_error(
                expr.op, right)
        if right is None:
            self._infer_parameter(expr.right, left)
            return left if is_numeric(left) else _numeric_error(
                expr.op, left)
        return promote(left, right)

    def _type_function(self, expr: ast.FunctionCall, scope: QueryScope):
        spec = lookup_function(expr.name)
        spec.check_arity(len(expr.args))
        arg_types = [self._type_expr(arg, scope) for arg in expr.args]
        fallback = VARCHAR
        if spec.name in ("COALESCE", "NULLIF"):
            # An untyped argument (NULL, ?) takes its siblings' type.
            fallback = next((t for t in arg_types if t is not None),
                            VARCHAR)
            for arg in expr.args:
                self._infer_parameter(arg, fallback)
        return spec.result_type([fallback if arg_type is None else arg_type
                                 for arg_type in arg_types])

    def _type_aggregate(self, expr: ast.AggregateCall, scope: QueryScope):
        if expr.star:
            return INTEGER
        if ast.contains_aggregate(expr.arg):
            raise SQLSemanticError("aggregates cannot be nested")
        arg_type = self._type_expr(expr.arg, scope)
        if expr.func == "COUNT":
            return INTEGER
        if arg_type is None:
            return None
        if expr.func in ("SUM", "AVG") and not is_numeric(arg_type):
            raise SQLSemanticError(
                f"{expr.func} requires a numeric argument, got {arg_type}")
        if expr.func == "SUM":
            return SQLType(arg_type.kind)
        if expr.func == "AVG":
            return DOUBLE if arg_type.kind in ("REAL", "DOUBLE") \
                else DECIMAL
        return SQLType(arg_type.kind, precision=arg_type.precision,
                       scale=arg_type.scale, length=arg_type.length)

    def _type_case(self, expr: ast.CaseExpr, scope: QueryScope):
        if expr.operand is not None:
            for when, _then in expr.whens:
                self._type_comparison("=", expr.operand, when, scope)
        else:
            for when, _then in expr.whens:
                self._require_boolean_operand(when, scope, "CASE WHEN")
        result: Optional[SQLType] = None
        branches = [then for _when, then in expr.whens]
        if expr.else_ is not None:
            branches.append(expr.else_)
        for branch in branches:
            branch_type = self._type_expr(branch, scope)
            if branch_type is None:
                continue
            if result is None:
                result = branch_type
            elif is_numeric(result) and is_numeric(branch_type):
                result = promote(result, branch_type)
            elif is_character(result) and is_character(branch_type):
                result = VARCHAR
            elif result.kind != branch_type.kind:
                raise SQLSemanticError(
                    f"CASE branches have incompatible types {result} "
                    f"and {branch_type}")
        return result

    def _type_trim(self, expr: ast.TrimExpr, scope: QueryScope):
        source = self._type_expr(expr.source, scope)
        self._infer_parameter(expr.source, VARCHAR)
        if source is not None and not is_character(source):
            raise SQLSemanticError(
                f"TRIM source must be a character string, got {source}")
        if expr.chars is not None:
            chars = self._type_expr(expr.chars, scope)
            if chars is not None and not is_character(chars):
                raise SQLSemanticError(
                    f"TRIM character must be a character string, "
                    f"got {chars}")
        return VARCHAR

    def _type_comparison(self, op: str, left: ast.Expr, right: ast.Expr,
                         scope: QueryScope) -> None:
        left_type = self._type_expr(left, scope)
        right_type = self._type_expr(right, scope)
        if left_type is None and right_type is not None:
            self._infer_parameter(left, right_type)
        if right_type is None and left_type is not None:
            self._infer_parameter(right, left_type)
        _check_comparable(left_type, right_type, op)

    def _infer_parameter(self, expr: ast.Expr,
                         sql_type: Optional[SQLType]) -> None:
        """Adopt the comparison counterpart's type for a ? parameter
        (paper: 'unbound variable names ... in the WHERE clause')."""
        if isinstance(expr, ast.Parameter) and sql_type is not None:
            current = self._param_types.get(expr.index)
            if current is None:
                self._param_types[expr.index] = sql_type
                self._types[id(expr)] = sql_type


def _numeric_error(op: str, sql_type: SQLType):
    raise SQLSemanticError(
        f"arithmetic {op} requires numeric operands, got {sql_type}")


def _check_comparable(left: Optional[SQLType], right: Optional[SQLType],
                      op: str) -> None:
    if left is None or right is None:
        return
    if not comparable(left, right):
        raise SQLSemanticError(
            f"cannot compare {left} with {right} using {op}")


def _single_column_type(query: BoundQuery) -> SQLType:
    if len(query.result_columns) != 1:
        raise SQLSemanticError(
            f"subquery in a predicate must return one column, got "
            f"{len(query.result_columns)}")
    return query.result_columns[0].sql_type


def _setop_column_type(op: str, left: SQLType, right: SQLType) -> SQLType:
    if left.kind == right.kind:
        return left
    if is_numeric(left) and is_numeric(right):
        return promote(left, right)
    if is_character(left) and is_character(right):
        return VARCHAR
    raise SQLSemanticError(
        f"{op} columns have incompatible types {left} and {right}")


def _leaf_with_column(rsn: RSN, column: str, side: str) -> RSN:
    matches = [leaf for leaf in rsn.leaf_bindings()
               if leaf.column(column) is not None]
    if not matches:
        raise SQLSemanticError(
            f"USING column {column} not found on the {side} side")
    if len(matches) > 1:
        raise SQLSemanticError(
            f"USING column {column} is ambiguous on the {side} side")
    return matches[0]


def _result_columns_of(body: BoundBody) -> list[ResultColumn]:
    if isinstance(body, BoundSetOp):
        return body.result_columns
    return [ResultColumn(label=item.label, element=item.element,
                         sql_type=item.sql_type, nullable=item.nullable)
            for item in body.items]


def _element_name(display: str, used: set[str]) -> str:
    """Sanitize a display name into a unique NCName element name."""
    candidate = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                        for ch in display)
    if not candidate or not is_ncname(candidate):
        candidate = "C_" + candidate if candidate and \
            candidate[0].isdigit() else "C" + candidate
    if not is_ncname(candidate):
        candidate = "COL"
    base = candidate
    suffix = 2
    while candidate in used:
        candidate = f"{base}_{suffix}"
        suffix += 1
    used.add(candidate)
    return candidate
