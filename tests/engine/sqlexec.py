"""Reference SQL-92 executor — the translator's correctness oracle.

The paper's first translation goal (section 3.2) is correctness: "the
XQuery must do what the SQL query would have done". To make that testable,
this module evaluates the *same* SQL AST directly over the backing tables
with textbook SQL-92 semantics (three-valued logic, NULL-skipping
aggregates, bag-semantics set operations). Integration tests then assert
that translate → XQuery-execute → decode produces the same multiset of
rows as this executor.

The executor is deliberately naive (nested loops, no indexes): clarity
over speed, since its job is semantics, not performance. It is also the
"direct relational" baseline for the end-to-end benchmarks (experiment
E12 in DESIGN.md).

It lives with the tests and is no part of the product: a write runs on
the vector plan like any read (``repro.engine.dml``). Of the product it
uses the parsed AST, the SQL types and the clock, and no evaluation
code — LIKE included (:func:`like_match`).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from repro import clock
from repro.errors import SQLSemanticError
from repro.sql import ast
from repro.sql.types import SQLType

#: SQL truth values: True, False, and None for UNKNOWN.
Truth = bool | None


@dataclass(frozen=True)
class Binding:
    """One range variable in a FROM scope."""

    name: str                 # range variable: alias or table name
    columns: tuple[str, ...]
    schema: str | None = None
    table: str | None = None  # underlying table name (None for derived)
    aliased: bool = False     # if aliased, schema.table qualification is off


class Relation:
    """An intermediate result: bindings plus rows of per-binding tuples."""

    def __init__(self, bindings: list[Binding],
                 rows: list[tuple[tuple, ...]]):
        self.bindings = bindings
        self.rows = rows


@dataclass
class ResultTable:
    """Final result: flat column list and value rows."""

    columns: list[str]
    rows: list[tuple]


class _Env:
    """Evaluation environment: a scope row plus a link to the outer
    query's environment for correlated subqueries."""

    __slots__ = ("bindings", "row", "parent", "group_rows")

    def __init__(self, bindings, row, parent=None, group_rows=None):
        self.bindings = bindings
        self.row = row
        self.parent = parent
        # For grouped queries: the list of (bindings-aligned) rows of the
        # current group, used by aggregate evaluation.
        self.group_rows = group_rows


def _row_env(binding: Binding | None, row: tuple) -> _Env:
    """The environment of one row of one range variable."""
    return _Env([], ()) if binding is None else _Env([binding], (row,))


def canonical_value(value: object) -> tuple:
    """Canonical hashable form for grouping/distinct/set-op row keys.

    NULLs compare equal to each other here (SQL GROUP BY / DISTINCT / set
    operation semantics), and numeric kinds unify exactly: int and
    Decimal key as themselves (Python hashes ``5`` and ``Decimal("5.0")``
    alike), a float as the Decimal of its repr — no rounding context, so
    two numbers that differ in any digit never share a key.
    """
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, float):
        return ("n", Decimal(repr(value)))
    if isinstance(value, (int, Decimal)):
        return ("n", value)
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, datetime.datetime):
        return ("dt", value.isoformat())
    if isinstance(value, datetime.date):
        return ("d", value.isoformat())
    if isinstance(value, datetime.time):
        return ("t", value.isoformat())
    raise SQLSemanticError(f"cannot key value {value!r}")


def row_key(row: tuple) -> tuple:
    return tuple(canonical_value(v) for v in row)


def like_match(value: str, pattern: str, escape: str | None) -> bool:
    """SQL LIKE, written out here rather than borrowed, so the oracle
    shares no code with what it checks: ``%`` matches any run of
    characters, ``_`` one, and *escape* makes the character after it
    literal. Walks the pattern once, keeping the set of positions in
    *value* the pattern so far can end at."""
    if escape is not None and len(escape) != 1:
        raise SQLSemanticError(
            f"LIKE escape must be a single character, got {escape!r}")
    reachable = {0}
    i = 0
    while i < len(pattern):
        char = pattern[i]
        if char == escape:
            if i + 1 == len(pattern):
                raise SQLSemanticError(
                    "LIKE pattern ends with a dangling escape character")
            i += 1
            literal = pattern[i]
        elif char == "%":
            reachable = set(range(min(reachable), len(value) + 1)) \
                if reachable else set()
            i += 1
            continue
        elif char == "_":
            literal = None
        else:
            literal = char
        reachable = {at + 1 for at in reachable if at < len(value)
                     and (literal is None or value[at] == literal)}
        i += 1
    return len(value) in reachable


class TableProvider:
    """Resolves table references to (column names, rows).

    The default implementation reads a ``repro.engine.table.Storage``;
    the DSP runtime provides one that goes through data service functions.
    """

    def __init__(self, storage):
        self._storage = storage

    def resolve(self, ref: ast.TableRef) \
            -> tuple[list[str], list[tuple], str | None]:
        table = self._storage.table(ref.name)
        return list(table.column_names()), list(table.rows), None


class SQLExecutor:
    """Evaluates SQL Query ASTs with SQL-92 semantics.

    Every join is a nested loop over the two inputs, its ON condition
    evaluated once per pair in written order, so the oracle raises
    wherever the condition would: no fast path can skip a pair.
    """

    def __init__(self, provider: TableProvider,
                 parameters: list | tuple = ()):
        self._provider = provider
        self._parameters = list(parameters)

    # -- entry point ------------------------------------------------------

    def execute(self, query: ast.Query) -> ResultTable:
        return self._execute_query(query, env=None)

    def _execute_query(self, query: ast.Query,
                       env: _Env | None) -> ResultTable:
        if isinstance(query.body, ast.SetOp):
            result = self._execute_setop(query.body, env)
            if query.order_by:
                result = self._order_result(result, query.order_by)
            return result
        return self._execute_select(query.body, query.order_by, env)

    # -- set operations --------------------------------------------------------

    def _body_result(self, body: ast.QueryBody,
                     env: _Env | None) -> ResultTable:
        if isinstance(body, ast.SetOp):
            return self._execute_setop(body, env)
        return self._execute_select(body, (), env)

    def _execute_setop(self, op: ast.SetOp, env: _Env | None) -> ResultTable:
        left = self._body_result(op.left, env)
        right = self._body_result(op.right, env)
        if len(left.columns) != len(right.columns):
            raise SQLSemanticError(
                f"{op.op} operands have {len(left.columns)} and "
                f"{len(right.columns)} columns")
        if op.op == "UNION":
            rows = left.rows + right.rows
            if not op.all:
                rows = _distinct_rows(rows)
            return ResultTable(columns=left.columns, rows=rows)
        right_bag = _bag(right.rows)
        if op.op == "INTERSECT":
            rows = []
            taken: dict[tuple, int] = {}
            for row in left.rows:
                key = row_key(row)
                available = right_bag.get(key, 0)
                used = taken.get(key, 0)
                if available == 0:
                    continue
                if op.all:
                    if used < available:
                        taken[key] = used + 1
                        rows.append(row)
                else:
                    if used == 0:
                        taken[key] = 1
                        rows.append(row)
            return ResultTable(columns=left.columns, rows=rows)
        # EXCEPT
        rows = []
        removed: dict[tuple, int] = {}
        emitted: set[tuple] = set()
        for row in left.rows:
            key = row_key(row)
            if op.all:
                if removed.get(key, 0) < right_bag.get(key, 0):
                    removed[key] = removed.get(key, 0) + 1
                    continue
                rows.append(row)
            else:
                if key in right_bag or key in emitted:
                    continue
                emitted.add(key)
                rows.append(row)
        return ResultTable(columns=left.columns, rows=rows)

    # -- SELECT core --------------------------------------------------------------

    def _execute_select(self, select: ast.Select,
                        order_by: tuple[ast.SortItem, ...],
                        outer_env: _Env | None) -> ResultTable:
        relation = self._evaluate_from(select.from_clause, outer_env)
        if select.where is not None:
            kept = []
            for row in relation.rows:
                env = _Env(relation.bindings, row, outer_env)
                if self._truth(select.where, env) is True:
                    kept.append(row)
            relation = Relation(relation.bindings, kept)

        grouped = bool(select.group_by) or self._has_aggregates(select)
        items = self._expand_items(select, relation)
        columns = [self._item_name(item, index)
                   for index, item in enumerate(items)]

        if grouped:
            rows_with_keys = self._grouped_rows(
                select, items, order_by, relation, outer_env)
        else:
            rows_with_keys = []
            for row in relation.rows:
                env = _Env(relation.bindings, row, outer_env)
                projected = tuple(self._eval(item.expr, env)
                                  for item in items)
                sort_values = self._sort_values(
                    order_by, items, projected, env)
                rows_with_keys.append((projected, sort_values))

        if select.distinct:
            deduped = _distinct_rows([r for r, _k in rows_with_keys])
            # Re-derive sort keys for the surviving rows: after DISTINCT,
            # ORDER BY may only reference result columns/positions.
            rows_with_keys = [
                (row, self._result_sort_values(order_by, columns, row))
                for row in deduped]

        if order_by:
            rows_with_keys.sort(
                key=lambda pair: _directional_keys(pair[1], order_by))
        return ResultTable(columns=columns,
                           rows=[row for row, _k in rows_with_keys])

    def _has_aggregates(self, select: ast.Select) -> bool:
        for item in select.items:
            if isinstance(item, ast.SelectItem) and \
                    ast.contains_aggregate(item.expr):
                return True
        if select.having is not None:
            return True
        return False

    def _expand_items(self, select: ast.Select,
                      relation: Relation) -> list[ast.SelectItem]:
        items: list[ast.SelectItem] = []
        for item in select.items:
            if isinstance(item, ast.StarItem):
                for binding in relation.bindings:
                    if item.qualifier and not _qualifier_matches(
                            item.qualifier, binding):
                        continue
                    for column in binding.columns:
                        items.append(ast.SelectItem(
                            expr=ast.ColumnRef((binding.name,), column),
                            alias=column))
                if item.qualifier and not any(
                        _qualifier_matches(item.qualifier, b)
                        for b in relation.bindings):
                    raise SQLSemanticError(
                        f"unknown qualifier "
                        f"{'.'.join(item.qualifier)} in select list")
            else:
                items.append(item)
        return items

    def _item_name(self, item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.column
        return f"EXPR${index + 1}"

    # -- grouping --------------------------------------------------------------------

    def _grouped_rows(self, select, items, order_by, relation, outer_env):
        groups: dict[tuple, list] = {}
        order: list[tuple] = []
        for row in relation.rows:
            env = _Env(relation.bindings, row, outer_env)
            key = tuple(canonical_value(self._eval(e, env))
                        for e in select.group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not select.group_by and not groups:
            # Aggregates over an empty, ungrouped input: one group of
            # zero rows (COUNT(*) = 0, SUM = NULL, ...).
            groups[()] = []
            order.append(())
        rows_with_keys = []
        for key in order:
            group = groups[key]
            representative = group[0] if group else \
                tuple(tuple(None for _ in b.columns)
                      for b in relation.bindings)
            env = _Env(relation.bindings, representative, outer_env,
                       group_rows=group)
            if select.having is not None:
                if self._truth(select.having, env) is not True:
                    continue
            projected = tuple(self._eval(item.expr, env) for item in items)
            sort_values = self._sort_values(order_by, items, projected, env)
            rows_with_keys.append((projected, sort_values))
        return rows_with_keys

    # -- ordering ---------------------------------------------------------------------

    def _sort_values(self, order_by, items, projected, env):
        values = []
        for sort in order_by:
            if isinstance(sort.key, int):
                if not (1 <= sort.key <= len(projected)):
                    raise SQLSemanticError(
                        f"ORDER BY position {sort.key} out of range")
                values.append(projected[sort.key - 1])
                continue
            resolved = self._resolve_sort_alias(sort.key, items, projected)
            if resolved is not _NOT_FOUND:
                values.append(resolved)
            else:
                values.append(self._eval(sort.key, env))
        return values

    def _resolve_sort_alias(self, key: ast.Expr, items, projected):
        """An unqualified ORDER BY name matching a select alias refers to
        that result column (SQL-92 ORDER BY resolution)."""
        if isinstance(key, ast.ColumnRef) and not key.qualifier:
            for index, item in enumerate(items):
                if item.alias == key.column:
                    return projected[index]
        return _NOT_FOUND

    def _result_sort_values(self, order_by, columns, row):
        values = []
        for sort in order_by:
            if isinstance(sort.key, int):
                values.append(row[sort.key - 1])
            elif isinstance(sort.key, ast.ColumnRef) and not sort.key.qualifier:
                try:
                    values.append(row[columns.index(sort.key.column)])
                except ValueError:
                    raise SQLSemanticError(
                        f"ORDER BY column {sort.key.column} is not in the "
                        f"result of DISTINCT/set operation") from None
            else:
                raise SQLSemanticError(
                    "ORDER BY over DISTINCT results must use result "
                    "columns or positions")
        return values

    def _order_result(self, result: ResultTable,
                      order_by: tuple[ast.SortItem, ...]) -> ResultTable:
        keyed = [(row, self._result_sort_values(order_by, result.columns,
                                                row))
                 for row in result.rows]
        keyed.sort(key=lambda pair: _directional_keys(pair[1], order_by))
        return ResultTable(columns=result.columns,
                           rows=[row for row, _k in keyed])

    # -- FROM evaluation ------------------------------------------------------------------

    def _evaluate_from(self, from_clause, outer_env) -> Relation:
        relation = None
        for table_expr in from_clause:
            current = self._evaluate_table(table_expr, outer_env)
            relation = current if relation is None else \
                _cross_join(relation, current)
        assert relation is not None
        names = [b.name for b in relation.bindings]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SQLSemanticError(
                f"duplicate range variable(s) in FROM: "
                f"{', '.join(sorted(duplicates))}")
        return relation

    def _evaluate_table(self, table_expr: ast.TableExpr,
                        outer_env) -> Relation:
        if isinstance(table_expr, ast.TableRef):
            columns, rows, schema = self._provider.resolve(table_expr)
            if table_expr.column_aliases:
                columns = self._apply_column_aliases(
                    table_expr.column_aliases, columns, table_expr.name)
            binding = Binding(
                name=table_expr.alias or table_expr.name,
                columns=tuple(columns),
                schema=table_expr.schema or schema,
                table=table_expr.name,
                aliased=table_expr.alias is not None)
            return Relation([binding], [(tuple(row),) for row in rows])
        if isinstance(table_expr, ast.DerivedTable):
            result = self._execute_query(table_expr.query, outer_env)
            columns = result.columns
            if table_expr.column_aliases:
                columns = self._apply_column_aliases(
                    table_expr.column_aliases, columns, table_expr.alias)
            binding = Binding(name=table_expr.alias,
                              columns=tuple(columns), aliased=True)
            return Relation([binding], [(tuple(row),) for row in result.rows])
        assert isinstance(table_expr, ast.Join)
        return self._evaluate_join(table_expr, outer_env)

    def _apply_column_aliases(self, aliases, columns, name):
        if len(aliases) != len(columns):
            raise SQLSemanticError(
                f"{name}: {len(aliases)} column aliases for "
                f"{len(columns)} columns")
        return list(aliases)

    def _evaluate_join(self, join: ast.Join, outer_env) -> Relation:
        left = self._evaluate_table(join.left, outer_env)
        right = self._evaluate_table(join.right, outer_env)
        bindings = left.bindings + right.bindings
        condition = join.condition
        if join.natural or join.using:
            condition = self._using_condition(join, left, right)
        if join.kind == "CROSS":
            return _cross_join(left, right)

        def matches(lrow, rrow) -> bool:
            if condition is None:
                return True
            env = _Env(bindings, lrow + rrow, outer_env)
            return self._truth(condition, env) is True

        rows = []
        right_matched = [False] * len(right.rows)
        for lrow in left.rows:
            matched = False
            for rindex, rrow in enumerate(right.rows):
                if matches(lrow, rrow):
                    matched = True
                    right_matched[rindex] = True
                    rows.append(lrow + rrow)
            if not matched and join.kind in ("LEFT", "FULL"):
                rows.append(lrow + _null_row(right))
        if join.kind in ("RIGHT", "FULL"):
            for rindex, rrow in enumerate(right.rows):
                if not right_matched[rindex]:
                    rows.append(_null_row(left) + rrow)
        return Relation(bindings, rows)

    def _using_condition(self, join: ast.Join, left: Relation,
                         right: Relation) -> ast.Expr:
        if join.natural:
            left_cols = {c for b in left.bindings for c in b.columns}
            names = [c for b in right.bindings for c in b.columns
                     if c in left_cols]
            if not names:
                raise SQLSemanticError("NATURAL JOIN with no common columns")
        else:
            names = list(join.using)
        condition: ast.Expr | None = None
        for name in names:
            left_binding = _binding_with_column(left, name, "left")
            right_binding = _binding_with_column(right, name, "right")
            clause = ast.Comparison(
                op="=",
                left=ast.ColumnRef((left_binding.name,), name),
                right=ast.ColumnRef((right_binding.name,), name))
            condition = clause if condition is None else \
                ast.And(left=condition, right=clause)
        assert condition is not None
        return condition

    # -- expression evaluation ----------------------------------------------------------

    def evaluate_scalar(self, expr: ast.Expr,
                        binding: Binding | None = None, row: tuple = ()):
        """The value of *expr* for one *row* of one *binding* (no
        binding: an expression that sees no range variable, e.g. an
        INSERT's VALUES item) — the seam the DML planner evaluates SET
        and VALUES expressions through."""
        return self._eval(expr, _row_env(binding, row))

    def evaluate_predicate(self, expr: ast.Expr, binding: Binding,
                           row: tuple) -> Truth:
        """Three-valued truth of *expr* for one *row* of *binding*."""
        return self._truth(expr, _row_env(binding, row))

    def _truth(self, expr: ast.Expr, env: _Env) -> Truth:
        """Evaluate a predicate under three-valued logic."""
        value = self._eval(expr, env)
        if value is None:
            return None
        if not isinstance(value, bool):
            raise SQLSemanticError(
                f"predicate evaluated to non-boolean {value!r}")
        return value

    def _eval(self, expr: ast.Expr, env: _Env):
        handler = _EVAL.get(type(expr))
        if handler is None:
            raise SQLSemanticError(
                f"cannot evaluate {type(expr).__name__}")
        return handler(self, expr, env)

    def _eval_literal(self, expr: ast.Literal, env):
        return expr.value

    def _eval_null(self, expr: ast.NullLiteral, env):
        return None

    def _eval_parameter(self, expr: ast.Parameter, env):
        try:
            return self._parameters[expr.index - 1]
        except IndexError:
            raise SQLSemanticError(
                f"no value bound for parameter {expr.index}") from None

    def _eval_column(self, expr: ast.ColumnRef, env: _Env):
        binding_index, column_index, env_level = \
            resolve_column(expr, env)
        target = env
        for _ in range(env_level):
            target = target.parent
        return target.row[binding_index][column_index]

    def _eval_unary(self, expr: ast.UnaryOp, env):
        value = self._eval(expr.operand, env)
        if value is None:
            return None
        if isinstance(value, bool) \
                or not isinstance(value, (int, float, Decimal)):
            raise SQLSemanticError(
                f"unary {expr.op} requires a numeric operand, "
                f"got {type(value).__name__}")
        if expr.op == "-":
            return -value
        return value

    def _eval_binary(self, expr: ast.BinaryOp, env):
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op == "||":
            if not isinstance(left, str) or not isinstance(right, str):
                raise SQLSemanticError("|| requires character operands")
            return left + right
        return _arith(expr.op, left, right)

    def _eval_case(self, expr: ast.CaseExpr, env):
        if expr.operand is not None:
            operand = self._eval(expr.operand, env)
            for when, then in expr.whens:
                if operand is None:
                    break
                when_value = self._eval(when, env)
                if when_value is not None and \
                        _compare("=", operand, when_value) is True:
                    return self._eval(then, env)
        else:
            for when, then in expr.whens:
                if self._truth(when, env) is True:
                    return self._eval(then, env)
        if expr.else_ is not None:
            return self._eval(expr.else_, env)
        return None

    def _eval_cast(self, expr: ast.Cast, env):
        return sql_cast(self._eval(expr.operand, env), expr.target)

    def _eval_extract(self, expr: ast.ExtractExpr, env):
        value = self._eval(expr.source, env)
        if value is None:
            return None
        field = expr.field
        try:
            if field == "YEAR":
                return value.year
            if field == "MONTH":
                return value.month
            if field == "DAY":
                return value.day
            if field == "HOUR":
                return value.hour
            if field == "MINUTE":
                return value.minute
            if field == "SECOND":
                return Decimal(value.second)
        except AttributeError:
            raise SQLSemanticError(
                f"EXTRACT({field}) from a non-datetime value "
                f"{value!r}") from None
        raise SQLSemanticError(f"unknown EXTRACT field {field}")

    def _eval_trim(self, expr: ast.TrimExpr, env):
        source = self._eval(expr.source, env)
        if source is None:
            return None
        chars = " "
        if expr.chars is not None:
            chars = self._eval(expr.chars, env)
            if chars is None:
                return None
            if len(chars) != 1:
                raise SQLSemanticError("TRIM character must be one char")
        if expr.mode == "LEADING":
            return source.lstrip(chars)
        if expr.mode == "TRAILING":
            return source.rstrip(chars)
        return source.strip(chars)

    def _eval_function(self, expr: ast.FunctionCall, env):
        args = [self._eval(a, env) for a in expr.args]
        return _call_sql_function(expr.name, args)

    def _eval_aggregate(self, expr: ast.AggregateCall, env: _Env):
        if env.group_rows is None:
            raise SQLSemanticError(
                f"aggregate {expr.func} used outside a grouped query")
        if expr.star:
            return len(env.group_rows)
        values = []
        for row in env.group_rows:
            inner = _Env(env.bindings, row, env.parent)
            value = self._eval(expr.arg, inner)
            if value is not None:
                values.append(value)
        if expr.distinct:
            seen = set()
            unique = []
            for value in values:
                key = canonical_value(value)
                if key not in seen:
                    seen.add(key)
                    unique.append(value)
            values = unique
        return _aggregate(expr.func, values)

    def _eval_scalar_subquery(self, expr: ast.ScalarSubquery, env):
        result = self._execute_query(expr.query, env)
        if len(result.columns) != 1:
            raise SQLSemanticError(
                f"scalar subquery returns {len(result.columns)} columns")
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise SQLSemanticError(
                f"scalar subquery returned {len(result.rows)} rows")
        return result.rows[0][0]

    def _subquery_column(self, query: ast.Query, env) -> list:
        result = self._execute_query(query, env)
        if len(result.columns) != 1:
            raise SQLSemanticError(
                f"subquery in a predicate must return one column, "
                f"got {len(result.columns)}")
        return [row[0] for row in result.rows]

    def _eval_comparison(self, expr: ast.Comparison, env):
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if left is None or right is None:
            return None
        return _compare(expr.op, left, right)

    def _eval_quantified(self, expr: ast.QuantifiedComparison, env):
        left = self._eval(expr.left, env)
        values = self._subquery_column(expr.query, env)
        if left is None:
            if not values:
                return expr.quantifier == "ALL"
            return None
        saw_unknown = False
        for value in values:
            if value is None:
                saw_unknown = True
                continue
            holds = _compare(expr.op, left, value)
            if expr.quantifier == "ANY" and holds:
                return True
            if expr.quantifier == "ALL" and not holds:
                return False
        if saw_unknown:
            return None
        return expr.quantifier == "ALL"

    def _eval_is_null(self, expr: ast.IsNull, env):
        value = self._eval(expr.operand, env)
        result = value is None
        return not result if expr.negated else result

    def _eval_between(self, expr: ast.Between, env):
        value = self._eval(expr.operand, env)
        low = self._eval(expr.low, env)
        high = self._eval(expr.high, env)
        lower = None if value is None or low is None \
            else _compare(">=", value, low)
        upper = None if value is None or high is None \
            else _compare("<=", value, high)
        result = _and3(lower, upper)
        return _not3(result) if expr.negated else result

    def _eval_in_list(self, expr: ast.InList, env):
        value = self._eval(expr.operand, env)
        items = [self._eval(item, env) for item in expr.items]
        result = self._membership(value, items)
        return _not3(result) if expr.negated else result

    def _eval_in_subquery(self, expr: ast.InSubquery, env):
        value = self._eval(expr.operand, env)
        items = self._subquery_column(expr.query, env)
        result = self._membership(value, items)
        return _not3(result) if expr.negated else result

    def _membership(self, value, items) -> Truth:
        if value is None:
            return None
        saw_null = False
        for item in items:
            if item is None:
                saw_null = True
                continue
            if _compare("=", value, item):
                return True
        if saw_null:
            return None
        return False

    def _eval_like(self, expr: ast.Like, env):
        value = self._eval(expr.operand, env)
        pattern = self._eval(expr.pattern, env)
        escape = None
        if expr.escape is not None:
            escape = self._eval(expr.escape, env)
            if escape is None:
                return None
        if value is None or pattern is None:
            return None
        result = like_match(value, pattern, escape)
        return (not result) if expr.negated else result

    def _eval_exists(self, expr: ast.Exists, env):
        result = self._execute_query(expr.query, env)
        return bool(result.rows)

    def _eval_not(self, expr: ast.Not, env):
        return _not3(self._truth(expr.operand, env))

    def _eval_and(self, expr: ast.And, env):
        left = self._truth(expr.left, env)
        if left is False:
            return False
        return _and3(left, self._truth(expr.right, env))

    def _eval_or(self, expr: ast.Or, env):
        left = self._truth(expr.left, env)
        if left is True:
            return True
        return _or3(left, self._truth(expr.right, env))


_EVAL = {
    ast.Literal: SQLExecutor._eval_literal,
    ast.NullLiteral: SQLExecutor._eval_null,
    ast.Parameter: SQLExecutor._eval_parameter,
    ast.ColumnRef: SQLExecutor._eval_column,
    ast.UnaryOp: SQLExecutor._eval_unary,
    ast.BinaryOp: SQLExecutor._eval_binary,
    ast.CaseExpr: SQLExecutor._eval_case,
    ast.Cast: SQLExecutor._eval_cast,
    ast.ExtractExpr: SQLExecutor._eval_extract,
    ast.TrimExpr: SQLExecutor._eval_trim,
    ast.FunctionCall: SQLExecutor._eval_function,
    ast.AggregateCall: SQLExecutor._eval_aggregate,
    ast.ScalarSubquery: SQLExecutor._eval_scalar_subquery,
    ast.Comparison: SQLExecutor._eval_comparison,
    ast.QuantifiedComparison: SQLExecutor._eval_quantified,
    ast.IsNull: SQLExecutor._eval_is_null,
    ast.Between: SQLExecutor._eval_between,
    ast.InList: SQLExecutor._eval_in_list,
    ast.InSubquery: SQLExecutor._eval_in_subquery,
    ast.Like: SQLExecutor._eval_like,
    ast.Exists: SQLExecutor._eval_exists,
    ast.Not: SQLExecutor._eval_not,
    ast.And: SQLExecutor._eval_and,
    ast.Or: SQLExecutor._eval_or,
}


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------

_NOT_FOUND = object()


def _qualifier_matches(qualifier: tuple[str, ...], binding: Binding) -> bool:
    if len(qualifier) == 1:
        return qualifier[0] == binding.name
    if len(qualifier) == 2:
        return (not binding.aliased and binding.schema == qualifier[0]
                and binding.table == qualifier[1])
    if len(qualifier) == 3:
        return (not binding.aliased and binding.schema == qualifier[1]
                and binding.table == qualifier[2])
    return False


def resolve_column(ref: ast.ColumnRef, env: _Env) -> tuple[int, int, int]:
    """Resolve a column reference against the environment chain.

    Returns (binding index, column index, environment depth). Raises
    SQLSemanticError for unknown or ambiguous references — the same SQL-92
    scoping rules the translator's stage two applies.
    """
    level = 0
    current: _Env | None = env
    while current is not None:
        matches = []
        for bindex, binding in enumerate(current.bindings):
            if ref.qualifier and not _qualifier_matches(ref.qualifier,
                                                        binding):
                continue
            if ref.column in binding.columns:
                matches.append((bindex,
                                binding.columns.index(ref.column)))
            elif ref.qualifier:
                raise SQLSemanticError(
                    f"column {ref.display()} does not exist in "
                    f"{binding.name}")
        if len(matches) > 1:
            raise SQLSemanticError(
                f"ambiguous column reference {ref.display()}")
        if matches:
            return matches[0][0], matches[0][1], level
        current = current.parent
        level += 1
    raise SQLSemanticError(f"unknown column {ref.display()}")


def _binding_with_column(relation: Relation, column: str,
                         side: str) -> Binding:
    matches = [b for b in relation.bindings if column in b.columns]
    if not matches:
        raise SQLSemanticError(
            f"USING column {column} not found on the {side} side")
    if len(matches) > 1:
        raise SQLSemanticError(
            f"USING column {column} is ambiguous on the {side} side")
    return matches[0]


# ---------------------------------------------------------------------------
# Relational helpers
# ---------------------------------------------------------------------------


def flatten_and(expr: ast.Expr) -> list[ast.Expr]:
    """The conjuncts of a left-to-right flattened AND tree."""
    if isinstance(expr, ast.And):
        return flatten_and(expr.left) + flatten_and(expr.right)
    return [expr]


def _cross_join(left: Relation, right: Relation) -> Relation:
    rows = [lrow + rrow for lrow in left.rows for rrow in right.rows]
    return Relation(left.bindings + right.bindings, rows)


def _null_row(relation: Relation) -> tuple:
    return tuple(tuple(None for _ in binding.columns)
                 for binding in relation.bindings)


def _bag(rows: list[tuple]) -> dict[tuple, int]:
    bag: dict[tuple, int] = {}
    for row in rows:
        key = row_key(row)
        bag[key] = bag.get(key, 0) + 1
    return bag


def _distinct_rows(rows: list[tuple]) -> list[tuple]:
    seen = set()
    result = []
    for row in rows:
        key = row_key(row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


def _directional_keys(values: list, order_by) -> tuple:
    keys = []
    for value, sort in zip(values, order_by):
        keys.append(_SortKey(value, sort.ascending))
    return tuple(keys)


class _SortKey:
    """NULLs-least sort key with per-key direction (matches the XQuery
    engine's 'empty least' ordering)."""

    __slots__ = ("rank", "ascending")

    def __init__(self, value, ascending: bool):
        if value is None:
            self.rank = (0, "")
        elif isinstance(value, bool):
            self.rank = (1, value)
        elif isinstance(value, (int, float, Decimal)):
            self.rank = (1, float(value))
        elif isinstance(value, str):
            self.rank = (1, value)
        elif isinstance(value, datetime.datetime):
            self.rank = (1, value.isoformat())
        elif isinstance(value, (datetime.date, datetime.time)):
            self.rank = (1, value.isoformat())
        else:
            raise SQLSemanticError(f"cannot order by value {value!r}")
        self.ascending = ascending

    def __lt__(self, other: "_SortKey") -> bool:
        if self.ascending:
            return self.rank < other.rank
        return other.rank < self.rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.rank == other.rank


# ---------------------------------------------------------------------------
# Scalar semantics (shared helpers)
# ---------------------------------------------------------------------------


def _not3(value: Truth) -> Truth:
    if value is None:
        return None
    return not value


def _and3(a: Truth, b: Truth) -> Truth:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a: Truth, b: Truth) -> Truth:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _promote_pair(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return float(a), float(b)
    if isinstance(a, Decimal) or isinstance(b, Decimal):
        return (a if isinstance(a, Decimal) else Decimal(a),
                b if isinstance(b, Decimal) else Decimal(b))
    return a, b


def _arith(op: str, a, b):
    if isinstance(a, str) or isinstance(b, str):
        raise SQLSemanticError(
            f"arithmetic {op} on non-numeric operands")
    if op == "/":
        if isinstance(a, int) and isinstance(b, int):
            if b == 0:
                raise SQLSemanticError("division by zero")
            # Integer division truncates toward zero (matches idiv).
            return int(Decimal(a) / Decimal(b))
        a, b = _promote_pair(a, b)
        try:
            return a / b
        except (ZeroDivisionError, InvalidOperation):
            raise SQLSemanticError("division by zero") from None
    a, b = _promote_pair(a, b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    raise SQLSemanticError(f"unknown operator {op}")


def _compare(op: str, a, b) -> bool:
    """Non-null SQL comparison (types must be comparable)."""
    if isinstance(a, bool) or isinstance(b, bool):
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise SQLSemanticError("cannot compare boolean with non-boolean")
    elif isinstance(a, (int, float, Decimal)) != \
            isinstance(b, (int, float, Decimal)):
        raise SQLSemanticError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}")
    elif isinstance(a, (int, float, Decimal)):
        a, b = _promote_pair(a, b)
    elif isinstance(a, datetime.datetime) != isinstance(b, datetime.datetime):
        raise SQLSemanticError("cannot compare datetime with non-datetime")
    elif type(a) is not type(b) and not (
            isinstance(a, str) and isinstance(b, str)):
        raise SQLSemanticError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}")
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise SQLSemanticError(f"unknown comparison operator {op}")


def _aggregate(func: str, values: list):
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        total = values[0]
        for value in values[1:]:
            total = _arith("+", total, value)
        return total
    if func == "AVG":
        total = values[0]
        for value in values[1:]:
            total = _arith("+", total, value)
        if isinstance(total, float):
            return total / len(values)
        return Decimal(total) / Decimal(len(values)) \
            if isinstance(total, int) else total / Decimal(len(values))
    if func == "MIN":
        best = values[0]
        for value in values[1:]:
            if _compare("<", value, best):
                best = value
        return best
    if func == "MAX":
        best = values[0]
        for value in values[1:]:
            if _compare(">", value, best):
                best = value
        return best
    raise SQLSemanticError(f"unknown aggregate {func}")


def sql_cast(value, target: SQLType):
    """SQL CAST semantics over Python values (NULL passes through)."""
    if value is None:
        return None
    kind = target.kind
    try:
        if kind in ("SMALLINT", "INTEGER", "BIGINT"):
            if isinstance(value, str):
                return int(value.strip())
            if isinstance(value, (int, float, Decimal)):
                return int(value)
        if kind == "DECIMAL":
            if isinstance(value, float):
                result = Decimal(repr(value))
            elif isinstance(value, str):
                result = Decimal(value.strip())
            else:
                result = Decimal(value)
            if target.scale is not None:
                result = result.quantize(Decimal(1).scaleb(-target.scale))
            return result
        if kind in ("REAL", "DOUBLE"):
            if isinstance(value, str):
                return float(value.strip())
            return float(value)
        if kind in ("CHAR", "VARCHAR"):
            text = _sql_string_of(value)
            if target.length is not None:
                text = text[:target.length]
            return text
        if kind == "DATE":
            if isinstance(value, datetime.datetime):
                return value.date()
            if isinstance(value, datetime.date):
                return value
            return datetime.date.fromisoformat(str(value).strip())
        if kind == "TIME":
            if isinstance(value, datetime.datetime):
                return value.time()
            if isinstance(value, datetime.time):
                return value
            return datetime.time.fromisoformat(str(value).strip())
        if kind == "TIMESTAMP":
            if isinstance(value, datetime.datetime):
                return value
            if isinstance(value, datetime.date):
                return datetime.datetime.combine(value, datetime.time())
            return datetime.datetime.fromisoformat(str(value).strip())
    except (ValueError, InvalidOperation) as exc:
        raise SQLSemanticError(
            f"cannot CAST {value!r} to {target}") from exc
    raise SQLSemanticError(f"unsupported CAST target {target}")


def _sql_string_of(value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    if isinstance(value, Decimal):
        return format(value, "f")
    if isinstance(value, datetime.datetime):
        return value.isoformat(sep="T")
    if isinstance(value, (datetime.date, datetime.time)):
        return value.isoformat()
    return str(value)


def _call_sql_function(name: str, args: list):
    """Scalar function dispatch; all functions propagate NULL."""
    name = name.upper()
    if name in ("CURRENT_DATE",):
        return clock.today()
    if name == "CURRENT_TIME":
        return clock.current_time()
    if name == "CURRENT_TIMESTAMP":
        return clock.now().replace(microsecond=0)
    if name == "COALESCE":
        for arg in args:
            if arg is not None:
                return arg
        return None
    if name == "NULLIF":
        a, b = args
        if a is None:
            return None
        if b is not None and _compare("=", a, b):
            return None
        return a
    if any(arg is None for arg in args):
        return None
    if name == "UPPER":
        return args[0].upper()
    if name == "LOWER":
        return args[0].lower()
    if name == "CONCAT":
        return args[0] + args[1]
    if name == "SUBSTRING":
        text, start = args[0], int(args[1])
        end = start + int(args[2]) if len(args) == 3 else len(text) + 1
        if len(args) == 3 and int(args[2]) < 0:
            raise SQLSemanticError("negative length in SUBSTRING")
        return "".join(ch for pos, ch in enumerate(text, start=1)
                       if start <= pos < end)
    if name in ("CHAR_LENGTH", "CHARACTER_LENGTH", "LENGTH"):
        return len(args[0])
    if name == "POSITION":
        needle, hay = args
        if not needle:
            return 1
        return hay.find(needle) + 1
    if name == "ABS":
        return abs(args[0])
    if name == "MOD":
        a, b = args
        if b == 0:
            raise SQLSemanticError("MOD by zero")
        if isinstance(a, float) or isinstance(b, float):
            import math
            return math.fmod(a, b)
        return a - b * int(Decimal(a) / Decimal(b))
    if name == "ROUND":
        value = args[0]
        places = int(args[1]) if len(args) == 2 else 0
        if isinstance(value, float):
            import math
            factor = 10.0 ** places
            return math.floor(value * factor + 0.5) / factor
        as_decimal = value if isinstance(value, Decimal) else Decimal(value)
        from decimal import ROUND_HALF_UP
        rounded = as_decimal.quantize(Decimal(1).scaleb(-places),
                                      rounding=ROUND_HALF_UP)
        return int(rounded) if isinstance(value, int) else rounded
    if name == "FLOOR":
        import math
        if isinstance(value := args[0], int):
            return value
        if isinstance(value, Decimal):
            return Decimal(math.floor(value))
        return float(math.floor(value))
    if name == "CEILING":
        import math
        if isinstance(value := args[0], int):
            return value
        if isinstance(value, Decimal):
            return Decimal(math.ceil(value))
        return float(math.ceil(value))
    if name == "SQRT":
        import math
        if args[0] < 0:
            raise SQLSemanticError("SQRT of a negative number")
        return math.sqrt(args[0])
    raise SQLSemanticError(f"unknown function {name}")
