"""DML execution: SQL mutations compiled to source-level plans.

The paper's translator is read-only — INSERT/UPDATE/DELETE never reach
the XQuery generator. Instead the engine turns a parsed
:class:`repro.sql.ast.MutationStatement` into a :class:`MutationPlan`.
Victim selection is a *pushed scan that returns row handles*: the
sargable top-level conjuncts of the WHERE become an advisory
:class:`repro.sources.spi.ScanRequest` (reduced by the source's
capabilities exactly as for a read), the source answers with
``(handle, row)`` pairs, and the **whole** WHERE is then evaluated on
every returned row with the reference SQL executor's expression
evaluator (so DML predicates get exactly the SELECT path's SQL-92
semantics — three-valued logic, type promotion, LIKE, CASE, ...).
SET/VALUES expressions are evaluated and coerced to the column types
the same way. The plan carries plain data
(:class:`repro.sources.spi.Mutation` batches keyed by handle) plus the
version token the victims were selected under, so the source can
refuse a stale plan.

One consequence of pushing: a conjunct is evaluated only on the rows
the pushed conjuncts keep, so an error that only an excluded row would
raise (``WHERE NAME = 5 AND ID = 1`` on a row whose ID is not 1) is not
raised — the read path's rule under pushdown. ``runtime.pushdown =
False`` requests nothing and restores strict left-to-right evaluation
over every row.

DML expressions are restricted to the subquery-free subset: scalar
subqueries, EXISTS, IN (SELECT ...), and quantified comparisons in a
WHERE/SET/VALUES position raise ``UnsupportedSQLError``; aggregates
raise ``SQLSemanticError`` (there is no group to aggregate over).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from ..errors import SQLSemanticError, UnsupportedSQLError
from ..sql import ast
from ..sources.spi import DataSource, Mutation, Predicate, ScanRequest
from .sqlexec import Binding, SQLExecutor, TableProvider, flatten_and
from .table import coerce_value

__all__ = [
    "MutationPlan",
    "mutation_parameter_count",
    "plan_mutation",
]


@dataclass(frozen=True)
class MutationPlan:
    """One statement's mutations, ready for ``apply_mutations``.

    ``version`` is the target table's token at victim-selection time;
    it travels to the source as ``expected_version``. ``rowcount`` is
    the statement's affected-row count (known at plan time: the engine
    selected the victims)."""

    source: DataSource
    table: str
    version: object
    mutations: tuple[Mutation, ...]
    rowcount: int


def _check_scalar(expr: ast.Expr, where: str) -> None:
    """Enforce the DML expression subset: no subqueries, no aggregates."""
    for node in ast.walk(expr):
        if ast.subqueries_of(node):
            raise UnsupportedSQLError(
                f"subqueries are not supported in DML {where}")
        if isinstance(node, ast.AggregateCall):
            raise SQLSemanticError(
                f"aggregate functions are not allowed in DML {where}")


def mutation_parameter_count(statement: ast.MutationStatement) -> int:
    """The number of ``?`` placeholders the statement binds (the
    highest parameter ordinal across all of its expressions)."""
    highest = 0
    for expr in _expressions_of(statement):
        for node in ast.walk(expr):
            if isinstance(node, ast.Parameter):
                highest = max(highest, node.index)
    return highest


def _expressions_of(statement: ast.MutationStatement):
    if isinstance(statement, ast.Insert):
        for row in statement.rows:
            yield from row
    elif isinstance(statement, ast.Update):
        for assignment in statement.assignments:
            yield assignment.value
        if statement.where is not None:
            yield statement.where
    else:
        assert isinstance(statement, ast.Delete)
        if statement.where is not None:
            yield statement.where


def plan_mutation(runtime, statement: ast.MutationStatement,
                  metadata, parameters=(), context=None) -> MutationPlan:
    """Bind and evaluate *statement* into a :class:`MutationPlan`.

    *metadata* is the driver-fetched :class:`TableMetadata` of the
    target table (the same stage-two metadata SELECT uses); *runtime*
    resolves it to a writable (source, physical table) pair. *context*
    (a ``QueryContext``) bounds the victim scan: a deadline or cancel
    that fires during selection aborts the statement before anything
    is applied. The returned plan has not been applied — the caller
    (the transaction manager) decides when ``apply_mutations`` runs.
    """
    source, table = runtime.write_target(metadata.namespace,
                                         metadata.function_name)
    columns = [(c.name, c.sql_type) for c in metadata.columns]
    executor = SQLExecutor(TableProvider(None), parameters)
    if isinstance(statement, ast.Insert):
        mutation = _plan_insert(statement, columns, executor, table)
        version = source.version(table)
        return MutationPlan(source=source, table=table, version=version,
                            mutations=(mutation,),
                            rowcount=len(mutation.rows))
    binding = Binding(name=statement.table.name,
                      columns=tuple(name for name, _t in columns),
                      schema=metadata.schema, table=metadata.table)
    if isinstance(statement, ast.Update):
        _check_update(statement, binding)
    if statement.where is not None:
        _check_scalar(statement.where, "WHERE")
    # UPDATE/DELETE select victims against a snapshot scan; the token is
    # read first so a concurrent change between token and scan surfaces
    # as a version mismatch at apply time, never as corrupted rows.
    version = source.version(table)
    # Lazy, so an UPDATE still evaluates row by row: WHERE, then SET.
    victims = (
        (handle, row) for handle, row in runtime.scan_victims(
            source, table,
            _victim_request(statement.where, binding, parameters), context)
        if statement.where is None or executor.evaluate_predicate(
            statement.where, binding, row) is True)
    if isinstance(statement, ast.Update):
        mutation = _plan_update(statement, columns, executor, binding,
                                victims, table)
        count = len(mutation.changes)
    else:
        assert isinstance(statement, ast.Delete)
        mutation = Mutation(kind="delete", table=table,
                            handles=tuple(h for h, _row in victims))
        count = len(mutation.handles)
    return MutationPlan(source=source, table=table, version=version,
                        mutations=(mutation,), rowcount=count)


#: SQL comparison -> the SPI operator seen by the column, written
#: ``col op value`` / mirrored ``value op col``.
_SARGABLE_OPS = {"=": ("eq", "eq"), "<>": ("ne", "ne"),
                 "<": ("lt", "gt"), "<=": ("le", "ge"),
                 ">": ("gt", "lt"), ">=": ("ge", "le")}


def _victim_request(where, binding: Binding,
                    parameters) -> ScanRequest | None:
    """The advisory scan request of a DML WHERE: one predicate per
    top-level ``AND`` conjunct of a shape the SPI names — ``col op
    constant`` (either side), ``col BETWEEN constant AND constant``
    (a ``ge`` and a ``le``), ``col IS [NOT] NULL``, ``col IN
    (constants)`` — with ``?`` markers bound. Everything else, and any
    comparison against NULL, requests nothing; the whole WHERE stays
    the residual either way."""

    def column(expr) -> str | None:
        if isinstance(expr, ast.ColumnRef) \
                and expr.column in binding.columns \
                and expr.qualifier in ((), (binding.name,)):
            return expr.column
        return None

    def constant(expr):
        """The bound value of a literal, a ``?`` or a signed number
        (``-5`` parses as a unary minus over ``5``); None for NULL and
        for anything that is not a per-statement constant."""
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Parameter) \
                and 0 < expr.index <= len(parameters):
            return parameters[expr.index - 1]
        if isinstance(expr, ast.UnaryOp):
            value = constant(expr.operand)
            if isinstance(value, (int, float, Decimal)) \
                    and not isinstance(value, bool):
                return -value if expr.op == "-" else value
        return None

    def comparison(column_expr, op, value_expr):
        name, value = column(column_expr), constant(value_expr)
        if name is not None and value is not None:
            return Predicate(name, op, value)
        return None

    if where is None:
        return None
    predicates = []
    for conjunct in flatten_and(where):
        if isinstance(conjunct, ast.Comparison) \
                and conjunct.op in _SARGABLE_OPS:
            op, mirrored = _SARGABLE_OPS[conjunct.op]
            predicate = (
                comparison(conjunct.left, op, conjunct.right)
                or comparison(conjunct.right, mirrored, conjunct.left))
            if predicate is not None:
                predicates.append(predicate)
        elif isinstance(conjunct, ast.Between) and not conjunct.negated:
            predicates.extend(filter(None, (
                comparison(conjunct.operand, "ge", conjunct.low),
                comparison(conjunct.operand, "le", conjunct.high))))
        elif isinstance(conjunct, ast.IsNull):
            name = column(conjunct.operand)
            if name is not None:
                predicates.append(Predicate(
                    name, "notnull" if conjunct.negated else "isnull"))
        elif isinstance(conjunct, ast.InList) and not conjunct.negated:
            name = column(conjunct.operand)
            values = tuple(constant(item) for item in conjunct.items)
            if name is not None and None not in values:
                predicates.append(Predicate(name, "in", values))
    return ScanRequest(predicates=tuple(predicates)) if predicates \
        else None


def _plan_insert(statement: ast.Insert, columns, executor,
                 table: str) -> Mutation:
    names = [name for name, _t in columns]
    if statement.columns:
        targets = list(statement.columns)
        seen: set[str] = set()
        for name in targets:
            if name not in names:
                raise SQLSemanticError(
                    f"table {statement.table.name} has no column {name}")
            if name in seen:
                raise SQLSemanticError(
                    f"column {name} named twice in INSERT column list")
            seen.add(name)
    else:
        targets = names
    position = {name: i for i, name in enumerate(names)}
    types = [t for _n, t in columns]
    rows: list[tuple] = []
    for value_row in statement.rows:
        if len(value_row) != len(targets):
            raise SQLSemanticError(
                f"INSERT targets {len(targets)} columns, VALUES row "
                f"has {len(value_row)} expressions")
        values: list[object] = [None] * len(names)
        for name, expr in zip(targets, value_row):
            _check_scalar(expr, "VALUES")
            index = position[name]
            # VALUES items see no range variable.
            values[index] = coerce_value(executor.evaluate_scalar(expr),
                                         types[index])
        rows.append(tuple(values))
    return Mutation(kind="insert", table=table, rows=tuple(rows))


def _check_update(statement: ast.Update, binding: Binding) -> None:
    seen: set[str] = set()
    for assignment in statement.assignments:
        if assignment.column not in binding.columns:
            raise SQLSemanticError(
                f"table {statement.table.name} has no column "
                f"{assignment.column}")
        if assignment.column in seen:
            raise SQLSemanticError(
                f"column {assignment.column} assigned twice in UPDATE")
        seen.add(assignment.column)
        _check_scalar(assignment.value, "SET")


def _plan_update(statement: ast.Update, columns, executor,
                 binding: Binding, victims, table: str) -> Mutation:
    position = {name: i for i, (name, _t) in enumerate(columns)}
    changes: list[tuple[object, tuple]] = []
    for handle, row in victims:
        new_row = list(row)
        for assignment in statement.assignments:
            index = position[assignment.column]
            new_row[index] = coerce_value(
                executor.evaluate_scalar(assignment.value, binding, row),
                columns[index][1])
        changes.append((handle, tuple(new_row)))
    return Mutation(kind="update", table=table, changes=tuple(changes))
