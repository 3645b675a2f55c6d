"""DML execution: SQL mutations run on the read path.

An UPDATE or DELETE is planned as one SELECT over its target table:
the statement's WHERE, and per column the expression SET assigns to
it or else the column. Stages 1–3 translate that SELECT and the vector
plan runs it (``DSPRuntime.prepare_mutation``: compiled once per
statement text, without statistics). Its scan of the target pairs each
row with the source's row handle (``scan(..., handles=True)``, with
the plan's pushed request, never cached), put out as a last column no
SQL statement can name; each row it returns is a victim. An INSERT's
VALUES are the cells of one SELECT without FROM.

So a DML expression means what it means in a SELECT — types,
parameter inference, three-valued logic, subqueries (one over the
target reads the rows from before the statement) — and errors raise as
in a read: a static one as ``SQLError`` before anything is read, a
dynamic one from the run. Aggregates raise ``SQLSemanticError``. New
values are coerced to the column types; the plan is plain data
(:class:`repro.sources.spi.Mutation` batches keyed by handle) plus the
version token read before the victims were selected, so the source can
refuse a stale plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NotSupportedError, SQLSemanticError
from ..sources.spi import DataSource, Mutation
from ..sql import ast
from ..translator import SQLToXQueryTranslator
from ..translator.stage1 import run_stage1
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


def mutation_parameter_count(statement: ast.MutationStatement) -> int:
    """The number of ``?`` placeholders the statement binds: the
    highest parameter ordinal anywhere in it, subqueries included."""
    pending, highest = [statement], 0
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Parameter):
            highest = max(highest, node.index)
        elif isinstance(node, tuple):
            pending.extend(node)
        elif isinstance(node, ast.Node):
            pending.extend(vars(node).values())
    return highest


def _expressions_of(statement: ast.MutationStatement) -> list:
    """``(clause, expression)`` for every expression of *statement*."""
    if isinstance(statement, ast.Insert):
        return [("VALUES", expr) for row in statement.rows for expr in row]
    pairs = [("SET", assignment.value)
             for assignment in getattr(statement, "assignments", ())]
    return pairs if statement.where is None \
        else pairs + [("WHERE", statement.where)]


def plan_mutation(runtime, statement: ast.MutationStatement,
                  metadata, parameters=(), context=None) -> MutationPlan:
    """Bind and evaluate *statement* into a :class:`MutationPlan`.

    *metadata* is the driver-fetched :class:`TableMetadata` of the
    target table (the same stage-two metadata SELECT uses); *runtime*
    resolves it to a writable (source, physical table) pair. *context*
    (a ``QueryContext``) bounds the DML read: a deadline or cancel that
    fires during it aborts the statement before anything is applied.
    The returned plan has not been applied — the caller (the
    transaction manager) decides when ``apply_mutations`` runs.
    """
    source, table = runtime.write_target(metadata.namespace,
                                         metadata.function_name)
    columns, insert = metadata.columns, isinstance(statement, ast.Insert)

    def translate():  # stages 1–3, on a plan-cache miss only
        translator = SQLToXQueryTranslator(runtime.metadata_api())
        unit = translator.stage2(run_stage1(_read_query(statement, columns)))
        return translator.stage3(unit, format="delimited").module

    read = runtime.prepare_mutation(
        (statement, metadata.namespace, metadata.function_name), translate,
        handles=not insert)
    # UPDATE/DELETE select victims under the token read first, so a
    # concurrent change between token and scan surfaces as a version
    # mismatch at apply time, never as corrupted rows.
    version = source.version(table)
    typed, batches = (False, None) if read.vector_plan is None \
        else read.stream_columns(
            {f"p{index}": value
             for index, value in enumerate(parameters, start=1)},
            context=context)
    if not typed:
        raise NotSupportedError(
            f"DML statement cannot run on the vector plan "
            f"({read.batched_reason or 'param_shape'})")
    rows = [row for cols in batches for row in zip(*cols)]
    if insert:
        mutation = Mutation(kind="insert", table=table, rows=tuple(
            _inserted(statement, columns, rows[0])))
    elif isinstance(statement, ast.Update):
        assigned = {a.column for a in statement.assignments}
        mutation = Mutation(kind="update", table=table, changes=tuple(
            (row[-1], tuple(coerce_value(value, column.sql_type)
                            if column.name in assigned else value
                            for value, column in zip(row, columns)))
            for row in rows))
    else:
        mutation = Mutation(kind="delete", table=table,
                            handles=tuple(row[-1] for row in rows))
    return MutationPlan(source=source, table=table, version=version,
                        mutations=(mutation,),
                        rowcount=len(mutation.rows) if insert else len(rows))


def _read_query(statement: ast.MutationStatement, columns) -> ast.Query:
    """The SELECT that reads what *statement* writes: for an INSERT,
    every VALUES expression as one cell of one row, without FROM; else
    one cell per column of the target — its SET expression, or the
    column — over the rows the WHERE keeps. Checks the target columns
    first."""
    for where, expr in _expressions_of(statement):
        if ast.contains_aggregate(expr):
            raise SQLSemanticError(
                f"aggregate functions are not allowed in DML {where}")
    names = [column.name for column in columns]
    if isinstance(statement, ast.Insert):
        _check_insert(statement, names)
        cells = [expr for row in statement.rows for expr in row]
        return ast.Query(ast.Select(
            tuple(ast.SelectItem(expr) for expr in cells), ()))
    assigned = {}
    for assignment in getattr(statement, "assignments", ()):
        if assignment.column not in names:
            raise SQLSemanticError(f"table {statement.table.name} has no "
                                   f"column {assignment.column}")
        if assignment.column in assigned:
            raise SQLSemanticError(
                f"column {assignment.column} assigned twice in UPDATE")
        assigned[assignment.column] = assignment.value
    return ast.Query(ast.Select(
        tuple(ast.SelectItem(assigned.get(name, ast.ColumnRef((), name)))
              for name in names),
        (statement.table,), where=statement.where))


def _check_insert(statement: ast.Insert, names: list) -> None:
    """Reject an INSERT whose column list or VALUES rows do not fit."""
    targets = list(statement.columns) or names
    for i, name in enumerate(targets):
        if name not in names:
            raise SQLSemanticError(
                f"table {statement.table.name} has no column {name}")
        if name in targets[:i]:
            raise SQLSemanticError(
                f"column {name} named twice in INSERT column list")
    for value_row in statement.rows:
        if len(value_row) != len(targets):
            raise SQLSemanticError(
                f"INSERT targets {len(targets)} columns, VALUES row "
                f"has {len(value_row)} expressions")


def _inserted(statement: ast.Insert, columns, cells):
    """The rows an INSERT adds: its VALUES *cells*, computed in one row,
    laid out on the target columns (unnamed ones NULL) and coerced."""
    names = [column.name for column in columns]
    position = [names.index(name) for name in statement.columns or names]
    width = len(position)
    for start in range(0, len(cells), width):
        values: list[object] = [None] * len(names)
        for index, value in zip(position, cells[start:start + width]):
            values[index] = coerce_value(value, columns[index].sql_type)
        yield tuple(values)
