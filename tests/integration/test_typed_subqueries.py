"""IN / ANY / ALL subqueries over DATE, TIME and TIMESTAMP columns.

A subquery's members reach ``fn-bea:in3`` / ``any3`` / ``all3`` as
constructed, hence untyped, elements; the needle is typed by its column.
The members must therefore be cast to the needle's type — comparing a
date with a string raised XPTY0004 inside the helpers, which swallowed
it, so these predicates silently matched nothing. Every form is checked
against the reference SQL executor, against its EXISTS spelling where
the two are equivalent, and — as text — across the batched plan and the
tree-walking oracle.

(BOOLEAN has no column type in any source here; its leg of the rule is
covered on XQuery text in tests/xquery/test_execution_memo.py and by
the property test in tests/xquery/test_in3.py.)
"""

import datetime

import pytest

from repro import connect
from repro.catalog import Application
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sql import parse_statement
from repro.sql.types import SQLType
from repro.workloads import build_scaled_runtime
from repro.xquery import Evaluator, compile_module, parse_xquery

from tests.engine.sqlexec import SQLExecutor, TableProvider

COLUMNS = {"D": "DATE", "T": "TIME", "TS": "TIMESTAMP"}


def build_storage() -> Storage:
    storage = Storage()
    events = storage.create_table(
        "EVENTS", [("ID", SQLType("INTEGER"))]
        + [(name, SQLType(kind)) for name, kind in COLUMNS.items()])
    for index in range(8):
        day = index % 5  # rows 5..7 repeat the values of rows 0..2
        events.insert(index,
                      datetime.date(2005, 1, 1 + day),
                      datetime.time(8 + day, 30),
                      datetime.datetime(2005, 1, 1 + day, 8 + day, 30))
    events.insert(8, None, None, None)
    return storage


STORAGE = build_storage()
APPLICATION = Application("TypedApp")
import_tables(APPLICATION, "Typed", STORAGE)
RUNTIME = DSPRuntime(APPLICATION, STORAGE)
CONNECTION = connect(RUNTIME)
REFERENCE = SQLExecutor(TableProvider(STORAGE))

#: Members: rows 1 and 2, plus the all-NULL row 8 when asked.
MEMBERS = {False: "M.ID IN (1, 2)", True: "M.ID IN (1, 2, 8)"}

FORMS = ["{c} IN", "{c} NOT IN", "{c} = ANY", "{c} <= ANY", "{c} > ALL"]

#: The EXISTS spelling of the positive forms (a match exists).
EXISTS_OPS = {"{c} IN": "=", "{c} = ANY": "=", "{c} <= ANY": "<="}


def driver_rows(sql: str) -> list:
    cursor = CONNECTION.cursor()
    cursor.execute(sql)
    return cursor.fetchall()


def reference_rows(sql: str) -> list:
    return [tuple(row) for row in
            REFERENCE.execute(parse_statement(sql)).rows]


def executor_texts(sql: str) -> set:
    """The delimited result text under the batched plan and the oracle
    evaluator."""
    module = parse_xquery(CONNECTION.translate(sql).xquery)
    resolver = RUNTIME.call_function
    return {
        "".join(compile_module(module, resolver=resolver,
                               columnar=RUNTIME).stream_chunks()),
        Evaluator(module, resolver=resolver).evaluate()[0],
    }


@pytest.mark.parametrize("null_member", [False, True])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("column", COLUMNS)
def test_typed_subquery_matches_reference(column, form, null_member):
    predicate = form.format(c=f"E.{column}")
    sql = (f"SELECT E.ID FROM EVENTS E WHERE {predicate} "
           f"(SELECT M.{column} FROM EVENTS M "
           f"WHERE {MEMBERS[null_member]}) ORDER BY E.ID")
    rows = driver_rows(sql)
    assert rows == reference_rows(sql), sql
    assert len(executor_texts(sql)) == 1, sql
    if form in EXISTS_OPS:
        assert rows, sql  # the parent returned no row for any of these
        exists = (f"SELECT E.ID FROM EVENTS E WHERE EXISTS "
                  f"(SELECT 1 FROM EVENTS M WHERE {MEMBERS[null_member]} "
                  f"AND E.{column} {EXISTS_OPS[form]} M.{column}) "
                  f"ORDER BY E.ID")
        assert rows == driver_rows(exists), sql


def test_expected_rows_spelled_out():
    """The same answers, by hand, for one column: members are the
    values of rows 1 and 2, which rows 6 and 7 repeat."""
    def ids(predicate, members=MEMBERS[False]):
        return [row[0] for row in driver_rows(
            f"SELECT E.ID FROM EVENTS E WHERE E.D {predicate} "
            f"(SELECT M.D FROM EVENTS M WHERE {members}) ORDER BY E.ID")]

    assert ids("IN") == [1, 2, 6, 7]
    assert ids("NOT IN") == [0, 3, 4, 5]
    assert ids("NOT IN", MEMBERS[True]) == []      # unknown, never true
    assert ids("<= ANY") == [0, 1, 2, 5, 6, 7]
    assert ids("> ALL") == [3, 4]
    assert ids("> ALL", MEMBERS[True]) == []


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) FROM DETAILS WHERE SHIPDATE IN "
    "(SELECT SHIPDATE FROM DETAILS WHERE DETAILID < 3)",
    "SELECT COUNT(*) FROM DETAILS WHERE SHIPDATE <= ANY "
    "(SELECT SHIPDATE FROM DETAILS WHERE DETAILID < 3)",
])
def test_the_reported_queries_on_the_scaled_tables(sql):
    """ISSUE 17's two wrong results: 0 where 3 rows qualify, through
    the driver, the reference executor and the oracle evaluator."""
    runtime = build_scaled_runtime(50)
    connection = connect(runtime)
    cursor = connection.cursor()
    cursor.execute(sql)
    assert cursor.fetchall() == [(3,)]
    reference = SQLExecutor(TableProvider(runtime.storage))
    assert [tuple(row) for row in
            reference.execute(parse_statement(sql)).rows] == [(3,)]
    module = parse_xquery(connection.translate(sql).xquery)
    oracle = Evaluator(module, resolver=runtime.call_function).evaluate()
    assert oracle == [">3"]
