"""A write is a read: DML against the SELECT that reads the same rows.

``repro.engine.dml`` runs an UPDATE or DELETE as one SELECT over its
target on the vector plan, so a WHERE means in a write exactly what it
means in a read. For every WHERE of the victim-request battery, and for
shapes whose meaning depends on evaluation (an error in a conjunct, an
untyped COALESCE argument), ``DELETE FROM T WHERE p`` must affect as
many rows as ``SELECT COUNT(*) FROM T WHERE p`` counts, or raise the
same error class — on memory and SQLite, with pushdown on and off. Each
statement runs on a fresh runtime, so both read the source the same
way (a version the runtime already holds answers a read from all of
its rows).

DML subqueries are checked against stdlib ``sqlite3`` running the same
statements: final tables must agree.
"""

import sqlite3
from decimal import Decimal

import pytest

from repro.driver import Error, connect
from repro.engine import Storage
from repro.sql.types import SQLType

from tests.engine.test_dml_victims import REQUESTS, build_storage
from tests.fuzz.harness import build_runtime
from tests.sources.blind import without_pushdown

SHAPES = [(where, parameters) for where, parameters, _ in REQUESTS] + [
    ("ID < 0 AND ID / 0 = 1", ()),
    ("ID / 0 = 1 AND ID < 0", ()),
    ("ID = ? AND ID / 0 = 1", (5,)),
    ("COALESCE(NULL, ID) = 4", ()),
    ("COALESCE(?, ID) = 4", (None,)),
    ("NULLIF(ID, ?) IS NULL", (4,)),
]

LEGS = [(backend, pushdown) for backend in ("memory", "sqlite")
        for pushdown in (True, False)]


def outcome(backend, pushdown, sql, parameters):
    """The statement's row count (``COUNT(*)`` for a SELECT) or the
    class of the error it raised, on a fresh runtime."""
    runtime = build_runtime(build_storage(), backend, 0)
    connection = connect(runtime if pushdown
                         else without_pushdown(runtime))
    cursor = connection.cursor()
    try:
        cursor.execute(sql, parameters)
        if cursor.description is None:
            return cursor.rowcount
        (count,), = cursor.fetchall()
        return count
    except Error as exc:
        return type(exc).__name__
    finally:
        connection.close()


@pytest.mark.parametrize("backend, pushdown", LEGS)
@pytest.mark.parametrize("where, parameters", SHAPES,
                         ids=[shape[0] for shape in SHAPES])
def test_delete_affects_what_select_counts(where, parameters, backend,
                                           pushdown):
    read = outcome(backend, pushdown,
                   f"SELECT COUNT(*) FROM ITEMS WHERE {where}", parameters)
    write = outcome(backend, pushdown,
                    f"DELETE FROM ITEMS WHERE {where}", parameters)
    assert write == read


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_untyped_coalesce_argument_takes_its_siblings_type(backend):
    """``COALESCE(?, PRICE)`` types ``?`` as PRICE's DECIMAL, as a read
    and as a write; NULL leaves the column as it was."""
    connection = connect(build_runtime(build_storage(10), backend, 0))
    cursor = connection.cursor()
    for text in ("COALESCE(?, PRICE)", "COALESCE(PRICE, ?)"):
        cursor.execute(f"SELECT {text} FROM ITEMS WHERE ID = 4",
                       (Decimal("9.50"),))
        assert cursor.fetchall() == [(Decimal("9.50") if text[9] == "?"
                                      else Decimal(1),)]
    cursor.execute("SELECT COALESCE(NULL, PRICE) FROM ITEMS WHERE ID = 4")
    assert cursor.fetchall() == [(Decimal(1),)]
    cursor.execute("UPDATE ITEMS SET PRICE = COALESCE(?, PRICE) "
                   "WHERE ID = ?", (None, 4))
    assert cursor.rowcount == 1
    cursor.execute("UPDATE ITEMS SET PRICE = COALESCE(?, PRICE) "
                   "WHERE ID = ?", (7, 5))
    cursor.execute("SELECT ID, PRICE FROM ITEMS WHERE ID IN (4, 5) "
                   "ORDER BY ID")
    assert cursor.fetchall() == [(4, Decimal(1)), (5, Decimal(7))]
    connection.close()


# -- subqueries, against stdlib sqlite3 --------------------------------------

T_ROWS = [(i, i % 4, f"n{i}") for i in range(12)]
U_ROWS = [(i % 7, i % 5) for i in range(15)]

SCRIPTS = {
    "in_subquery": [
        "DELETE FROM T WHERE ID IN (SELECT TID FROM U WHERE QTY > 2)"],
    "correlated_exists": [
        "UPDATE T SET NAME = 'hit' WHERE EXISTS "
        "(SELECT 1 FROM U WHERE U.TID = T.ID AND U.QTY = 1)"],
    "scalar_in_set": [
        "UPDATE T SET GRP = (SELECT MAX(QTY) FROM U WHERE U.TID = T.ID)"],
    "not_exists_delete": [
        "DELETE FROM T WHERE NOT EXISTS "
        "(SELECT 1 FROM U WHERE U.TID = T.ID)"],
    # A subquery over the target reads the rows from before the
    # statement: deleting the smallest GRP must not move the minimum
    # under its own feet.
    "target_min": ["DELETE FROM T WHERE GRP = (SELECT MIN(GRP) FROM T)"],
    "target_in_values": [
        "INSERT INTO T VALUES ((SELECT MAX(ID) + 1 FROM T), 0, 'new')",
        "INSERT INTO T (ID, NAME) VALUES "
        "((SELECT COUNT(*) FROM U), (SELECT MIN(NAME) FROM T))"],
    "chain": [
        "UPDATE T SET NAME = 'q' WHERE GRP IN (SELECT QTY FROM U "
        "WHERE TID = 3)",
        "DELETE FROM T WHERE NAME = 'q' AND ID > "
        "(SELECT AVG(QTY) FROM U)",
        "UPDATE T SET GRP = GRP + 10 WHERE ID IN "
        "(SELECT TID FROM U WHERE QTY = 0)"],
    # (statement, parameters): a ``?`` in a subquery is a marker too.
    "parameter_in_subquery": [
        ("UPDATE T SET GRP = ? WHERE ID IN "
         "(SELECT TID FROM U WHERE QTY > ?)", (9, 2)),
        ("DELETE FROM T WHERE EXISTS (SELECT 1 FROM U "
         "WHERE U.TID = T.ID AND U.QTY = ?) AND GRP <> ?", (4, 9))],
}


def statement_of(entry) -> tuple:
    return entry if isinstance(entry, tuple) else (entry, ())


def subquery_storage() -> Storage:
    storage = Storage()
    storage.create_table("T", [("ID", SQLType("INTEGER")),
                               ("GRP", SQLType("INTEGER")),
                               ("NAME", SQLType("VARCHAR"))]) \
        .insert_many(T_ROWS)
    storage.create_table("U", [("TID", SQLType("INTEGER")),
                               ("QTY", SQLType("INTEGER"))]) \
        .insert_many(U_ROWS)
    return storage


def stdlib_rows(statements) -> list:
    database = sqlite3.connect(":memory:")
    database.execute("CREATE TABLE T (ID INTEGER, GRP INTEGER, "
                     "NAME VARCHAR)")
    database.execute("CREATE TABLE U (TID INTEGER, QTY INTEGER)")
    database.executemany("INSERT INTO T VALUES (?, ?, ?)", T_ROWS)
    database.executemany("INSERT INTO U VALUES (?, ?)", U_ROWS)
    for statement in statements:
        database.execute(*statement_of(statement))
    rows = database.execute(
        "SELECT ID, GRP, NAME FROM T ORDER BY ID, NAME").fetchall()
    database.close()
    return rows


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_dml_subqueries_agree_with_sqlite3(name, backend):
    statements = SCRIPTS[name]
    connection = connect(build_runtime(subquery_storage(), backend, 0))
    cursor = connection.cursor()
    for statement in statements:
        cursor.execute(*statement_of(statement))
    cursor.execute("SELECT ID, GRP, NAME FROM T ORDER BY ID, NAME")
    assert cursor.fetchall() == stdlib_rows(statements)
    connection.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_correlated_subquery_over_the_target_reads_the_old_rows(backend):
    """Every GRP holds three rows before the statement, so every updated
    row gets 3. (stdlib sqlite3 reads the rows its own UPDATE has
    already changed here: it gives IDs 7 to 11 the counts 6, 2, 2, 4
    and 5.)"""
    connection = connect(build_runtime(subquery_storage(), backend, 0))
    cursor = connection.cursor()
    cursor.execute("UPDATE T SET GRP = (SELECT COUNT(*) FROM T T2 "
                   "WHERE T2.GRP = T.GRP) WHERE ID > 2")
    assert cursor.rowcount == 9
    cursor.execute("SELECT ID, GRP FROM T ORDER BY ID")
    assert cursor.fetchall() == [(0, 0), (1, 1), (2, 2)] + [
        (i, 3) for i in range(3, 12)]
    connection.close()
