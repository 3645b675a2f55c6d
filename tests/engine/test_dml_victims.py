"""Victim selection as a pushed handle scan (DESIGN §14).

What the DML planner asks its source for, what comes back, and how a
mutation addresses rows: the scan request derived from each WHERE
shape, the one semantic consequence of pushing (an error only an
excluded row would raise is not raised), and handles that keep naming
the right row after deletes have left gaps and after earlier
statements of a transaction moved positions.
"""

import datetime
import sqlite3
import sys
from decimal import Decimal

import pytest

from repro.driver import ProgrammingError, connect
from repro.engine import Storage
from repro.errors import OperationalError
from repro.sources.spi import Mutation, Predicate
from repro.sql.types import SQLType

from tests.fuzz.harness import build_runtime
from tests.sources.blind import without_pushdown

ROWS = 300  # past TableSource.index_min_rows, so memory probes its index


def build_storage(rows: int = ROWS) -> Storage:
    storage = Storage()
    table = storage.create_table("ITEMS", [
        ("ID", SQLType("INTEGER")),
        ("NAME", SQLType("VARCHAR")),
        ("PRICE", SQLType("DECIMAL", precision=9, scale=2)),
        ("MADE", SQLType("DATE"))])
    table.insert_many([
        (i, None if i % 7 == 0 else f"item{i % 50}", Decimal(i) / 4,
         datetime.date(2005, 1, 1) + datetime.timedelta(days=i % 90))
        for i in range(rows)])
    return storage


@pytest.fixture(params=["sqlite", "memory"])
def backend(request):
    return request.param


@pytest.fixture
def conn(backend):
    connection = connect(build_runtime(build_storage(), backend, 0))
    yield connection
    connection.close()


def items(connection):
    cursor = connection.cursor()
    cursor.execute("SELECT ID, NAME, PRICE, MADE FROM ITEMS ORDER BY ID")
    return cursor.fetchall()


def run(connection, sql, parameters=()):
    cursor = connection.cursor()
    cursor.execute(sql, parameters)
    return cursor.rowcount


# -- the request derived from the WHERE ------------------------------------

MADE = datetime.date(2005, 1, 11)

REQUESTS = [
    ("ID = 5", (), [Predicate("ID", "eq", 5)]),
    ("ITEMS.ID = ?", (5,), [Predicate("ID", "eq", 5)]),
    ("5 = ID", (), [Predicate("ID", "eq", 5)]),
    ("ID <> 5", (), [Predicate("ID", "ne", 5)]),
    ("ID < 5", (), [Predicate("ID", "lt", 5)]),
    ("5 < ID", (), [Predicate("ID", "gt", 5)]),
    ("ID <= ?", (5,), [Predicate("ID", "le", 5)]),
    ("? <= ID", (5,), [Predicate("ID", "ge", 5)]),
    ("ID > 5", (), [Predicate("ID", "gt", 5)]),
    ("5 > ID", (), [Predicate("ID", "lt", 5)]),
    ("ID >= 5", (), [Predicate("ID", "ge", 5)]),
    ("5 >= ID", (), [Predicate("ID", "le", 5)]),
    ("NAME IS NULL", (), [Predicate("NAME", "isnull")]),
    ("NAME IS NOT NULL", (), [Predicate("NAME", "notnull")]),
    ("ID IN (1, ?, 3)", (2,), [Predicate("ID", "in", (1, 2, 3))]),
    ("ID IN (1, 2, 3)", (), [Predicate("ID", "in", (1, 2, 3))]),
    # An IN list with a ``?`` member is an OR of equalities once
    # translated; it is asked for as the list when it is one column's.
    ("ID = ? OR 6 = ID", (5,), [Predicate("ID", "in", (5, 6))]),
    ("MADE = DATE '2005-01-11'", (), [Predicate("MADE", "eq", MADE)]),
    # A signed number is a unary operator over a literal (or a ``?``).
    ("ID = -5", (), [Predicate("ID", "eq", -5)]),
    ("PRICE > -1.5", (), [Predicate("PRICE", "gt", Decimal("-1.5"))]),
    ("-? < ID", (5,), [Predicate("ID", "gt", -5)]),
    ("ID = +5", (), [Predicate("ID", "eq", 5)]),
    ("ID BETWEEN 3 AND ?", (5,),
     [Predicate("ID", "ge", 3), Predicate("ID", "le", 5)]),
    ("ID BETWEEN -2 AND 1", (),
     [Predicate("ID", "ge", -2), Predicate("ID", "le", 1)]),
    # Each bound stands alone: the constant one is still worth asking.
    ("PRICE BETWEEN 1 AND ID", (), [Predicate("PRICE", "ge", 1)]),
    ("NAME = 'item3' AND ID < 100 AND PRICE > 1.5", (),
     [Predicate("NAME", "eq", "item3"), Predicate("ID", "lt", 100),
      Predicate("PRICE", "gt", Decimal("1.5"))]),
    # Nothing to ask for: NULL operands, negation, OR, arithmetic, a
    # column on both sides, another table's qualifier.
    ("ID = ?", (None,), []),
    ("ID = NULL", (), []),
    ("ID IN (?, 4)", (None,), []),
    ("ID IN (1, ?) AND ID = ?", (2, 1),
     [Predicate("ID", "in", (1, 2)), Predicate("ID", "eq", 1)]),
    ("ID IN (1, ?) OR NAME = 'x'", (2,), []),
    ("ID IN (1, NULL)", (), []),
    ("ID NOT IN (1, 2)", (), []),
    ("ID NOT BETWEEN 3 AND 5", (), []),
    ("ID BETWEEN NULL AND ?", (None,), []),
    ("NOT (ID = 5)", (), []),
    ("ID = 5 OR ID = 6", (), []),
    ("ID + 1 = 5", (), []),
    ("ID = PRICE", (), []),
    # Another table's qualifier is a translation error: nothing is read.
    ("OTHER.ID = 5", (), None),
    # Only the top-level conjuncts of an AND are looked at.
    ("ID = 5 AND (NAME = 'x' OR PRICE > 2)", (),
     [Predicate("ID", "eq", 5)]),
]


@pytest.mark.parametrize("where, parameters, expected", REQUESTS,
                         ids=[r[0] for r in REQUESTS])
def test_request_derived_from_where(where, parameters, expected,
                                    monkeypatch):
    """The request the statement's scan sends its source, which takes
    what it can of it: the read path's scan hints."""
    runtime = build_runtime(build_storage(8), "memory", 0)
    connection = connect(runtime)
    asked = []
    for source in runtime.sources.values():
        def spy(table, request=None, context=None, handles=False,
                scan=source.scan):
            asked.append(request)
            return scan(table, request, context, handles)

        monkeypatch.setattr(source, "scan", spy)
    try:
        run(connection, f"DELETE FROM ITEMS WHERE {where}", parameters)
    except ProgrammingError:
        pass
    if expected is None:
        assert asked == []
    else:
        request, = asked
        assert list(request.predicates if request else ()) == expected
    connection.close()


@pytest.mark.parametrize("where, parameters, _expected", REQUESTS,
                         ids=[r[0] for r in REQUESTS])
def test_pushed_victims_are_the_full_scan_victims(where, parameters,
                                                  _expected, backend):
    """Every shape above, on both sources at index size: the statement
    with pushdown on leaves exactly the rows it leaves with it off."""
    outcomes = []
    for pushdown in (True, False):
        runtime = build_runtime(build_storage(), backend, 0)
        connection = connect(runtime if pushdown
                             else without_pushdown(runtime))
        try:
            count = run(connection,
                        f"UPDATE ITEMS SET NAME = 'hit', PRICE = PRICE + 1 "
                        f"WHERE {where}", parameters)
        except ProgrammingError as exc:
            count = type(exc).__name__
        outcomes.append((count, items(connection)))
        connection.close()
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("where, parameters, victims", [
    ("ID = -5", (), 1),
    ("ID BETWEEN 100 AND ?", (104,), 5),
    ("ID BETWEEN -5 AND -4", (), 2),
])
def test_signed_and_between_writes_read_what_they_touch(
        where, parameters, victims, backend):
    """ROADMAP 4(a)'s leftover: these two shapes requested nothing and
    scanned the whole table. Exact counts: with the request pushed the
    source hands back the victims and no other row. (Memory probes a
    hash index, so it serves the equality and still walks a range.)"""
    connection = connect(build_runtime(build_storage(), backend, 0))
    run(connection, "INSERT INTO ITEMS (ID, NAME) VALUES (-5, 'neg'), "
                    "(-4, 'neg')")
    served = backend == "sqlite" or "BETWEEN" not in where
    expected = (victims, victims) if served else (ROWS + 2, 0)
    counters = connection._runtime.metrics
    scanned = counters.counter("sources.rows_scanned")
    pushed = counters.counter("sources.rows_pushed")
    for statement in (f"UPDATE ITEMS SET PRICE = 1 WHERE {where}",
                      f"DELETE FROM ITEMS WHERE {where}"):
        before = scanned.value, pushed.value
        assert run(connection, statement, parameters) == victims
        assert (scanned.value - before[0], pushed.value - before[1]) \
            == expected
    connection.close()


# -- the error-ordering rule ------------------------------------------------

def test_error_only_an_excluded_row_would_raise_is_not_raised():
    """``ID / 0`` raises on every row it is evaluated on. Unpushed, the
    statement reads every row and raises; with ``ID = ?`` pushed to
    SQLite it is evaluated only on the rows the source returns. No such
    row: no error, nothing changed. The read path behaves this way under
    pushdown, and a write is a read."""
    statement = "DELETE FROM ITEMS WHERE ID / 0 = 1 AND ID = ?"
    pushed = connect(build_runtime(build_storage(), "sqlite", 0))
    full = connect(without_pushdown(
        build_runtime(build_storage(), "sqlite", 0)))
    before = items(pushed)
    assert run(pushed, statement, (10_000,)) == 0
    assert items(pushed) == before
    with pytest.raises(OperationalError, match="division by zero"):
        run(full, statement, (10_000,))
    assert items(full) == before
    # A WHERE that raises on a *surviving* row raises either way, the
    # same class, and changes nothing.
    for connection in (pushed, full):
        with pytest.raises(OperationalError, match="division by zero"):
            run(connection, statement, (3,))
        assert items(connection) == before
        connection.close()


# -- handles ----------------------------------------------------------------

def test_handles_survive_gaps(conn):
    """Deletes leave rowid gaps on SQLite and shift positions on
    memory; later writes still hit the rows their WHERE names."""
    assert run(conn, "DELETE FROM ITEMS WHERE ID IN (0, 1, 2, 50, 51)") == 5
    assert run(conn, "DELETE FROM ITEMS WHERE ID < 40 AND ID >= 30") == 10
    assert run(conn, "UPDATE ITEMS SET NAME = 'kept' WHERE ID = 52") == 1
    assert run(conn, "DELETE FROM ITEMS WHERE ID = 53") == 1
    rows = items(conn)
    gone = {0, 1, 2, 50, 51, 53} | set(range(30, 40))
    assert [row[0] for row in rows] == [i for i in range(ROWS)
                                        if i not in gone]
    assert [row[0] for row in rows if row[1] == "kept"] == [52]


def test_handles_inside_a_transaction(conn):
    """Each statement of a transaction plans against the rows the
    earlier ones left (and under the token they left)."""
    expected = items(conn)
    conn.begin()
    assert run(conn, "DELETE FROM ITEMS WHERE ID = 10") == 1
    assert run(conn, "INSERT INTO ITEMS (ID, NAME) VALUES (900, 'new')") == 1
    assert run(conn, "UPDATE ITEMS SET NAME = 'moved' WHERE ID = 11") == 1
    assert run(conn, "UPDATE ITEMS SET NAME = 'last' WHERE ID = 900") == 1
    assert run(conn, "DELETE FROM ITEMS WHERE ID = ?", (ROWS - 1,)) == 1
    rows = {row[0]: row for row in items(conn)}
    assert 10 not in rows and ROWS - 1 not in rows
    assert rows[11][1] == "moved" and rows[900][1] == "last"
    assert rows[12] == expected[12]
    conn.rollback()
    assert items(conn) == expected


def test_dead_handle_is_refused_and_changes_nothing(conn):
    source = conn._runtime._default_source
    live = [handle for handle, _row in source.scan("ITEMS", handles=True)]
    dead = max(live) + 1
    before = items(conn)
    for mutation in (
            Mutation(kind="update", table="ITEMS",
                     changes=((live[0], (0, "a", None, None)),
                              (dead, (1, "b", None, None)))),
            Mutation(kind="delete", table="ITEMS",
                     handles=(live[0], dead))):
        with pytest.raises(OperationalError, match="stale plan"):
            source.apply_mutations([mutation])
        assert items(conn) == before


def test_scan_with_handles_pairs_each_row_with_its_handle(conn):
    source = conn._runtime._default_source
    run(conn, "DELETE FROM ITEMS WHERE ID = 4")
    plain = list(source.scan("ITEMS"))
    paired = list(source.scan("ITEMS", handles=True))
    assert [row for _handle, row in paired] == plain
    handles = [handle for handle, _row in paired]
    assert len(set(handles)) == len(plain)
    # One mutation per handle deletes exactly that row.
    source.apply_mutations([Mutation(kind="delete", table="ITEMS",
                                     handles=(handles[7],))])
    assert list(source.scan("ITEMS")) == plain[:7] + plain[8:]


# -- bulk delete past SQLite's variable limit -------------------------------

@pytest.mark.parametrize("lower_limit", [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="sqlite3.Connection.setlimit needs Python 3.11"))])
def test_bulk_delete_is_not_bound_by_the_variable_limit(lower_limit):
    """One ``?`` per victim in a single statement failed with "too many
    SQL variables" (999 before SQLite 3.32, 32 766 after, 250 000 on
    this build) and deleted nothing."""
    connection = connect(build_runtime(build_storage(1_300), "sqlite", 0))
    if lower_limit:
        connection._runtime._default_source._connection.setlimit(
            sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 100)
    assert run(connection, "DELETE FROM ITEMS WHERE ID >= ?", (100,)) \
        == 1_200
    assert [row[0] for row in items(connection)] == list(range(100))
    connection.close()
