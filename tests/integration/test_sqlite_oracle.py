"""An outside oracle: stdlib ``sqlite3`` runs the statements themselves.

The batch executor and the Evaluator now call the same
``functions.BUILTINS`` bodies for CASE, COALESCE, NULLIF, LIKE, CAST and
the string functions, so their differential cannot catch a wrong one.
Here the corpus statements that exercise those functions run verbatim on
SQLite — which shares no code with us — over the rows
``SQLiteSource.from_storage`` stores, and the driver's rows must match
up to :data:`NORMALISATION`, the one list of legitimate divergences.
The statements that need syntax SQLite lacks are :data:`SKIPPED`, each
with its reason.

A second slice runs the corpus statements whose translation holds an
inner ``<RECORDSET>`` — derived tables, outer and grouped joins, set
operations: the RECORD boundary the batch executor crosses with typed
cells. Over those, the result schema stage 3 computes (section 3.4) is
checked too: every decoded cell has the Python type of its column's SQL
type, and every oracle cell a compatible storage class.

A third slice runs every other demo-corpus statement SQLite accepts
verbatim — filters, joins, grouping, subqueries, set operations, ORDER
BY and LIMIT — so no corpus statement is left out of the oracle but for
a reason listed in :data:`SKIPPED`.
"""

from __future__ import annotations

import datetime
import json
import math
import re
import sqlite3
from decimal import ROUND_HALF_UP, Decimal

import pytest

from repro import clock, connect
from repro.sources.sqlite import SQLiteSource
from repro.workloads import build_runtime, build_storage

from tests.translator.golden.freeze import CORPUS

#: Every way SQLite may legitimately answer differently, and what the
#: comparison does about it.
NORMALISATION = {
    "DECIMAL representation": (
        "SQLiteSource stores a DECIMAL column as text (DECIMAL_TEXT, TEXT "
        "affinity), which SQLite would compare as text: the oracle reads "
        "each DECIMAL column through a temporary view casting it to REAL, "
        "and numbers (Decimal, int, float) compare by value, to 1e-9"),
    "integral math results": (
        "SQLite's MOD and ROUND return REAL where the driver returns an "
        "INTEGER or a DECIMAL: compared by value, as above"),
    "DECIMAL(p,s) casts": (
        "SQLite's CAST ignores the scale, SQL rounds to it: the oracle's "
        "numbers of a statement casting to DECIMAL(p,s) are rounded half "
        "up to s places"),
    "LIKE case folding": (
        "SQLite's LIKE folds ASCII case, SQL's does not: the oracle runs "
        "with PRAGMA case_sensitive_like = ON"),
    "NULL ordering": (
        "SQL-92 leaves it to the implementation; SQLite sorts NULL first "
        "ascending, as the driver does (empty least): no adjustment, "
        "ordered results compare in order"),
    "row order": (
        "without ORDER BY, SQL fixes none: such results compare as "
        "multisets"),
    "date lexicals": (
        "SQLite returns DATE values as ISO text: a driver date compares "
        "by its isoformat()"),
    "CURRENT_DATE": (
        "SQLite reads the UTC date: the driver's clock is pinned to the "
        "UTC now while the statement runs"),
    "LIMIT without ORDER BY": (
        "SQL fixes neither the order nor which rows: the driver's rows "
        "must be as many, and a sub-multiset of the oracle's rows without "
        "the LIMIT"),
}

#: The corpus statements (demo schema) whose scalar functions, CASE
#: and LIKE forms SQLite accepts verbatim.
STATEMENTS = [
    "SELECT * FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'J%' ESCAPE '!'",
    "SELECT -CREDITLIMIT, ABS(-CUSTOMERID) FROM CUSTOMERS",
    "SELECT ABS(CUSTOMERID - 30), MOD(CUSTOMERID, 7) FROM CUSTOMERS",
    "SELECT CASE REGION WHEN 'WEST' THEN 1 WHEN 'EAST' THEN 2 END "
    "FROM CUSTOMERS",
    "SELECT CASE REGION WHEN 'WEST' THEN 1 WHEN 'EAST' THEN 2 END, "
    "CASE WHEN CREDITLIMIT > 500 THEN 'hi' ELSE 'lo' END, "
    "COALESCE(REGION, CUSTOMERNAME, 'x') FROM CUSTOMERS",
    "SELECT CASE WHEN CREDITLIMIT IS NULL THEN 0 ELSE CREDITLIMIT END "
    "FROM CUSTOMERS",
    "SELECT CASE WHEN CUSTOMERID > 1 THEN 'a' WHEN CUSTOMERID > 0 "
    "THEN 'b' ELSE 'c' END FROM CUSTOMERS",
    "SELECT CASE WHEN CUSTOMERID > 30 THEN 'hi' ELSE 'lo' END "
    "FROM CUSTOMERS",
    "SELECT CASE WHEN EXISTS (SELECT PAYMENTID FROM PAYMENTS P WHERE "
    "P.CUSTID = C.CUSTOMERID) THEN 'payer' ELSE 'none' END FROM CUSTOMERS C",
    "SELECT CAST(CREDITLIMIT AS DECIMAL(8,1)) FROM CUSTOMERS",
    "SELECT CAST(CUSTOMERID AS VARCHAR(10)) FROM CUSTOMERS",
    "SELECT CAST(CUSTOMERID AS VARCHAR(3)) FROM CUSTOMERS",
    "SELECT COALESCE(REGION, 'NONE') FROM CUSTOMERS",
    "SELECT COALESCE(REGION, 'NONE'), COUNT(*) FROM CUSTOMERS "
    "GROUP BY COALESCE(REGION, 'NONE') ORDER BY 1",
    "SELECT COALESCE(REGION, CUSTOMERNAME, 'x') FROM CUSTOMERS",
    "SELECT CURRENT_DATE FROM CUSTOMERS",
    "SELECT CUSTOMERID / 2, CREDITLIMIT / 2, CUSTOMERID * 2 - 1 FROM "
    "CUSTOMERS WHERE NOT (REGION LIKE 'W%' OR REGION IS NOT NULL)",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME LIKE '%o%'",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME LIKE '_o_'",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME NOT LIKE 'J%'",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE REGION NOT IN ('EAST', NULL)",
    "SELECT CUSTOMERNAME || '!' FROM CUSTOMERS",
    "SELECT CUSTOMERNAME || COALESCE(REGION, '?') FROM CUSTOMERS",
    "SELECT NULLIF(REGION, 'WEST') FROM CUSTOMERS",
    "SELECT NULLIF(REGION, REGION) FROM CUSTOMERS",
    "SELECT ROUND(CREDITLIMIT), ROUND(CREDITLIMIT, 1), MOD(CUSTOMERID, 3), "
    "NULLIF(REGION, 'WEST'), -CUSTOMERID, +CUSTOMERID FROM CUSTOMERS",
    "SELECT UPPER(CUSTOMERNAME), LOWER(REGION) FROM CUSTOMERS",
]

#: The rest of that corpus group: statement -> the syntax SQLite lacks.
SKIPPED = {
    "SELECT CHAR_LENGTH(CUSTOMERNAME) FROM CUSTOMERS":
        "no CHAR_LENGTH (SQLite spells it LENGTH)",
    "SELECT EXTRACT(MONTH FROM ORDERDATE), COUNT(*) FROM ORDERS GROUP BY "
    "EXTRACT(MONTH FROM ORDERDATE) ORDER BY EXTRACT(MONTH FROM ORDERDATE)":
        "no EXTRACT (SQLite has strftime)",
    "SELECT EXTRACT(YEAR FROM PAYDATE) FROM PAYMENTS":
        "no EXTRACT (SQLite has strftime)",
    "SELECT EXTRACT(YEAR FROM PAYDATE), EXTRACT(MONTH FROM PAYDATE) "
    "FROM PAYMENTS": "no EXTRACT (SQLite has strftime)",
    "SELECT POSITION('o' IN CUSTOMERNAME) FROM CUSTOMERS":
        "no POSITION ... IN (SQLite has INSTR)",
    "SELECT SUBSTRING(CUSTOMERNAME FROM 1 FOR 2) FROM CUSTOMERS":
        "no SUBSTRING ... FROM ... FOR (SQLite has SUBSTR(x, start, n))",
    "SELECT SUBSTRING(CUSTOMERNAME FROM CUSTOMERID - CUSTOMERID + 1 FOR 2) "
    "FROM CUSTOMERS":
        "no SUBSTRING ... FROM ... FOR (SQLite has SUBSTR(x, start, n))",
    "SELECT TRIM(BOTH 'J' FROM CUSTOMERNAME) FROM CUSTOMERS":
        "no TRIM (BOTH ... FROM ...) (SQLite has TRIM(x, chars))",
    "SELECT TRIM(LEADING 'x' FROM CUSTOMERNAME) FROM CUSTOMERS":
        "no TRIM (LEADING ... FROM ...) (SQLite has LTRIM(x, chars))",
    "SELECT D.X FROM (SELECT CUSTOMERID FROM CUSTOMERS) AS D (X)":
        "no derived column list (AS D (X))",
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C RIGHT OUTER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID WHERE P.PAYMENT > ?":
        "no value for its parameter marker: the corpus binds none",
    "SELECT * FROM CUSTOMERS WHERE CUSTOMERID = ? AND REGION = ?":
        "no value for its parameter markers: the corpus binds none",
    "SELECT * FROM CUSTOMERS WHERE CUSTOMERID > ALL "
    "(SELECT CUSTID FROM PAYMENTS)":
        "no ALL quantified comparison",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID >= ALL "
    "(SELECT CUSTOMERID FROM CUSTOMERS)":
        "no ALL quantified comparison",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID > ALL "
    "(SELECT CUSTID FROM PAYMENTS WHERE CUSTID < 0)":
        "no ALL quantified comparison",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ANY "
    "(SELECT CUSTID FROM PAYMENTS)":
        "no ANY quantified comparison",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID < ANY "
    "(SELECT CUSTID FROM PAYMENTS WHERE PAYMENT IS NULL)":
        "no ANY quantified comparison",
    "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS (SELECT DISTINCT "
    "CUSTID FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID) AND CUSTOMERID "
    "IN (23) AND CUSTOMERID NOT IN (CUSTOMERID, 1) AND CUSTOMERID < ANY "
    "(SELECT CUSTID FROM PAYMENTS)":
        "no ANY quantified comparison",
    "SELECT * FROM ORDERS WHERE ORDERDATE > DATE '2005-01-01'":
        "no DATE literal",
    "SELECT COUNT(*) FROM ORDERS WHERE ORDERDATE >= DATE '2005-03-01'":
        "no DATE literal",
    "SELECT ORDERID FROM ORDERS WHERE ORDERDATE BETWEEN DATE '2005-01-15' "
    "AND DATE '2005-03-10' ORDER BY ORDERDATE":
        "no DATE literal",
    "SELECT 1E2, 12345678901, 5., TIME '10:00:00', TIMESTAMP "
    "'2020-01-02 03:04:05', DATE '2020-01-02', 'a\"b&c''d<e' FROM CUSTOMERS":
        "no TIME, TIMESTAMP or DATE literal",
    "SELECT CUSTID FROM PAYMENTS EXCEPT ALL SELECT CUSTOMERID FROM "
    "CUSTOMERS":
        "no EXCEPT ALL",
    "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT ALL SELECT CUSTID FROM "
    "PAYMENTS":
        "no INTERSECT ALL",
    "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT ALL SELECT CUSTID FROM "
    "PAYMENTS EXCEPT SELECT CUSTOMERID FROM CUSTOMERS WHERE REGION = 'WEST'":
        "no INTERSECT ALL",
    "SELECT CUSTOMERID FROM CUSTOMERS UNION ALL SELECT CUSTID FROM PAYMENTS "
    "UNION ALL SELECT CUSTID FROM PAYMENTS ORDER BY 1 OFFSET 2":
        "no OFFSET without LIMIT",
}

#: The demo-schema corpus entries.
DEMO_ENTRIES = [entry for entry in json.loads(CORPUS.read_text())
                if entry["schema"] == "demo"]

#: The demo-schema corpus statements whose delimited translation holds an
#: inner ``<RECORDSET>``, but for those in :data:`SKIPPED`.
RECORDSET_STATEMENTS = [
    entry["sql"] for entry in DEMO_ENTRIES
    if any("<RECORDSET>" in line for line in entry["delimited"])
    and entry["sql"] not in SKIPPED]

#: Every other distinct demo-schema corpus statement: in neither slice
#: above nor in :data:`SKIPPED`.
OTHER_STATEMENTS = list(dict.fromkeys(
    entry["sql"] for entry in DEMO_ENTRIES
    if entry["sql"] not in {*STATEMENTS, *RECORDSET_STATEMENTS, *SKIPPED}))

#: SQL type of a result column -> the Python type of its decoded cells,
#: and the SQLite storage classes (what ``typeof()`` reports, and the
#: type ``sqlite3`` hands back) an oracle cell of it may have.
SCHEMA = {
    "SMALLINT": (int, {int}), "INTEGER": (int, {int}),
    "BIGINT": (int, {int}),
    "DECIMAL": (Decimal, {float}),  # read through the REAL view
    "REAL": (float, {float, int}), "DOUBLE": (float, {float, int}),
    "VARCHAR": (str, {str}), "CHAR": (str, {str}),
    "DATE": (datetime.date, {str}), "TIME": (datetime.time, {str}),
    "TIMESTAMP": (datetime.datetime, {str}),
}


@pytest.fixture(scope="module")
def oracle():
    """The SQLite connection of a source holding the demo rows, each
    DECIMAL column read through a REAL view (the source itself serves
    no scan here)."""
    source = SQLiteSource.from_storage(build_storage(), name="oracle")
    connection = source._connection
    for table in source.tables():
        cells = ", ".join(
            f'CAST("{name}" AS REAL) AS "{name}"'
            if sql_type.kind == "DECIMAL" else f'"{name}"'
            for name, sql_type in source.columns(table))
        connection.execute(f'CREATE TEMP VIEW "{table}" AS '
                           f'SELECT {cells} FROM main."{table}"')
    connection.execute("PRAGMA case_sensitive_like = ON")
    yield connection
    source.close()


@pytest.fixture(scope="module")
def driver():
    connection = connect(build_runtime())
    yield connection
    connection.close()


def normalised(row, scale=None) -> tuple:
    cells = []
    for value in row:
        if isinstance(value, (int, float, Decimal)) \
                and not isinstance(value, bool):
            if scale is not None:
                value = Decimal(repr(value)).quantize(
                    Decimal(1).scaleb(-scale), rounding=ROUND_HALF_UP)
            cells.append(("number", float(value)))
        elif isinstance(value, datetime.date):
            cells.append(("text", value.isoformat()))
        else:
            cells.append(("text", value))
    return tuple(cells)


def same(left: list, right: list) -> bool:
    """Rows equal cell by cell, numbers to 1e-9."""
    if len(left) != len(right):
        return False
    for row_a, row_b in zip(left, right):
        for (kind_a, a), (kind_b, b) in zip(row_a, row_b):
            if kind_a != kind_b:
                return False
            if kind_a == "number":
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


@pytest.mark.parametrize("sql", STATEMENTS)
def test_sqlite_agrees(oracle, driver, sql):
    clock.set_fixed(datetime.datetime.now(datetime.timezone.utc)
                    .replace(tzinfo=None))
    try:
        cursor = driver.cursor()
        cursor.execute(sql)
        ours = [normalised(row) for row in cursor.fetchall()]
        cast = re.search(r"AS DECIMAL\(\d+,(\d+)\)", sql)
        theirs = [normalised(row, cast and int(cast.group(1)))
                  for row in oracle.execute(sql).fetchall()]
    finally:
        clock.set_fixed(None)
    if "ORDER BY" not in sql:
        ours, theirs = sorted(ours, key=repr), sorted(theirs, key=repr)
    assert same(ours, theirs), (sql, ours, theirs)


def test_every_skip_needs_syntax_sqlite_lacks(oracle):
    for sql, reason in SKIPPED.items():
        with pytest.raises((sqlite3.OperationalError,
                            sqlite3.ProgrammingError)):
            oracle.execute(sql)
        assert reason.startswith("no "), sql
    assert len(STATEMENTS) == 27 and len(SKIPPED) == 26
    assert len(RECORDSET_STATEMENTS) == 27
    assert len(OTHER_STATEMENTS) == 100


@pytest.mark.parametrize("sql", RECORDSET_STATEMENTS)
def test_sqlite_agrees_across_record_sets(oracle, driver, sql):
    cursor = driver.cursor()
    cursor.execute(sql)
    rows = cursor.fetchall()
    ours = [normalised(row) for row in rows]
    theirs = [normalised(row) for row in oracle.execute(sql).fetchall()]
    if " LIMIT " in sql and "ORDER BY" not in sql:
        unlimited = sql[:sql.index(" LIMIT")]
        pool = [normalised(row) for row in oracle.execute(unlimited)]
        assert len(ours) == len(theirs), (sql, ours, theirs)
        for row in ours:
            match = next(i for i, candidate in enumerate(pool)
                         if same([row], [candidate]))
            del pool[match]
        return
    if "ORDER BY" not in sql:
        ours, theirs = sorted(ours, key=repr), sorted(theirs, key=repr)
    assert same(ours, theirs), (sql, ours, theirs)


@pytest.mark.parametrize("sql", RECORDSET_STATEMENTS)
def test_result_schema_is_sound(oracle, driver, sql):
    """The SQL type stage 3 computed for each output column is the type
    of every decoded cell, and compatible with the oracle's cell."""
    kinds = [column.sql_type.kind for column
             in driver.translator.translate(sql).unit.bound.result_columns]
    cursor = driver.cursor()
    cursor.execute(sql)
    for rows, side in ((cursor.fetchall(), 0),
                       (oracle.execute(sql).fetchall(), 1)):
        for row in rows:
            assert len(row) == len(kinds), sql
            for kind, cell in zip(kinds, row):
                allowed = SCHEMA[kind][side]
                assert cell is None or type(cell) in (
                    allowed if side else (allowed,)), (sql, kind, cell)


@pytest.mark.parametrize("sql", OTHER_STATEMENTS)
def test_sqlite_agrees_on_the_rest_of_the_corpus(oracle, driver, sql):
    test_sqlite_agrees_across_record_sets(oracle, driver, sql)
