"""Differential testing: SQLite pushdown backend vs the memory backend.

The in-memory backend never pushes work down, so it is the semantics
oracle for the source SPI: for every SQL query in the translator corpus
(the paper's worked examples plus the full equivalence battery), the
demo runtime served through :class:`repro.SQLiteSource` — where scans
arrive with pushed-down projections and sargable conjuncts — must
produce byte-identical results in both result formats. Any pushdown bug
that drops, duplicates, or retypes a row diverges here.
"""

import pytest

from repro.translator import SQLToXQueryTranslator
from repro.workloads import build_runtime
from repro.xmlmodel import Element, serialize

from tests.xquery.test_compile_differential import CORPUS
from tests.sources.blind import without_pushdown

RUNTIME_MEM = build_runtime(backend="memory")
RUNTIME_SQL = build_runtime(backend="sqlite")
TRANSLATOR = SQLToXQueryTranslator(RUNTIME_MEM.metadata_api())


def canonical(sequence) -> list[str]:
    rendered = []
    for item in sequence:
        if isinstance(item, Element):
            rendered.append(serialize(item))
        else:
            rendered.append(f"{type(item).__name__}:{item!r}")
    return rendered


def run_differential(sql: str, fmt: str) -> None:
    result = TRANSLATOR.translate(sql, format=fmt)
    oracle = canonical(RUNTIME_MEM.execute(result.xquery))
    assert canonical(RUNTIME_SQL.execute(result.xquery)) == oracle, sql


@pytest.mark.parametrize("sql", CORPUS)
def test_sqlite_matches_memory_recordset(sql):
    run_differential(sql, "recordset")


@pytest.mark.parametrize("sql", CORPUS)
def test_sqlite_matches_memory_delimited(sql):
    run_differential(sql, "delimited")


def _scan_counts(sql: str, pushdown: bool) -> tuple:
    """(rows, rows_pushed, rows_scanned) of *sql* on a fresh SQLite
    runtime."""
    runtime = build_runtime(backend="sqlite")
    if not pushdown:
        without_pushdown(runtime)
    result = TRANSLATOR.translate(sql, format="recordset")
    rows = canonical(runtime.execute(result.xquery))
    counters = runtime.metrics.snapshot()["counters"]
    return (rows, counters.get("sources.rows_pushed", 0),
            counters["sources.rows_scanned"])


def test_pushdown_actually_engaged():
    """Guard against the differential suite silently degrading to a
    full-scan-vs-full-scan comparison: a selective filter on the SQLite
    runtime must be applied in-store, so only the matching rows of the
    6-row CUSTOMERS table ever cross the SPI boundary — and with
    pushdown off all 6 do, for the same result."""
    for sql, matching in [
        ("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE REGION = 'EAST'", 2),
        # One row of six: the >=5x scan reduction, as exact counts.
        ("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 23", 1),
    ]:
        rows, pushed, scanned = _scan_counts(sql, pushdown=True)
        assert (pushed, scanned) == (matching, matching), sql
        assert _scan_counts(sql, pushdown=False) == (rows, 0, 6), sql


def test_cursor_description_types_from_catalog():
    """The driver's description row types come from catalog metadata,
    which for SQLite-backed tables is recovered from declared column
    types — DECIMAL must surface as NUMBER, not degrade to STRING."""
    import repro
    from repro.driver.dbapi import DATETIME, NUMBER, STRING

    conn = repro.connect(build_runtime(backend="sqlite"))
    cur = conn.cursor()
    cur.execute("SELECT CUSTOMERID, CUSTOMERNAME, CREDITLIMIT "
                "FROM CUSTOMERS WHERE CUSTOMERID = 23")
    assert [(d[0], d[1]) for d in cur.description] == [
        ("CUSTOMERID", NUMBER), ("CUSTOMERNAME", STRING),
        ("CREDITLIMIT", NUMBER)]
    from decimal import Decimal

    # Lexical form also rides through the SQLite decltype round-trip.
    assert cur.fetchall() == [(23, "Sue", Decimal("2500.50"))]
    cur.execute("SELECT PAYDATE FROM PAYMENTS WHERE PAYMENTID = 1")
    assert cur.description[0][1] == DATETIME


def test_pushdown_disabled_still_matches():
    """A source that takes no pushed request is a pure
    de-optimization."""
    plain = without_pushdown(build_runtime(backend="sqlite"))
    for sql in CORPUS[:8]:
        result = TRANSLATOR.translate(sql, format="recordset")
        assert canonical(plain.execute(result.xquery)) == \
            canonical(RUNTIME_MEM.execute(result.xquery)), sql
    counters = plain.metrics.snapshot()["counters"]
    assert counters.get("sources.rows_pushed", 0) == 0
