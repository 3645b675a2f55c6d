"""A held table version answers a pushed request; pushdown still runs.

A scan the planner asks to push goes to the source only when the
runtime's column cache holds no entry for the table's current version;
a current entry serves any request, because every pushed conjunct stays
in the plan as a residual filter, and the join over it probes the hash
table kept for that version. So a version's first read is pushed and
later reads are cached. Each test here runs the report ``filter``,
``join`` and ``point`` statements through both paths, on memory and on
SQLite, at three batch sizes, and holds every leg's rows to those of a
reference runtime that never pushes. The ``sources.*`` and
``vector.join_*`` counters say which path each leg took.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, import_tables
from repro.sources.memory import TableSource
from repro.sources.sqlite import SQLiteSource
from repro.workloads.scaling import APPLICATION, PROJECT, build_scaled_storage

from tests.sources.blind import without_pushdown

#: Above ``TableSource.index_min_rows``: the memory index answers the
#: equality conjuncts of a fresh version.
ROWS = 400

STATEMENTS = {
    "filter": ("SELECT ID, NAME, AMOUNT FROM FACTS "
               "WHERE REGION = ? AND AMOUNT > ?", ("WEST", 10)),
    "join": ("SELECT F.ID, F.NAME, D.DETAILID, D.QTY FROM FACTS F "
             "INNER JOIN DETAILS D ON F.ID = D.FACTID WHERE F.REGION = ?",
             ("WEST",)),
    "point": ("SELECT ID, NAME, REGION, AMOUNT FROM FACTS WHERE ID = ?",
              (123,)),
}

INSERT = ("INSERT INTO FACTS VALUES (?, ?, ?, ?)",
          (9_000, "Inserted", "WEST", Decimal("60.00")))
INSERT_123 = ("INSERT INTO FACTS VALUES (?, ?, ?, ?)",
              (123, "Twin", "WEST", Decimal("70.00")))

COUNTERS = ("sources.rows_scanned", "sources.rows_pushed",
            "vector.join_builds", "vector.join_reuses")


@pytest.fixture(autouse=True)
def _pin_executor_shape(monkeypatch):
    """The counts asserted on are the plans at the batch size each test
    names: a CI leg's override must not reshape them."""
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)


class _Ignoring(TableSource):
    """Answers every request with the whole table, unfiltered: a
    superset, as the SPI allows."""

    def scan(self, table, request=None, context=None, handles=False):
        return super().scan(table, None, context, handles)


class _Unversioned(TableSource):
    """Offers no staleness token: nothing it serves is cached."""

    def version(self, table: str):
        return None


def _runtime(source, batch_size: int = 1024, **options) -> DSPRuntime:
    application = Application(APPLICATION)
    import_tables(application, PROJECT, source)
    return DSPRuntime(application, source, config=RuntimeConfig(
        batch_size=batch_size, **options))


class Pair:
    """A subject runtime and a reference over its own copy of the rows
    that never pushes a request; every statement runs on both."""

    def __init__(self, source, batch_size: int = 1024):
        self.runtime = _runtime(source, batch_size)
        self.connection = connect(self.runtime)
        self.reference = connect(without_pushdown(_runtime(
            TableSource(build_scaled_storage(ROWS)))))

    def execute(self, sql: str, params=()) -> None:
        """Run a write (or any statement) on both runtimes."""
        for connection in (self.connection, self.reference):
            connection.cursor().execute(sql, params)

    def set_autocommit(self, on: bool) -> None:
        for connection in (self.connection, self.reference):
            connection.autocommit = on

    def rollback(self) -> None:
        for connection in (self.connection, self.reference):
            connection.rollback()

    def counters(self) -> tuple:
        found = self.runtime.metrics.snapshot()["counters"]
        return tuple(found.get(name, 0) for name in COUNTERS)

    def read(self, sql: str, params=()) -> dict:
        """The subject's counter moves while it ran *sql*; its rows must
        be the reference's."""
        before = self.counters()
        cursor = self.connection.cursor()
        cursor.execute(sql, params)
        rows = cursor.fetchall()
        moved = dict(zip(COUNTERS, (b - a for a, b in
                                    zip(before, self.counters()))))
        expected = self.reference.cursor()
        expected.execute(sql, params)
        assert rows == expected.fetchall(), (sql, params)
        assert rows, sql
        return moved

    def cache_tables(self) -> None:
        """Plain reads of both tables: their current versions enter the
        cache (SQLite is asked for a projection of DETAILS otherwise)."""
        for table in ("FACTS", "DETAILS"):
            moved = self.read(f"SELECT * FROM {table}")
            assert moved["sources.rows_pushed"] == 0

    def close(self) -> None:
        self.connection.close()
        self.reference.close()
        self.runtime.close()


def _source(backend: str):
    storage = build_scaled_storage(ROWS)
    return SQLiteSource.from_storage(storage) if backend == "sqlite" \
        else TableSource(storage)


def _cached(moved: dict) -> bool:
    """Read from the column cache, probing kept join tables only."""
    return (moved["sources.rows_scanned"] == 0
            and moved["vector.join_builds"] == 0
            and moved["vector.join_reuses"] > 0)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_cached_and_pushed_reads_agree(backend, batch_size, name):
    sql, params = STATEMENTS[name]
    pair = Pair(_source(backend), batch_size)
    # A fresh runtime holds no version: the scan is pushed.
    assert pair.read(sql, params)["sources.rows_pushed"] > 0
    # A plain read caches the version; the statement then reads it,
    # builds its tables once and probes them from then on.
    pair.cache_tables()
    assert pair.read(sql, params)["sources.rows_scanned"] == 0
    for _ in range(2):
        assert _cached(pair.read(sql, params))
    # A write moves the version: its first read is pushed again.
    pair.execute(*(INSERT_123 if name == "point" else INSERT))
    assert pair.read(sql, params)["sources.rows_pushed"] > 0
    assert pair.read(sql, params)["sources.rows_pushed"] > 0
    pair.cache_tables()
    pair.read(sql, params)
    assert _cached(pair.read(sql, params))
    # Inside a transaction the version moves; a rollback restores the
    # memory token (the held version answers again) while SQLite draws
    # a fresh one (pushed again).
    pair.set_autocommit(False)
    pair.execute("UPDATE FACTS SET NAME = 'Moved' WHERE ID < 130")
    assert pair.read(sql, params)["sources.rows_pushed"] > 0
    pair.rollback()
    pair.set_autocommit(True)
    moved = pair.read(sql, params)
    if backend == "memory":
        assert _cached(moved)
    else:
        assert moved["sources.rows_pushed"] > 0
    pair.close()


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_a_source_that_ignores_requests_is_cached_once_read_whole(name):
    sql, params = STATEMENTS[name]
    pair = Pair(_Ignoring(build_scaled_storage(ROWS)))
    moved = pair.read(sql, params)
    assert moved["sources.rows_pushed"] == 0
    assert moved["sources.rows_scanned"] >= ROWS
    # The answer reports no predicate applied and every column: it is
    # the table version, so the runtime holds it from the first read.
    assert pair.read(sql, params)["sources.rows_scanned"] == 0
    assert _cached(pair.read(sql, params))
    pair.close()


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_an_unversioned_source_is_pushed_every_time(name):
    sql, params = STATEMENTS[name]
    pair = Pair(_Unversioned(build_scaled_storage(ROWS)))
    pair.cache_tables()
    for _ in range(3):
        moved = pair.read(sql, params)
        assert moved["sources.rows_pushed"] > 0
        assert moved["vector.join_reuses"] == 0
    assert pair.runtime._table_columns == {}
    pair.close()
