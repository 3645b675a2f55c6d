"""Batch-boundary edge cases for the vectorized aggregation stage.

Groups that straddle batch edges are where a hash-aggregation kernel
earns its keep: the accumulator for a key must survive across batches
and merge NULL-skipping, DISTINCT dedup, and Decimal-exact sums no
matter how the scan is windowed. Every test compares the batch executor
against the Evaluator on sources whose extent sits exactly on,
just under, or just over the batch size, plus the ``batch_size=1``
degenerate configuration.
"""

from __future__ import annotations

import pytest

from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sql.types import SQLType
from repro import RuntimeConfig
from repro.xquery.vector import VSTATS

from .harness import evaluator_leg

BATCH = 8

#: The leg that runs every statement on the Evaluator.
EVALUATOR = None


def _storage(n_rows: int) -> Storage:
    """N 0..n-1, LABEL NULL every 5th row, AMOUNT decimal NULL every
    7th row, GRP cycling over 3 values with NULLs every 4th row — so
    most groups span several batches and every aggregate sees NULLs."""
    storage = Storage()
    table = storage.create_table("NUMS", [
        ("N", SQLType("INTEGER")),
        ("GRP", SQLType("VARCHAR")),
        ("LABEL", SQLType("VARCHAR")),
        ("AMOUNT", SQLType("DECIMAL")),
    ])
    from decimal import Decimal

    table.insert_many([
        (i,
         None if i % 4 == 3 else f"g{i % 3}",
         None if i % 5 == 4 else f"row{i}",
         None if i % 7 == 6 else Decimal(f"{i}.{i % 10}0"))
        for i in range(n_rows)
    ])
    return storage


def _connect(storage: Storage, batch_size):
    """A connection running batches of *batch_size* rows, or the
    Evaluator when it is :data:`EVALUATOR`."""
    application = Application("EdgeApp")
    import_tables(application, "EdgeProject", storage)
    runtime = DSPRuntime(application, storage, config=RuntimeConfig(
        batch_size=batch_size or 1))
    return connect(runtime if batch_size is not EVALUATOR
                   else evaluator_leg(runtime))


def _rows(storage: Storage, batch_size, sql: str) -> tuple:
    connection = _connect(storage, batch_size)
    before = VSTATS.executions
    cursor = connection.cursor()
    cursor.execute(sql)
    rows = cursor.fetchall()
    count = cursor.rowcount
    if batch_size is not EVALUATOR:
        assert VSTATS.executions > before, \
            f"vector executor did not engage for: {sql!r}"
    connection.close()
    return rows, count


#: Source extents around the batch boundary: empty, single row, one
#: short of a batch, exactly one batch, one over, and several batches.
EXTENTS = [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 2]

#: The full aggregate mix over a NULL-keyed grouping; every group but
#: the NULL key spans multiple batches at the extents above.
GROUP_SQL = ("SELECT GRP, COUNT(*), COUNT(LABEL), COUNT(DISTINCT LABEL),"
             " SUM(AMOUNT), AVG(N), MIN(N), MAX(AMOUNT) "
             "FROM NUMS GROUP BY GRP ORDER BY GRP")


@pytest.mark.parametrize("n_rows", EXTENTS)
def test_group_extents_match_tuple(n_rows):
    storage = _storage(n_rows)
    batch_rows, batch_count = _rows(storage, BATCH, GROUP_SQL)
    tuple_rows, tuple_count = _rows(storage, EVALUATOR, GROUP_SQL)
    assert batch_rows == tuple_rows
    assert batch_count == tuple_count


@pytest.mark.parametrize("n_rows", EXTENTS)
def test_count_star_vs_count_column(n_rows):
    """COUNT(*) counts NULL-keyed rows; COUNT(col) skips NULL cells —
    the distinction must hold for every batch windowing."""
    storage = _storage(n_rows)
    sql = ("SELECT GRP, COUNT(*), COUNT(AMOUNT) FROM NUMS "
           "GROUP BY GRP ORDER BY GRP")
    assert _rows(storage, BATCH, sql) == _rows(storage, EVALUATOR, sql)


def test_groups_straddling_batch_edges():
    """One group per batch-edge neighborhood: key changes exactly at,
    just before, and just after each boundary."""
    storage = Storage()
    table = storage.create_table("EDGY", [
        ("K", SQLType("INTEGER")), ("V", SQLType("INTEGER"))])
    # Group k spans rows [k*BATCH - 1, k*BATCH + 1): every group except
    # the first straddles a boundary by exactly one row.
    rows = [(max(0, (i + 1) // BATCH), i) for i in range(3 * BATCH + 2)]
    table.insert_many(rows)
    sql = ("SELECT K, COUNT(*), SUM(V), MIN(V), MAX(V) FROM EDGY "
           "GROUP BY K ORDER BY K")
    assert _rows(storage, BATCH, sql) == _rows(storage, EVALUATOR, sql)


def test_having_and_order_by_aggregate():
    storage = _storage(3 * BATCH + 2)
    sql = ("SELECT GRP, SUM(AMOUNT) FROM NUMS GROUP BY GRP "
           "HAVING COUNT(*) > 1 ORDER BY SUM(AMOUNT) DESC")
    assert _rows(storage, BATCH, sql) == _rows(storage, EVALUATOR, sql)


@pytest.mark.parametrize("limit,offset", [
    (1, 0), (2, 1), (100, 2), (0, 1), (3, 3),
])
def test_limit_offset_over_group_stream(limit, offset):
    storage = _storage(3 * BATCH + 2)
    sql = (f"SELECT GRP, COUNT(*) FROM NUMS GROUP BY GRP "
           f"ORDER BY GRP LIMIT {limit} OFFSET {offset}")
    batch_rows, batch_count = _rows(storage, BATCH, sql)
    tuple_rows, tuple_count = _rows(storage, EVALUATOR, sql)
    assert batch_rows == tuple_rows
    assert batch_count == tuple_count


def test_where_before_group():
    storage = _storage(3 * BATCH + 2)
    sql = ("SELECT GRP, COUNT(*), AVG(AMOUNT) FROM NUMS "
           "WHERE N > 2 GROUP BY GRP ORDER BY GRP")
    assert _rows(storage, BATCH, sql) == _rows(storage, EVALUATOR, sql)


@pytest.mark.parametrize("n_rows", [1, 3, BATCH + 1])
def test_one_group_runs_batched(n_rows):
    """A grouping whose statistics predict a single group is still a
    vector plan: nothing re-routes a plan the vector compiler accepted
    (``_rows`` asserts the engagement)."""
    storage = Storage()
    table = storage.create_table("FLAT", [
        ("K", SQLType("INTEGER")), ("V", SQLType("INTEGER"))])
    table.insert_many([(7, i) for i in range(n_rows)])
    sql = "SELECT K, COUNT(*), SUM(V) FROM FLAT GROUP BY K"
    assert _rows(storage, BATCH, sql) == _rows(storage, EVALUATOR, sql)


def test_batch_size_one_degenerates_to_tuple_at_a_time():
    storage = _storage(11)
    for sql in [
        GROUP_SQL,
        "SELECT GRP, COUNT(*) FROM NUMS GROUP BY GRP",
        ("SELECT GRP, MAX(LABEL) FROM NUMS GROUP BY GRP "
         "ORDER BY 2 DESC LIMIT 2"),
    ]:
        assert _rows(storage, 1, sql) == _rows(storage, EVALUATOR, sql), sql


def test_empty_source_yields_no_groups():
    storage = _storage(0)
    rows, count = _rows(storage, BATCH, GROUP_SQL)
    assert rows == []
    assert count == 0


def test_aggregation_counters_tick():
    storage = _storage(3 * BATCH + 2)
    connection = _connect(storage, BATCH)
    before_groups = VSTATS.agg_groups
    cursor = connection.cursor()
    cursor.execute(GROUP_SQL)
    cursor.fetchall()
    # 3 non-NULL keys + the NULL key
    assert VSTATS.agg_groups - before_groups == 4
    counters = connection.stats()["runtime"]["counters"]
    assert counters.get("vector.agg_queries", 0) >= 1
    assert counters.get("vector.agg_groups", 0) >= 4
    connection.close()
