"""Batch-boundary edge cases for the vectorized executor.

Every test compares the batch executor against the tuple executor on
sources whose extent sits exactly on, just under, or just over the batch
size — the off-by-one territory of any windowed pipeline — plus
LIMIT/OFFSET windows straddling a boundary and the ``batch_size=1``
degenerate configuration (tuple-at-a-time via the vector code path).
"""

from __future__ import annotations

import pytest

from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sql.types import SQLType
from repro import RuntimeConfig
from repro.xquery.vector import VSTATS

BATCH = 8


def _storage(n_rows: int) -> Storage:
    storage = Storage()
    table = storage.create_table("NUMS", [
        ("N", SQLType("INTEGER")),
        ("LABEL", SQLType("VARCHAR")),
    ])
    table.insert_many([
        (i, None if i % 5 == 4 else f"row{i}") for i in range(n_rows)
    ])
    return storage


def _connect(storage: Storage, batch_size: int):
    application = Application("EdgeApp")
    import_tables(application, "EdgeProject", storage)
    runtime = DSPRuntime(application, storage,
                         config=RuntimeConfig(batch_size=batch_size))
    return connect(runtime)


def _rows(storage: Storage, batch_size: int, sql: str,
          expect_vectorized: bool = True) -> tuple:
    connection = _connect(storage, batch_size)
    before = VSTATS.executions
    cursor = connection.cursor()
    cursor.execute(sql)
    rows = cursor.fetchall()
    count = cursor.rowcount
    if batch_size and expect_vectorized:
        assert VSTATS.executions > before, \
            f"vector executor did not engage for: {sql!r}"
    connection.close()
    return rows, count


#: Source extents around the batch boundary: empty, single row, one
#: short of a batch, exactly one batch, one over, and several batches.
EXTENTS = [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 2]


@pytest.mark.parametrize("n_rows", EXTENTS)
def test_scan_extents_match_tuple(n_rows):
    storage = _storage(n_rows)
    sql = "SELECT N, LABEL FROM NUMS ORDER BY N"
    batch_rows, batch_count = _rows(storage, BATCH, sql)
    tuple_rows, tuple_count = _rows(storage, 0, sql)
    assert batch_rows == tuple_rows
    assert batch_count == tuple_count == n_rows


@pytest.mark.parametrize("limit,offset", [
    (BATCH, 0),          # window ends exactly on the boundary
    (BATCH + 1, 0),      # one over
    (BATCH - 1, 0),      # one under
    (6, 5),              # straddles the first boundary (rows 6..11)
    (1, BATCH - 1),      # last row of batch one
    (1, BATCH),          # first row of batch two
    (BATCH, BATCH),      # exactly batch two
    (100, BATCH + 3),    # window runs off the end
    (0, 3),              # empty window
])
def test_limit_offset_straddles_boundary(limit, offset):
    storage = _storage(3 * BATCH + 2)
    sql = f"SELECT N FROM NUMS ORDER BY N LIMIT {limit} OFFSET {offset}"
    batch_rows, batch_count = _rows(storage, BATCH, sql)
    tuple_rows, tuple_count = _rows(storage, 0, sql)
    assert batch_rows == tuple_rows
    assert batch_count == tuple_count
    n_rows = 3 * BATCH + 2
    assert batch_count == max(0, min(limit, n_rows - offset))


@pytest.mark.parametrize("lead_rows", [1, 2, 3])
def test_small_lead_join_runs_batched(lead_rows):
    """A join driven by a one-to-three-row table is still a vector
    plan: nothing re-routes a plan the vector compiler accepted
    (``_rows`` asserts the engagement)."""
    storage = _storage(3 * BATCH + 2)
    picks = storage.create_table("PICKS", [("N", SQLType("INTEGER"))])
    picks.insert_many([(5 * i,) for i in range(lead_rows)])
    sql = ("SELECT P.N, M.LABEL FROM PICKS P, NUMS M "
           "WHERE P.N = M.N ORDER BY P.N")
    batch_rows, batch_count = _rows(storage, BATCH, sql)
    tuple_rows, tuple_count = _rows(storage, 0, sql)
    assert batch_rows == tuple_rows
    assert batch_count == tuple_count == lead_rows


def test_batch_size_one_degenerates_to_tuple_at_a_time():
    storage = _storage(11)
    for sql in [
        "SELECT N, LABEL FROM NUMS",
        "SELECT N FROM NUMS WHERE N > 3 ORDER BY N DESC",
        "SELECT N FROM NUMS ORDER BY N LIMIT 4 OFFSET 2",
        "SELECT LABEL FROM NUMS WHERE LABEL IS NOT NULL",
    ]:
        one_rows, one_count = _rows(storage, 1, sql)
        tuple_rows, tuple_count = _rows(storage, 0, sql)
        assert one_rows == tuple_rows, sql
        assert one_count == tuple_count, sql


def test_empty_source_yields_empty_result():
    storage = _storage(0)
    rows, count = _rows(storage, BATCH, "SELECT N, LABEL FROM NUMS")
    assert rows == []
    assert count == 0
