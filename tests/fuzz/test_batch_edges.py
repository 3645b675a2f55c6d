"""Batch-boundary edge cases for the vectorized executor.

Every test compares the batch executor against the Evaluator on
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

from .harness import evaluator_leg

BATCH = 8

#: The leg that runs every statement on the Evaluator.
EVALUATOR = None


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


def _connect(storage: Storage, batch_size):
    """A connection running batches of *batch_size* rows, or the
    Evaluator when it is :data:`EVALUATOR`."""
    application = Application("EdgeApp")
    import_tables(application, "EdgeProject", storage)
    runtime = DSPRuntime(application, storage, config=RuntimeConfig(
        batch_size=batch_size or 1))
    return connect(runtime if batch_size is not EVALUATOR
                   else evaluator_leg(runtime))


def _rows(storage: Storage, batch_size, sql: str,
          expect_vectorized: bool = True) -> tuple:
    connection = _connect(storage, batch_size)
    before = VSTATS.executions
    cursor = connection.cursor()
    cursor.execute(sql)
    rows = cursor.fetchall()
    count = cursor.rowcount
    if batch_size is not EVALUATOR and expect_vectorized:
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
    tuple_rows, tuple_count = _rows(storage, EVALUATOR, sql)
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
    tuple_rows, tuple_count = _rows(storage, EVALUATOR, sql)
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
    tuple_rows, tuple_count = _rows(storage, EVALUATOR, sql)
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
        tuple_rows, tuple_count = _rows(storage, EVALUATOR, sql)
        assert one_rows == tuple_rows, sql
        assert one_count == tuple_count, sql


def test_empty_source_yields_empty_result():
    storage = _storage(0)
    rows, count = _rows(storage, BATCH, "SELECT N, LABEL FROM NUMS")
    assert rows == []
    assert count == 0


# -- the recursive plan: outer joins, sub-plans, subquery constants ---------


def _pairs_storage(n_rows: int) -> Storage:
    """NUMS plus PICKS: every third N (twice: duplicate keys), one NULL
    key, one key NUMS does not have."""
    storage = _storage(n_rows)
    picks = storage.create_table("PICKS", [
        ("N", SQLType("INTEGER")),
        ("TAG", SQLType("VARCHAR")),
    ])
    picks.insert_many([(n, f"t{n}") for n in range(0, n_rows, 3)] * 2
                      + [(None, "null"), (n_rows + 7, "stray")])
    return storage


def _outcome(storage: Storage, batch_size, sql: str) -> tuple:
    """Rows, or the error's class and message."""
    connection = _connect(storage, batch_size)
    cursor = connection.cursor()
    try:
        cursor.execute(sql)
        return ("ok", cursor.fetchall())
    except Exception as exc:  # compared across executors below
        return (type(exc), str(exc))
    finally:
        connection.close()


@pytest.mark.parametrize("batch_size", [1, 2, 3, BATCH, 1024])
def test_left_outer_join_keeps_unmatched_rows_at_batch_boundaries(
        batch_size):
    """Unmatched probe rows (two of every three, and the NULL-keyed and
    stray build rows never surface) land on, before and after every
    batch edge; matched rows fan out over the duplicate keys."""
    storage = _pairs_storage(2 * BATCH + 1)
    sql = ("SELECT M.N, M.LABEL, P.TAG FROM NUMS M LEFT OUTER JOIN PICKS P "
           "ON M.N = P.N")
    batch_rows, batch_count = _rows(storage, batch_size, sql)
    tuple_rows, tuple_count = _rows(storage, EVALUATOR, sql)
    assert batch_rows == tuple_rows
    assert batch_count == tuple_count == 17 + 6  # 6 keys match twice
    assert batch_rows[:3] == [(0, "row0", "t0"), (0, "row0", "t0"),
                              (1, "row1", None)]
    # The other way round, the NULL-keyed and the stray row are kept.
    sql = ("SELECT P.TAG, M.N FROM PICKS P LEFT OUTER JOIN NUMS M "
           "ON P.N = M.N ORDER BY P.TAG")
    assert _rows(storage, batch_size, sql) == _rows(storage, EVALUATOR, sql)


def test_outer_join_over_an_empty_build_side():
    storage = _pairs_storage(BATCH + 1)
    storage.create_table("NONE", [("N", SQLType("INTEGER"))])
    sql = "SELECT M.N, E.N FROM NUMS M LEFT OUTER JOIN NONE E ON M.N = E.N"
    batch_rows, _count = _rows(storage, 2, sql)
    assert batch_rows == _rows(storage, EVALUATOR, sql)[0]
    assert batch_rows == [(n, None) for n in range(BATCH + 1)]


def test_mixed_category_outer_join_key_takes_the_pairwise_path():
    """A derived table's column is untyped text on the far side of its
    RECORD boundary; stage 3 always casts it back, hand-written XQuery
    need not. Joined bare to a typed key, hash categories differ and
    the join compares pair by pair: ``eq`` raises its type error as in
    the Evaluator, and over an empty build side — nothing to compare —
    every row is kept, unmatched."""
    sql = ("SELECT T.K, P.TAG FROM (SELECT M.N K FROM NUMS M) AS T "
           "LEFT OUTER JOIN PICKS P ON T.K = P.N")
    cast = "xs:int(fn:data($var1FR0/K)) eq"

    def run(storage, batch_size):
        connection = _connect(storage, batch_size)
        text = connection.translate(sql).xquery
        assert cast in text
        plan = connection._runtime.prepare(
            text.replace(cast, "fn:data($var1FR0/K) eq"))
        assert plan.batched == (batch_size is not EVALUATOR)
        try:
            return "".join(plan.stream_chunks())
        except Exception as exc:
            return type(exc), str(exc)

    storage = _pairs_storage(BATCH + 1)
    failed = run(storage, 3)
    assert failed == run(storage, EVALUATOR)
    assert "cannot compare string with numeric" in failed[1]
    empty = _storage(BATCH + 1)
    empty.create_table("PICKS", [("N", SQLType("INTEGER")),
                                 ("TAG", SQLType("VARCHAR"))])
    kept = run(empty, 3)
    assert kept == run(empty, EVALUATOR)
    assert kept.count("<") == BATCH + 1  # every TAG is NULL


def test_scalar_subquery_of_two_rows_raises_the_same_error():
    storage = _pairs_storage(BATCH)
    sql = "SELECT N FROM NUMS WHERE N > (SELECT N FROM PICKS)"
    failed = _outcome(storage, 3, sql)
    assert failed == _outcome(storage, EVALUATOR, sql)
    assert failed[0] != "ok" and "scalar subquery" in failed[1]
    # Two columns, one row: the other FOBEA002.
    for batch_size in (EVALUATOR, 3):
        runtime = _connect(storage, batch_size)._runtime
        text = _connect(storage, batch_size).translate(
            "SELECT N FROM NUMS WHERE N > (SELECT MAX(N) FROM PICKS)"
        ).xquery.replace(
            "</EXPR_1>", "</EXPR_1><EXTRA>{1}</EXTRA>")
        with pytest.raises(Exception, match="returned 2 columns"):
            "".join(runtime.prepare(text).stream_chunks())


@pytest.mark.parametrize("batch_size", [0, 2])
def test_a_subquery_no_row_reaches_never_runs(batch_size):
    """Zero rows in the outer table: the subquery's table is not even
    scanned (a batch size below 1 runs as 1)."""
    storage = _pairs_storage(BATCH)
    storage.create_table("NONE", [("N", SQLType("INTEGER"))])
    connection = _connect(storage, batch_size)
    runtime = connection._runtime
    cursor = connection.cursor()
    for sql, scans in [
        ("SELECT N FROM NONE WHERE N > (SELECT MAX(N) FROM PICKS)", 1),
        ("SELECT N FROM NUMS WHERE N > (SELECT MAX(N) FROM PICKS)", 2),
    ]:
        before = runtime.function_call_count
        cursor.execute(sql)
        cursor.fetchall()
        assert runtime.function_call_count - before == scans, sql
