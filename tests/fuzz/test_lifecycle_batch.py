"""Query lifecycle under the batch executor.

The batched pipeline must not loosen any lifecycle guarantee: a hung or
slow source still aborts within a small multiple of the deadline (the
per-batch tick), cancellation from another thread still lands, the
``max_inflight_rows`` admission budget now counts rows *buffered* by a
batch (not just rows fetched), and the row-accounting surfaces —
``Cursor.rowcount`` and the ``rows.streamed`` counter — keep counting
rows, never batches.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import OperationalError, connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.engine.faults import FaultProfile, install_fault
from repro.sql.types import SQLType

from .harness import evaluator_leg


def _runtime(n_rows: int = 64, **config) -> DSPRuntime:
    storage = Storage()
    table = storage.create_table("EVENTS", [
        ("ID", SQLType("INTEGER")),
        ("NOTE", SQLType("VARCHAR")),
    ])
    table.insert_many([(i, f"note{i}") for i in range(n_rows)])
    application = Application("LifecycleApp")
    import_tables(application, "LifecycleProject", storage)
    return DSPRuntime(application, storage,
                      config=RuntimeConfig(**config))


class TestDeadlinesUnderBatching:
    def test_hung_source_aborts_within_twice_timeout(self):
        runtime = _runtime(batch_size=16)
        install_fault(runtime, "EVENTS", FaultProfile(hang=True))
        cursor = connect(runtime).cursor()
        timeout = 0.2
        started = time.monotonic()
        with pytest.raises(OperationalError):
            cursor.execute("SELECT ID FROM EVENTS", timeout=timeout)
            cursor.fetchall()
        elapsed = time.monotonic() - started
        assert elapsed < 2 * timeout, (
            f"hung source survived {elapsed:.3f}s past a "
            f"{timeout}s deadline")

    def test_slow_source_aborts_within_twice_timeout(self):
        runtime = _runtime(batch_size=16)
        install_fault(runtime, "EVENTS", FaultProfile(latency=5.0))
        cursor = connect(runtime).cursor()
        timeout = 0.2
        started = time.monotonic()
        with pytest.raises(OperationalError):
            cursor.execute("SELECT ID FROM EVENTS", timeout=timeout)
            cursor.fetchall()
        assert time.monotonic() - started < 2 * timeout

    def test_cross_thread_cancel_lands_between_batches(self):
        runtime = _runtime(n_rows=256, batch_size=4)
        install_fault(runtime, "EVENTS", FaultProfile(latency=0.05))
        cursor = connect(runtime).cursor()

        def cancel_soon():
            time.sleep(0.02)
            cursor.cancel()

        thread = threading.Thread(target=cancel_soon)
        thread.start()
        with pytest.raises(OperationalError, match="cancel"):
            cursor.execute("SELECT ID FROM EVENTS")
            cursor.fetchall()
        thread.join()


class TestAdmissionCountsBufferedRows:
    def test_buffered_batch_rows_charge_the_inflight_budget(self):
        # One batch buffers 32 rows; fetching even a single row must
        # charge all 32 against a 10-row budget and be rejected.
        runtime = _runtime(n_rows=64, batch_size=32,
                           max_inflight_rows=10)
        cursor = connect(runtime).cursor()
        cursor.execute("SELECT ID FROM EVENTS")
        with pytest.raises(OperationalError, match="in-flight"):
            cursor.fetchone()

    def test_tuple_mode_still_charges_fetched_rows_only(self):
        # The Evaluator buffers no batch: only fetched rows count.
        runtime = evaluator_leg(_runtime(n_rows=64, max_inflight_rows=10))
        cursor = connect(runtime).cursor()
        cursor.execute("SELECT ID FROM EVENTS")
        for _ in range(10):
            assert cursor.fetchone() is not None
        with pytest.raises(OperationalError, match="in-flight"):
            cursor.fetchmany(10)

    def test_budget_at_batch_size_streams_through(self):
        # Budget >= one batch: draining between batches keeps the
        # buffered high-water mark inside the budget... but the slot
        # charges monotonically, so the budget must cover the total.
        runtime = _runtime(n_rows=64, batch_size=16,
                           max_inflight_rows=64)
        cursor = connect(runtime).cursor()
        cursor.execute("SELECT ID FROM EVENTS")
        assert len(cursor.fetchall()) == 64


class TestRowAccountingRegression:
    """``rowcount`` and ``rows.streamed`` count rows, not batches."""

    @pytest.mark.parametrize("batch_size", [0, 1, 7, 1024])
    def test_rowcount_and_streamed_counter_count_rows(self, batch_size):
        runtime = _runtime(n_rows=20, batch_size=batch_size)
        connection = connect(runtime)
        before = connection.stats()["counters"]["rows.streamed"]
        cursor = connection.cursor()
        cursor.execute("SELECT ID, NOTE FROM EVENTS")
        assert cursor.rowcount == -1  # streaming: unknown until drained
        rows = cursor.fetchall()
        assert len(rows) == 20
        assert cursor.rowcount == 20
        streamed = connection.stats()["counters"]["rows.streamed"]
        assert streamed - before == 20

    def test_partial_fetch_rowcount_tracks_fetched_rows(self):
        runtime = _runtime(n_rows=20, batch_size=7)
        cursor = connect(runtime).cursor()
        cursor.execute("SELECT ID FROM EVENTS")
        assert len(cursor.fetchmany(5)) == 5
        assert cursor.rowcount == -1  # still streaming
        cursor.fetchall()
        assert cursor.rowcount == 20


class TestLifecycleInsideSubPlans:
    """A recursive plan ticks in its sub-plans too: the ``nested`` shape
    (a derived table over an outer join under GROUP BY, beside two
    subquery constants) at 5 000 rows aborts within one batch of a
    sub-plan, and leaves neither an admission slot nor charged rows
    behind."""

    SQL = ("SELECT INFO.ID, INFO.TOTAL FROM (SELECT F.ID ID, SUM(D.QTY) "
           "TOTAL FROM FACTS F LEFT OUTER JOIN DETAILS D ON F.ID = D.FACTID "
           "GROUP BY F.ID) AS INFO "
           "WHERE INFO.TOTAL > (SELECT AVG(QTY) FROM DETAILS) "
           "OR INFO.ID IN (SELECT ID FROM FACTS WHERE REGION = ?) "
           "ORDER BY INFO.ID")

    @staticmethod
    def _connection():
        from repro.workloads import build_scaled_storage
        from repro.workloads.scaling import APPLICATION, PROJECT
        storage = build_scaled_storage(5_000)
        application = Application(APPLICATION)
        import_tables(application, PROJECT, storage)
        runtime = DSPRuntime(application, storage,
                             config=RuntimeConfig(batch_size=64))
        connection = connect(runtime)
        cursor = connection.cursor()
        cursor.execute(TestLifecycleInsideSubPlans.SQL, ("EAST",))
        assert len(cursor.fetchall()) > 2_000  # warm, and it is batched
        return runtime, connection

    @staticmethod
    def _in_sub_plan(error: BaseException) -> bool:
        import traceback

        from repro.xquery import vector
        sub_plan = vector._RecordSet.rows.__code__  # a sub-plan's read
        return any(frame.f_code is sub_plan for frame, _line
                   in traceback.walk_tb(error.__cause__.__traceback__))

    def _assert_released(self, runtime, connection):
        admission = runtime.admission.stats()
        assert admission["active"] == 0
        assert admission["inflight_rows"] == 0
        # ... and the connection still works.
        cursor = connection.cursor()
        cursor.execute("SELECT COUNT(*) FROM FACTS")
        assert cursor.fetchall() == [(5_000,)]

    def test_cancel_lands_within_one_batch_of_a_sub_plan(self, monkeypatch):
        from repro.engine.lifecycle import QueryContext
        runtime, connection = self._connection()
        cursor = connection.cursor()
        ticks = {"seen": 0, "after_cancel": 0}
        real_tick = QueryContext.tick_rows

        def tick_rows(context, count):
            ticks["seen"] += 1
            if ticks["seen"] == 40:  # deep inside the outer join
                cursor.cancel()
            elif ticks["seen"] > 40:
                ticks["after_cancel"] += 1
            return real_tick(context, count)

        monkeypatch.setattr(QueryContext, "tick_rows", tick_rows)
        with pytest.raises(OperationalError, match="cancel") as caught:
            cursor.execute(self.SQL, ("EAST",))
            cursor.fetchall()
        monkeypatch.undo()
        assert ticks["after_cancel"] == 0  # the cancelling tick raised
        assert self._in_sub_plan(caught.value)
        self._assert_released(runtime, connection)

    def test_timeout_aborts_inside_a_sub_plan(self):
        runtime, connection = self._connection()
        cursor = connection.cursor()
        started = time.monotonic()
        with pytest.raises(OperationalError, match="deadline") as caught:
            cursor.execute(self.SQL, ("EAST",), timeout=0.02)
            cursor.fetchall()
        assert time.monotonic() - started < 1.0
        assert self._in_sub_plan(caught.value)
        self._assert_released(runtime, connection)
