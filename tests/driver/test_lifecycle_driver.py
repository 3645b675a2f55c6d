"""Driver-level lifecycle tests: deadlines, cross-thread cancel,
admission control, and leak-free aborts — the acceptance scenarios of
the query lifecycle subsystem."""

import threading
import time
from itertools import count

import pytest

from repro import RuntimeConfig, clock
from repro.driver import OperationalError, connect
from repro.engine import FaultProfile, RetryPolicy, install_fault
from repro.errors import DatabaseError, XQueryDynamicError
from repro.obs import Tracer
from repro.sources.spi import Scan
from repro.workloads import build_runtime, build_scaled_storage

from tests.fuzz.harness import build_runtime as build_scaled

#: A cross join big enough (6^3 = 216 rows) that a streamed cursor has
#: plenty of batches left after the first fetch.
BIG_QUERY = "SELECT * FROM CUSTOMERS C1, CUSTOMERS C2, CUSTOMERS C3"


def fresh_connection(**options):
    return connect(build_runtime(), config=RuntimeConfig(**options))


class TestDeadlines:
    def test_deadline_expiry_mid_fetch(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY, timeout=60.0)
        assert cursor.fetchmany(5)  # the stream is healthy
        # Force the in-flight deadline into the past: the next pull must
        # abort with the driver's OperationalError mapping.
        cursor._context.deadline = clock.monotonic() - 1.0
        with pytest.raises(OperationalError, match="deadline"):
            cursor.fetchall()
        stats = connection.stats()
        assert stats["counters"]["queries.timeout"] == 1
        assert stats["admission"]["active"] == 0
        assert stats["admission"]["inflight_rows"] == 0

    def test_connection_default_timeout_applies(self):
        runtime = build_runtime()
        install_fault(runtime, "CUSTOMERS", FaultProfile(hang=True))
        connection = connect(runtime,
                             config=RuntimeConfig(default_timeout=0.1))
        cursor = connection.cursor()
        start = time.monotonic()
        with pytest.raises(OperationalError):
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
            cursor.fetchall()
        assert time.monotonic() - start < 0.2  # within 2x the timeout
        assert connection.stats()["counters"]["queries.timeout"] == 1

    def test_execute_timeout_overrides_default(self):
        connection = fresh_connection(default_timeout=0.000001)
        cursor = connection.cursor()
        # The per-call timeout wins over the unusably small default.
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS", timeout=60.0)
        assert len(cursor.fetchall()) == 6

    def test_hung_source_aborts_within_twice_timeout(self):
        runtime = build_runtime()
        install_fault(runtime, "CUSTOMERS", FaultProfile(hang=True))
        connection = connect(runtime)
        cursor = connection.cursor()
        timeout = 0.2
        start = time.monotonic()
        with pytest.raises(OperationalError):
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS",
                           timeout=timeout)
            cursor.fetchall()
        assert time.monotonic() - start < 2 * timeout


class TestCancel:
    def test_cancel_from_second_thread_stops_stream(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        assert cursor.fetchmany(5)
        ready = threading.Event()
        done = threading.Event()

        def canceller():
            ready.wait(timeout=5)
            cursor.cancel()
            done.set()

        thread = threading.Thread(target=canceller)
        thread.start()
        ready.set()
        done.wait(timeout=5)
        with pytest.raises(OperationalError, match="cancelled"):
            while cursor.fetchmany(5):
                pass
        thread.join(timeout=5)
        stats = connection.stats()
        assert stats["counters"]["queries.cancelled"] == 1
        assert stats["admission"]["active"] == 0

    def test_cancel_while_blocked_in_hung_source(self):
        runtime = build_runtime()
        install_fault(runtime, "CUSTOMERS", FaultProfile(hang=True))
        connection = connect(runtime)
        cursor = connection.cursor()

        def canceller():
            time.sleep(0.05)
            cursor.cancel()

        thread = threading.Thread(target=canceller)
        thread.start()
        start = time.monotonic()
        with pytest.raises(OperationalError, match="cancelled"):
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
            cursor.fetchall()
        assert time.monotonic() - start < 2.0
        thread.join(timeout=5)

    def test_cancel_idle_cursor_is_harmless(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.cancel()  # nothing in flight
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(cursor.fetchall()) == 6

    def test_cursor_reusable_after_cancel(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        cursor.fetchmany(5)
        cursor.cancel()
        with pytest.raises(OperationalError):
            cursor.fetchall()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(cursor.fetchall()) == 6


class TestMutationLifecycle:
    """DML honours ``timeout=`` and ``cancel()`` during victim
    selection — the only phase that can be long — and an abort leaves
    rows, version token, write lock and any open transaction alone.
    At the parent commit ``execute`` dropped the timeout before the
    mutation path and the victim scan ran without a context: an expired
    deadline updated every row."""

    UPDATE = "UPDATE FACTS SET NAME = 'x' WHERE AMOUNT > 1"

    @pytest.fixture(params=["sqlite", "memory"])
    def rig(self, request):
        runtime = build_scaled(build_scaled_storage(2_000), request.param,
                               0)
        connection = connect(runtime)
        yield connection, runtime._default_source
        connection.close()

    @staticmethod
    def state(source):
        return list(source.scan("FACTS")), source.version("FACTS")

    @pytest.fixture
    def expiring_clock(self):
        """Every clock reading is a second after the last, so a 100 us
        deadline set from one reading has passed by the first check
        after it, however fast the statement is."""
        ticks = count()
        clock.set_monotonic(lambda: float(next(ticks)))
        yield
        clock.set_monotonic(None)

    def test_expired_deadline_raises_like_select(self, rig,
                                                 expiring_clock):
        connection, source = rig
        before = self.state(source)
        cursor = connection.cursor()
        with pytest.raises(OperationalError, match="deadline") as select:
            cursor.execute("SELECT * FROM FACTS WHERE AMOUNT > 1",
                           timeout=0.0001)
            cursor.fetchall()
        with pytest.raises(OperationalError, match="deadline") as update:
            cursor.execute(self.UPDATE, timeout=0.0001)
        assert type(update.value) is type(select.value)
        with pytest.raises(OperationalError, match="deadline"):
            cursor.executemany("DELETE FROM FACTS WHERE ID = ?",
                               [(1,), (2,)], timeout=0.0001)
        assert self.state(source) == before
        stats = connection.stats()
        assert stats["counters"]["queries.timeout"] == 3
        assert stats["admission"]["active"] == 0
        assert not connection._txn.in_transaction
        # Nothing is left held: the same statement, unbounded, runs.
        cursor.execute(self.UPDATE)
        assert cursor.rowcount > 1_000

    def test_connection_default_timeout_bounds_dml(self):
        runtime = build_scaled(build_scaled_storage(300), "sqlite", 0)
        connection = connect(runtime,
                             config=RuntimeConfig(default_timeout=0.00001))
        cursor = connection.cursor()
        with pytest.raises(OperationalError, match="deadline"):
            cursor.execute(self.UPDATE)
        cursor.execute(self.UPDATE, timeout=60.0)  # per call wins
        assert cursor.rowcount > 100

    def test_cancel_from_second_thread_stops_victim_selection(
            self, rig, monkeypatch):
        connection, source = rig
        before = self.state(source)
        cursor = connection.cursor()
        real_scan = source.scan

        def scan_cancelled_midway(table, request=None, context=None,
                                  **extra):
            result = real_scan(table, request, context, **extra)
            if not extra.get("handles"):
                return result

            def rows():
                for count, item in enumerate(result.rows):
                    if count == 100:
                        thread = threading.Thread(target=cursor.cancel)
                        thread.start()
                        thread.join(timeout=5)
                    yield item

            return Scan(columns=result.columns, rows=rows(),
                        pushed=result.pushed)

        monkeypatch.setattr(source, "scan", scan_cancelled_midway)
        with pytest.raises(OperationalError, match="cancelled"):
            cursor.execute(self.UPDATE)
        monkeypatch.undo()
        assert self.state(source) == before
        assert connection.stats()["counters"]["queries.cancelled"] == 1
        cursor.execute(self.UPDATE)  # the cursor and the lock are free
        assert cursor.rowcount > 1_000

    def test_abort_inside_a_transaction_keeps_it_open(self, rig):
        connection, source = rig
        committed = self.state(source)
        cursor = connection.cursor()
        connection.begin()
        cursor.execute("UPDATE FACTS SET NAME = 'first' WHERE ID = 5")
        in_txn = self.state(source)
        with pytest.raises(OperationalError, match="deadline"):
            cursor.execute(self.UPDATE, timeout=0.0001)
        assert connection._txn.in_transaction
        assert self.state(source) == in_txn
        cursor.execute("UPDATE FACTS SET NAME = 'second' WHERE ID = 6")
        assert cursor.rowcount == 1
        connection.commit()
        cursor.execute("SELECT ID, NAME FROM FACTS WHERE ID IN (5, 6, 7) "
                       "ORDER BY ID")
        assert cursor.fetchall() == [
            (5, "first"), (6, "second"), (7, committed[0][7][1])]


class TestAdmission:
    def test_admission_rejects_under_load(self):
        runtime = build_runtime(max_concurrent_queries=1,
                                admission_queue_timeout=0.05)
        connection = connect(runtime)
        holder = connection.cursor()
        holder.execute(BIG_QUERY)  # streamed: holds its slot
        holder.fetchmany(1)
        other = connection.cursor()
        with pytest.raises(OperationalError, match="admission"):
            other.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        stats = connection.stats()
        assert stats["counters"]["queries.rejected"] == 1
        assert stats["admission"]["rejected"] == 1
        # Draining the holder frees the slot for the next query.
        holder.fetchall()
        other.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(other.fetchall()) == 6

    def test_admission_bounds_concurrency_across_threads(self):
        runtime = build_runtime(max_concurrent_queries=2,
                                admission_queue_timeout=10.0)
        connection = connect(runtime)
        peak = []
        lock = threading.Lock()

        def worker():
            cursor = connection.cursor()
            cursor.execute(BIG_QUERY)
            with lock:
                peak.append(runtime.admission.stats()["active"])
            cursor.fetchall()
            cursor.close()

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert max(peak) <= 2
        assert runtime.admission.stats()["active"] == 0
        assert runtime.admission.stats()["admitted"] == 6

    def test_inflight_row_budget_rejects_runaway_stream(self):
        runtime = build_runtime(max_inflight_rows=50)
        connection = connect(runtime)
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)  # 216 rows > 50-row budget
        with pytest.raises(OperationalError, match="budget"):
            cursor.fetchall()
        stats = connection.stats()
        assert stats["counters"]["queries.rejected"] == 1
        assert stats["admission"]["active"] == 0
        assert stats["admission"]["inflight_rows"] == 0


class TestNoLeaks:
    def test_aborted_queries_leak_nothing(self):
        connection = fresh_connection()
        for _ in range(5):
            cursor = connection.cursor()
            cursor.execute(BIG_QUERY)
            cursor.fetchmany(3)
            cursor.cancel()
            with pytest.raises(OperationalError):
                cursor.fetchall()
        stats = connection.stats()
        assert stats["admission"]["active"] == 0
        assert stats["admission"]["inflight_rows"] == 0
        # The plan cache holds the (reusable) compiled plan, not one
        # entry per aborted run.
        assert stats["plan_cache"]["size"] <= 1

    def test_closing_cursor_mid_stream_releases_slot(self):
        runtime = build_runtime(max_concurrent_queries=1,
                                admission_queue_timeout=0.05)
        connection = connect(runtime)
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        cursor.fetchmany(1)
        cursor.close()
        assert connection.stats()["admission"]["active"] == 0
        fresh = connection.cursor()
        fresh.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(fresh.fetchall()) == 6

    def test_re_execute_mid_stream_releases_previous_slot(self):
        runtime = build_runtime(max_concurrent_queries=1,
                                admission_queue_timeout=0.05)
        connection = connect(runtime)
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        cursor.fetchmany(1)
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(cursor.fetchall()) == 6
        assert connection.stats()["admission"]["active"] == 0


class TestLifecycleObservability:
    def test_timeout_event_lands_on_execute_span(self):
        runtime = build_runtime()
        install_fault(runtime, "CUSTOMERS", FaultProfile(hang=True))
        tracer = Tracer(enabled=True)
        connection = connect(runtime, tracer=tracer)
        cursor = connection.cursor()
        with pytest.raises(OperationalError):
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS",
                           timeout=0.05)
            cursor.fetchall()
        root = tracer.last_root()
        assert root is not None and root.name == "execute"
        assert any(name == "query.timeout" for name, _, _ in root.events)

    def test_all_outcomes_visible_in_stats(self):
        runtime = build_runtime(max_concurrent_queries=1,
                                admission_queue_timeout=0.05)
        connection = connect(runtime)
        # timeout
        hang_runtime_cursor = connection.cursor()
        hang_runtime_cursor.execute(BIG_QUERY, timeout=60.0)
        hang_runtime_cursor.fetchmany(1)
        hang_runtime_cursor._context.deadline = clock.monotonic() - 1.0
        with pytest.raises(OperationalError):
            hang_runtime_cursor.fetchall()
        # cancelled
        cancelled = connection.cursor()
        cancelled.execute(BIG_QUERY)
        cancelled.fetchmany(1)
        cancelled.cancel()
        with pytest.raises(OperationalError):
            cancelled.fetchall()
        # rejected
        holder = connection.cursor()
        holder.execute(BIG_QUERY)
        holder.fetchmany(1)
        rejected = connection.cursor()
        with pytest.raises(OperationalError):
            rejected.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        holder.close()
        counters = connection.stats()["counters"]
        assert counters["queries.timeout"] == 1
        assert counters["queries.cancelled"] == 1
        assert counters["queries.rejected"] == 1

    def test_source_retries_visible_in_connection_stats(self):
        runtime = build_runtime()
        runtime.retry_policy = RetryPolicy(attempts=3, base=0.001,
                                           sleep=lambda seconds: None)
        install_fault(runtime, "CUSTOMERS", FaultProfile(fail_times=2))
        connection = connect(runtime)
        cursor = connection.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(cursor.fetchall()) == 6
        runtime_counters = connection.stats()["runtime"]["counters"]
        assert runtime_counters["source.retries"] == 2


class TestBlockPull:
    """``Cursor._pull`` pulls whole engine batches into the cursor's
    buffer; what a fetch reports must not depend on that."""

    def test_exact_last_rows_do_not_mark_exhaustion(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        assert len(cursor.fetchmany(200)) == 200
        assert cursor.rowcount == -1
        # Exactly the last 16 rows: a full chunk says nothing about
        # what follows, so the stream (and its slot) stay open ...
        assert len(cursor.fetchmany(16)) == 16
        assert cursor.rowcount == -1
        assert connection.stats()["admission"]["active"] == 1
        # ... until the next call comes back short.
        assert cursor.fetchmany(16) == []
        assert cursor.rowcount == 216
        assert connection.stats()["admission"]["active"] == 0

    def test_short_chunk_flips_rowcount_in_the_same_call(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        assert len(cursor.fetchmany(210)) == 210
        assert cursor.rowcount == -1
        assert len(cursor.fetchmany(10)) == 6
        assert cursor.rowcount == 216
        assert cursor.fetchone() is None

    def test_zero_rows_requested_pulls_nothing(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        assert cursor.fetchmany(0) == []
        assert cursor.rowcount == -1
        assert len(cursor.fetchall()) == 216

    def test_engine_error_mid_pull_counts_rows_and_releases_slot(self):
        connection = fresh_connection()
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)

        def fails_after(batches, rows):
            for batch in batches:
                if len(batch) >= rows:
                    yield batch[:rows]
                    break
                rows -= len(batch)
                yield batch
            raise XQueryDynamicError("source went away")

        cursor._stream = fails_after(cursor._reader(text=False), 45)
        assert len(cursor.fetchmany(5)) == 5
        with pytest.raises(DatabaseError, match="source went away"):
            cursor.fetchall()
        stats = connection.stats()
        assert stats["counters"]["rows.streamed"] == 45
        assert stats["admission"]["active"] == 0
        assert stats["admission"]["inflight_rows"] == 0
        assert cursor._stream is None
        assert cursor.rowcount == -1
