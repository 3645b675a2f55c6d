"""Streaming cursor semantics (the compile-once, stream-always executor).

With the default delimited format, execute() starts a lazy pipeline:
rows are pulled from the engine and decoded only as the application
fetches them. These tests pin the PEP 249 behaviors that follow —
rowcount discovery, close() releasing the pipeline, re-execute on a
half-fetched cursor, fetch-time error surfacing — and assert the
pipeline really is lazy (O(batches fetched) rows encoded on a large
scan).
"""

import pytest

from repro.driver import connect
from repro.errors import DatabaseError, InterfaceError
from repro.workloads import build_runtime
from repro.workloads.scaling import build_scaled_runtime
from repro.xquery.vector import VSTATS


@pytest.fixture
def conn():
    connection = connect(build_runtime())
    yield connection
    connection.close()


class TestPartialConsumption:
    def test_fetchone_after_fetchmany(self, conn):
        eager = conn.cursor()
        eager.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        expected = eager.fetchall()

        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        got = cursor.fetchmany(2)
        assert cursor.rowcount == -1  # stream not exhausted yet
        row = cursor.fetchone()
        while row is not None:
            got.append(row)
            row = cursor.fetchone()
        assert got == expected
        assert cursor.rowcount == len(expected)

    def test_fetchone_past_exhaustion_stays_none(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS WHERE "
                       "CUSTOMERID < 0")
        assert cursor.fetchone() is None
        assert cursor.rowcount == 0
        assert cursor.fetchone() is None

    def test_iteration_protocol_streams(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(list(cursor)) == 6
        assert cursor.rowcount == 6


class TestCloseMidStream:
    def test_close_releases_pipeline(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert cursor.fetchone() is not None
        stream = cursor._stream
        assert stream is not None
        cursor.close()
        # The row reader was closed, which propagates GeneratorExit
        # through every executor stage: nothing more comes out of it.
        assert cursor._stream is None
        assert list(stream) == []

    def test_fetch_after_close_raises(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        cursor.fetchone()
        cursor.close()
        with pytest.raises(InterfaceError):
            cursor.fetchall()


class TestReExecuteMidStream:
    def test_re_execute_on_half_fetched_cursor(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        cursor.fetchmany(3)
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(cursor.fetchall()) == 6
        assert cursor.rowcount == 6

    def test_re_execute_different_statement(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        cursor.fetchone()
        cursor.execute("SELECT PAYMENTID FROM PAYMENTS")
        assert len(cursor.fetchall()) == 6


class TestFetchTimeErrors:
    def test_evaluation_error_surfaces_at_fetch(self, conn):
        cursor = conn.cursor()
        # Translation and pipeline setup succeed; the division only
        # happens when a row is pulled.
        cursor.execute("SELECT CUSTOMERID / 0 FROM CUSTOMERS")
        with pytest.raises(DatabaseError):
            cursor.fetchall()


class TestBoundedMaterialization:
    ROWS = 5000
    FETCH = 10

    def test_large_scan_materializes_only_fetched_frames(self):
        runtime = build_scaled_runtime(self.ROWS)
        size = runtime.batch_size
        connection = connect(runtime)
        try:
            cursor = connection.cursor()
            cursor.execute("SELECT * FROM FACTS")
            before = (VSTATS.batches, VSTATS.rows)
            rows = cursor.fetchmany(self.FETCH)
            assert len(rows) == self.FETCH
            batches = VSTATS.batches - before[0]
            encoded = VSTATS.rows - before[1]
            # The batches the fetched rows sit in, plus one of decode
            # lookahead — nowhere near ROWS.
            assert 0 < batches <= self.FETCH // size + 2, batches
            assert self.FETCH <= encoded <= batches * size < self.ROWS, \
                encoded
        finally:
            connection.close()

    def test_full_drain_still_counts_all_rows(self):
        connection = connect(build_scaled_runtime(200))
        try:
            cursor = connection.cursor()
            cursor.execute("SELECT * FROM FACTS")
            assert len(cursor.fetchall()) == 200
            assert cursor.rowcount == 200
            assert connection.stats()["counters"]["rows.streamed"] == 200
        finally:
            connection.close()
