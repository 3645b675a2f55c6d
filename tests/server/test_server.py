"""End-to-end server tests over real sockets: the remote PEP 249
driver, multi-client concurrency, tenant quotas, disconnect cleanup,
and out-of-band cancel (the ISSUE-8 acceptance scenarios)."""

import gc
import logging
import socket
import threading
import time

import pytest

import repro
from repro.driver import connect
from repro.driver.remote import RemoteConnection, RemoteCursor
from repro.engine import AdmissionController, FaultProfile, install_fault
from repro.errors import InterfaceError, OperationalError
from repro.server import TenantConfig, serve_in_thread
from repro.server import __main__ as server_main
from repro.server.protocol import (
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.workloads import build_runtime
from repro.workloads.scaling import build_scaled_runtime

from tests.driver.test_dbapi import runtime_with_procedure

#: 6^3 = 216 rows — enough pages that a stream outlives its first fetch.
BIG_QUERY = "SELECT * FROM CUSTOMERS C1, CUSTOMERS C2, CUSTOMERS C3"

TOKEN = "test-token"


@pytest.fixture()
def runtime():
    return build_runtime()


@pytest.fixture()
def server(runtime):
    tenant = TenantConfig(name="app", runtime=runtime, token=TOKEN)
    with serve_in_thread(tenant) as handle:
        yield handle


def remote_connect(handle, **kwargs):
    return connect(handle.dsn("app", "TestDataServices", token=TOKEN),
                   **kwargs)


def drop(connection) -> None:
    """Drop a remote connection's TCP link mid-flight. Shut down, not
    just closed: a shutdown reaches the server as an end of stream
    whoever else still holds a copy of the socket."""
    connection._sock.shutdown(socket.SHUT_RDWR)
    connection._sock.close()


def connection_runtime(handle):
    """The runtime behind a single-tenant test server."""
    tenant, = handle.server.tenants.values()
    return tenant.runtime


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestRemoteDriver:
    def test_connect_returns_remote_connection(self, server):
        connection = remote_connect(server)
        try:
            assert isinstance(connection, RemoteConnection)
            assert isinstance(connection.cursor(), RemoteCursor)
        finally:
            connection.close()

    def test_execute_fetch_round_trip(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.execute("SELECT CUSTOMERNAME FROM CUSTOMERS "
                           "WHERE CUSTOMERID = ?", [23])
            assert cursor.description[0][0] == "CUSTOMERNAME"
            assert cursor.fetchall() == [("Sue",)]
            assert cursor.rowcount == 1

    def test_paged_fetch_streams_whole_result(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.arraysize = 7  # forces many fetch frames
            cursor.execute(BIG_QUERY)
            assert len(cursor.fetchall()) == 216
            assert cursor.rowcount == 216

    def test_fetchone_and_iteration(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS "
                           "ORDER BY CUSTOMERID")
            first = cursor.fetchone()
            rest = [row for row in cursor]
            assert len([first] + rest) == 6
            # Iteration pages: with the default arraysize of 1 it used
            # to cost one round trip per row.
            roundtrips = connection.metrics.counter("wire.roundtrips")
            cursor.execute(BIG_QUERY)
            before = roundtrips.value
            rows = iter(cursor)
            head = [next(rows) for _ in range(10)]
            assert roundtrips.value - before == 1
            # Rows the loop did not reach are still there to fetch.
            assert head + cursor.fetchall() == \
                cursor.execute(BIG_QUERY).fetchall()
            cursor.execute(BIG_QUERY)
            before = roundtrips.value
            assert len(list(cursor)) == 216
            assert roundtrips.value - before == 1
            assert cursor.rowcount == 216

    @pytest.mark.parametrize("fmt", ["delimited", "xml"])
    def test_small_pages_reach_the_end_of_any_result(self, server, fmt):
        """Streamed (delimited) and materialized (xml) results page the
        same way: the reply says exhausted when the rows are out, not
        when the row count happens to be known."""
        with remote_connect(server, format=fmt) as connection, \
                connect(connection_runtime(server), format=fmt) as local:
            cursor, expected = connection.cursor(), local.cursor()
            expected.execute(BIG_QUERY)
            cursor.execute(BIG_QUERY)
            got = cursor.fetchmany(10) + [cursor.fetchone()]
            for page in iter(lambda: cursor.fetchmany(50), []):
                got += page
            assert got == expected.fetchall()
            assert cursor.rowcount == 216

    def test_callproc_result_crosses_the_wire_as_text(self):
        runtime = runtime_with_procedure()
        tenant = TenantConfig(name="app", runtime=runtime, token=TOKEN)
        with serve_in_thread(tenant) as handle, \
                remote_connect(handle) as connection:
            expected = connect(runtime).cursor()
            expected.callproc("getCustomerById", [23])
            cursor = connection.cursor()
            cursor.callproc("getCustomerById", [23])
            assert cursor.description == expected.description
            assert cursor.rowcount == expected.rowcount == 6
            got = [cursor.fetchone()] + cursor.fetchmany(2)
            got += cursor.fetchall()
            rows = expected.fetchall()
            assert got == rows
            assert [[type(cell) for cell in row] for row in got] == \
                [[type(cell) for cell in row] for row in rows]

    def test_fetchone_drains_a_large_page(self):
        """A page of 20 000 rows handed out one ``fetchone()`` at a
        time — the buffer is read by index, not shifted per row — is
        the rows ``fetchall()`` gets, and partial reads mix freely."""
        rows = 20_000
        tenant = TenantConfig(name="app", token=TOKEN,
                              runtime=build_scaled_runtime(rows))
        with serve_in_thread(tenant, max_page_rows=rows) as handle, \
                connect(handle.dsn("app", "Bench", token=TOKEN)) \
                as connection:
            cursor = connection.cursor()
            cursor.execute("SELECT ID, NAME FROM FACTS")
            expected = cursor.fetchall()
            assert len(expected) == rows
            cursor.arraysize = rows
            cursor.execute("SELECT ID, NAME FROM FACTS")
            roundtrips = connection.metrics.counter("wire.roundtrips")
            before = roundtrips.value
            got = [cursor.fetchone()]
            got += cursor.fetchmany(7)
            got += iter(cursor.fetchone, None)
            assert got == expected
            # One page held it all (a second, empty one may say so).
            assert roundtrips.value - before <= 2
            assert cursor.rowcount == rows
            assert cursor.fetchmany(3) == [] and cursor.fetchall() == []

    def test_executemany(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.executemany(
                "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE "
                "CUSTOMERID = ?", [[17], [23], [31]])
            # PEP 249 executemany leaves the last set's rows readable
            assert cursor.fetchall() == [("Eve",)]

    def test_error_maps_to_same_class(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            with pytest.raises(repro.ProgrammingError,
                               match="unknown column"):
                cursor.execute("SELECT NOPE FROM CUSTOMERS")
            # the cursor (and connection) survive a failed statement
            cursor.execute("SELECT COUNT(*) FROM CUSTOMERS")
            assert cursor.fetchall() == [(6,)]

    def test_metadata_proxy(self, server):
        with remote_connect(server) as connection:
            meta = connection.metadata()
            assert meta.catalogs() == ["RTLApp"]
            assert ("TestDataServices/CUSTOMERS", "CUSTOMERS") \
                in meta.tables()
            columns = meta.columns("CUSTOMERS")
            assert [c[0] for c in columns] == [
                "CUSTOMERID", "CUSTOMERNAME", "REGION", "CREDITLIMIT"]
            assert meta.get_catalogs() == meta.catalogs()

    def test_stats_and_health(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
            cursor.fetchall()
            received = connection.metrics.counter(
                "wire.bytes_received").value
            snapshot = connection.stats()
            assert snapshot["stats_schema_version"] == 4
            assert snapshot["server"]["counters"]["executes"] >= 1
            assert snapshot["server"]["tenant"]["name"] == "app"
            client = snapshot["client"]["counters"]
            assert client["wire.roundtrips"] > 0
            # The only client of this server counted, on arrival, every
            # byte the server had sent when it took the snapshot.
            assert 0 < received \
                == snapshot["server"]["counters"]["bytes_sent"]
            assert client["wire.bytes_received"] > received
            health = connection.server_health()
            assert health["tenants"] == ["app"]
            assert health["sessions"] == 1

    def test_shell_stats_show_the_wire(self, server):
        """Bytes per row is answerable from the shell: ``\\stats`` on a
        remote connection prints the client's wire counters."""
        from repro.shell import Shell
        lines = []
        shell = Shell(out=lines.append)
        shell.handle("\\connect " + server.dsn(
            "app", "TestDataServices", token=TOKEN))
        shell.handle(BIG_QUERY)
        del lines[:]
        shell.handle("\\stats")
        wire, = [line for line in lines if line.startswith("WIRE:")]
        fields = dict(field.split("=") for field in wire.split()[1:])
        assert int(fields["rows_fetched"]) == 216
        assert int(fields["roundtrips"]) >= 3  # hello, execute, fetch
        # 216 rows x 12 cells of text and some framing, not JSON cells.
        assert 216 * 12 < int(fields["bytes_received"]) < 216 * 12 * 12

    def test_closed_connection_raises_interface_error(self, server):
        connection = remote_connect(server)
        connection.close()
        connection.close()  # idempotent
        with pytest.raises(InterfaceError, match="closed"):
            connection.cursor()


class TestAuthentication:
    def test_bad_token_rejected(self, server):
        host, port = server.address
        with pytest.raises(OperationalError,
                           match="authentication failed"):
            connect(f"repro+tcp://{host}:{port}/app?token=wrong")

    def test_unknown_tenant_same_error_shape(self, server):
        host, port = server.address
        with pytest.raises(OperationalError,
                           match="authentication failed"):
            connect(f"repro+tcp://{host}:{port}/ghost?token={TOKEN}")

    def test_unknown_project_rejected(self, server):
        host, port = server.address
        with pytest.raises(InterfaceError, match="no project"):
            connect(f"repro+tcp://{host}:{port}/app/NoSuch"
                    f"?token={TOKEN}")

    def test_verbs_require_handshake(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_frame(sock, {"id": 1, "op": "execute",
                              "sql": "SELECT 1"})
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["error"]["cls"] == "InterfaceError"
            assert "hello" in reply["error"]["message"]
        finally:
            sock.close()

    def test_health_is_public(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_frame(sock, {"id": 1, "op": "health"})
            reply = recv_frame(sock)
            assert reply["ok"] is True
            assert reply["protocol"] == PROTOCOL_VERSION == 3
        finally:
            sock.close()


class TestMultiClient:
    def test_concurrent_clients_get_consistent_results(self, server):
        expected = None
        results = [None] * 8
        errors = []

        def worker(index):
            try:
                with remote_connect(server) as connection:
                    cursor = connection.cursor()
                    cursor.arraysize = 13
                    cursor.execute(BIG_QUERY)
                    results[index] = cursor.fetchall()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.execute(BIG_QUERY)
            expected = cursor.fetchall()
        for result in results:
            assert result == expected

    def test_sessions_are_isolated(self, server):
        with remote_connect(server) as first, \
                remote_connect(server) as second:
            c1, c2 = first.cursor(), second.cursor()
            c1.execute("SELECT CUSTOMERID FROM CUSTOMERS")
            c2.execute("SELECT CUSTOMERNAME FROM CUSTOMERS")
            assert len(c1.fetchall()) == 6
            assert len(c2.fetchall()) == 6


class TestTenantQuotas:
    def test_concurrency_quota_rejects_as_operational_error(
            self, runtime):
        tenant = TenantConfig(
            name="app", runtime=runtime, token=TOKEN,
            quota=AdmissionController(max_concurrent=1))
        with serve_in_thread(tenant) as handle:
            first = remote_connect(handle)
            second = remote_connect(handle)
            try:
                hog = first.cursor()
                hog.execute(BIG_QUERY)
                hog.fetchone()  # the stream (and slot) stay open
                needy = second.cursor()
                with pytest.raises(OperationalError,
                                   match="tenant quota"):
                    needy.execute("SELECT CUSTOMERID FROM CUSTOMERS")
                # draining the hog releases the tenant slot
                hog.fetchall()
                needy.execute("SELECT CUSTOMERID FROM CUSTOMERS")
                assert len(needy.fetchall()) == 6
                stats = second.stats()
                assert stats["server"]["counters"][
                    "quota_rejections"] >= 1
            finally:
                first.close()
                second.close()

    def test_inflight_row_quota_aborts_stream(self, runtime):
        tenant = TenantConfig(
            name="app", runtime=runtime, token=TOKEN,
            quota=AdmissionController(max_inflight_rows=50))
        with serve_in_thread(tenant) as handle:
            with remote_connect(handle) as connection:
                cursor = connection.cursor()
                cursor.arraysize = 40
                cursor.execute(BIG_QUERY)  # 216 rows > 50 budget
                with pytest.raises(OperationalError,
                                   match="tenant quota"):
                    cursor.fetchall()
                # Pages are charged by counting their rows, not by
                # decoding them: the abort came on the second page, and
                # it gave back every hold the statement had.
                assert tenant.quota.stats()["active"] == 0
                assert tenant.quota.stats()["inflight_rows"] == 0
                assert runtime.admission.stats()["active"] == 0
                assert runtime.admission.stats()["inflight_rows"] == 0
                # the tenant slot is returned, new statements run
                cursor.execute("SELECT COUNT(*) FROM CUSTOMERS")
                assert cursor.fetchall() == [(6,)]

    def test_quota_rejections_count_the_tenant_gate_only(self, runtime):
        # A user's error that says "tenant quota" is no rejection; the
        # tenant gate's own concurrency and row-budget rejections are.
        tenant = TenantConfig(
            name="app", runtime=runtime, token=TOKEN,
            quota=AdmissionController(max_concurrent=1,
                                      max_inflight_rows=50))
        with serve_in_thread(tenant) as handle:
            first = remote_connect(handle)
            second = remote_connect(handle)

            def rejections():
                return second.stats()["server"]["counters"][
                    "quota_rejections"]

            try:
                cursor = second.cursor()
                with pytest.raises(OperationalError):
                    cursor.execute("SELECT CAST('tenant quota' AS "
                                   "INTEGER) FROM CUSTOMERS")
                    cursor.fetchall()
                assert rejections() == 0
                hog = first.cursor()
                hog.execute(BIG_QUERY)
                hog.fetchone()  # one row: within the 50-row budget
                with pytest.raises(OperationalError,
                                   match="tenant quota"):
                    cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
                assert rejections() == 1
                with pytest.raises(OperationalError,
                                   match="tenant quota.*budget"):
                    hog.fetchall()  # 216 rows
                assert rejections() == 2
            finally:
                first.close()
                second.close()

    def test_a_write_holds_no_tenant_slot(self, runtime):
        # A write's result is its rowcount: once it ran, the tenant's
        # only slot is free for the next statement.
        tenant = TenantConfig(
            name="app", runtime=runtime, token=TOKEN,
            quota=AdmissionController(max_concurrent=1))
        with serve_in_thread(tenant) as handle:
            with remote_connect(handle) as connection:
                connection.cursor().execute(
                    "INSERT INTO CUSTOMERS VALUES (99, 'X', 'WEST', 1.00)")
                assert tenant.quota.stats()["active"] == 0
                cursor = connection.cursor()
                cursor.execute("SELECT COUNT(*) FROM CUSTOMERS")
                assert cursor.fetchall() == [(7,)]

    def test_timeout_clamped_to_tenant_ceiling(self, runtime):
        install_fault(runtime, "CUSTOMERS",
                      FaultProfile(latency=30.0))
        tenant = TenantConfig(
            name="app", runtime=runtime, token=TOKEN,
            quota=AdmissionController(max_timeout=0.2))
        with serve_in_thread(tenant) as handle:
            with remote_connect(handle) as connection:
                cursor = connection.cursor()
                start = time.monotonic()
                with pytest.raises(OperationalError,
                                   match="deadline|timeout"):
                    # the client asks for a minute; the tenant cap wins
                    cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS",
                                   timeout=60.0)
                    cursor.fetchall()
                assert time.monotonic() - start < 10.0


    @pytest.mark.parametrize("flag, value", [
        ("--max-concurrent", "0"), ("--max-concurrent", "x"),
        ("--max-inflight-rows", "-1"), ("--max-timeout", "0"),
        ("--max-timeout", "nan")])
    def test_bad_quota_flag_is_a_usage_error(self, flag, value,
                                             monkeypatch, capsys):
        """Refused by argparse (exit 2) before the runtime is built."""
        def build(spec):
            raise AssertionError("runtime built before the flags were "
                                 "checked")

        monkeypatch.setattr(server_main, "_build_runtime", build)
        with pytest.raises(SystemExit) as exited:
            server_main.main(["--token", "x", flag, value])
        assert exited.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err


class TestDisconnectCleanup:
    def test_midstream_disconnect_releases_admission_slots(
            self, runtime, server):
        connection = remote_connect(server)
        cursor = connection.cursor()
        cursor.execute(BIG_QUERY)
        assert cursor.fetchone() is not None
        assert runtime.admission.stats()["active"] == 1
        # Drop the TCP connection with the stream mid-flight; the
        # server must tear the session down and return the global
        # admission slot and its in-flight row charge.
        drop(connection)
        assert wait_until(
            lambda: runtime.admission.stats()["active"] == 0)
        assert wait_until(
            lambda: runtime.admission.stats()["inflight_rows"] == 0)

    def test_midstream_disconnect_releases_tenant_slot(self, runtime):
        tenant = TenantConfig(
            name="app", runtime=runtime, token=TOKEN,
            quota=AdmissionController(max_concurrent=1))
        with serve_in_thread(tenant) as handle:
            connection = remote_connect(handle)
            cursor = connection.cursor()
            cursor.execute(BIG_QUERY)
            cursor.fetchone()
            drop(connection)
            # once the server notices, a new client gets the only slot
            assert wait_until(
                lambda: tenant.quota.stats()["active"] == 0)
            with remote_connect(handle) as fresh:
                cursor = fresh.cursor()
                cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
                assert len(cursor.fetchall()) == 6

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_vanished_client_inside_transaction(self, backend):
        # A client vanishes (socket shut, no close) with a transaction
        # open and a stream mid-flight: its write is rolled back, the
        # write lock and both gates' holds are returned.
        runtime = build_runtime(backend=backend)
        tenant = TenantConfig(
            name="app", runtime=runtime, token=TOKEN,
            quota=AdmissionController(max_concurrent=4))
        with serve_in_thread(tenant) as handle:
            other = remote_connect(handle)
            try:
                probe = other.cursor()
                vanishing = remote_connect(handle)
                vanishing.autocommit = False
                writer = vanishing.cursor()
                writer.execute("INSERT INTO CUSTOMERS VALUES "
                               "(99, 'Gone', 'WEST', 1.00)")
                stream = vanishing.cursor()
                stream.execute(BIG_QUERY)
                assert stream.fetchone() is not None
                assert tenant.quota.stats()["active"] == 1
                assert runtime.admission.stats()["active"] == 1
                drop(vanishing)
                for gate in (runtime.admission, tenant.quota):
                    assert wait_until(
                        lambda: gate.stats()["active"] == 0)
                    assert gate.stats()["inflight_rows"] == 0
                assert wait_until(lambda: not runtime.write_lock.locked())
                probe.execute("SELECT COUNT(*) FROM CUSTOMERS "
                              "WHERE CUSTOMERID = 99")
                assert probe.fetchall() == [(0,)]
                probe.execute("INSERT INTO CUSTOMERS VALUES "
                              "(98, 'Next', 'EAST', 2.00)")
                assert probe.rowcount == 1
                probe.execute("SELECT CUSTOMERID FROM CUSTOMERS "
                              "WHERE CUSTOMERID >= 98")
                assert probe.fetchall() == [(98,)]
            finally:
                other.close()

    def test_client_close_tears_down_session(self, server):
        connection = remote_connect(server)
        cursor = connection.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        cursor.fetchall()
        connection.close()
        with remote_connect(server) as probe:
            assert wait_until(
                lambda: probe.server_health()["sessions"] == 1)


def _cancel_hung_query(runtime, **connect_options):
    """Hang the source, cancel from a second thread while ``execute``
    or the first fetch blocks, and require the cancellation error in
    bounded time with every slot the statement held given back."""
    install_fault(runtime, "CUSTOMERS", FaultProfile(hang=True))
    tenant = TenantConfig(name="app", runtime=runtime, token=TOKEN)
    with serve_in_thread(tenant) as handle:
        connection = remote_connect(handle, **connect_options)
        try:
            cursor = connection.cursor()

            def canceller():
                # Cancel once the statement holds its admission slot:
                # the server is then running it, so the cancel cannot
                # arrive before there is anything to cancel.
                wait_until(lambda: runtime.admission.stats()["active"] == 1,
                           timeout=10.0)
                cursor.cancel()

            thread = threading.Thread(target=canceller)
            thread.start()
            start = time.monotonic()
            with pytest.raises(OperationalError, match="cancelled"):
                cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
                cursor.fetchall()
            assert time.monotonic() - start < 10.0
            thread.join(timeout=5)
        finally:
            connection.close()
        assert wait_until(lambda: tenant.quota.stats()["active"] == 0)
        assert wait_until(
            lambda: runtime.admission.stats()["active"] == 0)


class TestRemoteCancel:
    def test_cancel_aborts_hung_query(self, runtime):
        _cancel_hung_query(runtime)

    def test_cancel_reaches_execute_before_its_first_reply(self):
        # The xml format builds its RECORDSET inside ``execute`` itself,
        # so the cancel arrives before any reply told the client a
        # cursor id: it has to be addressed through the session. (The
        # deadline only bounds a cancel that never lands: it fails the
        # test with a timeout, not a cancellation.)
        _cancel_hung_query(build_runtime(), config=repro.RuntimeConfig(
            format="xml", default_timeout=5.0))

    def test_cancel_without_statement_is_harmless(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.cancel()
            cursor.execute("SELECT COUNT(*) FROM CUSTOMERS")
            assert cursor.fetchall() == [(6,)]

    def test_cancel_requires_session_secret(self, server):
        with remote_connect(server) as connection:
            cursor = connection.cursor()
            cursor.execute(BIG_QUERY)
            sock = socket.create_connection(server.address, timeout=5)
            try:
                send_frame(sock, {
                    "id": 1, "op": "cancel",
                    "session": connection._session,
                    "secret": "not-the-secret", "cursor": None})
                reply = recv_frame(sock)
                assert reply["ok"] is True
                assert reply["cancelled"] is False
            finally:
                sock.close()
            assert len(cursor.fetchall()) == 216  # query unharmed


class TestStop:
    def test_stop_with_a_client_connected_leaves_no_pending_task(
            self, runtime, caplog):
        """The connection's handler task is cancelled and awaited
        before the loop stops; left pending, asyncio logs "Task was
        destroyed but it is pending" when it is collected."""
        tenant = TenantConfig(name="app", runtime=runtime, token=TOKEN)
        handle = serve_in_thread(tenant)
        connection = remote_connect(handle)
        cursor = connection.cursor()
        cursor.execute("SELECT COUNT(*) FROM CUSTOMERS")
        assert cursor.fetchall() == [(6,)]
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            handle.stop()
            del handle
            gc.collect()
        assert "Task was destroyed" not in caplog.text
        # The handler's own clean-up ran: the session is gone, and the
        # client sees an end of stream rather than a hang.
        assert tenant.quota.stats()["active"] == 0
        with pytest.raises((InterfaceError, OperationalError)):
            cursor.execute("SELECT COUNT(*) FROM CUSTOMERS")
