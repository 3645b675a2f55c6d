"""Frame fuzzing against protocol v3 (ROADMAP item 6).

Both reading sides get malformed input — the server from a raw socket,
the remote driver from a scripted fake server — and each case must
raise the documented PEP 249 class where it is read, leave the real
server serving its other sessions, and never hang (every socket here
has a timeout)."""

import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver import connect
from repro.errors import DataError, InterfaceError
from repro.server import TenantConfig, serve_in_thread
from repro.server.protocol import (
    PROTOCOL_VERSION,
    pack_frame,
    recv_frame,
    send_frame,
)
from repro.workloads import build_runtime

TOKEN = "fuzz-token"
TIMEOUT = 5.0


@pytest.fixture(scope="module")
def server():
    tenant = TenantConfig(name="app", runtime=build_runtime(), token=TOKEN)
    with serve_in_thread(tenant, max_frame=4096) as handle:
        yield handle


@pytest.fixture()
def bystander(server):
    """A healthy session opened before the abuse; it must still be
    served after it."""
    with connect(server.dsn("app", "TestDataServices",
                            token=TOKEN)) as connection:
        yield connection
        cursor = connection.cursor()
        cursor.execute("SELECT COUNT(*) FROM CUSTOMERS")
        assert cursor.fetchall() == [(6,)]
    with connect(server.dsn("app", "TestDataServices",
                            token=TOKEN)) as fresh:
        assert fresh.server_health()["protocol"] == PROTOCOL_VERSION


def raw(server) -> socket.socket:
    return socket.create_connection(server.address, timeout=TIMEOUT)


def hello(sock, protocol=PROTOCOL_VERSION) -> dict:
    send_frame(sock, {"id": 1, "op": "hello", "protocol": protocol,
                      "tenant": "app", "token": TOKEN,
                      "project": "TestDataServices"})
    return recv_frame(sock)


def dropped(sock) -> bool:
    """The server hung up without a reply (its protocol-error path)."""
    try:
        return sock.recv(1) == b""
    except ConnectionError:
        return True


# -- the server reads -------------------------------------------------------

class TestServerReads:
    def protocol_errors(self, server) -> int:
        return server.server.metrics.counter(
            "server.protocol_errors").value

    @pytest.mark.parametrize("data", [
        struct.pack(">I", 0xFFFFFFFF),               # absurd length prefix
        struct.pack(">I", 4097) + b"{}",             # just over max_frame
        b"\x00\x00",                                  # half a prefix, EOF
        pack_frame({"op": "health", "id": 1})[:-2],  # truncated payload
        struct.pack(">I", 5) + b"\xff\xfe\xfd{}",    # not UTF-8
        struct.pack(">I", 6) + b"[1, 2]",            # JSON, not an object
    ], ids=["huge-prefix", "oversize", "short-prefix", "truncated",
            "not-utf8", "not-object"])
    def test_unreadable_frame_drops_only_that_connection(
            self, server, bystander, data):
        before = self.protocol_errors(server)
        with raw(server) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            assert dropped(sock)
        assert self.protocol_errors(server) == before + 1

    def test_unreadable_frame_mid_session_releases_the_session(
            self, server, bystander):
        with raw(server) as sock:
            assert hello(sock)["ok"] is True
            send_frame(sock, {"id": 2, "op": "execute", "params": [],
                              "sql": "SELECT * FROM CUSTOMERS"})
            assert recv_frame(sock)["ok"] is True
            sock.sendall(struct.pack(">I", 0xFFFFFFFF))
            assert dropped(sock)
        # The bystander is the one session left, once the server has
        # torn down this one and those of the cases before it (its
        # teardown asserts the server still serves it).
        deadline = time.monotonic() + TIMEOUT
        while bystander.server_health()["sessions"] != 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert bystander.server_health()["sessions"] == 1

    def test_v2_hello_is_refused(self, server, bystander):
        with raw(server) as sock:
            reply = hello(sock, protocol=2)
            assert reply["ok"] is False
            assert reply["error"]["cls"] == "InterfaceError"
            assert "server speaks 3, client sent 2" \
                in reply["error"]["message"]
            # Refused, not upgraded: the connection has no session.
            send_frame(sock, {"id": 2, "op": "fetch", "cursor": 1,
                              "rows": 1})
            assert "hello" in recv_frame(sock)["error"]["message"]

    @pytest.mark.parametrize("frame, cls, message", [
        ({"op": "fetch", "cursor": 1, "rows": 10},
         "InterfaceError", "no open cursor"),
        ({"op": "fetch", "cursor": None, "rows": 10},
         "InterfaceError", "no open cursor"),
        ({"op": "execute", "sql": 5}, "InterfaceError", "no sql string"),
        ({"op": "execute", "sql": "SELECT 1", "params": "x"},
         "InterfaceError", "malformed wire row"),
        ({"op": "execute", "sql": "SELECT 1", "params": [["i", "x"]]},
         "InterfaceError", "malformed wire value"),
        ({"op": "frobnicate"}, "InterfaceError", "unknown operation"),
        ({}, "InterfaceError", "unknown operation"),
        # Fields of a type no verb checks for: the handler's last line
        # of defence answers instead of dying with the connection.
        ({"op": "fetch", "cursor": [1], "rows": 10},
         "InternalError", "unhashable"),
        ({"op": "executemany", "sql": "SELECT 1", "param_sets": 5},
         "InternalError", "not iterable"),
    ], ids=["fetch-before-execute", "fetch-null-cursor", "sql-not-text",
            "params-not-a-row", "param-bad-lexical", "unknown-verb",
            "no-verb", "unhashable-cursor", "param-sets-not-a-list"])
    def test_bad_request_is_answered_and_the_session_lives(
            self, server, bystander, frame, cls, message, caplog):
        with raw(server) as sock:
            assert hello(sock)["ok"] is True
            send_frame(sock, {"id": 7, **frame})
            reply = recv_frame(sock)
            assert reply["id"] == 7 and reply["ok"] is False
            assert reply["error"]["cls"] == cls
            assert message in reply["error"]["message"]
            # The unanticipated ones leave a traceback in the log.
            assert (cls == "InternalError") == any(
                record.exc_info for record in caplog.records)
            send_frame(sock, {"id": 8, "op": "execute", "params": [],
                              "sql": "SELECT COUNT(*) FROM CUSTOMERS"})
            assert recv_frame(sock)["ok"] is True

    @pytest.mark.parametrize("rows", [0, -1, "10", None, 1.5])
    def test_bad_fetch_size(self, server, bystander, rows):
        with raw(server) as sock:
            assert hello(sock)["ok"] is True
            send_frame(sock, {"id": 2, "op": "execute", "params": [],
                              "sql": "SELECT * FROM CUSTOMERS"})
            cursor = recv_frame(sock)["cursor"]
            send_frame(sock, {"id": 3, "op": "fetch", "cursor": cursor,
                              "rows": rows})
            reply = recv_frame(sock)
            assert reply["error"]["cls"] == "InterfaceError"
            assert "bad fetch row count" in reply["error"]["message"]
            # The cursor survived the refusal.
            send_frame(sock, {"id": 4, "op": "fetch", "cursor": cursor,
                              "rows": 100})
            reply = recv_frame(sock)
            assert reply["rows"] == 6 and reply["exhausted"] is True
            assert reply["text"].count(">") + reply["text"].count("<") \
                == 6 * 4

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["op", "cursor", "rows", "sql", "params",
                         "param_sets", "timeout", "kind", "table",
                         "schema", "enabled", "session", "secret"]),
        st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.text(max_size=4), st.lists(st.integers(), max_size=2),
                  st.sampled_from(["execute", "executemany", "fetch",
                                   "close_cursor", "metadata", "stats",
                                   "cancel", "begin", "autocommit",
                                   "SELECT 1", "tables"]))))
    def test_any_json_request_gets_an_answer(self, server, frame):
        """Verbs with fields of every JSON type: each is answered —
        served, or refused with a PEP 249 class — on a session that
        goes on to run a statement."""
        if frame.get("op") in ("hello", "close"):
            return
        with raw(server) as sock:
            assert hello(sock)["ok"] is True
            send_frame(sock, {"id": 7, **frame})
            reply = recv_frame(sock)
            assert reply["id"] == 7
            if not reply["ok"]:
                assert reply["error"]["cls"] in (
                    "InterfaceError", "InternalError", "ProgrammingError",
                    "OperationalError", "DatabaseError",
                    "NotSupportedError")
            send_frame(sock, {"id": 8, "op": "execute", "params": [],
                              "sql": "SELECT COUNT(*) FROM CUSTOMERS"})
            assert recv_frame(sock)["ok"] is True

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_random_bytes_never_take_the_server_down(self, server, data):
        with raw(server) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            try:
                while sock.recv(4096):
                    pass  # whatever it answers, it answers and hangs up
            except ConnectionError:
                pass
        with raw(server) as sock:
            send_frame(sock, {"id": 1, "op": "health"})
            assert recv_frame(sock)["ok"] is True


# -- the driver reads -------------------------------------------------------

DESCRIPTION = [["ID", "INTEGER", None, None, False],
               ["NAME", "VARCHAR", None, None, True]]


class ScriptedServer:
    """One connection's worth of fake server: answers ``hello`` and
    ``execute`` properly, then plays *replies* — a dict (sent as the
    answer to the next request, with its id) or raw bytes."""

    def __init__(self, replies, description=DESCRIPTION):
        self.replies = list(replies)
        self.description = description
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(TIMEOUT)
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    @property
    def dsn(self) -> str:
        port = self.listener.getsockname()[1]
        return f"repro+tcp://127.0.0.1:{port}/app?token=x"

    def serve(self) -> None:
        try:
            connection, _address = self.listener.accept()
        except OSError:
            return
        with connection:
            connection.settimeout(TIMEOUT)
            try:
                while True:
                    request = recv_frame(connection)
                    op = request.get("op")
                    if op == "hello":
                        reply = {"ok": True, "session": "s1",
                                 "secret": "x",
                                 "protocol": PROTOCOL_VERSION}
                    elif op == "execute":
                        reply = {"ok": True, "cursor": 1,
                                 "description": self.description,
                                 "rowcount": -1, "lastrowid": None,
                                 "in_transaction": False}
                    elif op == "fetch" and self.replies:
                        reply = self.replies.pop(0)
                    else:
                        reply = {"ok": True}
                    if isinstance(reply, bytes):
                        connection.sendall(reply)
                    else:
                        send_frame(connection,
                                   {"id": request.get("id"), **reply})
            except (InterfaceError, OSError):
                pass

    def close(self) -> None:
        self.listener.close()
        self.thread.join(TIMEOUT)
        assert not self.thread.is_alive()


def page(text, rows, exhausted=True, **extra) -> dict:
    return {"ok": True, "text": text, "rows": rows,
            "exhausted": exhausted, "rowcount": rows if exhausted else -1,
            **extra}


def fetch_from(replies, description=DESCRIPTION):
    """Connect to a scripted server, execute, ``fetchall``: (rows or
    the exception, the cursor's connection)."""
    fake = ScriptedServer(replies, description)
    try:
        connection = connect(fake.dsn)
        connection._sock.settimeout(TIMEOUT)
        cursor = connection.cursor()
        cursor.execute("SELECT ID, NAME FROM T")
        try:
            outcome = cursor.fetchall()
        except Exception as exc:
            outcome = exc
        after = cursor.fetchall() if not connection._closed else None
        connection.close()
        return outcome, after
    finally:
        fake.close()


class TestDriverReads:
    def test_well_formed_pages_decode(self):
        rows, after = fetch_from([page(">1>a>2<", 2, exhausted=False),
                                  page(">3>&lt;", 1)])
        assert rows == [(1, "a"), (2, None), (3, "<")]
        assert after == []

    @pytest.mark.parametrize("reply, error, match", [
        (page(">1>a>2", 2), DataError, "truncated delimited stream"),
        (page(">1>a>", 1), DataError, "cannot convert cell ''"),
        (page("1>a", 1), DataError, "expected a cell marker"),
        (page(">x>a", 1), DataError, "cannot convert cell 'x'"),
        (page(">1>a>2>b", 1), InterfaceError, "claims 1 rows.*holds 2"),
        (page(">1>a", 2), InterfaceError, "claims 2 rows.*holds 1"),
        (page("", 1), InterfaceError, "claims 1 rows.*holds 0"),
        (page(">1>a", None), InterfaceError, "claims None rows"),
        (page(None, 0), InterfaceError, "no page text"),
        (page([[["i", "1"], "a"]], 1), InterfaceError, "no page text"),
        ({"ok": True, "rows": [[["i", "1"], "a"]], "exhausted": True,
          "rowcount": 1}, InterfaceError, "no page text"),
    ], ids=["cut-mid-row", "cut-mid-cell", "no-marker", "bad-lexical",
            "more-rows-than-claimed", "fewer-rows-than-claimed",
            "empty-text", "no-count", "no-text", "text-is-a-list",
            "v2-page"])
    def test_bad_page_raises_and_the_result_is_given_up(
            self, reply, error, match):
        outcome, after = fetch_from([reply, page(">9>z", 1)])
        assert type(outcome) is error
        with pytest.raises(error, match=match):
            raise outcome
        # The rows past the gap are not handed out as if nothing was
        # missing; the connection itself is still in step.
        assert after == []

    @pytest.mark.parametrize("description", [
        [["ID", "INTEGER"]], "nope", [["ID", ["INTEGER"], None, None, 1]],
    ])
    def test_bad_description(self, description):
        fake = ScriptedServer([], description)
        try:
            with connect(fake.dsn) as connection:
                connection._sock.settimeout(TIMEOUT)
                with pytest.raises(InterfaceError,
                                   match="malformed result description"):
                    connection.cursor().execute("SELECT 1")
        finally:
            fake.close()

    @pytest.mark.parametrize("data, match", [
        (struct.pack(">I", 0xFFFFFFFF), "exceeds"),
        (struct.pack(">I", 64 * 1024 * 1024) + b"{", "exceeds"),
        (pack_frame(page(">1>a", 1))[:-3], "mid-frame"),
        (struct.pack(">I", 3) + b"\xff\xfe\xfd", "malformed protocol"),
        (struct.pack(">I", 2) + b"[]", "JSON object"),
        (pack_frame({"id": 999, **page(">1>a", 1)}), "desync"),
    ], ids=["huge-prefix", "oversize", "truncated", "not-utf8",
            "not-object", "wrong-id"])
    def test_unreadable_reply_abandons_the_connection(self, data, match):
        fake = ScriptedServer([data])
        try:
            connection = connect(fake.dsn)
            connection._sock.settimeout(TIMEOUT)
            cursor = connection.cursor()
            cursor.execute("SELECT ID, NAME FROM T")
            if match == "mid-frame":
                # The peer must hang up for a short read to be EOF.
                threading.Timer(0.2, fake.listener.close).start()
                connection._sock.settimeout(1.0)
            with pytest.raises((InterfaceError, connection.OperationalError),
                               match=match + "|lost"):
                cursor.fetchall()
            with pytest.raises(InterfaceError, match="closed"):
                cursor.fetchall()
        finally:
            fake.close()
