"""The remote PEP 249 driver: the embedded surface over a TCP wire.

``repro.connect("repro+tcp://host:port/app/project?token=...")`` lands
here. The contract is symmetry, and it holds by construction: a
:class:`RemoteConnection` and a :class:`RemoteCursor` subclass the
embedded driver's :class:`~repro.driver.dbapi.BaseConnection` and
:class:`~repro.driver.dbapi.BaseCursor`, so the fetches, the row
buffer, ``description`` / ``columns``, the exception attributes, the
transaction verbs and the context managers are the embedded driver's
own code. What is here is the transport: ``execute`` and the
transaction verbs (``autocommit``, ``begin``/``commit``/``rollback``)
travel as protocol verbs to the server's per-session embedded
connection, and a cursor's ``_pull`` is one ``fetch`` round trip — so
application code cannot tell (and need not care) which side of the
network boundary the engine is on.

Transport notes:

* One blocking socket per connection, one request in flight at a time
  (a lock serializes callers — ``threadsafety`` stays 2 at module
  level: share the connection, use one cursor per thread).
* ``Cursor.cancel()`` must work *while* the socket is blocked in an
  execute/fetch, so it opens a fresh short-lived connection and sends
  an out-of-band ``cancel`` frame proving the session secret — the
  Postgres wire-protocol pattern.
* A result page arrives as a slice of the engine's delimited text and
  is decoded here, once, by the decoder the embedded cursor runs
  (``repro.driver.codec``) against the column kinds the execute reply
  carried — so fetches return exactly the Python objects the embedded
  cursor would, and the server converts no cell (the paper's §4).
"""

from __future__ import annotations

import socket
import threading
from typing import Iterable, Optional, Sequence

from .. import clock
from ..config import RuntimeConfig
from ..errors import Error, InterfaceError, OperationalError
from ..obs import MetricsRegistry, Tracer
from ..server.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    _LENGTH,
    encode_row,
    raise_error,
    recv_frame,
    recv_payload,
    send_frame,
    unpack_payload,
)
from ..sql.types import SQLType
from ..translator import ResultColumn
from .codec import decode_delimited
from .dbapi import DEFAULT_FETCH_PAGE, BaseConnection, BaseCursor
from .dsn import DSN


class RemoteConnection(BaseConnection):
    """A PEP 249 connection to a ``repro.server`` tenant."""

    def __init__(self, dsn: DSN, config: Optional[RuntimeConfig] = None,
                 *, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(config, tracer=tracer, metrics=metrics)
        config = self.config
        self.dsn = dsn
        self._rows_fetched = self.metrics.counter("rows.fetched")
        self._roundtrips = self.metrics.counter("wire.roundtrips")
        self._bytes_received = self.metrics.counter("wire.bytes_received")
        self._roundtrip_seconds = self.metrics.histogram(
            "wire.roundtrip_seconds")
        self._lock = threading.Lock()
        self._request_ids = iter(range(1, 1 << 62))
        self._session: Optional[str] = None
        self._secret: Optional[str] = None
        # Client-side mirror of the server session's transaction state;
        # every txn verb reply and every execute reply refreshes it.
        self._autocommit = True
        self._in_transaction = False
        host, port = dsn.address
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=config.remote_connect_timeout)
        except OSError as exc:
            raise OperationalError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        try:
            # The handshake stays under the connect timeout; established
            # traffic is bounded by server-side deadlines instead.
            reply = self._request({
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "tenant": dsn.application,
                "project": dsn.project,
                "token": dsn.token,
                "format": config.format,
            })
            self._session = reply["session"]
            self._secret = reply["secret"]
            self._sock.settimeout(None)
        except BaseException:
            self._sock.close()
            raise

    # -- wire ----------------------------------------------------------------

    def _request(self, message: dict) -> dict:
        """One request/response round trip (serialized)."""
        with self._lock:
            if self._closed:
                raise InterfaceError("connection is closed")
            message["id"] = next(self._request_ids)
            started = clock.monotonic()
            with self.tracer.span("wire.request", op=message["op"]):
                try:
                    send_frame(self._sock, message)
                    payload = recv_payload(self._sock, MAX_FRAME)
                    reply = unpack_payload(payload)
                except InterfaceError:
                    self._abandon()
                    raise
                except OSError as exc:
                    self._abandon()
                    raise OperationalError(
                        f"connection to {self.dsn.display()} lost: "
                        f"{exc}") from exc
            self._roundtrips.increment()
            self._bytes_received.add(_LENGTH.size + len(payload))
            self._roundtrip_seconds.observe(clock.monotonic() - started)
        if reply.get("id") != message["id"]:
            with self._lock:
                self._abandon()
            raise InterfaceError(
                f"protocol desync: sent request {message['id']}, "
                f"got reply for {reply.get('id')!r}")
        if not reply.get("ok"):
            raise_error(reply.get("error"))
        return reply

    def _abandon(self) -> None:
        """The socket state is unknown (IO error, desync): the
        connection is unusable from here on. Caller holds the lock."""
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    # -- PEP 249 surface -----------------------------------------------------

    def cursor(self) -> "RemoteCursor":
        self._check_open()
        return RemoteCursor(self)

    @property
    def autocommit(self) -> bool:
        """Whether statements commit immediately (the driver default).
        Assigning sends the ``autocommit`` verb; switching it on with a
        transaction open commits that transaction first, matching the
        embedded connection."""
        return self._autocommit

    @autocommit.setter
    def autocommit(self, enabled: bool) -> None:
        self._check_open()
        self._adopt_txn_state(self._request(
            {"op": "autocommit", "enabled": bool(enabled)}))

    @property
    def in_transaction(self) -> bool:
        """True while the server session has an explicit (or implicit)
        transaction open for this connection."""
        return self._in_transaction

    def _demarcate(self, verb: str) -> None:
        self._adopt_txn_state(self._request({"op": verb}))

    def _adopt_txn_state(self, reply: dict) -> None:
        if "autocommit" in reply:
            self._autocommit = bool(reply["autocommit"])
        if "in_transaction" in reply:
            self._in_transaction = bool(reply["in_transaction"])

    def close(self) -> None:
        """Send a best-effort goodbye and close the socket. Idempotent;
        the server releases the session's cursors, admission slots, and
        tenant-quota holds either way (a vanished client must never pin
        server resources)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.settimeout(2.0)
                send_frame(self._sock, {"op": "close", "id": 0})
                recv_frame(self._sock, MAX_FRAME)
            except (OSError, InterfaceError):
                pass
            finally:
                try:
                    self._sock.close()
                except OSError:
                    pass

    # -- driver extensions ---------------------------------------------------

    @property
    def metadata(self) -> "RemoteMetaData":
        """The ``DatabaseMetaData`` analogue, proxied over the wire."""
        self._check_open()
        return RemoteMetaData(self)

    def stats(self) -> dict:
        """The server-side session stats document (the same shape as an
        embedded ``Connection.stats()``, plus a ``server`` section) with
        this side's wire metrics under ``client``."""
        self._check_open()
        snapshot = self._request({"op": "stats"})["stats"]
        snapshot["client"] = self.metrics.snapshot()
        return snapshot

    def server_health(self) -> dict:
        """The server's unauthenticated ``health`` document."""
        self._check_open()
        reply = self._request({"op": "health"})
        return {key: value for key, value in reply.items()
                if key not in ("id", "ok")}

    def _cancel_out_of_band(self, cursor_id: Optional[int]) -> None:
        """Open a fresh connection and cancel a statement on this
        session; never raises (cancellation is advisory)."""
        if self._session is None:
            return
        try:
            host, port = self.dsn.address
            with socket.create_connection(
                    (host, port),
                    timeout=self.config.remote_connect_timeout) as sock:
                send_frame(sock, {"op": "cancel", "id": 1,
                                  "session": self._session,
                                  "secret": self._secret,
                                  "cursor": cursor_id})
                recv_frame(sock, MAX_FRAME)
        except (OSError, InterfaceError, Error):
            pass


class RemoteMetaData:
    """Metadata discovery over the wire (``conn.metadata.tables()``),
    mirroring :class:`repro.driver.metadata.DatabaseMetaData` including
    its callable-instance and ``get_`` aliases."""

    def __init__(self, connection: RemoteConnection):
        self._connection = connection

    def __call__(self) -> "RemoteMetaData":
        return self

    def _fetch(self, kind: str, **args) -> list:
        reply = self._connection._request(
            {"op": "metadata", "kind": kind, **args})
        return [tuple(item) if isinstance(item, list) else item
                for item in reply["result"]]

    def catalogs(self) -> list:
        return self._fetch("catalogs")

    def schemas(self) -> list:
        return self._fetch("schemas")

    def tables(self, schema: Optional[str] = None) -> list:
        return self._fetch("tables", schema=schema)

    def procedures(self, schema: Optional[str] = None) -> list:
        return self._fetch("procedures", schema=schema)

    def columns(self, table: str, schema: Optional[str] = None) -> list:
        return self._fetch("columns", table=table, schema=schema)

    def procedure_columns(self, name: str,
                          schema: Optional[str] = None) -> list:
        return self._fetch("procedure_columns", name=name, schema=schema)

    get_catalogs = catalogs
    get_schemas = schemas
    get_tables = tables
    get_procedures = procedures
    get_columns = columns
    get_procedure_columns = procedure_columns


def _decode_columns(wire) -> Optional[list[ResultColumn]]:
    """The result schema an execute reply describes (None for DML):
    what the cursor's ``description`` is built from and what every page
    of the result is decoded by."""
    if wire is None:
        return None
    try:
        columns = [ResultColumn(label, label,
                                SQLType(kind, precision, scale), nullable)
                   for label, kind, precision, scale, nullable in wire]
        if all(isinstance(column.sql_type.kind, str)
               for column in columns):
            return columns
    except (TypeError, ValueError):
        pass
    raise InterfaceError(f"malformed result description {wire!r}")


class RemoteCursor(BaseCursor):
    """A PEP 249 cursor whose result set lives server-side.

    ``execute()`` runs the statement on the server (which starts the
    lazy stream there); a pull is one ``fetch`` round trip for a page
    of at most the rows asked for — ``max(rows missing, arraysize)``
    for ``fetchone`` / ``fetchmany``, ``max(arraysize,
    DEFAULT_FETCH_PAGE)`` for iteration and ``fetchall`` — so both
    sides stay O(page) and ``arraysize`` tunes the wire granularity the
    way it tunes embedded batch decoding.
    """

    def __init__(self, connection: RemoteConnection):
        super().__init__(connection)
        self._cursor_id: Optional[int] = None
        #: True while an execute request of this cursor is on the wire:
        #: until its reply assigns a cursor id, ``cancel()`` can only
        #: address the statement through the session.
        self._executing = False
        self._exhausted = True

    # -- execution -----------------------------------------------------------

    def execute(self, operation: str, parameters: Sequence = (), *,
                timeout: Optional[float] = None) -> "RemoteCursor":
        return self._execute_op({
            "op": "execute",
            "sql": operation,
            "params": encode_row(parameters),
        }, timeout)

    def executemany(self, operation: str,
                    seq_of_parameters: Iterable[Sequence], *,
                    timeout: Optional[float] = None) -> "RemoteCursor":
        return self._execute_op({
            "op": "executemany",
            "sql": operation,
            "param_sets": [encode_row(parameters)
                           for parameters in seq_of_parameters],
        }, timeout)

    def callproc(self, procname: str,
                 parameters: Sequence = ()) -> Sequence:
        """Call a parameterized data service function; the server routes
        the JDBC escape form through its embedded ``callproc``."""
        markers = ", ".join(["?"] * len(parameters))
        self.execute(f"{{call {procname}({markers})}}", parameters)
        return parameters

    def _execute_op(self, message: dict,
                    timeout: Optional[float]) -> "RemoteCursor":
        self._check_open()
        connection = self.connection
        if timeout is None:
            timeout = connection.default_timeout
        message["timeout"] = timeout
        if self._cursor_id is not None:
            message["cursor"] = self._cursor_id
        self._executing = True
        try:
            with connection.tracer.span("execute", sql=message["sql"]):
                reply = connection._request(message)
        finally:
            self._executing = False
        connection._queries_executed.increment()
        self._cursor_id = reply["cursor"]
        self._set_description(_decode_columns(reply["description"]))
        self.rowcount = reply["rowcount"]
        self.lastrowid = reply.get("lastrowid")
        connection._adopt_txn_state(reply)
        self._rows = []
        self._index = 0
        self._exhausted = False
        return self

    def cancel(self) -> None:
        """Cancel the statement in flight (safe from any thread, even
        while this cursor's connection is blocked inside a fetch): the
        cancel frame travels out-of-band on its own connection. A
        first ``execute`` that has not been answered yet has no cursor
        id to name, so the frame names none and the server cancels the
        session's cursors — the one running this statement among them.
        A cursor that never executed sends nothing."""
        if self._cursor_id is not None or self._executing:
            self.connection._cancel_out_of_band(self._cursor_id)

    # -- fetching ------------------------------------------------------------

    def _more(self) -> bool:
        return not self._exhausted

    def _pull(self, limit: Optional[int], rows: list) -> None:
        """One fetch round trip for up to *limit* more rows (a page of
        ``max(arraysize, DEFAULT_FETCH_PAGE)`` when None). The page is
        a complete delimited stream of its own (the server cuts on row
        boundaries), decoded here against the cursor's columns; a page
        that does not hold the rows it claims is a protocol error, and
        the result is given up rather than read on past a gap."""
        if limit is None:
            limit = max(self.arraysize, DEFAULT_FETCH_PAGE)
        reply = self.connection._request({
            "op": "fetch",
            "cursor": self._cursor_id,
            "rows": limit,
        })
        text, claimed = reply.get("text"), reply.get("rows")
        try:
            if not isinstance(text, str):
                raise InterfaceError(
                    f"fetch reply carries no page text: {text!r}")
            page = decode_delimited(text, self._columns)
            if len(page) != claimed:
                raise InterfaceError(
                    f"fetch reply claims {claimed!r} rows, its text "
                    f"holds {len(page)}")
        except Error:
            self._exhausted = True
            raise
        self.connection._rows_fetched.add(len(page))
        # Known from the first page of a materialized result, from the
        # last page of a streamed one.
        if reply["rowcount"] >= 0:
            self.rowcount = reply["rowcount"]
        if reply["exhausted"]:
            self._exhausted = True
        rows += page

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        cursor_id, self._cursor_id = self._cursor_id, None
        self._rows = []
        self._index = 0
        self._set_description(None)
        if cursor_id is not None and not self.connection._closed:
            try:
                self.connection._request({"op": "close_cursor",
                                          "cursor": cursor_id})
            except (Error, OSError):
                pass  # best effort: the session teardown also releases
