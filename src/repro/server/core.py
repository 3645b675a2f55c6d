"""The network-facing DSP server (DESIGN.md §13).

The paper's DSP was a *server* fronting many JDBC clients; this module
is that boundary for the reproduction: an asyncio TCP server speaking
the length-prefixed JSON frame protocol (``repro.server.protocol``) and
exposing the PEP 249 surface of the embedded driver over the wire.

Architecture:

* One asyncio event loop owns every socket. Blocking engine work
  (execute, fetch, metadata, stats) runs on the default thread-pool
  executor, so a slow query never stalls other sessions' frames; each
  connection's requests are handled strictly in order (no pipelining),
  which is exactly the embedded cursor's threading contract.
* One **session** per authenticated connection: a bearer-token
  handshake (``hello``) binds the connection to a tenant and opens a
  per-session embedded :class:`repro.driver.dbapi.Connection` to that
  tenant's runtime. Sessions are registered so an out-of-band ``cancel``
  frame — sent on a *fresh* connection, the way the Postgres wire
  protocol cancels — can reach an in-flight query by session id +
  secret while the session's own socket is blocked in a fetch.
* Results page through the embedded **lazy cursor**: ``fetch`` pulls at
  most ``max_page_rows`` rows per frame, so server memory stays
  O(page) regardless of result size; the client re-issues ``fetch``
  until the server reports exhaustion. A page is a slice of the
  engine's delimited text (``Cursor.fetch_text``): the server counts
  its rows — for ``max_page_rows``, the quotas and ``rowcount`` — and
  converts none; decoding happens once, at the client (the paper's §4).
* **Tenant quotas**: each tenant has an admission gate
  (:class:`repro.engine.AdmissionController`, the runtime's class) above
  the runtime's own. The tenant's slot is claimed before the runtime's,
  without queueing; rows are charged to it as pages are served, and
  per-execute deadlines are clamped to its ceiling. Where the tenant's
  gate rejects, the server counts ``server.quota_rejections`` and says
  "tenant quota:" in the ``AdmissionRejectedError``, which crosses the
  wire as ``OperationalError``, same as embedded admission.
"""

from __future__ import annotations

import asyncio
import hmac
import itertools
import logging
import secrets
import threading
from dataclasses import dataclass, field
from typing import Optional

from .. import clock
from ..config import RuntimeConfig
from ..driver.dbapi import Connection
from ..engine.dsp import DSPRuntime
from ..engine.lifecycle import AdmissionController, AdmissionSlot
from ..errors import (
    AdmissionRejectedError,
    Error,
    InterfaceError,
    InternalError,
    OperationalError,
    ReproError,
    to_driver_error,
)
from ..obs import MetricsRegistry
from .protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    _LENGTH,
    decode_row,
    encode_description,
    encode_error,
    pack_frame,
    unpack_payload,
)

_LOG = logging.getLogger(__name__)

#: Rows the server will serve in one ``fetch`` frame at most, whatever
#: the client asks for — the lazy cursor keeps memory O(page).
DEFAULT_MAX_PAGE_ROWS = 10_000


@dataclass
class TenantConfig:
    """One tenant the server fronts: a runtime, a bearer token, and the
    admission gate protecting other tenants from it (by default
    unbounded)."""

    name: str
    runtime: DSPRuntime
    token: str
    quota: AdmissionController = field(
        default_factory=AdmissionController)
    #: Base config for this tenant's per-session embedded connections
    #: (``format``/``default_timeout`` from the handshake override it).
    config: RuntimeConfig = field(default_factory=RuntimeConfig)


class _ServerCursor:
    """A session's server-side cursor: the embedded cursor plus the
    tenant-gate slot its current statement holds."""

    __slots__ = ("cursor", "slot")

    def __init__(self, cursor):
        self.cursor = cursor
        self.slot: Optional[AdmissionSlot] = None

    def release_slot(self) -> None:
        if self.slot is not None:
            slot, self.slot = self.slot, None
            slot.release()

    def close(self) -> None:
        self.release_slot()
        self.cursor.close()


class _Session:
    """One authenticated connection's state."""

    __slots__ = ("id", "secret", "tenant", "connection", "cursors",
                 "_cursor_ids")

    def __init__(self, session_id: str, tenant: TenantConfig,
                 connection: Connection):
        self.id = session_id
        self.secret = secrets.token_hex(16)
        self.tenant = tenant
        self.connection = connection
        self.cursors: dict[int, _ServerCursor] = {}
        self._cursor_ids = itertools.count(1)

    def cursor_for(self, cursor_id: Optional[int]) -> tuple[int,
                                                            _ServerCursor]:
        """Get or create the server cursor for an ``execute`` frame.

        A fresh id is allocated when the client sends none; a known id
        reuses its cursor (re-execute); an id the server dropped (e.g.
        after a quota abort) is recreated under the same number so the
        client object stays usable.
        """
        if cursor_id is None:
            cursor_id = next(self._cursor_ids)
        cursor = self.cursors.get(cursor_id)
        if cursor is None:
            cursor = _ServerCursor(self.connection.cursor())
            self.cursors[cursor_id] = cursor
        return cursor_id, cursor

    def cancel_cursor(self, cursor_id: Optional[int]) -> bool:
        """Flag cancellation on one cursor (or every cursor when the
        frame names none); safe from any thread."""
        targets = ([self.cursors[cursor_id]]
                   if cursor_id is not None and cursor_id in self.cursors
                   else list(self.cursors.values())
                   if cursor_id is None else [])
        for cursor in targets:
            cursor.cursor.cancel()
        return bool(targets)

    def teardown(self) -> None:
        """Release everything the session holds: cancel whatever is in
        flight, close every cursor (dropping live streams, returning
        the runtime's admission slots) and release every tenant-gate
        slot."""
        for cursor in self.cursors.values():
            cursor.cursor.cancel()
        for cursor in self.cursors.values():
            try:
                cursor.close()
            except ReproError:  # a failing close must not leak the rest
                pass
        self.cursors.clear()
        self.connection.close()


class DSPServer:
    """The asyncio TCP server hosting one or more tenants.

    Lifecycle: ``await start()`` binds the socket (``port=0`` picks a
    free port, readable from :attr:`port` afterwards), ``await stop()``
    closes the listener and tears down every live session. For blocking
    callers (tests, the CLI, the shell) see :func:`serve_in_thread`.
    """

    def __init__(self, tenants, host: str = "127.0.0.1", port: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 max_frame: int = MAX_FRAME,
                 max_page_rows: int = DEFAULT_MAX_PAGE_ROWS):
        if isinstance(tenants, TenantConfig):
            tenants = [tenants]
        if not isinstance(tenants, dict):
            tenants = {tenant.name: tenant for tenant in tenants}
        if not tenants:
            raise ValueError("a server needs at least one tenant")
        self.tenants: dict[str, TenantConfig] = dict(tenants)
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_frame = max_frame
        self.max_page_rows = max_page_rows
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: dict[str, _Session] = {}
        self._session_ids = itertools.count(1)
        #: The per-connection handler tasks now running; ``stop()``
        #: cancels and awaits them, so none is left pending when the
        #: loop stops.
        self._handlers: set[asyncio.Task] = set()
        self._started_at: Optional[float] = None
        m = self.metrics
        self._c_connections = m.counter("server.connections")
        self._c_sessions = m.counter("server.sessions")
        self._c_executes = m.counter("server.executes")
        self._c_fetches = m.counter("server.fetches")
        self._c_rows = m.counter("server.rows_served")
        self._c_cancels = m.counter("server.cancels")
        self._c_errors = m.counter("server.errors")
        self._c_quota_rejections = m.counter("server.quota_rejections")
        self._c_auth_failures = m.counter("server.auth_failures")
        self._c_protocol_errors = m.counter("server.protocol_errors")
        self._c_bytes_in = m.counter("server.bytes_received")
        self._c_bytes_out = m.counter("server.bytes_sent")
        self._h_execute = m.histogram("server.execute_seconds")
        self._h_fetch = m.histogram("server.fetch_seconds")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "DSPServer":
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = clock.monotonic()
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # A client still connected has a handler waiting on its socket:
        # cancelling it runs the handler's own clean-up (session
        # teardown, socket shutdown) before the loop goes away.
        handlers = list(self._handlers)
        for handler in handlers:
            handler.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        sessions = list(self._sessions.values())
        self._sessions.clear()
        loop = asyncio.get_running_loop()
        for session in sessions:
            await loop.run_in_executor(None, session.teardown)

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- connection handling -----------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader) \
            -> Optional[dict]:
        """One frame, or None on a clean EOF between frames."""
        try:
            header = await reader.readexactly(_LENGTH.size)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise InterfaceError(
                    "connection closed mid-frame") from None
            return None
        (length,) = _LENGTH.unpack(header)
        if length > self.max_frame:
            raise InterfaceError(
                f"protocol frame of {length} bytes exceeds the "
                f"{self.max_frame}-byte limit")
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise InterfaceError("connection closed mid-frame") from None
        self._c_bytes_in.add(_LENGTH.size + length)
        return unpack_payload(payload)

    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict) -> None:
        data = pack_frame(message)
        writer.write(data)
        self._c_bytes_out.add(len(data))
        await writer.drain()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._c_connections.increment()
        session: Optional[_Session] = None
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while True:
                try:
                    message = await self._read_frame(reader)
                except InterfaceError:
                    self._c_protocol_errors.increment()
                    return
                if message is None:
                    return
                op = message.get("op")
                reply = {"id": message.get("id")}
                try:
                    if op == "hello":
                        if session is not None:
                            raise InterfaceError("already authenticated")
                        session = await self._hello(message)
                        reply.update(ok=True, session=session.id,
                                     secret=session.secret,
                                     protocol=PROTOCOL_VERSION)
                    elif op == "health":
                        reply.update(ok=True, **self._health())
                    elif op == "cancel":
                        reply.update(ok=True,
                                     cancelled=self._cancel(message))
                    elif op == "close":
                        if session is not None:
                            closing, session = session, None
                            await self._teardown(closing)
                        reply.update(ok=True)
                        await self._send(writer, reply)
                        return
                    elif session is None:
                        raise InterfaceError(
                            f"operation {op!r} requires a hello "
                            f"handshake first")
                    elif op in ("execute", "executemany"):
                        reply.update(ok=True,
                                     **await self._execute(session,
                                                           message))
                    elif op == "fetch":
                        reply.update(ok=True,
                                     **await self._fetch(session,
                                                         message))
                    elif op == "close_cursor":
                        await self._close_cursor(session, message)
                        reply.update(ok=True)
                    elif op == "metadata":
                        reply.update(ok=True,
                                     **await self._metadata(session,
                                                            message))
                    elif op == "stats":
                        reply.update(ok=True,
                                     stats=await self._stats(session))
                    elif op in ("begin", "commit", "rollback",
                                "autocommit"):
                        reply.update(ok=True,
                                     **await self._txn(session,
                                                       message))
                    else:
                        raise InterfaceError(
                            f"unknown operation {op!r}")
                except Error as exc:
                    reply = self._error_reply(message, exc)
                except ReproError as exc:
                    reply = self._error_reply(message,
                                              to_driver_error(exc))
                except Exception as exc:
                    # A bug, or a field of a type no check anticipated
                    # (frames are outside input): this boundary keeps
                    # serving — the caller gets an answer, the session
                    # and every other session go on.
                    _LOG.exception("unhandled error serving %r", op)
                    reply = self._error_reply(message, InternalError(
                        f"{type(exc).__name__}: {exc}"))
                await self._send(writer, reply)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._handlers.discard(handler)
            if session is not None:
                await self._teardown(session)
            try:
                # Half-close first: a shutdown shows the peer an end of
                # stream even when another process (one forked while
                # this connection was open) still holds a copy of the
                # socket, which closing ours alone would not.
                if writer.can_write_eof():
                    writer.write_eof()
            except (ConnectionError, OSError, RuntimeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _teardown(self, session: _Session) -> None:
        self._sessions.pop(session.id, None)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, session.teardown)

    # -- verbs ---------------------------------------------------------------

    async def _hello(self, message: dict) -> _Session:
        if message.get("protocol") != PROTOCOL_VERSION:
            raise InterfaceError(
                f"protocol version mismatch: server speaks "
                f"{PROTOCOL_VERSION}, client sent "
                f"{message.get('protocol')!r}")
        tenant_name = message.get("tenant")
        token = message.get("token") or ""
        tenant = self.tenants.get(tenant_name)
        if tenant is None or not hmac.compare_digest(str(token),
                                                     tenant.token):
            self._c_auth_failures.increment()
            # One message for both failures: don't confirm tenant names
            # to unauthenticated callers.
            raise OperationalError(
                f"authentication failed for tenant {tenant_name!r}")
        project = message.get("project") or ""
        if project and project not in tenant.runtime.application.projects:
            raise InterfaceError(
                f"application {tenant_name!r} has no project "
                f"{project!r}")
        config = tenant.config
        fmt = message.get("format")
        if fmt is not None:
            config = config.replace(format=fmt)
        loop = asyncio.get_running_loop()
        connection = await loop.run_in_executor(
            None, lambda: Connection(tenant.runtime, config=config))
        session = _Session(f"s{next(self._session_ids)}", tenant,
                           connection)
        self._sessions[session.id] = session
        self._c_sessions.increment()
        return session

    def _health(self) -> dict:
        from .. import __version__
        uptime = (clock.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        return {
            "protocol": PROTOCOL_VERSION,
            "server_version": __version__,
            "uptime_seconds": uptime,
            "sessions": len(self._sessions),
            "tenants": sorted(self.tenants),
        }

    def _cancel(self, message: dict) -> bool:
        """Out-of-band cancellation: a fresh, unauthenticated connection
        proves knowledge of the session secret instead of the token."""
        self._c_cancels.increment()
        session = self._sessions.get(message.get("session"))
        if session is None:
            return False
        secret = str(message.get("secret") or "")
        if not hmac.compare_digest(secret, session.secret):
            self._c_auth_failures.increment()
            return False
        return session.cancel_cursor(message.get("cursor"))

    async def _execute(self, session: _Session, message: dict) -> dict:
        many = message.get("op") == "executemany"
        sql = message.get("sql")
        if not isinstance(sql, str):
            raise InterfaceError("execute frame carries no sql string")
        timeout = message.get("timeout")
        if many:
            param_sets = [decode_row(row)
                          for row in message.get("param_sets", [])]
            params = None
        else:
            params = decode_row(message.get("params", []))
            param_sets = None
        cursor_id, cursor = session.cursor_for(message.get("cursor"))
        started = clock.monotonic()

        def run():
            quota = session.tenant.quota
            # The previous statement's tenant hold ends here — the
            # embedded execute below likewise drops its old stream.
            cursor.release_slot()
            try:
                slot = quota.acquire()
            except AdmissionRejectedError as exc:
                raise self._quota_rejection(exc) from None
            try:
                if many:
                    cursor.cursor.executemany(
                        sql, param_sets,
                        timeout=quota.clamp_timeout(timeout))
                else:
                    cursor.cursor.execute(
                        sql, params,
                        timeout=quota.clamp_timeout(timeout))
            except BaseException:
                slot.release()
                raise
            if cursor.cursor.columns is None:
                slot.release()  # a write: nothing is left to stream
            else:
                cursor.slot = slot

        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, run)
        except BaseException:
            self._drop_cursor_on_error(session, cursor_id)
            raise
        self._c_executes.increment()
        self._h_execute.observe(clock.monotonic() - started)
        columns = cursor.cursor.columns
        return {
            "cursor": cursor_id,
            "description": None if columns is None
            else encode_description(columns),
            "rowcount": cursor.cursor.rowcount,
            "lastrowid": cursor.cursor.lastrowid,
            # A DML execute may have opened an implicit transaction
            # (autocommit off); echo the state so the client mirror
            # tracks it without an extra round trip.
            "in_transaction": session.connection.in_transaction,
        }

    async def _fetch(self, session: _Session, message: dict) -> dict:
        cursor = session.cursors.get(message.get("cursor"))
        if cursor is None:
            raise InterfaceError(
                f"no open cursor {message.get('cursor')!r} in this "
                f"session")
        want = message.get("rows")
        if not isinstance(want, int) or want < 1:
            raise InterfaceError(f"bad fetch row count {want!r}")
        page = min(want, self.max_page_rows)
        started = clock.monotonic()

        def run():
            # The cursor says when the result is over — a page cut from
            # the stream knows it as soon as the text ends, so the last
            # full page already reports it (and the final rowcount) and
            # saves the client an empty round trip.
            text, rows, exhausted = cursor.cursor.fetch_text(page)
            if rows and cursor.slot is not None:
                # Tenant in-flight accounting; a breached budget aborts
                # this query (stream dropped, slots released) without
                # touching the session's other cursors.
                try:
                    cursor.slot.note_rows(rows)
                except AdmissionRejectedError as exc:
                    raise self._quota_rejection(exc) from None
            if exhausted:
                cursor.release_slot()
            return text, rows, exhausted, cursor.cursor.rowcount

        loop = asyncio.get_running_loop()
        try:
            text, rows, exhausted, rowcount = \
                await loop.run_in_executor(None, run)
        except BaseException:
            self._drop_cursor_on_error(session,
                                       message.get("cursor"))
            raise
        self._c_fetches.increment()
        self._c_rows.add(rows)
        self._h_fetch.observe(clock.monotonic() - started)
        return {
            "text": text,
            "rows": rows,
            "exhausted": exhausted,
            "rowcount": rowcount,
        }

    def _drop_cursor_on_error(self, session: _Session,
                              cursor_id) -> None:
        """A failed execute/fetch leaves the server cursor unusable
        (its stream is gone); drop it so a later re-execute under the
        same id starts fresh, and return every hold it still has."""
        cursor = session.cursors.pop(cursor_id, None)
        if cursor is not None:
            try:
                cursor.close()
            except ReproError:
                pass

    async def _close_cursor(self, session: _Session,
                            message: dict) -> None:
        cursor = session.cursors.pop(message.get("cursor"), None)
        if cursor is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, cursor.close)

    async def _metadata(self, session: _Session, message: dict) -> dict:
        kind = message.get("kind")
        metadata = session.connection.metadata

        def run():
            if kind == "catalogs":
                return metadata.catalogs()
            if kind == "schemas":
                return metadata.schemas()
            if kind == "tables":
                return metadata.tables(message.get("schema"))
            if kind == "procedures":
                return metadata.procedures(message.get("schema"))
            if kind == "columns":
                return metadata.columns(message.get("table"),
                                        message.get("schema"))
            if kind == "procedure_columns":
                return metadata.procedure_columns(message.get("name"),
                                                  message.get("schema"))
            raise InterfaceError(f"unknown metadata kind {kind!r}")

        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(None, run)
        return {"result": [list(item) if isinstance(item, tuple)
                           else item for item in result]}

    async def _stats(self, session: _Session) -> dict:
        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(
            None, session.connection.stats)
        server_section = self.metrics.section("server.")
        server_section["sessions"] = len(self._sessions)
        server_section["tenant"] = dict(
            session.tenant.quota.stats(), name=session.tenant.name)
        snapshot["server"] = server_section
        return snapshot

    async def _txn(self, session: _Session, message: dict) -> dict:
        """Transaction demarcation verbs: delegate to the
        session's embedded connection on the executor — commit and
        rollback fan out to enlisted sources and may block. The reply
        echoes the connection's post-verb transaction state so the
        remote connection mirrors the embedded one without guessing."""
        op = message.get("op")
        connection = session.connection

        def run():
            if op == "begin":
                connection.begin()
            elif op == "commit":
                connection.commit()
            elif op == "rollback":
                connection.rollback()
            else:  # autocommit
                connection.autocommit = bool(message.get("enabled"))
            return {"autocommit": connection.autocommit,
                    "in_transaction": connection.in_transaction}

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, run)

    def _quota_rejection(self, exc: AdmissionRejectedError) \
            -> AdmissionRejectedError:
        """Count a rejection by a tenant's gate: the error to raise in
        its place names the quota."""
        self._c_quota_rejections.increment()
        return AdmissionRejectedError(f"tenant quota: {exc}")

    def _error_reply(self, message: dict, exc: Error) -> dict:
        """Count *exc* and put it in the reply to *message*."""
        self._c_errors.increment()
        return {"id": message.get("id"), "ok": False,
                "error": encode_error(exc)}


# ---------------------------------------------------------------------------
# Blocking embedding helper
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on its own event-loop thread (tests, the CLI
    smoke harness, notebooks). ``stop()`` is idempotent and joins the
    thread, so no orphaned listener survives the caller."""

    def __init__(self, server: DSPServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def dsn(self, application: str, project: str = "",
            token: str = "") -> str:
        """A ready-to-connect ``repro+tcp://`` DSN for this server."""
        host, port = self.address
        path = "/".join(p for p in (application, project) if p)
        query = f"?token={token}" if token else ""
        return f"repro+tcp://{host}:{port}/{path}{query}"

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop.is_closed():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self._loop)
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(tenants, host: str = "127.0.0.1", port: int = 0,
                    **kwargs) -> ServerHandle:
    """Start a :class:`DSPServer` on a daemon thread and return its
    handle once the socket is bound (the port is final)."""
    server = DSPServer(tenants, host=host, port=port, **kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def boot():
            try:
                await server.start()
            except BaseException as exc:  # surface bind errors caller-side
                failure.append(exc)
            finally:
                started.set()

        loop.run_until_complete(boot())
        if not failure:
            loop.run_forever()
        loop.close()

    thread = threading.Thread(target=run, name="repro-server",
                              daemon=True)
    thread.start()
    started.wait()
    if failure:
        thread.join()
        raise failure[0]
    return ServerHandle(server, loop, thread)
