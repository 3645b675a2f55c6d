"""PEP 249 (DB-API 2.0) driver over the DSP runtime — the JDBC analogue.

``connect(runtime)`` opens a connection whose cursors accept SQL-92
SELECT statements, translate them to XQuery (section 3), execute them on
the DSP runtime, and decode results through either of the two section-4
result paths (``format="delimited"`` — the paper's optimized text
encoding — or ``format="xml"`` — materialize and re-parse XML).

INSERT/UPDATE/DELETE never reach the XQuery generator: they compile to
source-level mutation plans (``repro.engine.dml``) and run through the
connection's transaction manager (``repro.engine.txn``) — autocommit by
default, with ``begin()``/``commit()``/``rollback()`` and
``autocommit = False`` for multi-statement transactions.

Stored procedures (parameterized data service functions, Figure 2) are
reachable via ``Cursor.callproc``.
"""

from __future__ import annotations

import re
import threading
from functools import partial
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .. import clock, errors
from ..catalog import MetadataCache, ProcedureMetadata
from ..config import RuntimeConfig
from ..engine.dml import mutation_parameter_count, plan_mutation
from ..engine.dsp import DSPRuntime
from ..engine.lifecycle import AdmissionSlot, QueryContext
from ..engine.txn import TransactionManager
from ..obs import LRUCache, MetricsRegistry, Tracer
from ..errors import (
    AdmissionRejectedError,
    DataError,
    DatabaseError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    QueryCancelledError,
    QueryLifecycleError,
    QueryTimeoutError,
    ReproError,
    Warning,
    to_driver_error,
)
from ..sql import is_mutation, parse_mutation
from ..translator import (
    ResultColumn,
    SQLToXQueryTranslator,
    TranslationResult,
)
from ..xmlmodel import Element, serialize
from ..xquery.vector import PlanActuals
from .codec import (
    PageCutter,
    decode_delimited,
    decode_xml,
    encode_delimited,
    iter_decode_delimited,
    iter_rows,
)
from .dsn import DSN, parse_dsn
from .metadata import DatabaseMetaData

apilevel = "2.0"
#: Threads may share the module and connections (each thread should
#: still use its own cursor): the statement and metadata caches are
#: thread-safe single-flight LRUs (repro.obs).
threadsafety = 2
paramstyle = "qmark"

FORMATS = ("delimited", "xml")

#: Default bound on cached translations per connection.
DEFAULT_STATEMENT_CACHE_CAPACITY = 256

#: Rows a cursor pulls per step when the caller gives no better
#: granularity (iteration; a remote ``fetchall``).
DEFAULT_FETCH_PAGE = 1024

#: Version of the ``Connection.stats()`` document shape. Bump on any
#: breaking change to its sections so dashboards can detect drift.
#: v2 added the ``transactions`` section (the write path); v3 added the
#: grouped-aggregation runtime counters (``vector.agg_queries``,
#: ``vector.agg_groups``) to the ``runtime`` section's counter set; v4
#: removed the ``parallel.*`` counters and histogram from it.
STATS_SCHEMA_VERSION = 4

#: PEP 249 type objects.


class _TypeObject:
    def __init__(self, name: str, *kinds: str):
        self.name = name
        self._kinds = frozenset(kinds)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _TypeObject):
            return self._kinds == other._kinds
        return other in self._kinds

    def __hash__(self) -> int:
        return hash(self._kinds)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.name


STRING = _TypeObject("STRING", "CHAR", "VARCHAR")
NUMBER = _TypeObject("NUMBER", "SMALLINT", "INTEGER", "BIGINT", "DECIMAL",
                     "REAL", "DOUBLE")
DATETIME = _TypeObject("DATETIME", "DATE", "TIME", "TIMESTAMP")
BINARY = _TypeObject("BINARY")
ROWID = _TypeObject("ROWID")


def _type_object_for(kind: str) -> _TypeObject:
    for candidate in (STRING, NUMBER, DATETIME):
        if kind == candidate:
            return candidate
    return STRING


def describe(columns: Sequence[ResultColumn]) -> list[tuple]:
    """The PEP 249 ``description`` of a result schema (embedded and
    remote cursors build theirs here)."""
    return [
        (column.label, _type_object_for(column.sql_type.kind),
         None, None, column.sql_type.precision,
         column.sql_type.scale, column.nullable)
        for column in columns
    ]


#: Registered runtimes addressable by DSN application name.
_runtime_registry: dict[str, DSPRuntime] = {}
_registry_lock = threading.Lock()


def register_runtime(application: str, runtime: DSPRuntime) -> None:
    """Make *runtime* addressable as ``repro://<application>/...`` DSNs.

    Registration is process-wide (the analogue of a JDBC driver
    manager's URL table); re-registering a name replaces the previous
    runtime.
    """
    with _registry_lock:
        _runtime_registry[application] = runtime


def unregister_runtime(application: str) -> None:
    with _registry_lock:
        _runtime_registry.pop(application, None)


def _resolve_embedded(dsn: DSN) -> DSPRuntime:
    """Resolve an embedded (``repro://``) DSN against the registry."""
    application = dsn.application
    with _registry_lock:
        runtime = _runtime_registry.get(application)
    if runtime is None:
        # The demo application connects without prior registration, the
        # way a sample DSN works out of the box in most drivers.
        from ..workloads import APPLICATION, build_runtime
        if application == APPLICATION:
            runtime = build_runtime()
            register_runtime(application, runtime)
        else:
            raise InterfaceError(
                f"no runtime registered for application "
                f"{application!r}; call "
                f"repro.driver.register_runtime({application!r}, runtime) "
                f"first")
    if dsn.project and dsn.project not in runtime.application.projects:
        raise InterfaceError(
            f"application {application!r} has no project "
            f"{dsn.project!r}")
    return runtime


def connect(target: Union[DSPRuntime, str], *,
            format: Optional[str] = None,
            config: Optional[RuntimeConfig] = None,
            tracer: Optional[Tracer] = None,
            metrics: Optional[MetricsRegistry] = None):
    """Open a connection to a DSP (the JDBC ``getConnection``).

    *target* selects both the destination and the transport:

    * a :class:`DSPRuntime` instance — embedded, in-process;
    * ``repro://<application>/<project>?format=xml&timeout=5`` —
      embedded, resolved through :func:`register_runtime` (the demo
      application ``RTLApp`` resolves without registration);
    * ``repro+tcp://<host>:<port>/<application>/<project>?token=...`` —
      remote: the same PEP 249 surface served by a ``repro.server``
      instance over the wire (cursor semantics, exception classes, and
      ``stats()`` shape are identical).

    Tuning lives in *config* (a :class:`repro.RuntimeConfig`);
    precedence, lowest to highest, is config defaults → ``config=`` →
    DSN query parameters → the ``format`` keyword, which stays
    first-class because callers switch it constantly.
    ``config.default_timeout`` (seconds) bounds every statement executed
    on the connection unless ``Cursor.execute(..., timeout=...)``
    overrides it.
    """
    parsed: Optional[DSN] = None
    if isinstance(target, str):
        parsed = parse_dsn(target)
        runtime = None if parsed.remote else _resolve_embedded(parsed)
    elif isinstance(target, DSPRuntime):
        runtime = target
    else:
        raise InterfaceError(
            f"connect() takes a DSPRuntime, a repro:// DSN, or a "
            f"repro+tcp:// DSN string, got {type(target).__name__}")
    merged = (config or RuntimeConfig())
    if parsed is not None and parsed.options:
        merged = merged.replace(**parsed.options)
    if format is not None:
        merged = merged.replace(format=format)
    if parsed is not None and parsed.remote:
        from .remote import RemoteConnection
        return RemoteConnection(parsed, config=merged, tracer=tracer,
                                metrics=metrics)
    return Connection(runtime, config=merged, tracer=tracer,
                      metrics=metrics)


class BaseConnection:
    """The PEP 249 connection surface both transports share: the
    exception attributes, format validation, the tracer and metrics,
    the ``queries.executed`` counter, transaction demarcation over one
    :meth:`_demarcate` hook, and the context manager."""

    #: The full PEP 249 exception set as connection attributes (the
    #: optional "Connection.Error" extension), so multi-connection code
    #: can catch errors without importing the driver module.
    Warning = Warning
    Error = Error
    InterfaceError = InterfaceError
    DatabaseError = DatabaseError
    DataError = DataError
    OperationalError = OperationalError
    IntegrityError = IntegrityError
    InternalError = InternalError
    ProgrammingError = ProgrammingError
    NotSupportedError = NotSupportedError

    def __init__(self, config: Optional[RuntimeConfig], *,
                 tracer: Optional[Tracer],
                 metrics: Optional[MetricsRegistry]):
        config = config or RuntimeConfig()
        if config.format not in FORMATS:
            raise InterfaceError(
                f"unknown result format {config.format!r}; expected one "
                f"of {FORMATS}")
        #: The resolved driver configuration (read-only).
        self.config = config
        self.format = config.format
        #: Default per-statement deadline in seconds (None = unbounded);
        #: ``Cursor.execute(..., timeout=...)`` overrides per query.
        self.default_timeout = config.default_timeout
        #: Per-connection observability: a tracer (off by default — the
        #: no-op path is one attribute check) and a metrics registry
        #: shared by every cursor (and, embedded, the translator and
        #: both caches).
        self.tracer = Tracer(enabled=False) if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._queries_executed = self.metrics.counter("queries.executed")
        self._closed = False

    def begin(self) -> None:
        """Open an explicit transaction (driver extension). Raises
        ``ProgrammingError`` if one is already open."""
        self._check_open()
        self._demarcate("begin")

    def commit(self) -> None:
        """Commit the open transaction; a no-op without one (so
        PEP 249's commit-on-a-fresh-connection idiom stays cheap)."""
        self._check_open()
        self._demarcate("commit")

    def rollback(self) -> None:
        """Roll back the open transaction — every enlisted source
        restores its pre-transaction rows; a no-op without one."""
        self._check_open()
        self._demarcate("rollback")

    def _demarcate(self, verb: str) -> None:
        """Run transaction verb *verb* (``begin``, ``commit`` or
        ``rollback``) where the engine is."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")


class Connection(BaseConnection):
    """A PEP 249 connection bound to one DSP application."""

    def __init__(self, runtime: DSPRuntime,
                 config: Optional[RuntimeConfig] = None, *,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(config, tracer=tracer, metrics=metrics)
        config = self.config
        self._runtime = runtime
        self._metadata_api = runtime.metadata_api()
        self._metadata_cache = MetadataCache(
            self._metadata_api, capacity=config.metadata_cache_capacity,
            tracer=self.tracer, registry=self.metrics)
        self._metadata = DatabaseMetaData(self._metadata_api)
        self._translator = SQLToXQueryTranslator(
            self._metadata_cache, tracer=self.tracer,
            registry=self.metrics)
        self._statement_cache: LRUCache = LRUCache(
            config.statement_cache_capacity, registry=self.metrics,
            prefix="statement.cache")
        self._rows_materialized = self.metrics.counter("rows.materialized")
        self._rows_streamed = self.metrics.counter("rows.streamed")
        self._execute_seconds = self.metrics.histogram("execute.seconds")
        #: Lifecycle outcome counters: how often queries on
        #: this connection timed out, were cancelled, or were refused
        #: admission.
        self._queries_timeout = self.metrics.counter("queries.timeout")
        self._queries_cancelled = self.metrics.counter("queries.cancelled")
        self._queries_rejected = self.metrics.counter("queries.rejected")
        #: Transaction demarcation and write serialization (the write
        #: path). Autocommit is the driver default: DML statements are
        #: durable on return until ``autocommit = False`` or an explicit
        #: ``begin()``.
        self._txn = TransactionManager(runtime)
        self._autocommit = True

    # -- PEP 249 surface ---------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    @property
    def autocommit(self) -> bool:
        """Whether DML statements commit on return (the default).

        Setting False makes the next write open an implicit
        transaction, closed only by :meth:`commit`/:meth:`rollback`.
        Setting True with a transaction open commits it first (the
        conventional driver behavior)."""
        return self._autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        self._check_open()
        value = bool(value)
        if value and self._txn.in_transaction:
            self._txn.commit()
        self._autocommit = value

    @property
    def in_transaction(self) -> bool:
        """True while an explicit or implicit transaction is open
        (driver extension, mirrors ``sqlite3.Connection``)."""
        return self._txn.in_transaction

    def _demarcate(self, verb: str) -> None:
        getattr(self._txn, verb)()

    def close(self) -> None:
        """Close the connection and release the memory its caches hold:
        cached translations are dropped and the metadata cache is
        invalidated. A pending transaction is rolled back (PEP 249).
        Idempotent."""
        if not self._closed:
            self._txn.close()
        self._closed = True
        self._statement_cache.clear()
        self._metadata_cache.invalidate()

    # -- driver extensions ------------------------------------------------------

    @property
    def metadata(self) -> DatabaseMetaData:
        """The java.sql.DatabaseMetaData analogue. The instance is
        callable (returning itself), so ``conn.metadata.tables()`` and
        the JDBC-flavored ``conn.metadata().tables()`` both work."""
        self._check_open()
        return self._metadata

    @property
    def translator(self) -> SQLToXQueryTranslator:
        return self._translator

    def translate(self, sql: str) -> TranslationResult:
        """Translate *sql* (with statement caching) without executing.

        The cache key includes the translation format, so a connection
        whose ``format`` changes never serves a ``delimited`` wrapper
        query where a ``recordset`` one is expected (or vice versa).
        Concurrent first translations of the same statement run once
        (single-flight). A cached entry holds what executing it needs —
        the module, result columns and parameter types — and not the
        stage-one/two ``unit`` it was generated from (EXPLAIN translates
        afresh), nor its text unless someone asks for ``.xquery``.
        """
        self._check_open()
        fmt = "delimited" if self.format == "delimited" else "recordset"
        return self._statement_cache.get_or_load(
            (fmt, sql), lambda: self._load_translation(sql, fmt))

    def _load_translation(self, sql: str, fmt: str) -> TranslationResult:
        result = self._translator.translate(sql, format=fmt)
        result.unit = None
        return result

    def _parse_mutation(self, sql: str):
        """Parse a DML statement (with statement caching): returns the
        AST plus its ``?`` marker count. DML shares the SELECT path's
        statement cache under a distinct key space — there is no
        XQuery to cache, but re-parsing hot statements would still be
        waste."""
        self._check_open()
        return self._statement_cache.get_or_load(
            ("dml", sql), lambda: self._load_mutation(sql))

    def _load_mutation(self, sql: str):
        statement = parse_mutation(sql)
        return statement, mutation_parameter_count(statement)

    def stats(self) -> dict:
        """A point-in-time observability snapshot: every named counter
        and histogram, both caches' hit/miss/eviction/size stats, the
        runtime's admission-controller state, and the runtime-side
        metrics (plan cache, ``source.retries``/``source.failures``).

        The document's shape is a versioned contract
        (``stats_schema_version``, currently :data:`STATS_SCHEMA_VERSION`
        = 4); dashboard consumers should pin on it, and any PR that
        renames or removes a section must bump it (README "Connection
        stats schema" documents every section). v2 added the
        ``transactions`` section: begun/committed/rolled_back counts,
        autocommitted and total DML statements, and rows written. v3
        added the grouped-aggregation counters (``vector.agg_queries``,
        ``vector.agg_groups``) under ``runtime.counters`` — same
        sections as v2. v4 removed the ``parallel.*`` counters and the
        ``parallel.gather_seconds`` histogram from ``runtime``."""
        snapshot = self.metrics.snapshot()
        snapshot["stats_schema_version"] = STATS_SCHEMA_VERSION
        snapshot["statement_cache"] = self._statement_cache.stats()
        snapshot["metadata_cache"] = self._metadata_cache.stats_dict()
        snapshot["plan_cache"] = self._runtime.plan_cache.stats()
        snapshot["admission"] = self._runtime.admission.stats()
        snapshot["runtime"] = self._runtime.metrics.snapshot()
        snapshot["transactions"] = self._txn.stats()
        return snapshot


def _emit_plan_events(tracer: Tracer, plan, actuals: PlanActuals) -> None:
    """Attach one estimated-vs-actual event, with the operator and its
    time, per cost-planned node to the current trace (``\\trace``
    renders them under the execute span)."""
    for report in plan.plan_reports:
        for node in report["nodes"]:
            estimate = node["estimate"]
            tracer.event(
                "plan.node",
                label=node["label"],
                op=node["op"],
                estimated="?" if estimate is None
                else f"{estimate:.1f}",
                actual=actuals.get(node["id"], 0),
                ms=f"{actuals.seconds.get(node['id'], 0.0) * 1000:.3f}")


def _then_plan_events(stream: Iterator, tracer: Tracer,
                      plan, actuals: PlanActuals) -> Iterator:
    """Pass the streamed result through; once the stream drains (so the
    per-node actual counts are final), emit the plan events — the
    tracer parents them on the completed execute root."""
    yield from stream
    _emit_plan_events(tracer, plan, actuals)


class BaseCursor:
    """The PEP 249 cursor surface both transports share.

    Rows received and not yet handed out are ``_rows[_index:]``: a
    fetch advances the index, and the consumed prefix is dropped once
    per refill, so no fetch moves the buffer per row. A transport
    supplies two things: :meth:`_more` (can the result give more rows)
    and :meth:`_pull` (append the next rows of it to the buffer, at
    least *limit* of them unless it ends first — more is fine). A
    fetch asks for ``max(rows missing, arraysize)``, so ``arraysize``
    sets the pull granularity of ``fetchone`` and ``fetchmany`` alike;
    iteration pulls ``max(arraysize, DEFAULT_FETCH_PAGE)`` at a time.
    """

    arraysize = 1

    def __init__(self, connection):
        self.connection = connection
        self._rows: list[tuple] = []
        self._index = 0
        #: The result schema; None: no result set.
        self._columns: Optional[Sequence[ResultColumn]] = None
        self._description: Optional[list[tuple]] = None
        self._closed = False
        self.rowcount = -1
        self.lastrowid = None

    # -- metadata ------------------------------------------------------------

    @property
    def description(self) -> Optional[list[tuple]]:
        if self._description is None and self._columns is not None:
            self._description = describe(self._columns)
        return self._description

    @property
    def columns(self) -> Optional[Sequence[ResultColumn]]:
        """The result schema behind ``description`` — each column's own
        SQL type, which the PEP 249 type objects blur (driver
        extension; None when there is no result set)."""
        return self._columns

    def _set_description(
            self, columns: Optional[Sequence[ResultColumn]]) -> None:
        """Adopt a result schema; ``description`` is built on first read
        and kept while re-runs hand back the same (cached) schema."""
        if columns is not self._columns:
            self._columns, self._description = columns, None

    # -- fetching ------------------------------------------------------------

    def _more(self) -> bool:
        """Whether the result may hold rows not pulled yet."""
        raise NotImplementedError

    def _pull(self, limit: Optional[int], rows: list) -> None:
        """Append the next rows of the result to *rows*: at least
        *limit* (the transport's page when None) unless the result ends
        first."""
        raise NotImplementedError

    def _fill(self, limit: Optional[int]) -> None:
        if self._index:
            del self._rows[:self._index]
            self._index = 0
        self._pull(limit, self._rows)

    def _take(self, size: int) -> list[tuple]:
        """Hand out up to *size* buffered rows."""
        rows, start = self._rows, self._index
        if start == 0 and size >= len(rows):
            self._rows = []
            return rows
        chunk = rows[start:start + size]
        self._index = start + len(chunk)
        return chunk

    def fetchone(self) -> Optional[tuple]:
        chunk = self.fetchmany(1)
        return chunk[0] if chunk else None

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        self._check_results()
        if size is None:
            size = self.arraysize
        while len(self._rows) - self._index < size and self._more():
            self._fill(max(size - len(self._rows) + self._index,
                           self.arraysize))
        return self._take(size)

    def fetchall(self) -> list[tuple]:
        self._check_results()
        while self._more():
            self._fill(None)
        return self._take(len(self._rows))

    def __iter__(self) -> Iterator[tuple]:
        """Iterate the result set, pulling ``max(arraysize,
        DEFAULT_FETCH_PAGE)`` rows at a time: deadline, cancellation
        and (remote) the round trip are paid per page, not per row.
        Rows the loop has not reached stay fetchable, and a row a fetch
        inside the loop took is not yielded again: the loop reads the
        buffer live."""
        page = max(self.arraysize, DEFAULT_FETCH_PAGE)
        while True:
            self._check_results()
            if self._index >= len(self._rows) and self._more():
                self._fill(page)
            if self._index >= len(self._rows):
                return
            while self._index < len(self._rows):
                row = self._rows[self._index]
                self._index += 1
                yield row

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def setinputsizes(self, sizes) -> None:
        self._check_open()

    def setoutputsize(self, size, column=None) -> None:
        self._check_open()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def _check_results(self) -> None:
        self._check_open()
        if self._columns is None:
            raise ProgrammingError("no query has been executed")


class Cursor(BaseCursor):
    """A PEP 249 cursor: execute SQL, fetch typed rows.

    With the default ``delimited`` format, ``execute()`` starts a
    **streaming** result: the compiled query pipeline and the delimited
    decoder are both lazy, so ``fetchone()``/``fetchmany()`` pull rows
    on demand and ``rowcount`` stays -1 until the stream is exhausted
    (PEP 249 permits -1 when the count is not yet known). ``fetchall()``
    drains the stream and returns exactly what the eager path returned.
    The ``xml`` format and ``callproc`` still materialize at execute
    time.

    A live stream is the engine's output: typed column batches when
    the vector plan runs the statement, else the Evaluator's text. What
    reads it is built on the first fetch — batches of rows for
    ``fetchone`` / ``fetchmany`` / ``fetchall`` (``iter_rows`` over
    typed batches, which prints no text; the decoder over text), or a
    page cutter over the text for :meth:`fetch_text`, which the network
    server uses to ship it undecoded (DESIGN.md §13). One result is
    read one way or the other, not both. A pull takes whole batches:
    the rows not handed out yet wait in the shared buffer, as a
    materialized result's do.
    """

    def __init__(self, connection: Connection):
        super().__init__(connection)
        #: The live engine stream (None: no result, a materialized one,
        #: or a stream already drained) and its reader, built on the
        #: first fetch: a row iterator or a ``PageCutter``. ``_typed`` is
        #: the vector plan of a typed stream (None: a text stream).
        self._live: Optional[Iterator] = None
        self._typed = None
        self._stream = None
        self._fetched = 0
        #: Rows already charged against the admission slot's in-flight
        #: budget; with a batched pipeline this tracks rows *buffered*
        #: by the engine (a whole batch decodes ahead of the fetch
        #: position), not just rows handed to the application.
        self._charged_rows = 0
        #: Lifecycle state for the statement in flight: the QueryContext
        #: (deadline + token) and the admission slot it holds.
        self._context: Optional[QueryContext] = None
        self._slot: Optional[AdmissionSlot] = None

    # -- execution --------------------------------------------------------------

    #: JDBC CallableStatement escape syntax: {call proc(?, ?)} — also
    #: accepted without braces as CALL proc(?, ?).
    _CALL_RE = re.compile(
        r"^\s*(?:\{\s*call\s+([A-Za-z_][\w$]*)\s*(?:\((.*)\))?\s*\}"
        r"|call\s+([A-Za-z_][\w$]*)\s*(?:\((.*)\))?)\s*;?\s*$",
        re.IGNORECASE | re.DOTALL)

    def execute(self, operation: str,
                parameters: Sequence = (), *,
                timeout: Optional[float] = None) -> "Cursor":
        """Execute a statement. *timeout* (seconds, keyword-only)
        bounds this execution — including its fetch phase for streamed
        results — overriding the connection's ``default_timeout``."""
        self._check_open()
        call = self._CALL_RE.match(operation)
        if call is not None:
            name = call.group(1) or call.group(3)
            args = call.group(2) or call.group(4) or ""
            markers = [part.strip() for part in args.split(",")
                       if part.strip()]
            if any(marker != "?" for marker in markers):
                raise ProgrammingError(
                    "CALL arguments must be ? parameter markers")
            if len(markers) != len(parameters):
                raise ProgrammingError(
                    f"procedure call has {len(markers)} markers, "
                    f"{len(parameters)} parameters given")
            self.callproc(name, parameters)
            return self
        if is_mutation(operation):
            return self._execute_mutation(operation, [parameters],
                                          timeout, many=False)
        return self._execute_translated(operation, None, parameters,
                                        timeout)

    def _new_context(self, timeout: Optional[float]) -> QueryContext:
        """The lifecycle context of one execution (*timeout* defaults
        to the connection's), registered on the cursor so ``cancel()``
        reaches it. The deadline starts now."""
        if timeout is None:
            timeout = self.connection.default_timeout
        self._context = QueryContext(timeout=timeout)
        return self._context

    def _execute_mutation(self, operation: str,
                          parameter_sets: list[Sequence],
                          timeout: Optional[float],
                          many: bool) -> "Cursor":
        """Execute an INSERT/UPDATE/DELETE once per parameter set
        through the transaction manager: one statement for ``execute``
        (``run``), one batch for ``executemany`` (``run_batch``: inside
        the open transaction when there is one, otherwise an implicit
        one, so a mid-batch failure never leaves a torn batch behind).
        DML has no result set: ``description`` becomes None (so fetching
        raises ``ProgrammingError``), ``rowcount`` is the affected-row
        total, and ``lastrowid`` is the backend-defined id of the last
        statement's last inserted row (None for UPDATE/DELETE).
        *timeout* and ``cancel()`` bound victim selection; once the
        victims are chosen the apply runs to completion (it is atomic
        either way).
        """
        connection = self.connection
        self._release_stream()
        context = self._new_context(timeout)
        started = clock.monotonic()
        try:
            with connection.tracer.span("execute", sql=operation):
                statement, marker_count = \
                    connection._parse_mutation(operation)
                for parameters in parameter_sets:
                    if len(parameters) != marker_count:
                        raise ProgrammingError(
                            f"statement has {marker_count} parameter "
                            f"markers, {len(parameters)} values given")
                metadata = connection._metadata_cache.fetch_table(
                    statement.table.name, schema=statement.table.schema,
                    catalog=statement.table.catalog)
                manager = connection._txn
                if not connection.autocommit and \
                        not manager.in_transaction:
                    manager.begin()
                plan = partial(plan_mutation, connection._runtime,
                               statement, metadata)
                if many:
                    results = manager.run_batch([
                        partial(plan, parameters, context)
                        for parameters in parameter_sets])
                else:
                    results = [manager.run(
                        partial(plan, parameter_sets[0], context))]
        except errors.SQLError as exc:
            raise ProgrammingError(str(exc)) from exc
        except Error:
            raise
        except ReproError as exc:
            self._note_lifecycle_failure(exc)
            raise to_driver_error(exc) from exc
        connection._queries_executed.add(len(parameter_sets))
        connection._execute_seconds.observe(clock.monotonic() - started)
        self._fetched = 0
        self._charged_rows = 0
        self._set_description(None)
        self.rowcount = sum(map(attrgetter("rowcount"), results))
        self.lastrowid = results[-1].lastrowid if results else None
        return self

    def _execute_translated(self, operation: str,
                            translation, parameters: Sequence,
                            timeout: Optional[float]) -> "Cursor":
        """The shared execution core: *translation* is None for a
        normal ``execute()`` (loaded through the statement cache inside
        the span) or a pre-fetched result reused by ``executemany``."""
        connection = self.connection
        tracer = connection.tracer
        self._release_stream()
        # The deadline starts now: admission queueing, translation, and
        # evaluation all spend from the same budget.
        context = self._new_context(timeout)
        started = clock.monotonic()
        streamed = False
        slot: Optional[AdmissionSlot] = None
        try:
            with tracer.span("execute", sql=operation):
                if translation is None:
                    # The statement cache's loader opens the nested
                    # "translate" span (with its stage children) on a
                    # miss.
                    translation = connection.translate(operation)
                variables = translation.parameter_variables(parameters)
                slot = connection._runtime.admission.acquire(context)
                try:
                    with tracer.span("evaluate"):
                        plan = connection._runtime.prepare_module(
                            (translation.format, operation),
                            translation.module, tracer=tracer)
                        translation.stage_timings.setdefault(
                            "compile", plan.compile_seconds)
                        # With tracing on, a batched statement also
                        # collects actual rows per plan node; the
                        # estimated-vs-actual events land on the execute
                        # span (streamed statements attach them when
                        # the stream drains).
                        actuals = PlanActuals() if (
                            tracer.enabled and plan.batched) else None
                        if connection.format == "delimited" \
                                and plan.streams_text:
                            # Streaming path: set up the lazy pipeline;
                            # rows are pulled (and converted) at fetch
                            # time. The slot is held until the stream
                            # is exhausted or released.
                            typed, live = plan.stream_columns(
                                variables, context=context,
                                actuals=actuals)
                            if actuals is not None:
                                live = _then_plan_events(
                                    live, tracer, plan, actuals)
                            streamed = True
                        else:
                            result = plan.evaluate(variables,
                                                   context=context,
                                                   actuals=actuals)
                            if actuals is not None:
                                _emit_plan_events(tracer, plan, actuals)
                    if not streamed:
                        with tracer.span("materialize"):
                            self._rows = self._decode(
                                result, translation.columns)
                finally:
                    if not streamed and slot is not None:
                        slot.release()
                        slot = None
        except errors.SQLError as exc:
            raise ProgrammingError(str(exc)) from exc
        except Error:
            raise
        except ReproError as exc:
            if slot is not None:
                slot.release()
            self._note_lifecycle_failure(exc)
            raise to_driver_error(exc) from exc
        except BaseException:
            if slot is not None:
                slot.release()
            raise
        connection._queries_executed.increment()
        connection._execute_seconds.observe(clock.monotonic() - started)
        self._set_description(translation.columns)
        self._fetched = 0
        self._charged_rows = 0
        if streamed:
            self._live = live
            self._typed = plan.vector_plan if typed else None
            self._slot = slot
            self.rowcount = -1  # unknown until the stream is exhausted
        else:
            connection._rows_materialized.add(len(self._rows))
            self.rowcount = len(self._rows)
        return self

    def executemany(self, operation: str,
                    seq_of_parameters: Iterable[Sequence], *,
                    timeout: Optional[float] = None) -> "Cursor":
        """Execute *operation* once per parameter set, translating the
        statement exactly once: the cached translation is reused across
        every set instead of re-entering ``execute()``'s cache lookup."""
        self._check_open()
        if self._CALL_RE.match(operation):
            raise ProgrammingError(
                "executemany() does not accept CALL statements")
        if is_mutation(operation):
            return self._execute_mutation(
                operation, [tuple(parameters)
                            for parameters in seq_of_parameters],
                timeout, many=True)
        try:
            translation = self.connection.translate(operation)
        except errors.SQLError as exc:
            raise ProgrammingError(str(exc)) from exc
        for parameters in seq_of_parameters:
            self._execute_translated(operation, translation, parameters,
                                     timeout)
        return self

    def cancel(self) -> None:
        """Cancel the statement in flight (driver extension; safe from
        any thread). The executing/fetching thread observes the token
        at its next tuple-batch check and raises ``OperationalError``;
        idle cursors ignore the call."""
        context = self._context
        if context is not None:
            context.cancel("Cursor.cancel()")

    def _note_lifecycle_failure(self, exc: ReproError) -> None:
        """Count and trace a lifecycle abort (timeout / cancel /
        admission-reject) so every outcome shows in stats()."""
        connection = self.connection
        if isinstance(exc, QueryTimeoutError):
            connection._queries_timeout.increment()
            connection.tracer.event("query.timeout", detail=str(exc))
        elif isinstance(exc, QueryCancelledError):
            connection._queries_cancelled.increment()
            connection.tracer.event("query.cancelled", detail=str(exc))
        elif isinstance(exc, AdmissionRejectedError):
            connection._queries_rejected.increment()
            connection.tracer.event("query.rejected", detail=str(exc))

    def callproc(self, procname: str,
                 parameters: Sequence = ()) -> Sequence:
        """Call a parameterized data service function (Figure 2: 'If a
        function has parameters, it becomes a callable SQL stored
        procedure')."""
        self._check_open()
        self._release_stream()
        try:
            proc = self.connection._metadata_cache.fetch_procedure(procname)
            rows = self._execute_procedure(proc, parameters)
        except Error:
            raise
        except ReproError as exc:
            raise DatabaseError(str(exc)) from exc
        self._rows = rows
        columns = [ResultColumn(label=c.name, element=c.name,
                                sql_type=c.sql_type, nullable=c.nullable)
                   for c in proc.columns]
        self._set_description(columns)
        self.rowcount = len(rows)
        return parameters

    def _execute_procedure(self, proc: ProcedureMetadata,
                           parameters: Sequence) -> list[tuple]:
        if len(parameters) != len(proc.parameters):
            raise ProgrammingError(
                f"procedure {proc.name} takes {len(proc.parameters)} "
                f"parameters, {len(parameters)} given")
        runtime = self.connection._runtime
        result = runtime.call_function(
            proc.namespace, proc.function_name,
            [[value] if value is not None else [] for value in parameters])
        rows = []
        from .codec import convert_cell
        for element in result:
            assert isinstance(element, Element)
            cells = list(element.child_elements())
            row = []
            for cell, column in zip(cells, proc.columns):
                if cell.is_empty():
                    row.append(None)
                else:
                    row.append(convert_cell(cell.string_value(),
                                            column.sql_type))
            rows.append(tuple(row))
        return rows

    def _decode(self, result: list,
                columns: list[ResultColumn]) -> list[tuple]:
        if self.connection.format == "delimited":
            stream = "".join(str(item) for item in result)
            return decode_delimited(stream, columns)
        # XML path: serialize the RECORDSET (the wire transfer) and parse
        # it back client-side — the configuration the paper found slow.
        if len(result) != 1 or not isinstance(result[0], Element):
            raise DatabaseError(
                "expected a single RECORDSET element from the server")
        return decode_xml(serialize(result[0]), columns)

    # -- fetching ------------------------------------------------------------------

    def _finish_stream(self) -> None:
        """The stream is exhausted: the row count is now known and the
        admission slot is returned."""
        self.rowcount = self._fetched
        self._live = self._stream = self._typed = None
        self._release_slot()

    def _release_slot(self) -> None:
        if self._slot is not None:
            slot, self._slot = self._slot, None
            slot.release()

    def _release_stream(self) -> None:
        """Close any live pipeline (re-execute, close, abort):
        generator close propagates through the decoder into the
        executor stages, so the engine drops its frames immediately,
        the buffered rows are dropped and the admission slot is
        returned."""
        for stream in (self._stream, self._live):
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        self._live = self._stream = self._typed = None
        self._rows, self._index = [], 0
        self._release_slot()

    def _abort(self, exc: ReproError):
        """Raise engine error *exc* as a driver error, after tearing the
        pipeline down so the engine's frames (and the admission slot)
        are released immediately."""
        self._note_lifecycle_failure(exc)
        self._release_stream()
        raise to_driver_error(exc) from exc

    def _check_results(self) -> None:
        """Besides the shared checks, a live stream's deadline and
        cancellation: once per fetch call, whether or not the rows it
        hands out were pulled by an earlier one."""
        super()._check_results()
        if self._live is not None:
            try:
                self._context.check()
            except ReproError as exc:
                self._abort(exc)

    def _reader(self, text: bool):
        """What reads the live stream, built on the first fetch: batches
        of rows (a list per engine batch converted from a typed stream,
        one row at a time decoded from text), or with *text* a
        ``PageCutter`` over the text (a typed stream printed)."""
        live, columns, context = self._live, self._columns, self._context
        plan = self._typed
        if text:
            if plan is not None:
                live = plan.encode(live)
            return PageCutter(live, len(columns))
        if plan is not None:
            return iter_rows(
                live, columns, context=context, per_cell=plan.note_per_cell,
                as_computed=plan.note_as_computed)
        return ((row,) for row in iter_decode_delimited(live, columns,
                                                        context=context))

    def _more(self) -> bool:
        return self._live is not None

    def _pull(self, limit: Optional[int], rows: Optional[list] = None):
        """Append at least *limit* rows (all remaining when None) of
        the live stream to *rows*: whole batches, so the last may
        overshoot and the buffer keeps the surplus. With no *rows*,
        pull up to *limit* rows as text and return ``(delimited text,
        row count)``: the engine's text cut on a row boundary, its rows
        counted and not converted. Engine errors — which surface at
        fetch time — are wrapped the same way execute() wraps them.
        The query's deadline/cancellation is checked once per fetch
        call (:meth:`_check_results`, in addition to the pipeline's
        per-batch ticks; the decoder ticks per row, a text page once
        for all its rows), and freshly pulled rows are charged against
        the admission controller's in-flight budget. A result read one
        way cannot be read the other: that raises ``ProgrammingError``
        and releases the stream."""
        text = rows is None
        if self._stream is not None \
                and isinstance(self._stream, PageCutter) != text:
            self._release_stream()
            raise ProgrammingError(
                "fetch_text() and the row fetches cannot read one result")
        context = self._context
        start = 0 if text else len(rows)
        page, pulled = "", 0
        exhausted = False
        try:
            stream = self._stream
            if stream is None:
                stream = self._stream = self._reader(text)
            if text:
                page, pulled = stream.take(limit)
                exhausted = stream.exhausted
                context.rows_emitted += pulled
                context.tick_rows(pulled)
            else:
                # A stream that raises mid-pull leaves the rows it
                # already gave in `rows`, for the accounting below.
                for batch in stream:
                    rows += batch
                    if limit is not None and len(rows) - start >= limit:
                        break
                else:
                    exhausted = True
                pulled = len(rows) - start
            if self._slot is not None:
                # Charge whichever is further along: rows the engine
                # has buffered (whole batches decode ahead of the fetch
                # position) or rows actually pulled. Monotonic, so
                # each row is charged exactly once.
                total = max(context.rows_buffered, self._fetched + pulled)
                delta = total - self._charged_rows
                if delta > 0:
                    self._slot.note_rows(delta)
                    self._charged_rows = total
        except Error:
            raise
        except ReproError as exc:
            self._abort(exc)
        finally:
            if not text:
                pulled = len(rows) - start
            self._fetched += pulled
            if pulled:
                self.connection._rows_streamed.add(pulled)
            if exhausted:
                self._finish_stream()
        return page, pulled

    def fetch_text(self, size: int) -> tuple[str, int, bool]:
        """The next up-to-*size* rows, undecoded: ``(delimited text
        ending on a row boundary, row count, whether that was the
        last of the result)``. Driver extension for the network server
        (not PEP 249): a page travels as the text the engine wrote and
        is decoded once, by the client. A typed result is printed here
        as ``stream_chunks`` would print it; a materialized one (``xml``
        format, ``callproc``) is written back as the same text. Use
        either this or the row fetches on one result, not both."""
        self._check_results()
        if self._live is not None:
            text, rows = self._pull(size)
            return text, rows, self._live is None
        chunk = self._take(size)
        return (encode_delimited(chunk), len(chunk),
                self._index >= len(self._rows))

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        self._release_stream()
        self._closed = True
        self._set_description(None)
