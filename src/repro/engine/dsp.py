"""The DSP runtime: executes data service functions and XQuery programs.

This is the server side of the paper's Figure 1: data services (physical
and logical) hosted over heterogeneous sources, queryable with XQuery. The
JDBC-analog driver connects to an instance of this runtime, sends it the
XQuery produced by the translator, and receives the result sequence.

Physical data service functions materialize rows of a Storage table as a
sequence of flat, schema-typed XML elements (paper Example 1). Logical
data service functions evaluate their XQuery bodies — written over other
data service functions — with their parameters bound as external
variables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

from ..catalog import (
    Application,
    CallableBinding,
    CsvBinding,
    DataService,
    DataServiceFunction,
    FunctionParameter,
    MetadataAPI,
    RowSchema,
    SourceBinding,
    TableBinding,
    XQueryBinding,
    flat_schema,
    function_namespace,
    sql_to_xs,
)
from ..config import RuntimeConfig, with_environment
from ..errors import (
    NotSupportedError,
    SourceUnavailableError,
    TransientSourceError,
    UnknownArtifactError,
    XQueryDynamicError,
)
from ..obs import NULL_TRACER, LRUCache, MetricsRegistry
from ..sources import DataSource, ScanRequest
from ..sources.memory import TableSource
from ..xmlmodel import Element, QName, Text
from ..xquery import ast as xq
from ..xquery import parse_xquery
from ..xquery.atomic import parse_lexical, serialize_atomic
from ..xquery.compile import CompiledQuery, compile_module
from ..xquery.vector import (
    CODED_KINDS,
    HANDLE,
    dictionary_codes,
    regular_kind,
)
from .faults import FaultyBinding
from .lifecycle import AdmissionController, QueryContext, RetryPolicy
from .table import Storage


@dataclass(eq=False, slots=True)
class _TableScan:
    """The column cache's entry for one version of one table: its
    ``(name, xs type)`` schema and column lists (read-only by contract
    — operators always build fresh output lists), the join hash tables
    built over them (by key column names), the element trees a
    ``call_function`` read made of them (None until one asks), and its
    columns' facts (:meth:`fact`) and dictionary codes (:meth:`codes`),
    by column index, as far as asked."""

    token: object
    columns: list
    values: list
    row_count: int
    join_tables: dict = field(default_factory=dict)
    elements: Optional[list] = None
    facts: dict = field(default_factory=dict)
    dictionaries: dict = field(default_factory=dict)

    def fact(self, index: int):
        """Column *index*'s fact (``repro.xquery.vector.regular_kind``),
        computed the first time an output column needs it: once per
        column of a version (two racing first asks compute the same
        answer). A new version is a new entry, with no facts."""
        if index not in self.facts:
            self.facts[index] = regular_kind(self.values[index])
        return self.facts[index]

    def codes(self, index: int):
        """Column *index*'s ``(values, codes)``
        (``repro.xquery.vector.dictionary_codes``), or None when its
        fact is not a kind coded by value or it has too many distinct
        values: computed, like a fact, the first time a filter or a
        group asks, once per column of a version."""
        if index not in self.dictionaries:
            self.dictionaries[index] = \
                dictionary_codes(self.values[index]) \
                if self.fact(index) in CODED_KINDS else None
        return self.dictionaries[index]


class DSPRuntime:
    """Hosts one application over its physical sources.

    *storage* may be a classic in-memory :class:`Storage` (wrapped in a
    :class:`TableSource`), any :class:`repro.sources.DataSource` (e.g. a
    ``SQLiteSource``), or None for an application with no default
    source. Either way it becomes the runtime's *default source* — the
    one ``TableBinding`` functions scan; further sources attach through
    :meth:`register_source` and are addressed by ``SourceBinding``.

    Tuning lives in :class:`repro.RuntimeConfig`.
    """

    def __init__(self, application: Application,
                 storage: "Storage | DataSource | None" = None,
                 config: Optional[RuntimeConfig] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if config is None:
            config = RuntimeConfig()
        self.application = application
        self.storage = storage
        self.config = config
        #: Registered physical sources by name; SourceBinding functions
        #: address these.
        self.sources: dict[str, DataSource] = {}
        if storage is None:
            self._default_source: Optional[DataSource] = None
        elif isinstance(storage, DataSource):
            self._default_source = storage
        else:
            self._default_source = TableSource(storage)
        if self._default_source is not None:
            self.sources[self._default_source.name] = self._default_source
        #: TableBinding scans pay for the retry loop only when the
        #: default source is something that can actually fail
        #: transiently (not the in-process table wrapper).
        self._default_source_retryable = not isinstance(
            self._default_source, (TableSource, type(None)))
        #: Rows per column-oriented batch in the batch executor; the
        #: environment can force it process-wide (a CI leg does), and
        #: ``config.py`` reads it.
        self.batch_size = with_environment(config).batch_size
        #: Runtime-side metrics: the plan cache publishes
        #: ``plan_cache.hits`` / ``plan_cache.misses`` /
        #: ``plan_cache.evictions`` here.
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._functions: dict[tuple[str, str], DataServiceFunction] = {}
        #: Compiled-plan cache: bounded, thread-safe, single-flight, so
        #: concurrent executions of the same query compile it once.
        #: Keyed by the query's text (user-written XQuery) or by the
        #: driver's statement-cache key (a translated module), plus the
        #: batch size and whether it is a DML read. A read's entry keeps
        #: the version tokens of the statistics its compile read.
        self.plan_cache = LRUCache(config.plan_cache_capacity,
                                   registry=self.metrics,
                                   prefix="plan_cache")
        #: One :class:`_TableScan` per source-bound physical function,
        #: keyed by function identity and guarded by the source's
        #: ``version`` staleness token (row count for in-memory tables,
        #: data-version counters for SQLite, file mtime/size for XML):
        #: the unpushed scan's column lists, and what is derived from
        #: them for that version — join hash tables and the element
        #: trees a ``call_function`` read returns. A current entry
        #: answers pushed requests too; a pushed scan's result is
        #: request-specific and never fills it.
        self._table_columns: dict[tuple[str, str], _TableScan] = {}
        self.function_call_count = 0
        #: Admission control for top-level queries: bounded concurrency
        #: with a queue-with-timeout, plus a global in-flight streamed
        #: row budget. Enforced at the query entry points (the PEP 249
        #: driver and the shell), never on nested data-service calls —
        #: a logical function's body must not deadlock against its own
        #: parent's slot.
        self.admission = AdmissionController(
            max_concurrent=config.max_concurrent_queries,
            queue_timeout=config.admission_queue_timeout,
            max_inflight_rows=config.max_inflight_rows)
        #: Per-source retry with backoff+jitter for TransientSourceError
        #: from physical bindings; publishes ``source.retries`` /
        #: ``source.failures`` on this runtime's metrics.
        self.retry_policy = RetryPolicy() if config.retry_policy is None \
            else config.retry_policy
        #: Per-source retry with backoff+jitter publishes these.
        self._source_retries = self.metrics.counter("source.retries")
        self._source_failures = self.metrics.counter("source.failures")
        #: Pushdown observability: rows actually pulled out of sources,
        #: and the subset that came from scans the source pre-filtered.
        self._rows_scanned = self.metrics.counter("sources.rows_scanned")
        self._rows_pushed = self.metrics.counter("sources.rows_pushed")
        #: Secondary-index observability: scans answered by a source
        #: hash index, and the (lazy) index builds those scans caused.
        self._index_hits = self.metrics.counter("sources.index_hits")
        self._index_builds = self.metrics.counter("sources.index_builds")
        #: Grouped-aggregation observability: queries that ran the
        #: vectorized hash-aggregation stage, and group-table entries
        #: it emitted.
        self._agg_queries = self.metrics.counter("vector.agg_queries")
        self._agg_groups = self.metrics.counter("vector.agg_groups")
        #: Batch columns (encode, join and group keys) whose cells were
        #: not of one kind a typed kernel serves: the per-cell path.
        self._generic_columns = self.metrics.counter(
            "vector.generic_columns")
        #: Output batches printed as delimited text (an embedded cursor
        #: reads the typed batches and prints none).
        self._text_chunks = self.metrics.counter("vector.text_chunks")
        #: Record-set batch columns read as their untyped view.
        self._untyped_views = self.metrics.counter("vector.untyped_views")
        #: Output batch columns handed over on their version's facts.
        self._as_computed_columns = self.metrics.counter(
            "vector.as_computed_columns")
        #: Join hash tables built, and kept ones probed again.
        self._join_builds = self.metrics.counter("vector.join_builds")
        self._join_reuses = self.metrics.counter("vector.join_reuses")
        #: XQuery texts parsed (cold ``prepare(text)`` calls). A
        #: translated statement arrives as a tree and never moves it.
        self._parses = self.metrics.counter("xquery.parses")
        #: Table statistics for the for reorder, keyed by function
        #: identity and guarded by the source's ``version`` token.
        self._stats_cache: dict[tuple[str, str], tuple[object, object]] = {}
        #: Single-writer lock for the DML path: held by an autocommit
        #: statement for its plan+apply window, or by an explicit
        #: transaction from its first write until commit/rollback.
        #: Readers never take it — they read consistent snapshots via
        #: version tokens and copy-on-write row lists.
        self.write_lock = threading.Lock()
        for project, service in application.all_data_services():
            uri = function_namespace(project, service)
            for function in service.functions.values():
                self._functions[(uri, function.name)] = function

    # -- source registry -----------------------------------------------------

    def register_source(self, source: DataSource) -> DataSource:
        """Attach a physical source; ``SourceBinding(source.name, ...)``
        functions scan it. Re-registering a name replaces the source."""
        self.sources[source.name] = source
        # New (or replaced) source: cached statistics may describe the
        # old one, and cached plans may have been ordered without it.
        self._stats_cache.clear()
        self.plan_cache.clear()
        # Two sources' tokens may coincide, so nothing cached from the
        # one replaced may answer for the functions that now scan this.
        for key in list(self._table_columns):
            if self._physical(*key)[2] is source:
                self._table_columns.pop(key, None)
        return source

    def source(self, name: str) -> DataSource:
        try:
            return self.sources[name]
        except KeyError:
            raise UnknownArtifactError(
                f"no data source {name!r} registered") from None

    def close(self) -> None:
        """Close every registered source (idempotent)."""
        for source in self.sources.values():
            source.close()

    def note_decline(self, reason: str) -> None:
        """Count, by reason code, a compiled body the Evaluator runs
        because the vector lowering declined it
        (``vector.decline.<code>``; for ``param_shape``, a run of a
        batched plan)."""
        self.metrics.counter(f"vector.decline.{reason}").increment()

    # -- function execution -------------------------------------------------

    def call_function(self, uri: str, local: str, args: list,
                      context: Optional[QueryContext] = None) -> list:
        """Execute a data service function; this is also the evaluator's
        FunctionResolver. *context* (threaded down from the executing
        query's frames) bounds source waits and is consulted by fault
        wrappers and the retry policy. A physical function reads the
        same cached table version :meth:`scan_columns` does, and its
        element trees are kept beside those columns."""
        self.function_call_count += 1
        if context is not None:
            context.source_calls += 1
        try:
            function = self._functions[(uri, local)]
        except KeyError:
            raise UnknownArtifactError(
                f"no data service function {{{uri}}}{local}") from None
        if len(args) != len(function.parameters):
            raise XQueryDynamicError(
                f"{local} expects {len(function.parameters)} arguments, "
                f"got {len(args)}", code="XPTY0004")
        binding = function.binding
        if binding is None:
            raise UnknownArtifactError(
                f"data service function {local} has no binding")
        return self._with_retry(
            binding, local, context,
            lambda: self._run_binding(uri, local, function, binding,
                                      args, context))

    def _with_retry(self, binding, local: str,
                    context: Optional[QueryContext], operation):
        """Run one source operation (row or columnar scan) of a
        function bound to *binding*. Only sources that can raise
        TransientSourceError (files, custom functions, fault wrappers,
        external SPI sources) pay for the retry policy: transient
        failures back off with jitter and retry, bounded by the attempt
        budget and the query's remaining deadline."""
        if isinstance(binding, TableBinding):
            retryable = self._default_source_retryable
        else:
            retryable = isinstance(binding, (CsvBinding, CallableBinding,
                                             FaultyBinding, SourceBinding))
        if not retryable:
            return operation()
        policy = self.retry_policy
        last: Optional[TransientSourceError] = None
        for attempt in range(policy.attempts):
            try:
                return operation()
            except TransientSourceError as exc:
                last = exc
                if attempt + 1 >= policy.attempts:
                    break
                self._source_retries.increment()
                policy.sleep_before_retry(attempt, context)
        self._source_failures.increment()
        raise SourceUnavailableError(
            f"source {local} unavailable: {last}",
            attempts=policy.attempts) from last

    def _run_binding(self, uri: str, local: str, function, binding,
                     args: list, context: Optional[QueryContext]) -> list:
        """Execute one binding once (faults applied, no retry)."""
        if context is not None:
            context.check()
        if isinstance(binding, FaultyBinding):
            binding.apply(context)
            binding = binding.inner
        target = self._physical(uri, local)
        if target is not None:
            _function, _faulty, source, table = target
            if source is None:
                raise UnknownArtifactError(
                    f"data service function {local} is bound to a source "
                    f"the runtime does not have")
            return self._scan_elements(uri, local, function, source,
                                       table, context)
        if isinstance(binding, CsvBinding):
            return self._rows_to_elements(
                function.return_schema,
                self._read_csv(binding, function.return_schema))
        if isinstance(binding, CallableBinding):
            values = [arg[0] if arg else None for arg in args]
            rows = binding.provider(*values)
            return self._rows_to_elements(function.return_schema,
                                          list(rows))
        if isinstance(binding, XQueryBinding):
            variables = {
                param.name: arg
                for param, arg in zip(function.parameters, args)
            }
            result = self.execute(binding.body, variables=variables,
                                  context=context)
            return self._validate_against_schema(function, result)
        raise UnknownArtifactError(
            f"data service function {local} has no binding")

    def _count_scan(self, result, row_count: int) -> None:
        """Publish one finished source scan on the pushdown and index
        counters."""
        self._rows_scanned.add(row_count)
        if result.pushed:
            self._rows_pushed.add(row_count)
        if result.index_used:
            self._index_hits.increment()
        if result.index_built:
            self._index_builds.increment()

    def _scan_elements(self, uri: str, local: str, function,
                       source: DataSource, table: str,
                       context: Optional[QueryContext]) -> list:
        """A plain scan of *table* as typed flat elements, built from
        the column lists :meth:`_scan_source_columns` reads and kept in
        their cache entry, so the table version is scanned once for
        both executors."""
        _columns, values, _rows = self._scan_source_columns(
            uri, local, function, source, table, None, context)
        entry = self.cached_entry(uri, local, values)
        if entry is None:  # unversioned
            return self._rows_to_elements(function.return_schema,
                                          zip(*values))
        if entry.elements is None:
            entry.elements = self._rows_to_elements(
                function.return_schema, zip(*values))
        return entry.elements

    # -- columnar scans (vectorized executor) -------------------------------

    def _physical(self, uri: str, local: str):
        """``(function, faulty_binding_or_None, source, table)`` when
        the data service function ``{uri}local`` is bound (possibly
        through a fault wrapper) to a table of an SPI source; *source*
        is None when that source is not registered. None for an unknown
        name and for every other binding kind."""
        function = self._functions.get((uri, local))
        if function is None:
            return None
        binding = function.binding
        faulty = None
        if isinstance(binding, FaultyBinding):
            faulty, binding = binding, binding.inner
        if isinstance(binding, TableBinding):
            return function, faulty, self._default_source, binding.table_name
        if isinstance(binding, SourceBinding):
            return (function, faulty, self.sources.get(binding.source),
                    binding.table)
        return None

    def _columnar_target(self, uri: str, local: str):
        """:meth:`_physical` for a zero-arg scan over a registered
        source — the only shape the vectorized executor reads in column
        form — else None."""
        target = self._physical(uri, local)
        if target is None or target[0].parameters or target[2] is None:
            return None
        return target

    def column_scan_schema(self, uri: str, local: str):
        """Ordered (column name, xs type) pairs for a columnar-scannable
        function, or None when the function cannot be scanned in column
        form (non-source binding, parameters, unknown name)."""
        target = self._columnar_target(uri, local)
        if target is None:
            return None
        schema = target[0].return_schema
        return [(decl.name, decl.xs_type) for decl in schema.columns]

    def scan_columns(self, uri: str, local: str,
                     context: Optional[QueryContext] = None,
                     scan: Optional[ScanRequest] = None):
        """A zero-arg physical function's rows in column form: returns
        ``(columns, values, row_count)`` where *columns* is the
        (possibly projected) ``(name, xs_type)`` schema and *values* is
        one Python-value list per column. Counters, fault injection and
        retries match :meth:`call_function`, which reads the same cache
        entry; *scan* is an advisory pushdown request. The returned
        lists are shared (cached) and must not be mutated."""
        target = self._columnar_target(uri, local)
        if target is None:
            raise UnknownArtifactError(
                f"data service function {{{uri}}}{local} is not a "
                f"columnar-scannable source")
        function, faulty, source, table = target
        self.function_call_count += 1
        if context is not None:
            context.source_calls += 1

        def run():
            if context is not None:
                context.check()
            if faulty is not None:
                faulty.apply(context)
            return self._scan_source_columns(uri, local, function, source,
                                             table, scan, context)

        return self._with_retry(function.binding, local, context, run)

    def _scan_source_columns(self, uri: str, local: str, function,
                             source: DataSource, table: str,
                             request: Optional[ScanRequest],
                             context: Optional[QueryContext]):
        """Materialize a source table scan as column lists. A cached
        current version serves any request (every pushed conjunct stays
        in the plan as a residual filter); otherwise the source is sent
        the request, and only an answer it reports unfiltered and
        full-width, in schema order, fills the cache."""
        cached = self._table_columns.get((uri, local))
        token = source.version(table)  # before the scan: a write may race
        if token is not None and cached is not None \
                and cached.token == token:
            return cached.columns, cached.values, cached.row_count
        schema = function.return_schema
        names = [name for name, _t in source.columns(table)]
        if len(schema.columns) != len(names):
            raise UnknownArtifactError(
                f"schema/table column count mismatch for {function.name}")
        result = source.scan(table, request, None)
        values = [[] for _ in result.columns]
        for block in _column_blocks(result.rows, self.batch_size,
                                    context):
            for acc, col in zip(values, block):
                acc.extend(col)
        row_count = len(values[0]) if values else 0
        self._count_scan(result, row_count)
        whole = [name for name, _t in result.columns] == names
        if not whole:
            schema = self._project_schema(schema, result.columns)
        columns = [(decl.name, decl.xs_type) for decl in schema.columns]
        if whole and token is not None and not result.pushed:
            # Concurrent first scans keep one entry, for one join table.
            entry = _TableScan(token, columns, values, row_count)
            cached = self._table_columns.setdefault((uri, local), entry)
            if cached.token != token:
                cached = self._table_columns[(uri, local)] = entry
            values = cached.values
        return columns, values, row_count

    def scan_handles(self, uri: str, local: str,
                     context: Optional[QueryContext] = None,
                     scan: Optional[ScanRequest] = None):
        """A DML statement's read of its target: every column of the
        rows *scan*'s predicates select (a write needs whole rows, so
        the source is sent no projection), plus a last column,
        :data:`HANDLE`, of each row's source handle (``scan(...,
        handles=True)``). Never cached."""
        _function, _faulty, source, table = self._physical(uri, local)
        if context is not None:
            context.check()
        request = None if scan is None \
            else ScanRequest(predicates=scan.predicates)
        result = source.scan(table, request, context, handles=True)
        pairs = list(result)
        self._count_scan(result, len(pairs))
        handles, rows = zip(*pairs) if pairs else ((), ())
        values = list(map(list, zip(*rows))) or [[] for _ in result.columns]
        values.append(list(handles))
        return [*result.columns, (HANDLE, None)], values, len(pairs)

    def cached_entry(self, uri: str, local: str,
                     values: list) -> Optional[_TableScan]:
        """The column-cache entry whose column lists *values* (what
        :meth:`scan_columns` returned) are, or None: a pushed or
        uncached scan's, or a version replaced since."""
        entry = self._table_columns.get((uri, local))
        return entry if entry is not None and entry.values is values \
            else None

    @staticmethod
    def _project_schema(schema: RowSchema, scan_columns) -> RowSchema:
        """The row schema matching a (possibly projected) scan's
        columns, in the scan's column order."""
        names = [name for name, _t in scan_columns]
        if names == [decl.name for decl in schema.columns]:
            return schema
        by_name = {decl.name: decl for decl in schema.columns}
        return RowSchema(
            element_name=schema.element_name,
            target_namespace=schema.target_namespace,
            schema_location=schema.schema_location,
            children=tuple(by_name[name] for name in names
                           if name in by_name))

    def _rows_to_elements(self, schema, rows: list) -> list:
        """Materialize Python-value rows as typed flat XML elements
        (paper Example 1) — shared by every physical source kind."""
        columns = schema.columns
        name = QName(schema.element_name, schema.target_namespace,
                     prefix="ns0")
        result = []
        for row in rows:
            if len(row) != len(columns):
                raise UnknownArtifactError(
                    f"source row has {len(row)} values; schema "
                    f"{schema.element_name} declares {len(columns)} "
                    f"columns")
            element = Element(name)
            for decl, value in zip(columns, row):
                child = Element(QName(decl.name),
                                type_annotation=decl.xs_type)
                if value is not None:
                    child.append(Text(serialize_atomic(value)))
                element.append(child)
            result.append(element)
        return result

    def _read_csv(self, binding: CsvBinding, schema) -> list[tuple]:
        """Read a delimited file as typed rows; empty fields are NULL."""
        import csv

        columns = schema.columns
        rows: list[tuple] = []
        with open(binding.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, delimiter=binding.delimiter)
            for index, record in enumerate(reader):
                if binding.header and index == 0:
                    continue
                if not record:
                    continue
                values = []
                for decl, cell in zip(columns, record):
                    if cell == "":
                        values.append(None)
                    else:
                        values.append(parse_lexical(decl.xs_type, cell))
                rows.append(tuple(values))
        return rows

    def _validate_against_schema(self, function: DataServiceFunction,
                                 result: list) -> list:
        """Schema-validate a logical function's result.

        Logical function bodies build elements with constructors, which
        are untyped in the XQuery data model; the function's declared
        return type (``as schema-element(t1:X)*``) makes the real engine
        validate and type them. We reproduce that by annotating each
        result row's children with the declared xs: simple types.
        """
        schema = function.return_schema
        if not schema.is_flat():
            return result
        types = {decl.name: decl.xs_type for decl in schema.columns}
        for item in result:
            if not isinstance(item, Element):
                raise XQueryDynamicError(
                    f"{function.name} returned a non-element item",
                    code="XPTY0004")
            for child in item.child_elements():
                annotation = types.get(child.name.local)
                if annotation is not None and \
                        child.type_annotation is None:
                    child.type_annotation = annotation
        return result

    # -- writing -------------------------------------------------------------

    def write_target(self, uri: str, local: str):
        """``(source, physical table name)`` for DML against the
        data-service function ``{uri}local`` — the write-path twin of
        the scan dispatch in :meth:`_run_binding`. Raises
        ``NotSupportedError`` when the function is not backed by a
        source that accepts writes (logical/CSV/callable bindings, the
        read-only XML source, ...)."""
        if (uri, local) not in self._functions:
            raise UnknownArtifactError(
                f"no data service function {{{uri}}}{local}")
        target = self._physical(uri, local)
        if target is None:
            raise NotSupportedError(
                f"table {local} is not backed by a physical source and "
                f"cannot be written")
        _function, _faulty, source, table = target
        if source is None:
            raise UnknownArtifactError(
                f"table {local} is bound to an unregistered source")
        if not source.supports_write(table):
            raise NotSupportedError(
                f"source {source.name!r} is read-only for table "
                f"{table!r}")
        return source, table

    def note_write(self) -> None:
        """A write was committed (or an autocommit statement applied):
        drop the cached statistics, which now describe superseded
        versions. Nothing else depends on this hook: the statistics
        cache, cached plans and the column caches are all guarded by
        the sources' own version tokens."""
        self._stats_cache.clear()

    # -- statistics ----------------------------------------------------------

    def statistics_for(self, uri: str, local: str):
        """Table statistics for the data-service scan ``{uri}local()``,
        or None when the function is not a source-backed scan (or its
        source declines): the planner's callback for the for reorder
        and for EXPLAIN's estimates. Results are cached under the
        source's ``version`` token."""
        return self._statistics(uri, local)[1]

    def _statistics(self, uri: str, local: str) -> tuple:
        """``(version, statistics)`` of the table ``{uri}local()``
        scans: *version* is ``((source, table), token)``, None when the
        source has no token or fails."""
        target = self._physical(uri, local)
        if target is None or target[2] is None:
            return None, None
        _function, _faulty, source, table = target
        try:
            token = source.version(table)
            cached = self._stats_cache.get((uri, local))
            if cached is None or token is None or cached[0] != token:
                cached = self._stats_cache[(uri, local)] = (
                    token, source.statistics(table))
        except Exception:
            # Statistics are advisory: an unreachable or failing source
            # must degrade to default selectivities, not break compiles.
            return None, None
        return (None if token is None else ((source, table), token)), \
            cached[1]

    @staticmethod
    def _current(entry: tuple) -> bool:
        """True when no table whose statistics ordered *entry*'s plan
        has moved since (a failing source counts as moved)."""
        try:
            return all(source.version(table) == token
                       for (source, table), token in entry[1])
        except Exception:
            return False

    # -- query execution -----------------------------------------------------

    def prepare(self, xquery_text: str, tracer=None) -> CompiledQuery:
        """Parse and compile XQuery *text* (with caching): the entry
        point for user-written XQuery. A translated
        statement never comes this way — see :meth:`prepare_module`,
        which this joins once the text is parsed.

        The compiled plan is immutable and thread-safe, so one cache
        entry serves every subsequent execution of the same text. Pass a
        ``repro.obs.Tracer`` to record ``xquery.parse`` and
        ``xquery.compile`` spans (cold compiles only) under the caller's
        current span."""
        tracer = NULL_TRACER if tracer is None else tracer

        def parse() -> xq.Module:
            self._parses.increment()
            with tracer.span("xquery.parse"):
                return parse_xquery(xquery_text)

        return self._cached_plan(xquery_text, parse, tracer)

    def prepare_module(self, key, module: xq.Module,
                       tracer=None) -> CompiledQuery:
        """Compile a module that is already a tree (stage three's
        product), cached under *key*: whatever the
        caller's own cache tells modules apart by — the driver passes
        its statement-cache key, ``(format, sql)``, so looking a plan
        up never prints or hashes the query. Plans are shared by every
        connection of this runtime, so equal keys must mean equal
        modules."""
        return self._cached_plan(key, lambda: module,
                                 NULL_TRACER if tracer is None else tracer)

    def prepare_mutation(self, key, load_module,
                         handles: bool) -> CompiledQuery:
        """The compiled read of a DML statement (``repro.engine.dml``),
        planned without statistics, so no write re-plans it."""
        return self._cached_plan(key, load_module, NULL_TRACER, handles)

    def _cached_plan(self, key, load_module, tracer,
                     handles=None) -> CompiledQuery:
        """The plan of *key*, compiled on a miss from *load_module*'s
        module; *handles* is None for a read, a bool for a DML read.
        A read is planned with statistics, a DML read without.

        An entry keeps the ``((source, table), version token)`` pairs
        of the statistics its compile read — only a run of independent
        for clauses reads any — and a hit whose tables have moved since
        compiles again (a miss). A plan that read none is never
        re-checked: statistics could not have changed it."""
        read = handles is None

        def load() -> tuple:
            module = load_module()
            tokens: dict = {}

            def statistics(uri: str, local: str):
                version, stats = self._statistics(uri, local)
                if version is not None:
                    tokens.setdefault(*version)
                return stats

            with tracer.span("xquery.compile"):
                plan = compile_module(
                    module, resolver=self.call_function,
                    statistics=statistics if read else None,
                    batch_size=self.batch_size, columnar=self,
                    handles=bool(handles))
            if plan.batched_reason is not None:
                self.note_decline(plan.batched_reason)
            return plan, tuple(tokens.items())

        return self.plan_cache.get_or_load(
            (key, self.batch_size, handles), load, self._current)[0]

    def execute(self, xquery_text: str,
                variables: dict[str, object] | None = None,
                tracer=None,
                context: Optional[QueryContext] = None,
                actuals: Optional[dict] = None) -> list:
        """Compile (with plan caching) and evaluate an XQuery, returning
        the materialized result sequence. *context* bounds the run with
        a deadline/cancellation token checked per batch (or, on the
        Evaluator, per tuple batch). *actuals* (a dict) collects actual
        output rows per plan node, keyed to the plan's
        ``plan_reports``."""
        tracer = NULL_TRACER if tracer is None else tracer
        plan = self.prepare(xquery_text, tracer=tracer)
        with tracer.span("xquery.evaluate"):
            return plan.evaluate(variables, context=context,
                                 actuals=actuals)

    def metadata_api(self, latency: float = 0.0) -> MetadataAPI:
        """The remote metadata API endpoint for this application."""
        return MetadataAPI(self.application, latency=latency)


def _column_blocks(rows, batch_size: int, context) -> Iterator[list]:
    """Transpose a row stream into column blocks of up to *batch_size*
    rows (one tuple per column), ticking *context* once per block
    (``tick_rows``)."""
    rows = iter(rows)
    while True:
        block = list(zip(*islice(rows, batch_size)))
        if not block:
            return
        if context is not None:
            context.tick_rows(len(block[0]))
        yield block


def _flat_schema(name: str, project_name: str, service_path: str,
                 columns: list[tuple[str, str]]) -> RowSchema:
    """The flat row schema of a data service function: namespace and
    .xsd location follow from where the service lives."""
    service_name = service_path.rsplit("/", 1)[-1]
    return flat_schema(name, f"ld:{project_name}/{service_path}",
                       f"ld:{project_name}/schemas/{service_name}.xsd",
                       columns)


def csv_function(name: str, path: str, project_name: str,
                 service_path: str, columns: list[tuple[str, str]],
                 delimiter: str = ",", header: bool = True) \
        -> DataServiceFunction:
    """A physical data service over a delimited file (Figure 1's 'files'
    source kind). ``columns`` maps column names to xs: simple types, in
    file order."""
    return DataServiceFunction(
        name=name,
        return_schema=_flat_schema(name, project_name, service_path,
                                   columns),
        binding=CsvBinding(path=path, delimiter=delimiter, header=header),
    )


def callable_function(name: str, provider, project_name: str,
                      service_path: str, columns: list[tuple[str, str]],
                      parameters: tuple[FunctionParameter, ...] = ()) \
        -> DataServiceFunction:
    """A physical data service over a host Python function (Figure 1's
    'custom functions' source kind). *provider* receives one positional
    argument per declared parameter and returns row tuples."""
    return DataServiceFunction(
        name=name,
        return_schema=_flat_schema(name, project_name, service_path,
                                   columns),
        parameters=parameters,
        binding=CallableBinding(provider=provider),
    )


def logical_function(name: str, body: str, project_name: str,
                     service_path: str,
                     columns: list[tuple[str, str]],
                     element_name: str | None = None,
                     parameters: tuple[FunctionParameter, ...] = ()) \
        -> DataServiceFunction:
    """Build a logical data service function with an XQuery body.

    ``columns`` maps the flat result's child element names to xs: simple
    type names, defining the .xsd the data service developer would author.
    """
    return DataServiceFunction(
        name=name,
        return_schema=_flat_schema(element_name or name, project_name,
                                   service_path, columns),
        parameters=parameters,
        binding=XQueryBinding(body),
    )


def source_function(table_name: str,
                    columns: list[tuple[str, "SQLType"]],
                    project_name: str, service_path: str,
                    source_name: str | None = None) -> DataServiceFunction:
    """The physical data service function for a table of an SPI source.

    With *source_name* the function is bound to that registered source
    (:class:`SourceBinding`); without it, to the runtime's default
    source (:class:`TableBinding`) — the metadata-import shape the
    paper's relational wizard produces."""
    schema_columns = [(name, sql_to_xs(sql_type))
                      for name, sql_type in columns]
    binding = (TableBinding(table_name) if source_name is None
               else SourceBinding(source_name, table_name))
    return DataServiceFunction(
        name=table_name,
        return_schema=_flat_schema(table_name, project_name, service_path,
                                   schema_columns),
        binding=binding,
    )


def import_tables(application: Application, project_name: str,
                  storage: "Storage | DataSource",
                  tables: list[str] | None = None) -> None:
    """Simulate DSP's relational metadata import: create one physical data
    service per table under *project_name*. *storage* may be a classic
    :class:`Storage` or any :class:`DataSource` (the runtime's default
    source); either way the functions are table-bound, so the runtime
    routes them through its default source's scan path."""
    project = application.projects.get(project_name)
    if project is None:
        from ..catalog import Project
        project = Project(project_name)
        application.add_project(project)
    is_source = isinstance(storage, DataSource)
    names = tables if tables is not None else (
        storage.tables() if is_source else storage.table_names())
    for table_name in names:
        columns = (storage.columns(table_name) if is_source
                   else list(storage.table(table_name).columns))
        service = DataService(table_name)
        service.add_function(
            source_function(table_name, columns, project_name,
                            table_name))
        project.add_data_service(service)


def import_source(application: Application, project_name: str,
                  source: DataSource,
                  tables: list[str] | None = None) -> None:
    """Metadata-import a *registered* (non-default) SPI source: one
    physical data service per table, bound by source name. The source
    must also be attached to the runtime with ``register_source``."""
    project = application.projects.get(project_name)
    if project is None:
        from ..catalog import Project
        project = Project(project_name)
        application.add_project(project)
    for table_name in (tables if tables is not None else source.tables()):
        service = DataService(table_name)
        service.add_function(
            source_function(table_name, source.columns(table_name),
                            project_name, table_name,
                            source_name=source.name))
        project.add_data_service(service)
