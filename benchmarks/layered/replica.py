"""The traced run: a bench-side replica of the driver pipeline.

``Replica.run`` does what ``Cursor.execute`` + ``fetchall`` do, by
calling each layer's public functions in the same order and opening a
span around each call — nothing under ``src/`` is instrumented. Span
names are ``<package>.<step>`` after the packages under ``src/repro``.
The rows it returns are checked like the driver's: a replica that
computes something else measures another program.

What the outside view cannot split: a scan the plan pushes down to the
source runs inside ``engine.evaluate`` (see README, "Reading a traced
run").
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.catalog import MetadataCache
from repro.driver.codec import iter_decode_delimited
from repro.driver.dbapi import DEFAULT_STATEMENT_CACHE_CAPACITY
from repro.engine.dml import mutation_parameter_count, plan_mutation
from repro.engine.lifecycle import QueryContext
from repro.obs import LRUCache
from repro.server.protocol import (
    decode_row, encode_row, pack_frame, unpack_payload)
from repro.sql import parse_mutation, parse_statement
from repro.translator import SQLToXQueryTranslator

from workloads import fetch_rows

ROOT = "statement"
REMOTE_ROOT = "remote.statement"


class SpanRecorder:
    """Spans kept in memory as dicts: id, name, parent id, statement id,
    start, end (``perf_counter`` seconds) and free attributes. It also
    stands in for ``repro.obs.Tracer`` where a public function takes
    one (``DSPRuntime.prepare`` opens ``xquery.parse`` /
    ``xquery.compile`` on it)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.statement = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attributes):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "statement": self.statement,
                  "start": time.perf_counter(), "end": None, **attributes}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add_child(self, name: str, parent: dict, seconds: float,
                  **attributes) -> None:
        """A span measured beside *parent* rather than inside it (the
        SQL parse, which stage one calls internally): recorded as its
        first child so self times still add up."""
        self.spans.append({
            "id": len(self.spans), "name": name, "parent": parent["id"],
            "statement": parent["statement"], "start": parent["start"],
            "end": parent["start"] + seconds, **attributes})


def self_seconds(spans: list) -> dict:
    """Total self time per span name: duration minus child spans."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    totals = defaultdict(float)
    for span in spans:
        totals[span["name"]] += \
            span["end"] - span["start"] - children[span["id"]]
    return totals


class Replica:
    """The embedded pipeline over *runtime*, with its own statement and
    metadata caches (the driver's are per connection too) and the
    runtime's shared plan cache."""

    def __init__(self, runtime, recorder: SpanRecorder):
        self.runtime = runtime
        self.recorder = recorder
        self.metadata = MetadataCache(runtime.metadata_api())
        self.translator = SQLToXQueryTranslator(self.metadata)
        self.statements = LRUCache(DEFAULT_STATEMENT_CACHE_CAPACITY)
        #: Tables whose statistics are current; a write empties it.
        self._fresh_statistics: set = set()
        #: Classes whose last execution scanned through pushdown.
        self._pushed: dict = {}
        self._rows_pushed = runtime.metrics.counter("sources.rows_pushed")

    def forget_statistics(self) -> None:
        """A write went through (here or on the driver connection)."""
        self._fresh_statistics.clear()

    def _target(self, table: str) -> tuple:
        meta = self.metadata.fetch_table(table)
        return meta.namespace, meta.function_name

    def run(self, statement) -> tuple:
        """Execute *statement*: (rows for a query or rowcount for DML,
        seconds its root span took)."""
        self.recorder.statement += 1
        if statement.write:
            return self._mutate(statement)
        return self.query(statement)

    def query(self, statement) -> tuple:
        """The SELECT pipeline, under the current statement id."""
        recorder, runtime = self.recorder, self.runtime
        sql = statement.sql
        translation = self.statements.get(sql)
        stage1_span = None
        with recorder.span(ROOT, cls=statement.cls.name) as root:
            if translation is None:
                with recorder.span("translator.stage1") as stage1_span:
                    stage1 = self.translator.stage1(sql)
                with recorder.span("translator.stage2"):
                    unit = self.translator.stage2(stage1)
                with recorder.span("translator.stage3"):
                    translation = self.translator.stage3(
                        unit, format="delimited")
                self.statements.put(sql, translation)
            variables = translation.parameter_variables(statement.params)
            context = QueryContext()
            targets = [self._target(table)
                       for table in statement.cls.tables]
            stale = [target for target in targets
                     if target not in self._fresh_statistics]
            if stale:
                with recorder.span("sources.stats"):
                    for uri, local in stale:
                        runtime.statistics_for(uri, local)
                self._fresh_statistics.update(stale)
            plan = runtime.prepare(translation.xquery, tracer=recorder)
            if not self._pushed.get(statement.cls.name):
                # Fill the cache the plan's own unpushed scan reads, so
                # the source's share is a span of its own.
                with recorder.span("sources.scan"):
                    for uri, local in targets:
                        if plan.batched:
                            runtime.scan_columns(uri, local, context)
                        else:
                            runtime.call_function(uri, local, [], context)
            pushed_before = self._rows_pushed.value
            with recorder.span("engine.evaluate"):
                if plan.streams_text:
                    chunks = list(plan.stream_chunks(variables,
                                                     context=context))
                else:
                    chunks = ["".join(str(item) for item in plan.evaluate(
                        variables, context=context))]
            self._pushed[statement.cls.name] = \
                self._rows_pushed.value != pushed_before
            with recorder.span("driver.decode"):
                rows = list(iter_decode_delimited(
                    chunks, translation.columns, context=context))
            root.update(batched=plan.batched, rows=len(rows),
                        xquery_chars=len(translation.xquery),
                        text_bytes=sum(map(len, chunks)))
        if stage1_span is not None:
            # Stage one parses internally; time the same parse again,
            # outside the statement, to split it out of the stage.
            started = time.perf_counter()
            parse_statement(sql)
            recorder.add_child("sql.parse", stage1_span,
                               time.perf_counter() - started)
        return rows, root["end"] - root["start"]

    def _mutate(self, statement) -> int:
        recorder, runtime = self.recorder, self.runtime
        key = ("dml", statement.sql)
        with recorder.span(ROOT, cls=statement.cls.name) as root:
            parsed = self.statements.get(key)
            if parsed is None:
                with recorder.span("sql.parse"):
                    parsed = parse_mutation(statement.sql)
                mutation_parameter_count(parsed)  # the driver's loader does
                self.statements.put(key, parsed)
            metadata = self.metadata.fetch_table(
                parsed.table.name, schema=parsed.table.schema,
                catalog=parsed.table.catalog)
            with runtime.write_lock:
                with recorder.span("engine.dml_plan"):
                    plan = plan_mutation(runtime, parsed, metadata,
                                         statement.params)
                with recorder.span("sources.apply"):
                    result = plan.source.apply_mutations(
                        plan.mutations, expected_version=plan.version)
            runtime.note_write()
            self.forget_statistics()
        return result.rowcount, root["end"] - root["start"]


class RemoteReplica:
    """A traced ``remote_paged`` statement: the real client (one
    ``remote.statement`` span), then the same statement on an identical
    embedded runtime through :class:`Replica`, then the wire codec
    replayed on the pages received. What is left of the remote time is
    ``server.wire_self``: socket, event loop, executor hand-off."""

    def __init__(self, connection, local: Replica):
        self.cursor = connection.cursor()
        self.local = local
        self.recorder = local.recorder
        self._roundtrips = connection.metrics.counter("wire.roundtrips")

    def run(self, statement) -> tuple:
        recorder = self.recorder
        recorder.statement += 1
        before = self._roundtrips.value
        with recorder.span(REMOTE_ROOT, cls=statement.cls.name) as root:
            self.cursor.execute(statement.sql, statement.params)
            rows, _first_at, pages = fetch_rows(self.cursor, True)
        root.update(rows=len(rows),
                    pages=self._roundtrips.value - before - 1)
        local_rows, _seconds = self.local.query(statement)
        if local_rows != rows:
            raise RuntimeError(
                "embedded replica and remote server disagree on "
                f"{statement.sql!r}")
        wire_bytes = 0
        with recorder.span("server.frame_codec") as codec:
            for page in pages:
                frame = pack_frame({
                    "id": 1, "ok": True, "rowcount": -1, "exhausted": False,
                    "rows": [encode_row(row) for row in page]})
                wire_bytes += len(frame)
                message = unpack_payload(frame[4:])
                for wire_row in message["rows"]:
                    decode_row(wire_row)
        codec.update(wire_bytes=wire_bytes)
        return rows, root["end"] - root["start"]
