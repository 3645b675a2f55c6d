"""An interactive SQL shell over a DSP runtime — ``python -m repro``.

The closest thing to pointing a reporting tool at the driver: type
SQL-92, get tabular results. Backslash commands inspect the machinery:

=================  ====================================================
``\\tables``        list SQL-visible tables (Figure-2 mapping)
``\\schema T``      columns of table T
``\\translate SQL`` print the generated XQuery instead of executing
``\\explain SQL``   print the context/RSN report with stage timings
``\\format F``      switch result path: ``delimited`` or ``xml``
``\\timeout S``     per-statement deadline in seconds (``off`` = none)
``\\trace on|off``  print the span tree after each executed query
``\\stats``         print counters, histograms, cache/admission stats
``\\begin``         open an explicit transaction
``\\commit``        commit it
``\\rollback``      roll it back
``\\autocommit X``  ``on`` or ``off`` (the default is on)
``\\connect DSN``   reconnect: ``repro://app/project`` (embedded) or
                   ``repro+tcp://host:port/app/project?token=...``
                   (a remote ``repro.server``)
``\\quit``          leave
=================  ====================================================

Non-interactive: ``python -m repro "SELECT * FROM CUSTOMERS"`` (add
``--translate`` or ``--explain`` for the inspection forms).
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

from .driver import connect
from .engine.dsp import DSPRuntime
from .errors import ReproError
from .translator import explain
from .workloads import build_runtime

PROMPT = "sql> "


def format_table(headers: list[str], rows: list[tuple]) -> str:
    """Fixed-width text rendering of a result set."""
    cells = [[("NULL" if value is None else str(value)) for value in row]
             for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, text in enumerate(row):
            widths[index] = max(widths[index], len(text))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(" | ".join(t.ljust(w) for t, w in zip(row, widths)))
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


class Shell:
    """One shell session bound to a runtime."""

    def __init__(self, runtime: Optional[DSPRuntime] = None,
                 out: Callable[[str], None] = print):
        self._runtime = runtime or build_runtime()
        self._format = "delimited"
        #: The active connect target: a DSN string after ``\connect``,
        #: else the in-process runtime.
        self._dsn: Optional[str] = None
        self._connection = connect(self._runtime, format=self._format)
        self._out = out

    # -- command dispatch --------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the shell should
        exit."""
        line = line.strip()
        if not line:
            return True
        if line.startswith("\\"):
            return self._command(line)
        self._execute(line)
        return True

    def _command(self, line: str) -> bool:
        name, _, argument = line.partition(" ")
        argument = argument.strip()
        if name in ("\\quit", "\\q"):
            return False
        if name == "\\tables":
            self._tables()
        elif name == "\\schema":
            self._schema(argument)
        elif name == "\\translate":
            self._translate(argument)
        elif name == "\\explain":
            self._explain(argument)
        elif name == "\\format":
            self._set_format(argument)
        elif name == "\\timeout":
            self._set_timeout(argument)
        elif name == "\\trace":
            self._set_trace(argument)
        elif name == "\\stats":
            self._stats()
        elif name == "\\connect":
            self._connect(argument)
        elif name == "\\begin":
            self._txn_command("begin")
        elif name == "\\commit":
            self._txn_command("commit")
        elif name == "\\rollback":
            self._txn_command("rollback")
        elif name == "\\autocommit":
            self._set_autocommit(argument)
        else:
            self._out(f"unknown command {name}; try \\tables, \\schema, "
                      f"\\translate, \\explain, \\format, \\timeout, "
                      f"\\trace, \\stats, \\connect, \\begin, \\commit, "
                      f"\\rollback, \\autocommit, \\quit")
        return True

    # -- command implementations ----------------------------------------------

    def _execute(self, sql: str) -> None:
        try:
            cursor = self._connection.cursor()
            cursor.execute(sql)
            if cursor.description is None:
                # DML: no result set; report the affected-row count the
                # way command-line database shells do.
                count = cursor.rowcount
                self._out(f"OK, {count} row{'s' if count != 1 else ''} "
                          f"affected")
            else:
                headers = [d[0] for d in cursor.description]
                self._out(format_table(headers, cursor.fetchall()))
        except ReproError as exc:
            self._out(f"error: {exc}")
            return
        if self._connection.tracer.enabled:
            root = self._connection.tracer.last_root()
            if root is not None:
                self._out(root.render())

    def _tables(self) -> None:
        for schema, table in self._connection.metadata().tables():
            self._out(f"{schema}.{table}")
        for schema, proc in self._connection.metadata().procedures():
            self._out(f"{schema}.{proc}  (procedure)")

    def _schema(self, table: str) -> None:
        if not table:
            self._out("usage: \\schema TABLE")
            return
        try:
            columns = self._connection.metadata().columns(table)
        except ReproError as exc:
            self._out(f"error: {exc}")
            return
        for name, type_name, position, nullable in columns:
            null = "NULL" if nullable else "NOT NULL"
            self._out(f"{position:>3}  {name}  {type_name}  {null}")

    def _local_only(self, command: str) -> bool:
        """True (and explains why) when *command* needs the in-process
        translator, which a remote connection does not expose."""
        if hasattr(self._connection, "translator"):
            return False
        self._out(f"{command} needs an embedded connection; "
                  f"\\connect repro://app/project to go local")
        return True

    def _translate(self, sql: str) -> None:
        if not sql:
            self._out("usage: \\translate SELECT ...")
            return
        if self._local_only("\\translate"):
            return
        try:
            fmt = "delimited" if self._format == "delimited" \
                else "recordset"
            result = self._connection.translator.translate(sql, format=fmt)
            self._out(result.xquery)
        except ReproError as exc:
            self._out(f"error: {exc}")

    def _explain(self, sql: str) -> None:
        if not sql:
            self._out("usage: \\explain SELECT ...")
            return
        if self._local_only("\\explain"):
            return
        try:
            fmt = "delimited" if self._format == "delimited" \
                else "recordset"
            result = self._connection.translator.translate(sql, format=fmt)
            # The compiled plan (cache-warm after a prior execution)
            # contributes the cost-based pipeline nodes and estimates.
            # Ask the active connection's runtime, which after \connect
            # may not be the one this shell was constructed over.
            runtime = getattr(self._connection, "_runtime", self._runtime)
            plan = runtime.prepare_module((fmt, sql), result.module)
            self._out(explain(result.unit,
                              stage_timings=result.stage_timings,
                              plan_reports=plan.plan_reports,
                              executor=plan.executor))
        except ReproError as exc:
            self._out(f"error: {exc}")

    def _set_format(self, fmt: str) -> None:
        if fmt not in ("delimited", "xml"):
            self._out("usage: \\format delimited|xml")
            return
        self._format = fmt
        # The reconnect goes to the active target — the DSN from
        # \connect if one is set, else the in-process runtime.
        if self._reconnect(self._dsn or self._runtime):
            self._out(f"result format: {fmt}")

    def _reconnect(self, target) -> bool:
        """Replace the connection with one to *target*, keeping the
        tracer, metrics, and timeout so \\trace state, \\stats history,
        and \\timeout survive; False (after reporting) on failure."""
        old = self._connection
        try:
            fresh = connect(target, format=self._format,
                            tracer=old.tracer, metrics=old.metrics)
        except ReproError as exc:
            self._out(f"error: {exc}")
            return False
        if old.default_timeout is not None:
            fresh.default_timeout = old.default_timeout
        self._connection = fresh
        old.close()
        return True

    def _connect(self, dsn: str) -> None:
        if not dsn:
            self._out("usage: \\connect repro://app/project | "
                      "repro+tcp://host:port/app/project?token=...")
            return
        if not self._reconnect(dsn):
            return
        self._dsn = dsn
        from .driver.dsn import parse_dsn
        self._out(f"connected: {parse_dsn(dsn).display()}")

    def _txn_command(self, verb: str) -> None:
        try:
            getattr(self._connection, verb)()
        except ReproError as exc:
            self._out(f"error: {exc}")
            return
        self._out(f"{verb}: ok")

    def _set_autocommit(self, argument: str) -> None:
        if argument not in ("on", "off"):
            self._out("usage: \\autocommit on|off")
            return
        try:
            self._connection.autocommit = argument == "on"
        except ReproError as exc:
            self._out(f"error: {exc}")
            return
        self._out(f"autocommit: {argument}")

    def _set_timeout(self, argument: str) -> None:
        if argument == "off":
            self._connection.default_timeout = None
            self._out("statement timeout: off")
            return
        try:
            seconds = float(argument)
        except ValueError:
            self._out("usage: \\timeout SECONDS|off")
            return
        if seconds <= 0:
            self._out("usage: \\timeout SECONDS|off")
            return
        self._connection.default_timeout = seconds
        self._out(f"statement timeout: {seconds:g}s")

    def _set_trace(self, argument: str) -> None:
        if argument == "on":
            self._connection.tracer.enable()
            self._out("tracing: on")
        elif argument == "off":
            self._connection.tracer.disable()
            self._out("tracing: off")
        else:
            self._out("usage: \\trace on|off")

    def _stats(self) -> None:
        snapshot = self._connection.stats()
        self._out("COUNTERS")
        for name, value in sorted(snapshot["counters"].items()):
            self._out(f"  {name} = {value}")
        self._out("HISTOGRAMS")
        for name, summary in sorted(snapshot["histograms"].items()):
            if summary["count"] == 0:
                self._out(f"  {name}: no observations")
                continue
            self._out(
                f"  {name}: count={summary['count']} "
                f"mean={summary['mean'] * 1000:.3f}ms "
                f"p50={summary['p50'] * 1000:.3f}ms "
                f"p95={summary['p95'] * 1000:.3f}ms "
                f"max={summary['max'] * 1000:.3f}ms")
        for cache in ("statement_cache", "metadata_cache", "plan_cache"):
            stats = snapshot[cache]
            self._out(f"{cache.upper()}: hits={stats['hits']} "
                      f"misses={stats['misses']} "
                      f"evictions={stats['evictions']} "
                      f"size={stats['size']}/{stats['capacity']}")
        admission = snapshot["admission"]
        self._out(
            f"ADMISSION: active={admission['active']}"
            f"/{admission['max_concurrent']} "
            f"queued={admission['queued']} "
            f"admitted={admission['admitted']} "
            f"rejected={admission['rejected']} "
            f"inflight_rows={admission['inflight_rows']}"
            f"/{admission['max_inflight_rows']}")
        runtime_counters = snapshot["runtime"].get("counters", {})
        retries = runtime_counters.get("source.retries", 0)
        failures = runtime_counters.get("source.failures", 0)
        index_hits = runtime_counters.get("sources.index_hits", 0)
        index_builds = runtime_counters.get("sources.index_builds", 0)
        scanned = runtime_counters.get("sources.rows_scanned", 0)
        pushed = runtime_counters.get("sources.rows_pushed", 0)
        self._out(f"SOURCES: rows_scanned={scanned} rows_pushed={pushed} "
                  f"retries={retries} failures={failures} "
                  f"index_hits={index_hits} index_builds={index_builds}")
        txn = snapshot.get("transactions")
        if txn is not None:
            self._out(
                f"TRANSACTIONS: active={'yes' if txn['active'] else 'no'} "
                f"begun={txn['begun']} committed={txn['committed']} "
                f"rolled_back={txn['rolled_back']} "
                f"autocommits={txn['autocommits']} "
                f"statements={txn['statements']} "
                f"rows_written={txn['rows_written']}")
        server = snapshot.get("server")
        if server is not None:
            quota = server.get("tenant", {})
            self._out(
                f"SERVER: sessions={server.get('sessions', 0)} "
                f"tenant_active={quota.get('active', 0)}"
                f"/{quota.get('max_concurrent')} "
                f"tenant_rejected={quota.get('rejected', 0)}")
            wire = snapshot["client"]["counters"]
            self._out(
                f"WIRE: roundtrips={wire.get('wire.roundtrips', 0)} "
                f"bytes_received={wire.get('wire.bytes_received', 0)} "
                f"rows_fetched={wire.get('rows.fetched', 0)}")
        self._out(
            f"AGGREGATION: "
            f"queries={runtime_counters.get('vector.agg_queries', 0)} "
            f"groups={runtime_counters.get('vector.agg_groups', 0)}")
        as_computed = runtime_counters.get("vector.as_computed_columns", 0)
        generic = runtime_counters.get("vector.generic_columns", 0)
        self._out(f"TYPED ROWS: as_computed_columns={as_computed} "
                  f"generic_columns={generic}")

    # -- loops --------------------------------------------------------------

    def run_interactive(self, stdin=None) -> None:
        stdin = stdin or sys.stdin
        self._out("repro SQL shell — \\tables to explore, \\quit to exit")
        while True:
            self._out(PROMPT)
            line = stdin.readline()
            if not line or not self.handle(line):
                return


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    mode = "execute"
    if "--translate" in argv:
        argv.remove("--translate")
        mode = "translate"
    if "--explain" in argv:
        argv.remove("--explain")
        mode = "explain"
    shell = Shell()
    if not argv:
        shell.run_interactive()
        return 0
    sql = " ".join(argv)
    if mode == "translate":
        shell.handle(f"\\translate {sql}")
    elif mode == "explain":
        shell.handle(f"\\explain {sql}")
    else:
        shell.handle(sql)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
