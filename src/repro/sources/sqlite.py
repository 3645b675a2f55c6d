"""SQLite-backed relational source with predicate/projection pushdown.

The closest thing the reproduction has to the paper's "relational
source behind a physical data service": rows live in a SQLite database
(file or ``:memory:``) and the engine's sargable conjuncts are
translated back into SQLite SQL so filtering happens inside the store.

Storage representation
----------------------
SQLite's type affinity would silently reshape some of our SQL-92
values, so column declarations are chosen to defeat it:

* ``DECIMAL(p,s)`` columns are declared ``DECIMAL_TEXT(p,s)`` — the
  ``TEXT`` substring (with no ``INT``) forces TEXT affinity, so
  ``Decimal("2500.50")`` round-trips byte-exact instead of collapsing
  to the REAL ``2500.5``. The decltype parser maps it back to DECIMAL.
* ``DATE``/``TIME``/``TIMESTAMP`` are stored as ISO-8601 text (their
  NUMERIC affinity leaves non-numeric-looking text alone). ISO text
  compares lexicographically in chronological order, so datetime
  predicates remain pushable.

Pushdown gate
-------------
``supports_predicate`` refuses any conjunct whose native SQLite
comparison could disagree with the engine's XQuery semantics:
values must match the column's type category exactly (no bool-as-int,
no datetime-as-date), and DECIMAL/REAL/DOUBLE comparisons are never
pushed (DECIMAL is stored as text; float equality is a trap). Refused
conjuncts simply fall back to a full scan plus the engine's residual
filter — pushdown is advisory, so correctness never depends on it.
``scan`` applies the gate itself, once per conjunct, and reports
``pushed`` when any conjunct reached the WHERE clause. A projection is
answered in schema order; one that names every column selects the
whole row, so the runtime can cache the answer as the table version.

Write path
----------
Since PR 9 the source accepts mutations natively: each statement's
batch runs inside a ``SAVEPOINT`` (statement atomicity), and the
transaction surface (:meth:`~SQLiteSource.begin_txn` et al.) nests an
outer savepoint around them, so multi-statement rollback undoes every
row exactly. A row's handle is its ``rowid``: the victim scan
(``scan(..., handles=True)``) is the ordinary scan SELECT — same WHERE
rendering, same ``ORDER BY rowid`` — with ``rowid`` leading the select
list, and UPDATE/DELETE address each victim with ``WHERE rowid = ?``. A
handle that matches no row fails the statement inside its savepoint.
"""

from __future__ import annotations

import datetime
import sqlite3
import threading
from decimal import Decimal
from typing import Optional, Sequence

from ..errors import CatalogError, OperationalError, \
    SourceUnavailableError, UnknownArtifactError
from ..sql.types import (
    BIGINT,
    DOUBLE,
    INTEGER,
    REAL,
    SMALLINT,
    SQLType,
    VARCHAR,
)
from .spi import (
    ColumnStats,
    DataSource,
    MutationResult,
    Predicate,
    Scan,
    ScanRequest,
    TableStatistics,
)

_OP_SQL = {"eq": "=", "ne": "<>", "lt": "<", "le": "<=",
           "gt": ">", "ge": ">="}

#: Column type kinds whose comparisons are safe to evaluate in SQLite
#: (given a value of the matching Python type; see _value_matches).
_PUSHABLE_KINDS = frozenset({"SMALLINT", "INTEGER", "BIGINT",
                             "CHAR", "VARCHAR",
                             "DATE", "TIME", "TIMESTAMP"})

_INT_KINDS = frozenset({"SMALLINT", "INTEGER", "BIGINT"})


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _decltype_for(sql_type: SQLType) -> str:
    """The SQLite column declaration that preserves our value model."""
    kind = sql_type.kind
    if kind == "DECIMAL":
        if sql_type.precision is not None and sql_type.scale is not None:
            return f"DECIMAL_TEXT({sql_type.precision},{sql_type.scale})"
        if sql_type.precision is not None:
            return f"DECIMAL_TEXT({sql_type.precision})"
        return "DECIMAL_TEXT"
    if kind in ("CHAR", "VARCHAR") and sql_type.length is not None:
        return f"{kind}({sql_type.length})"
    return kind


def _type_from_decltype(decl: Optional[str]) -> SQLType:
    """Recover a SQLType from a SQLite column declaration.

    Understands our own ``_decltype_for`` output plus the common SQLite
    spellings of external databases; anything unrecognized degrades to
    VARCHAR (always safe: values pass through as text).
    """
    if not decl:
        return VARCHAR
    text = decl.strip().upper()
    base, _sep, arg_text = text.partition("(")
    base = base.strip()
    args: list[int] = []
    for part in arg_text.rstrip(")").split(","):
        part = part.strip()
        if part.isdigit():
            args.append(int(part))
    if base in ("DECIMAL_TEXT", "DECIMAL", "DEC", "NUMERIC"):
        return SQLType("DECIMAL",
                       precision=args[0] if args else None,
                       scale=args[1] if len(args) > 1 else None)
    if "INT" in base:
        if base == "SMALLINT":
            return SMALLINT
        if base == "BIGINT":
            return BIGINT
        return INTEGER
    if base == "DATE":
        return SQLType("DATE")
    if base == "TIME":
        return SQLType("TIME")
    if base in ("TIMESTAMP", "DATETIME"):
        return SQLType("TIMESTAMP")
    if "CHAR" in base or "CLOB" in base or base == "TEXT":
        kind = "CHAR" if base in ("CHAR", "CHARACTER") else "VARCHAR"
        return SQLType(kind, length=args[0] if args else None)
    if "REAL" in base:
        return REAL
    if "FLOA" in base or "DOUB" in base:
        return DOUBLE
    return VARCHAR


def _encode(value: object, sql_type: SQLType) -> object:
    """Python value -> its SQLite storage representation."""
    if value is None:
        return None
    kind = sql_type.kind
    if kind == "DECIMAL":
        return str(value)
    if kind in ("DATE", "TIME", "TIMESTAMP"):
        return value.isoformat()
    return value


def _decode(value: object, sql_type: SQLType) -> object:
    """SQLite storage representation -> Python value."""
    if value is None:
        return None
    kind = sql_type.kind
    if kind in _INT_KINDS:
        return int(value)
    if kind == "DECIMAL":
        return Decimal(str(value))
    if kind in ("REAL", "DOUBLE"):
        return float(value)
    if kind == "DATE":
        return datetime.date.fromisoformat(str(value))
    if kind == "TIME":
        return datetime.time.fromisoformat(str(value))
    if kind == "TIMESTAMP":
        return datetime.datetime.fromisoformat(str(value))
    return str(value)


def _value_matches(value: object, sql_type: SQLType) -> bool:
    """True when comparing *value* against a *sql_type* column in
    SQLite agrees with the engine's comparison semantics."""
    kind = sql_type.kind
    if kind in _INT_KINDS:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind in ("CHAR", "VARCHAR"):
        # SQLite's BINARY collation compares UTF-8 bytes, which orders
        # identically to codepoint comparison.
        return isinstance(value, str)
    if kind == "DATE":
        return (isinstance(value, datetime.date)
                and not isinstance(value, datetime.datetime))
    if kind == "TIME":
        return isinstance(value, datetime.time)
    if kind == "TIMESTAMP":
        return isinstance(value, datetime.datetime)
    return False


class SQLiteSource(DataSource):
    """A :class:`DataSource` over a SQLite database.

    One shared connection guarded by a lock (``check_same_thread`` off
    so any thread may scan); rows stream in ``fetchmany`` batches with
    the lock released between batches. Scan order is pinned with
    ``ORDER BY rowid`` so repeated scans are stable.
    """

    def __init__(self, path: str = ":memory:", name: str = "sqlite",
                 batch_size: int = 256):
        super().__init__(name)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.path = path
        self.batch_size = batch_size
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        # Autocommit at the sqlite3-module level: the write path manages
        # atomicity itself with SAVEPOINTs (which work identically inside
        # and outside an explicit transaction), so the module's implicit
        # BEGIN-before-DML would only fight it.
        self._connection.isolation_level = None
        self._columns_cache: dict[str, list[tuple[str, SQLType]]] = {}
        self._in_txn = False
        #: Bumped on every transaction rollback; part of the version
        #: token (see :meth:`version`) because ``total_changes`` alone
        #: cannot distinguish the restored state from the undone one.
        self._mutation_epoch = 0

    @classmethod
    def from_storage(cls, storage, path: str = ":memory:",
                     name: str = "sqlite",
                     batch_size: int = 256) -> "SQLiteSource":
        """Materialize an in-memory :class:`Storage` into SQLite."""
        source = cls(path=path, name=name, batch_size=batch_size)
        for table_name in storage.table_names():
            table = storage.table(table_name)
            source.create_table(table_name, table.columns)
            source.insert_rows(table_name, table.rows)
        return source

    # -- loading -----------------------------------------------------------

    def create_table(self, table: str,
                     columns: Sequence[tuple[str, SQLType]]) -> None:
        decls = ", ".join(f"{_quote(n)} {_decltype_for(t)}"
                          for n, t in columns)
        with self._lock:
            self._check_open()
            try:
                self._connection.execute(
                    f"CREATE TABLE {_quote(table)} ({decls})")
            except sqlite3.OperationalError as exc:
                raise CatalogError(str(exc)) from None
            self._connection.commit()
            self._columns_cache.pop(table, None)

    def insert_rows(self, table: str, rows) -> None:
        columns = self.columns(table)
        placeholders = ", ".join("?" for _ in columns)
        sql = f"INSERT INTO {_quote(table)} VALUES ({placeholders})"
        types = [t for _n, t in columns]
        encoded = [tuple(_encode(v, t) for v, t in zip(row, types))
                   for row in rows]
        with self._lock:
            self._check_open()
            self._connection.executemany(sql, encoded)
            self._connection.commit()

    # -- metadata ----------------------------------------------------------

    def tables(self) -> list[str]:
        with self._lock:
            self._check_open()
            cursor = self._connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name")
            return [row[0] for row in cursor.fetchall()]

    def columns(self, table: str) -> list[tuple[str, SQLType]]:
        with self._lock:
            self._check_open()
            cached = self._columns_cache.get(table)
            if cached is not None:
                return list(cached)
            cursor = self._connection.execute(
                f"PRAGMA table_info({_quote(table)})")
            info = cursor.fetchall()
            if not info:
                raise UnknownArtifactError(
                    f"no table {table} in source {self.name!r}")
            columns = [(row[1], _type_from_decltype(row[2]))
                       for row in info]
            self._columns_cache[table] = columns
            return list(columns)

    def version(self, table: str) -> object:
        """Connection-global change token: ``PRAGMA data_version``
        (bumped when *another* connection commits), ``total_changes``
        (bumped by this connection's own writes), and the rollback
        epoch. The epoch is what keeps tokens *unique across distinct
        visible states*: ``ROLLBACK TO`` does not advance
        ``total_changes``, so without it the post-rollback state would
        carry the same token as the mid-transaction state it undid —
        and any token-guarded cache would happily serve the rolled-back
        rows."""
        with self._lock:
            self._check_open()
            data_version = self._connection.execute(
                "PRAGMA data_version").fetchone()[0]
            return (data_version, self._connection.total_changes,
                    self._mutation_epoch)

    def statistics(self, table: str) -> Optional[TableStatistics]:
        """Exact statistics via native SQL aggregates (one pass per
        column inside SQLite, no rows shipped to Python).

        ``low``/``high`` are omitted for DECIMAL columns — they are
        stored as text and MIN/MAX would compare lexicographically.
        """
        columns = self.columns(table)
        with self._lock:
            self._check_open()
            row_count = self._connection.execute(
                f"SELECT COUNT(*) FROM {_quote(table)}").fetchone()[0]
            stats: dict[str, ColumnStats] = {}
            for name, sql_type in columns:
                quoted = _quote(name)
                ranged = sql_type.kind != "DECIMAL"
                extrema = f", MIN({quoted}), MAX({quoted})" if ranged \
                    else ""
                non_null, ndv, *bounds = self._connection.execute(
                    f"SELECT COUNT({quoted}), COUNT(DISTINCT {quoted})"
                    f"{extrema} FROM {_quote(table)}").fetchone()
                low = _decode(bounds[0], sql_type) if ranged else None
                high = _decode(bounds[1], sql_type) if ranged else None
                null_fraction = ((row_count - non_null) / row_count
                                 if row_count else 0.0)
                stats[name] = ColumnStats(ndv=ndv, low=low, high=high,
                                          null_fraction=null_fraction)
        return TableStatistics(row_count=row_count, columns=stats,
                               sampled=False)

    # -- scanning ----------------------------------------------------------

    def supports_predicate(self, table: str, predicate: Predicate) -> bool:
        """May *predicate* go into the scan's WHERE clause (see the
        module docstring's pushdown gate)?"""
        try:
            columns = dict(self.columns(table))
        except UnknownArtifactError:
            return False
        sql_type = columns.get(predicate.column)
        if sql_type is None:
            return False
        if predicate.unary:
            return True
        if sql_type.kind not in _PUSHABLE_KINDS:
            return False
        if predicate.op == "in":
            if (not isinstance(predicate.value, (tuple, list))
                    or not predicate.value):
                return False
            return all(_value_matches(v, sql_type)
                       for v in predicate.value)
        return _value_matches(predicate.value, sql_type)

    def _scan_sql(self, table: str, request: Optional[ScanRequest],
                  handles: bool = False):
        """Build the scan SELECT. A projection keeps schema order and
        drops unknown names; one naming every column (or none) selects
        the whole row. *handles* puts ``rowid`` ahead of the selected
        columns."""
        all_columns = self.columns(table)
        by_name = dict(all_columns)
        out_columns = all_columns
        predicates: tuple[Predicate, ...] = ()
        if request is not None:
            if request.columns:
                wanted = set(request.columns)
                out_columns = [column for column in all_columns
                               if column[0] in wanted] or all_columns
            predicates = tuple(
                p for p in request.predicates
                if self.supports_predicate(table, p))
        select_list = ", ".join(_quote(n) for n, _t in out_columns)
        if handles:
            select_list = "rowid, " + select_list
        sql = f"SELECT {select_list} FROM {_quote(table)}"
        params: list[object] = []
        clauses = []
        for p in predicates:
            if p.op == "isnull":
                clauses.append(f"{_quote(p.column)} IS NULL")
            elif p.op == "notnull":
                clauses.append(f"{_quote(p.column)} IS NOT NULL")
            elif p.op == "in":
                marks = ", ".join("?" for _ in p.value)
                clauses.append(f"{_quote(p.column)} IN ({marks})")
                params.extend(_encode(v, by_name[p.column])
                              for v in p.value)
            else:
                clauses.append(f"{_quote(p.column)} {_OP_SQL[p.op]} ?")
                params.append(_encode(p.value, by_name[p.column]))
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY rowid"
        return sql, params, out_columns, bool(predicates)

    def scan(self, table: str, request: Optional[ScanRequest] = None,
             context=None, handles: bool = False) -> Scan:
        self._check_open()
        sql, params, out_columns, pushed = self._scan_sql(
            table, request, handles)
        out_types = [t for _n, t in out_columns]
        return Scan(columns=list(out_columns),
                    rows=self._iter_rows(sql, params, out_types, context,
                                         handles),
                    pushed=pushed)

    # -- writing -----------------------------------------------------------

    def supports_write(self, table: str) -> bool:
        try:
            self.columns(table)
        except UnknownArtifactError:
            return False
        return True

    def apply_mutations(self, mutations, expected_version=None
                        ) -> MutationResult:
        """Apply one statement's mutations inside a ``SAVEPOINT``:
        released on success, rolled back to on any failure, so the
        statement is atomic whether or not an explicit transaction
        (:meth:`begin_txn`) is open around it."""
        with self._lock:
            self._check_open()
            if expected_version is not None and mutations:
                current = self.version(mutations[0].table)
                if expected_version != current:
                    raise OperationalError(
                        f"table {mutations[0].table!r} changed under the "
                        f"statement (version {expected_version!r} -> "
                        f"{current!r}); re-plan and retry")
            rowcount = 0
            lastrowid: Optional[int] = None
            self._connection.execute("SAVEPOINT repro_stmt")
            try:
                for mutation in mutations:
                    table = mutation.table
                    columns = self.columns(table)
                    types = [t for _n, t in columns]
                    if mutation.kind == "insert":
                        marks = ", ".join("?" for _ in types)
                        sql = (f"INSERT INTO {_quote(table)} "
                               f"VALUES ({marks})")
                        for values in mutation.rows:
                            cursor = self._connection.execute(
                                sql, tuple(_encode(v, t) for v, t
                                           in zip(values, types)))
                            lastrowid = cursor.lastrowid
                            rowcount += 1
                    elif mutation.kind == "update":
                        sets = ", ".join(f"{_quote(n)} = ?"
                                         for n, _t in columns)
                        rowcount += self._write_by_rowid(
                            table,
                            f"UPDATE {_quote(table)} SET {sets} "
                            f"WHERE rowid = ?",
                            [[_encode(v, t) for v, t
                              in zip(new_row, types)] + [handle]
                             for handle, new_row in mutation.changes])
                    else:  # delete
                        rowcount += self._write_by_rowid(
                            table,
                            f"DELETE FROM {_quote(table)} WHERE rowid = ?",
                            [(handle,) for handle
                             in dict.fromkeys(mutation.handles)])
            except sqlite3.Error as exc:
                self._connection.execute("ROLLBACK TO repro_stmt")
                self._connection.execute("RELEASE repro_stmt")
                raise OperationalError(str(exc)) from None
            except Exception:
                self._connection.execute("ROLLBACK TO repro_stmt")
                self._connection.execute("RELEASE repro_stmt")
                raise
            self._connection.execute("RELEASE repro_stmt")
            return MutationResult(rowcount=rowcount, lastrowid=lastrowid)

    def _write_by_rowid(self, table: str, sql: str, batch: list) -> int:
        """Run *sql* (one ``WHERE rowid = ?`` statement) once per
        parameter row of *batch* — one bound variable per victim, so no
        victim count can reach SQLite's variable limit. Every handle
        must hit exactly one row; a short count is a plan made against
        other rows."""
        changed = self._connection.executemany(sql, batch).rowcount
        if changed != len(batch):
            raise OperationalError(
                f"{len(batch) - changed} of {len(batch)} row handles "
                f"match no row of table {table!r} (stale plan?)")
        return changed

    def begin_txn(self) -> None:
        with self._lock:
            self._check_open()
            if self._in_txn:
                raise OperationalError(
                    f"source {self.name!r} already has an open "
                    f"transaction")
            self._connection.execute("SAVEPOINT repro_txn")
            self._in_txn = True

    def commit_txn(self) -> None:
        with self._lock:
            self._check_open()
            if not self._in_txn:
                raise OperationalError(
                    f"source {self.name!r} has no open transaction")
            # Releasing the outermost savepoint commits.
            self._connection.execute("RELEASE repro_txn")
            self._in_txn = False

    def rollback_txn(self) -> None:
        """Undo the open transaction. Rows are restored exactly; the
        version token is *not* restored — it moves forward (the
        rollback epoch bumps), which is the safe direction: caches
        keyed on in-transaction tokens die, caches keyed on
        pre-transaction tokens rebuild spuriously at worst, and a stale
        read is impossible either way."""
        with self._lock:
            self._check_open()
            if not self._in_txn:
                raise OperationalError(
                    f"source {self.name!r} has no open transaction")
            self._connection.execute("ROLLBACK TO repro_txn")
            self._connection.execute("RELEASE repro_txn")
            self._in_txn = False
            self._mutation_epoch += 1

    def _iter_rows(self, sql, params, out_types, context, handles=False):
        with self._lock:
            self._check_open()
            cursor = self._connection.execute(sql, params)
        try:
            while True:
                with self._lock:
                    if self._closed:
                        raise SourceUnavailableError(
                            f"source {self.name!r} is closed")
                    batch = cursor.fetchmany(self.batch_size)
                if not batch:
                    return
                for raw in batch:
                    if context is not None:
                        context.tick()
                    if handles:
                        yield raw[0], tuple(
                            _decode(v, t)
                            for v, t in zip(raw[1:], out_types))
                    else:
                        yield tuple(_decode(v, t)
                                    for v, t in zip(raw, out_types))
        finally:
            try:
                cursor.close()
            except sqlite3.ProgrammingError:
                pass  # connection already closed

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._connection.close()
            super().close()
