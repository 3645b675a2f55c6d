"""In-memory table source: the original backend, refactored onto the SPI.

Wraps :class:`repro.engine.table.Storage` so the runtime's scan path is
uniform across backends. The ``version`` token is the table's
``generation`` counter, bumped by every mutation (insert, and the write
path's copy-on-write row swaps).

Since PR 5 the source supports *secondary hash indexes*: equality and
IN-list predicates may be pushed down, answered by a lazily-built
``{value: [row_index, ...]}`` map per (table, column). Index use follows
the SPI's "sources only shrink scans" contract — pushed predicates stay
in the compiled plan as residual filters, the index only narrows which
rows are streamed. Two guards keep this strictly a win:

* **type exactness** — a probe value is only accepted when Python's
  hash/``==`` agree with the engine's comparison semantics for the
  column's declared type (int against INTEGER kinds, str against
  CHAR/VARCHAR, exact date/time/datetime matches, int/Decimal against
  DECIMAL). Anything else (floats, bools, cross-type probes) is
  declined so the residual filter — and its type errors — behave
  exactly as without pushdown.
* **access-path selection** — when the source's own statistics estimate
  the probe would match more than ``index_max_fraction`` of the table,
  the predicate is declined and the scan is a plain one, which is
  faster for unselective predicates.

``scan`` takes the request's conjuncts that pass both guards, probes
the index for them and reports ``pushed=True``; it ignores the rest of
the request, projection included, so every answer carries every column
in schema order. A request it declines whole is a plain scan
(``pushed=False``), which the runtime caches as the table version. The
runtime asks only for table versions it does not hold: once a plain
scan has put a version in its column cache, that entry and the join
tables kept beside it answer every read. So the index serves a
version's first reads and the DML victim scans (``handles=True``),
which always come here.

Indexes and statistics are version-guarded: a stale token drops the
cached structure and it is rebuilt from current rows on next use.

Since PR 9 the source is *writable*: :meth:`~TableSource.apply_mutations`
applies one statement's inserts/updates/deletes copy-on-write — a new
row list is built and swapped in via :meth:`Table.replace_rows`, so
in-flight scans keep reading the snapshot they started on. A row's
handle (``scan(..., handles=True)``) is its position in that list; the
index probe already works in positions, so a pushed victim scan costs
the index lookup. Transactions
(:meth:`~TableSource.begin_txn` et al.) snapshot each touched table's
``(rows, generation)`` pair at first write; rollback restores both, so
the version token provably returns to its pre-transaction value.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from itertools import chain
from typing import Optional

from ..engine.table import Storage, coerce_value
from ..errors import OperationalError
from ..sql.types import SQLType
from .spi import (
    DataSource,
    MutationResult,
    Predicate,
    Scan,
    ScanRequest,
    TableStatistics,
    compute_statistics,
)

#: Rows per block of a scan read with no lifecycle context (the
#: runtime's column reads): the source is checked open once per block.
_SCAN_BLOCK = 1024

_INT_KINDS = frozenset({"SMALLINT", "INTEGER", "BIGINT"})
_CHAR_KINDS = frozenset({"CHAR", "VARCHAR"})


def _probe_value_ok(value: object, sql_type: SQLType) -> bool:
    """True when hashing/comparing *value* against stored values of
    *sql_type* matches the engine's equality semantics exactly."""
    if isinstance(value, bool):  # bool is an int subclass; engine treats
        return False             # it as a distinct category
    kind = sql_type.kind
    if kind in _INT_KINDS:
        return isinstance(value, int)
    if kind in _CHAR_KINDS:
        return isinstance(value, str)
    if kind == "DECIMAL":
        # int/Decimal hash and compare exactly in Python, matching the
        # engine's exact-numeric equality; floats do not.
        return isinstance(value, (int, Decimal))
    if kind == "DATE":
        return (isinstance(value, datetime.date)
                and not isinstance(value, datetime.datetime))
    if kind == "TIME":
        return isinstance(value, datetime.time)
    if kind == "TIMESTAMP":
        return isinstance(value, datetime.datetime)
    return False  # REAL/DOUBLE/BOOLEAN: no exact hash-equality story


class TableSource(DataSource):
    """A :class:`DataSource` over an in-process :class:`Storage`."""

    #: Tables smaller than this are never indexed — the engine's cached
    #: scans beat an index build + per-query column rebuild on
    #: small tables (and the demo benchmarks pin that path's speed).
    index_min_rows: int = 256
    #: Decline probes estimated to match more than this fraction of the
    #: table; a wide scan through the index is slower than the cached
    #: full scan.
    index_max_fraction: float = 0.25

    def __init__(self, storage: Storage, name: str = "memory"):
        super().__init__(name)
        self.storage = storage
        # (table, column) -> (version_token, {value: [row_index, ...]})
        self._indexes: dict[tuple[str, str], tuple[object, dict]] = {}
        # table -> (version_token, TableStatistics)
        self._statistics: dict[str, tuple[object, TableStatistics]] = {}
        # table -> (rows list ref, generation) pre-transaction snapshots;
        # None when no transaction is open.
        self._txn: Optional[dict[str, tuple[list, int]]] = None

    def tables(self) -> list[str]:
        self._check_open()
        return self.storage.table_names()

    def columns(self, table: str) -> list[tuple[str, SQLType]]:
        self._check_open()
        return list(self.storage.table(table).columns)

    def version(self, table: str) -> object:
        # The generation counter moves on every mutation — unlike the
        # old row-count token, UPDATE cannot slip past it.
        return self.storage.table(table).generation

    def statistics(self, table: str) -> Optional[TableStatistics]:
        self._check_open()
        physical = self.storage.table(table)
        token = physical.generation
        cached = self._statistics.get(table)
        if cached is not None and cached[0] == token:
            return cached[1]
        stats = compute_statistics(physical.columns, physical.rows)
        self._statistics[table] = (token, stats)
        return stats

    def supports_predicate(self, table: str, predicate: Predicate) -> bool:
        """May an index probe answer *predicate* (an exact-typed ``eq``
        or ``in`` on a table of at least ``index_min_rows`` rows that
        the statistics call selective)?"""
        if predicate.op not in ("eq", "in"):
            return False
        physical = self.storage.table(table)
        sql_type = dict(physical.columns).get(predicate.column)
        if sql_type is None:
            return False
        if predicate.op == "in":
            if (not isinstance(predicate.value, (tuple, list))
                    or not predicate.value):
                return False
            values = tuple(predicate.value)
        else:
            values = (predicate.value,)
        if not all(_probe_value_ok(v, sql_type) for v in values):
            return False
        if len(physical.rows) < self.index_min_rows:
            return False
        stats = self.statistics(table)
        column = stats.column(predicate.column) if stats else None
        if column is not None and column.ndv:
            estimated = stats.row_count / column.ndv * len(values)
            if estimated > self.index_max_fraction * stats.row_count:
                return False
        return True

    def scan(self, table: str, request: Optional[ScanRequest] = None,
             context=None, handles: bool = False) -> Scan:
        self._check_open()
        physical = self.storage.table(table)
        predicates = () if request is None else tuple(
            p for p in request.predicates
            if self.supports_predicate(table, p))
        if not predicates:
            return Scan(columns=list(physical.columns),
                        rows=self._iter_rows(physical, context, handles),
                        pushed=False)
        # Probe the index on the most selective conjunct; apply the rest
        # inline (all accepted conjuncts are exact-typed eq/in, so plain
        # Python comparison matches engine semantics).
        probe = self._most_selective(table, predicates)
        index, built = self._index(table, probe.column, physical)
        if probe.op == "eq":
            indices = index.get(probe.value, ())
        else:
            hit: set[int] = set()
            for value in probe.value:
                hit.update(index.get(value, ()))
            indices = sorted(hit)  # restore physical scan order
        remaining = tuple(p for p in predicates if p is not probe)
        positions = {name: i for i, (name, _) in enumerate(physical.columns)}
        return Scan(columns=list(physical.columns),
                    rows=self._iter_indexed(physical, indices, remaining,
                                            positions, context, handles),
                    pushed=True, index_used=True, index_built=built)

    # -- writing -----------------------------------------------------------

    def supports_write(self, table: str) -> bool:
        return table in self.storage

    def apply_mutations(self, mutations, expected_version=None
                        ) -> MutationResult:
        """Copy-on-write: build each touched table's new row list in
        full, then swap them all in. A failure part-way through building
        leaves every table untouched — statement-level atomicity falls
        out of never mutating a visible list in place."""
        self._check_open()
        if expected_version is not None and mutations:
            current = self.storage.table(mutations[0].table).generation
            if expected_version != current:
                raise OperationalError(
                    f"table {mutations[0].table!r} changed under the "
                    f"statement (version {expected_version!r} -> "
                    f"{current!r}); re-plan and retry")
        staged: dict[str, list] = {}
        rowcount = 0
        lastrowid: Optional[int] = None
        for mutation in mutations:
            physical = self.storage.table(mutation.table)
            rows = staged.get(mutation.table)
            if rows is None:
                rows = staged[mutation.table] = list(physical.rows)
            if mutation.kind == "insert":
                for values in mutation.rows:
                    rows.append(tuple(
                        coerce_value(v, t) for v, (_n, t)
                        in zip(values, physical.columns)))
                    rowcount += 1
                lastrowid = len(rows)
            elif mutation.kind == "update":
                for position, new_row in mutation.changes:
                    self._check_handle(position, rows, mutation.table)
                    rows[position] = tuple(
                        coerce_value(v, t) for v, (_n, t)
                        in zip(new_row, physical.columns))
                    rowcount += 1
            else:  # delete
                doomed = set(mutation.handles)
                for position in doomed:
                    self._check_handle(position, rows, mutation.table)
                staged[mutation.table] = [
                    row for i, row in enumerate(rows) if i not in doomed]
                rowcount += len(doomed)
        for table, rows in staged.items():
            physical = self.storage.table(table)
            if self._txn is not None and table not in self._txn:
                self._txn[table] = (physical.rows, physical.generation)
            physical.replace_rows(rows)
        return MutationResult(rowcount=rowcount, lastrowid=lastrowid)

    @staticmethod
    def _check_handle(position, rows: list, table: str) -> None:
        if not 0 <= position < len(rows):
            raise OperationalError(
                f"row handle {position} matches no row of table "
                f"{table!r} (stale plan?)")

    def begin_txn(self) -> None:
        self._check_open()
        if self._txn is not None:
            raise OperationalError(
                f"source {self.name!r} already has an open transaction")
        self._txn = {}

    def commit_txn(self) -> None:
        self._check_open()
        if self._txn is None:
            raise OperationalError(
                f"source {self.name!r} has no open transaction")
        self._txn = None

    def rollback_txn(self) -> None:
        self._check_open()
        if self._txn is None:
            raise OperationalError(
                f"source {self.name!r} has no open transaction")
        snapshots, self._txn = self._txn, None
        for table, (rows, generation) in snapshots.items():
            physical = self.storage.table(table)
            # Restore the row list *and* the generation: the rows are
            # byte-identical to the pre-transaction snapshot (COW never
            # edits a visible list), so caches keyed on the old token
            # are valid again and the token must say so. Generations
            # consumed inside the transaction are never re-issued
            # (Table's allocator is monotonic), so cache entries
            # recorded mid-transaction can never be matched again.
            physical.rows = rows
            physical.generation = generation

    def _most_selective(self, table: str,
                        predicates: tuple[Predicate, ...]) -> Predicate:
        stats = self.statistics(table)

        def rank(predicate: Predicate) -> float:
            column = stats.column(predicate.column) if stats else None
            ndv = column.ndv if column is not None else 0
            if not ndv:
                return 1.0
            width = (len(predicate.value)
                     if predicate.op == "in" else 1)
            return min(1.0, width / ndv)

        return min(predicates, key=rank)

    def _index(self, table: str, column: str, physical):
        """Return (value -> sorted row indices, built_now) for *column*,
        rebuilding when the version token moved."""
        token = physical.generation
        key = (table, column)
        cached = self._indexes.get(key)
        if cached is not None and cached[0] == token:
            return cached[1], False
        position = {name: i
                    for i, (name, _) in enumerate(physical.columns)}[column]
        index: dict = {}
        for row_index, row in enumerate(physical.rows):
            value = row[position]
            if value is None:
                continue  # NULL never matches an equality probe
            index.setdefault(value, []).append(row_index)
        self._indexes[key] = (token, index)
        return index, True

    def _iter_rows(self, physical, context, handles=False):
        """The table's rows; with *handles*, ``(position, row)`` pairs
        — a row's handle is its position in the stored list."""
        return chain.from_iterable(
            self._row_blocks(physical.rows, context, handles))

    def _row_blocks(self, rows, context, handles):
        """*rows* in blocks: the source is checked open before each
        block and once after the last, and *context*, when given, is
        ticked once per block of its check interval (``tick_rows``), so
        a cancel is seen within as many rows as per-row ticks saw it."""
        size = _SCAN_BLOCK if context is None else context.check_interval
        for start in range(0, len(rows), size):
            self._check_open()
            block = rows[start:start + size]
            if context is not None:
                context.tick_rows(len(block))
            yield enumerate(block, start) if handles else block
        self._check_open()

    def _iter_indexed(self, physical, indices, remaining, positions,
                      context, handles=False):
        rows = physical.rows
        for row_index in indices:
            self._check_open()
            if context is not None:
                context.tick()
            row = rows[row_index]
            ok = True
            for predicate in remaining:
                value = row[positions[predicate.column]]
                if value is None:
                    ok = False
                    break
                if predicate.op == "eq":
                    if value != predicate.value:
                        ok = False
                        break
                else:  # in
                    if value not in predicate.value:
                        ok = False
                        break
            if ok:
                yield (row_index, row) if handles else row
