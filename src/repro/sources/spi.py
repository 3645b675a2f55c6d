"""The physical data-source SPI.

The paper's DSP is a federation layer: data services wrap heterogeneous
enterprise sources (relational databases, web services, files) and the
JDBC driver's SQL-to-XQuery translation is only useful because those
sources exist underneath (sections 2 and 3.1). This module defines the
contract every physical source implements so the runtime can treat an
in-memory table, a SQLite database, and an XML directory uniformly:

* :class:`DataSource` — the provider interface: table discovery,
  column metadata, one row scan honoring ``QueryContext`` deadlines
  and cancellation, and a staleness token for result caching.
* :class:`ScanRequest` — a projection (column subset) plus sargable
  conjunctive predicates the engine would like evaluated at the source.
* :class:`Scan` — the answer: the columns actually returned, an
  iterable of rows, and whether predicates were applied (``pushed``)
  or the caller must still filter.

A source is asked once. The engine hands :meth:`DataSource.scan` the
whole request, never negotiated beforehand; the source takes what it
can evaluate exactly, ignores the rest, and reports what it did in the
:class:`Scan`. The contract is *advisory*: pushed predicates always
remain in the compiled plan as residual filters, so a source may return
a superset of the matching rows (e.g. by ignoring part of the request)
without affecting correctness — it must only never *drop* a row the
residual filter would keep. The engine decides from the report what it
may cache: only an answer that applied no predicate and carries every
column in schema order is the table version itself. It answers a
request from a table version it already holds (the ``version`` token
unchanged) without sending it, so a source sees requests only for
versions the engine has not cached, and the reads of DML statements.

Writes use the same seam. The engine runs an UPDATE or DELETE as a
SELECT over its target (``repro.engine.dml``) whose scan calls a
writable source's ``scan(..., handles=True)`` with the read path's
predicates: every row comes paired with a source-defined *handle*, and
a :class:`Mutation` names the rows the SELECT returns by it — a write
reads the rows it touches, not the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import NotSupportedError, SourceUnavailableError
from ..sql.types import SQLType

#: Comparison operators a predicate may carry. ``isnull``/``notnull``
#: are unary (``value`` is ignored); ``in`` carries a tuple of values
#: (membership); the rest compare against ``value``.
PREDICATE_OPS = frozenset(
    {"eq", "ne", "lt", "le", "gt", "ge", "in", "isnull", "notnull"})


@dataclass(frozen=True)
class Predicate:
    """One sargable conjunct: ``column OP value``.

    ``value`` is a plain Python value (int, str, Decimal, date, ...)
    already decoded from the query literal; sources compare it against
    their stored representation of the column.
    """

    column: str
    op: str
    value: object = None

    def __post_init__(self) -> None:
        if self.op not in PREDICATE_OPS:
            raise ValueError(f"unknown predicate op {self.op!r}")

    @property
    def unary(self) -> bool:
        return self.op in ("isnull", "notnull")


@dataclass(frozen=True)
class ScanRequest:
    """What the engine would like the source to do natively.

    ``columns`` is the projection, in any order (None = all columns;
    a projecting source answers in its schema order); ``predicates``
    are conjuncts (AND semantics). Both are advisory — see the module
    docstring for the superset rule.
    """

    columns: Optional[tuple[str, ...]] = None
    predicates: tuple[Predicate, ...] = ()

    @property
    def is_trivial(self) -> bool:
        """True when the request asks for a plain full scan."""
        return self.columns is None and not self.predicates


@dataclass
class Scan:
    """A scan result: the schema actually produced plus the row stream.

    ``columns`` names (and types) the values in each row, positionally:
    the projection the source applied, or every column in schema order.
    ``pushed`` is True when the source applied any of the request's
    predicates itself; False means the rows are unfiltered and the
    caller's residual filter does all the work.
    ``index_used``/``index_built`` report whether a secondary hash
    index answered the scan (and whether it was built for this scan),
    so the engine can publish index metrics without reaching into
    source internals.
    """

    columns: list[tuple[str, SQLType]]
    rows: Iterable[tuple]
    pushed: bool = False
    index_used: bool = False
    index_built: bool = False

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column, for the planner's cost model.

    ``ndv`` is the number of distinct non-NULL values; ``low``/``high``
    bound the non-NULL domain (None when the type has no usable order,
    e.g. DECIMAL stored as text in SQLite); ``null_fraction`` is the
    NULL share of the row count (0.0 for an empty table).
    """

    ndv: int = 0
    low: object = None
    high: object = None
    null_fraction: float = 0.0


@dataclass(frozen=True)
class TableStatistics:
    """Statistics for one table: row count plus per-column summaries.

    ``sampled`` is True when the numbers come from a bounded row sample
    rather than a full pass — estimates, not ground truth, either way.
    Instances are immutable; staleness is governed by the source's
    ``version`` token (the runtime caches statistics under it).
    """

    row_count: int = 0
    columns: "dict[str, ColumnStats]" = field(default_factory=dict)
    sampled: bool = False

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


#: Row-sample bound for sources that compute statistics in Python: big
#: enough to rank selectivities usefully, small enough that the first
#: costed query does not pay a second full scan of a huge table.
STATISTICS_SAMPLE_LIMIT = 10_000


def compute_statistics(columns: Sequence[tuple[str, SQLType]],
                       rows: Sequence[tuple],
                       total_rows: Optional[int] = None,
                       sample_limit: int = STATISTICS_SAMPLE_LIMIT) \
        -> TableStatistics:
    """Statistics from materialized *rows* (shared by the in-memory and
    XML-file backends). When *rows* exceeds *sample_limit* only the
    leading sample is summarized and per-column NDV/null counts are
    scaled to *total_rows* (defaults to ``len(rows)``)."""
    if total_rows is None:
        total_rows = len(rows)
    sampled = len(rows) > sample_limit
    sample = rows[:sample_limit] if sampled else rows
    scale = (total_rows / len(sample)) if (sampled and sample) else 1.0
    stats: dict[str, ColumnStats] = {}
    for position, (name, _sql_type) in enumerate(columns):
        distinct: set = set()
        nulls = 0
        low = high = None
        for row in sample:
            value = row[position]
            if value is None:
                nulls += 1
                continue
            try:
                distinct.add(value)
            except TypeError:  # unhashable value: no usable NDV
                distinct = set()
                break
            try:
                if low is None or value < low:
                    low = value
                if high is None or value > high:
                    high = value
            except (TypeError, ArithmeticError):  # (a Decimal NaN signals)
                low = high = None
        # ndv == 0 means "unknown or no non-NULL values"; the planner
        # falls back to default selectivities for it either way.
        ndv = min(total_rows, int(len(distinct) * scale)) if distinct else 0
        null_fraction = (nulls / len(sample)) if sample else 0.0
        stats[name] = ColumnStats(ndv=ndv, low=low, high=high,
                                  null_fraction=null_fraction)
    return TableStatistics(row_count=total_rows, columns=stats,
                           sampled=sampled)


#: Kinds a :class:`Mutation` may carry.
MUTATION_KINDS = frozenset({"insert", "update", "delete"})


@dataclass(frozen=True)
class Mutation:
    """One row-level mutation batch against a single table.

    The engine does all SQL evaluation (victim selection, SET/VALUES
    expressions) and hands sources plain data:

    * ``insert`` — ``rows`` holds fully coerced value tuples to append.
    * ``update`` — ``changes`` holds ``(handle, new_row)`` pairs.
    * ``delete`` — ``handles`` holds the handles of the rows to remove.

    A handle is whatever the source's ``scan(..., handles=True)`` paired
    with the row — source-defined and opaque to the engine (SQLite: the
    ``rowid``; memory: the row's position in the stored list) — and
    addresses that row for as long as the version token it was read
    under stands; callers pass that token as ``expected_version`` so a
    source can refuse a stale plan instead of corrupting rows. A handle
    that addresses no row fails the whole statement (``OperationalError``,
    rows unchanged).
    """

    kind: str
    table: str
    rows: tuple = ()
    changes: tuple = ()
    handles: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {self.kind!r}")


@dataclass(frozen=True)
class MutationResult:
    """What a statement's mutations did: rows affected, and the
    source-defined id of the last inserted row (None unless the
    statement inserted rows and the source can name one)."""

    rowcount: int = 0
    lastrowid: Optional[int] = None


class DataSource:
    """Abstract base for physical sources.

    Concrete sources implement :meth:`tables`, :meth:`columns`, and
    :meth:`scan`, the one read method; the other methods have safe
    defaults (no staleness token, no statistics, read-only, idempotent
    close).

    A scan given a context must call ``context.tick()`` per yielded row
    so deadlines and cancellation abort it within one check batch (the
    engine's column reads pass none and tick once per block instead).
    """

    #: Registry name; used by catalog bindings to address the source.
    name: str = "source"

    def __init__(self, name: Optional[str] = None):
        if name is not None:
            self.name = name
        self._closed = False

    # -- metadata ----------------------------------------------------------

    def tables(self) -> list[str]:
        """Sorted names of the tables this source exposes."""
        raise NotImplementedError

    def columns(self, table: str) -> list[tuple[str, SQLType]]:
        """Ordered (name, type) pairs for *table*.

        Raises ``UnknownArtifactError`` for a table the source does not
        have.
        """
        raise NotImplementedError

    def version(self, table: str) -> object:
        """A staleness token: equal tokens mean the table's rows are
        unchanged, so cached derivations (e.g. element trees) may be
        reused. ``None`` disables caching for the table."""
        return None

    def statistics(self, table: str) -> Optional[TableStatistics]:
        """Optional summary statistics for the planner's cost model.

        None (the default) means the source offers none and the planner
        plans blind for its tables. Callers must cache the result under
        :meth:`version` — statistics describe the table as of one
        staleness token and must never outlive a data change.
        """
        return None

    # -- scanning ----------------------------------------------------------

    def scan(self, table: str, request: Optional[ScanRequest] = None,
             context=None, handles: bool = False) -> Scan:
        """Stream *table*'s rows (stable order across repeated scans).

        *request* is advisory (see module docstring): apply what can be
        evaluated exactly, ignore the rest, and say in the returned
        :class:`Scan` which columns came back and whether predicates
        were applied. *context* is an optional ``QueryContext`` whose
        ``tick()`` must run per row. *handles* — passed only to a
        source that answered :meth:`supports_write` for *table*, so a
        read-only source never sees it — makes the stream ``(handle,
        row)`` pairs: the handle is what a :class:`Mutation` names the
        row by (the scan of a DML statement's read).
        """
        raise NotImplementedError

    # -- writing -----------------------------------------------------------

    def supports_write(self, table: str) -> bool:
        """May *table* be mutated through this source? Default False —
        sources opt in to the write capability explicitly."""
        return False

    def apply_mutations(self, mutations: Sequence[Mutation],
                        expected_version: object = None) -> MutationResult:
        """Apply one statement's mutations **atomically**.

        All mutations in the sequence target tables of this source and
        either all apply or none do (statement-level atomicity); on
        failure the source's visible rows must be unchanged. Version
        tokens obey the uniqueness rule — one token never identifies
        two different row-sets — so a failed statement may move the
        token forward (caches rebuild spuriously; SQLite's
        ``total_changes`` cannot be rewound) but must never leave a
        token that misrepresents the rows. When *expected_version* is
        given it is the token of the (single) target table the caller
        planned under; a source must raise ``OperationalError`` instead
        of applying a plan made against different rows.

        Read-only sources keep the default, which raises
        ``NotSupportedError``.
        """
        raise NotSupportedError(
            f"source {self.name!r} is read-only and does not accept "
            f"mutations")

    def begin_txn(self) -> None:
        """Open a multi-statement transaction on this source.

        Called by the transaction manager the first time a transaction
        writes through this source; subsequent ``apply_mutations`` calls
        accumulate into it until :meth:`commit_txn` or
        :meth:`rollback_txn`. Writable sources must override all three.
        """
        raise NotSupportedError(
            f"source {self.name!r} does not support transactions")

    def commit_txn(self) -> None:
        """Make the open transaction's mutations durable."""
        raise NotSupportedError(
            f"source {self.name!r} does not support transactions")

    def rollback_txn(self) -> None:
        """Undo every mutation of the open transaction, restoring each
        touched table's rows **and version token** to their
        pre-transaction values (so cached plans/statistics keyed on the
        token become valid again)."""
        raise NotSupportedError(
            f"source {self.name!r} does not support transactions")

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release handles; idempotent. Scans after close fail."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise SourceUnavailableError(f"source {self.name!r} is closed")

    def __enter__(self) -> "DataSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<{type(self).__name__} {self.name!r} ({state})>"

