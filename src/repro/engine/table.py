"""In-memory relational storage backing physical data services.

The paper's physical data services wrap relational sources (e.g. an Oracle
CUSTOMERS table). Here the relational source is an in-memory, column-typed
table; the DSP runtime materializes its rows as flat XML elements when the
corresponding data service function is called.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from decimal import Decimal

from ..errors import CatalogError, UnknownArtifactError
from ..sql.types import SQLType

_PYTHON_KINDS = {
    "SMALLINT": (int,),
    "INTEGER": (int,),
    "BIGINT": (int,),
    "DECIMAL": (Decimal, int),
    "REAL": (float, int),
    "DOUBLE": (float, int),
    "CHAR": (str,),
    "VARCHAR": (str,),
    "DATE": (datetime.date,),
    "TIME": (datetime.time,),
    "TIMESTAMP": (datetime.datetime,),
}


def coerce_value(value: object, sql_type: SQLType) -> object:
    """Check/coerce a Python value for storage under *sql_type*.

    None always passes (SQL NULL). ints are widened to Decimal/float for
    DECIMAL/floating columns; anything else must already match.
    """
    if value is None:
        return None
    kinds = _PYTHON_KINDS.get(sql_type.kind)
    if kinds is None:
        raise CatalogError(f"unsupported column type {sql_type}")
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CatalogError(
            f"value {value!r} is not valid for column type {sql_type}")
    if sql_type.kind == "DECIMAL" and isinstance(value, int):
        return Decimal(value)
    if sql_type.kind in ("REAL", "DOUBLE") and isinstance(value, int):
        return float(value)
    if sql_type.kind == "TIMESTAMP" and not \
            isinstance(value, datetime.datetime):
        raise CatalogError(
            f"value {value!r} is not valid for column type {sql_type}")
    if sql_type.kind == "DATE" and isinstance(value, datetime.datetime):
        raise CatalogError(
            f"value {value!r} is not valid for column type {sql_type}")
    return value


@dataclass
class Table:
    """A named, typed, ordered collection of rows.

    ``generation`` is the table's version token (compared by equality
    only): every change to the row set — inserts, and the write path's
    copy-on-write row swaps — moves it. Values are drawn from a private
    allocator that never rewinds, even though transaction rollback may
    restore ``generation`` itself to an earlier value (the visible rows
    *are* that earlier state, so caches keyed on the old token become
    valid again). Because rolled-back generations are never re-issued,
    one token identifies exactly one row-set for the table's lifetime —
    a cache entry recorded mid-transaction can never be mistaken for
    state written after the rollback."""

    name: str
    columns: list[tuple[str, SQLType]]
    rows: list[tuple] = field(default_factory=list)
    generation: int = 0
    _alloc: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set()
        for column_name, _t in self.columns:
            if column_name in seen:
                raise CatalogError(
                    f"duplicate column {column_name} in table {self.name}")
            seen.add(column_name)

    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _t in self.columns)

    def insert(self, *values: object) -> None:
        """Append one row, type-checking each value."""
        if len(values) != len(self.columns):
            raise CatalogError(
                f"table {self.name} has {len(self.columns)} columns, "
                f"got {len(values)} values")
        row = tuple(coerce_value(value, sql_type)
                    for value, (_n, sql_type) in zip(values, self.columns))
        self.rows.append(row)
        self._advance()

    def insert_many(self, rows) -> None:
        for row in rows:
            self.insert(*row)

    def replace_rows(self, rows: list[tuple]) -> None:
        """Swap in a new row list (copy-on-write mutation): in-flight
        iterators keep the old list — the snapshot read the write path
        relies on — and the generation token moves forward."""
        self.rows = rows
        self._advance()

    def _advance(self) -> None:
        # max() because rollback restores ``generation`` to an older
        # value without touching the allocator: the next write must
        # skip past every generation the rolled-back transaction used.
        self._alloc = max(self._alloc, self.generation) + 1
        self.generation = self._alloc


class Storage:
    """A collection of tables — the 'relational backend'."""

    def __init__(self):
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str,
                     columns: list[tuple[str, SQLType]]) -> Table:
        if name in self._tables:
            raise CatalogError(f"table {name} already exists")
        table = Table(name=name, columns=list(columns))
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownArtifactError(
                f"no table {name} in storage") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)
