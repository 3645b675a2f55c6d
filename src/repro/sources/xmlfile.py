"""Read-only XML file/directory source.

The paper's data services also wrap file-based sources; this backend
exposes XML documents on disk as flat tables. A file maps to one table
(named after the file's stem); a directory maps each ``*.xml`` file it
contains to a table. Document shape::

    <CUSTOMERS>                      <!-- root: the table -->
      <CUSTOMER>                     <!-- child element: one row -->
        <CUSTOMERID>55</CUSTOMERID>  <!-- grandchild: one column -->
        <CREDITLIMIT/>               <!-- empty element = SQL NULL -->
      </CUSTOMER>
      ...
    </CUSTOMERS>

Column types may be declared up front (``columns={"T": [...]}``); when
they are not, every column is inferred as VARCHAR from the first row.
Declared types are enforced through ``repro.xquery.atomic``'s lexical
parsing (the same validation CSV-backed services get), so a bad cell
raises ``FORG0001`` instead of leaking a mistyped value.

Documents are parsed through :mod:`repro.xmlmodel` lazily, once per
scan generation: the ``version`` token is the file's ``(mtime_ns,
size)``, so an edited file invalidates both this source's row cache
and the engine's scan cache. No pushdown — the whole file must
be read anyway, so ``scan`` ignores any request and answers every
column, unfiltered (``pushed=False``).

The source is deliberately **read-only**: it keeps the SPI's default
write surface, so ``supports_write`` answers False for every table and
DML routed here raises ``NotSupportedError`` — the documents on disk
are someone else's files, not ours to rewrite.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from ..catalog.schema import sql_to_xs
from ..errors import UnknownArtifactError, XMLError
from ..sql.types import SQLType, VARCHAR
from ..xmlmodel import parse_document
from ..xquery.atomic import parse_lexical
from .spi import (
    DataSource,
    Scan,
    ScanRequest,
    TableStatistics,
    compute_statistics,
)


class XMLFileSource(DataSource):
    """A :class:`DataSource` over XML documents on disk."""

    def __init__(self, path, name: str = "xml",
                 columns: Optional[dict[str,
                                        Sequence[tuple[str,
                                                       SQLType]]]] = None):
        super().__init__(name)
        self.path = Path(path)
        self._declared = {t: list(cols)
                          for t, cols in (columns or {}).items()}
        #: table -> (version token, columns, rows) parse cache.
        self._cache: dict[str, tuple[object, list, list]] = {}

    # -- file mapping ------------------------------------------------------

    def _table_files(self) -> dict[str, Path]:
        if self.path.is_dir():
            return {p.stem: p for p in sorted(self.path.glob("*.xml"))}
        if self.path.is_file():
            return {self.path.stem: self.path}
        return {}

    def _file_for(self, table: str) -> Path:
        path = self._table_files().get(table)
        if path is None:
            raise UnknownArtifactError(
                f"no table {table} in source {self.name!r}")
        return path

    # -- metadata ----------------------------------------------------------

    def tables(self) -> list[str]:
        self._check_open()
        return sorted(self._table_files())

    def columns(self, table: str) -> list[tuple[str, SQLType]]:
        self._check_open()
        _version, columns, _rows = self._load(table)
        return list(columns)

    def version(self, table: str) -> object:
        stat = self._file_for(table).stat()
        return (stat.st_mtime_ns, stat.st_size)

    def statistics(self, table: str) -> Optional[TableStatistics]:
        # The parse cache already holds the materialized rows (version
        # guarded by the file token), so statistics cost one Python
        # pass over at most the SPI sample limit.
        self._check_open()
        _version, columns, rows = self._load(table)
        return compute_statistics(columns, rows)

    # -- scanning ----------------------------------------------------------

    def scan(self, table: str, request: Optional[ScanRequest] = None,
             context=None) -> Scan:
        self._check_open()
        _version, columns, rows = self._load(table)
        return Scan(columns=list(columns),
                    rows=self._iter_rows(rows, context), pushed=False)

    def _iter_rows(self, rows, context):
        for row in rows:
            self._check_open()
            if context is not None:
                context.tick()
            yield row

    # -- parsing -----------------------------------------------------------

    def _load(self, table: str):
        path = self._file_for(table)
        token = self.version(table)
        cached = self._cache.get(table)
        if cached is not None and cached[0] == token:
            return cached
        try:
            document = parse_document(path.read_text(encoding="utf-8"))
            root = document.root()
        except (OSError, ValueError, XMLError) as exc:
            raise XMLError(
                f"cannot read table {table} from {path}: {exc}") from exc
        declared = self._declared.get(table)
        columns = list(declared) if declared is not None else None
        rows = []
        for row_element in root.child_elements():
            if columns is None:
                # Infer the schema from the first row: one VARCHAR
                # column per child element, in document order.
                columns = [(cell.name.local, VARCHAR)
                           for cell in row_element.child_elements()]
            cells = {cell.name.local: cell
                     for cell in row_element.child_elements()}
            row = []
            for column_name, sql_type in columns:
                cell = cells.get(column_name)
                if cell is None or cell.is_empty():
                    row.append(None)
                else:
                    row.append(parse_lexical(sql_to_xs(sql_type),
                                             cell.string_value()))
            rows.append(tuple(row))
        if columns is None:
            columns = []
        loaded = (token, columns, rows)
        self._cache[table] = loaded
        return loaded
