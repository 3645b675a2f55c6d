"""The java.sql.DatabaseMetaData analogue.

Reporting tools discover catalogs, schemas, tables, and columns through
driver metadata before issuing queries; this class surfaces the Figure-2
artifact mapping (applications → catalogs, .ds paths → schemas,
parameterless flat functions → tables, parameterized functions →
procedures) over the remote metadata API.

``Connection.metadata`` exposes one shared instance; the instance is
callable and returns itself, so both the property style
(``conn.metadata.tables()``) and the JDBC-flavored method style
(``conn.metadata().tables()``) work. The original ``get_``-prefixed
names remain as aliases.
"""

from __future__ import annotations

from ..catalog import MetadataAPI
from ..errors import ReproError, to_driver_error


class DatabaseMetaData:
    """Read-only catalog introspection for one connection."""

    def __init__(self, api: MetadataAPI):
        self._api = api

    def __call__(self) -> "DatabaseMetaData":
        """JDBC spells it ``connection.getMetaData()``; calling the
        property is a no-op returning the same instance."""
        return self

    def catalogs(self) -> list[str]:
        """The single catalog: the application name."""
        return [self._api._application.name]

    def schemas(self) -> list[str]:
        return self._api.list_schemas()

    def tables(self, schema: str | None = None) -> list[tuple[str, str]]:
        """(schema, table) pairs of SQL-visible tables."""
        return self._api.list_tables(schema=schema)

    def procedures(self, schema: str | None = None) \
            -> list[tuple[str, str]]:
        """(schema, procedure) pairs of parameterized functions."""
        return self._api.list_procedures(schema=schema)

    def columns(self, table: str, schema: str | None = None) \
            -> list[tuple[str, str, int, bool]]:
        """(name, type name, ordinal position, nullable) per column."""
        meta = self._fetch(self._api.fetch_table, table, schema)
        return [(c.name, str(c.sql_type), c.position, c.nullable)
                for c in meta.columns]

    def procedure_columns(self, name: str,
                          schema: str | None = None) \
            -> list[tuple[str, str, str]]:
        """(name, kind, type) rows: parameters (IN) then result columns."""
        proc = self._fetch(self._api.fetch_procedure, name, schema)
        rows = [(pname, "IN", xs_type)
                for pname, xs_type in proc.parameters]
        rows.extend((c.name, "RESULT", str(c.sql_type))
                    for c in proc.columns)
        return rows

    @staticmethod
    def _fetch(lookup, name: str, schema: str | None):
        """One artifact's catalog entry; an unknown one raises the PEP
        249 class (``ProgrammingError``), as over the remote transport."""
        try:
            return lookup(name, schema=schema)
        except ReproError as exc:
            raise to_driver_error(exc) from exc

    # Pre-1.1 spellings.
    get_catalogs = catalogs
    get_schemas = schemas
    get_tables = tables
    get_procedures = procedures
    get_columns = columns
    get_procedure_columns = procedure_columns
