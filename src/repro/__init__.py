"""repro — SQL to XQuery Translation in the AquaLogic Data Services
Platform (ICDE 2006), reproduced in pure Python.

The public surface is deliberately small — a PEP 249 driver plus the
pluggable physical-source SPI:

* :func:`connect` / :func:`register_runtime` — open DB-API 2.0
  connections over a DSP runtime (the JDBC analogue). One connect API,
  two transports, selected by DSN scheme: ``repro://app/project`` is
  embedded (in-process), ``repro+tcp://host:port/app/project?token=...``
  is remote (a ``repro.server`` instance over the wire) — same cursor
  semantics, same exceptions, same ``stats()`` shape either way;
* :class:`DSN` / :func:`parse_dsn` — the shared DSN grammar;
* ``apilevel`` / ``threadsafety`` / ``paramstyle`` and the PEP 249
  exception hierarchy (:class:`Error`, :class:`OperationalError`, ...);
* :class:`RuntimeConfig` — every engine and driver tuning knob in one
  frozen dataclass, accepted by both ``DSPRuntime(config=...)`` and
  ``connect(config=...)``;
* the sources SPI — :class:`DataSource` (one ``scan`` call: a
  source takes what it can of a :class:`ScanRequest` and reports it
  in the :class:`Scan`), :class:`Predicate`, and (since 2.0) the
  write capability :class:`Mutation` /
  :class:`MutationResult` — and its three backends:
  :class:`TableSource` (in-memory, writable), :class:`SQLiteSource`
  (relational, writable, with predicate/projection pushdown),
  :class:`XMLFileSource` (read-only XML files).

Everything else (the translator, the XQuery engine, storage, the
observability toolkit) lives in its subpackage. 2.0 removed the pre-1.1
top-level aliases that 1.x resolved with a ``DeprecationWarning``;
import those names from their subpackages.

Quickstart::

    import repro
    from repro.workloads import build_runtime

    conn = repro.connect(build_runtime())
    cur = conn.cursor()
    cur.execute("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?",
                [23])
    print(cur.fetchall())

    cur.execute("UPDATE CUSTOMERS SET CREDITLIMIT = ? "
                "WHERE CUSTOMERID = ?", [9000, 23])   # autocommit
    conn.autocommit = False
    cur.execute("DELETE FROM CUSTOMERS WHERE REGION = 'EMEA'")
    conn.rollback()                                    # nothing happened
"""

from .config import RuntimeConfig
from .driver import (
    DSN,
    STATS_SCHEMA_VERSION,
    apilevel,
    connect,
    paramstyle,
    parse_dsn,
    register_runtime,
    threadsafety,
    unregister_runtime,
)
from .errors import (
    DataError,
    DatabaseError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    ReproError,
    Warning,
)
from .sources import (
    DataSource,
    Mutation,
    MutationResult,
    Predicate,
    Scan,
    ScanRequest,
)
from .sources.memory import TableSource
from .sources.sqlite import SQLiteSource
from .sources.xmlfile import XMLFileSource

__version__ = "2.0.0"

__all__ = [
    # driver entry points
    "connect",
    "register_runtime",
    "unregister_runtime",
    # DSN grammar (embedded repro:// and remote repro+tcp://)
    "DSN",
    "parse_dsn",
    # observability contract
    "STATS_SCHEMA_VERSION",
    # PEP 249 module globals
    "apilevel",
    "threadsafety",
    "paramstyle",
    # exception set
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "ReproError",
    # configuration
    "RuntimeConfig",
    # sources SPI
    "DataSource",
    "ScanRequest",
    "Predicate",
    "Scan",
    "Mutation",
    "MutationResult",
    "TableSource",
    "SQLiteSource",
    "XMLFileSource",
    "__version__",
]
