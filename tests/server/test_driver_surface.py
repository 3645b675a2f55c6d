"""One PEP 249 surface on both transports.

The embedded (``repro.driver.dbapi``) and the remote
(``repro.driver.remote``) driver classes must offer the same public
methods and properties with the same parameter names — the few
transport-specific extensions are listed in :data:`ONE_SIDED` — and one
table of cursor-contract cases must observe the same thing through
either transport over one runtime."""

import inspect

import pytest

from repro.driver import connect
from repro.driver.dbapi import Connection, Cursor
from repro.driver.metadata import DatabaseMetaData
from repro.driver.remote import RemoteConnection, RemoteCursor, RemoteMetaData
from repro.errors import InterfaceError, ProgrammingError
from repro.server import TenantConfig, serve_in_thread

from tests.driver.test_dbapi import PROJECT, runtime_with_procedure

TOKEN = "surface-token"

#: Public names only one side has, and why: the translator runs in
#: process, ``fetch_text`` is what the server reads a result with, and
#: ``server_health`` asks the server.
ONE_SIDED = {
    Connection: {"translate", "translator"},
    Cursor: {"fetch_text"},
    RemoteConnection: {"server_health"},
}

#: Protocol methods compared beside the public names.
PROTOCOL = {"__call__", "__enter__", "__exit__", "__iter__"}


def surface(cls) -> dict:
    """``{name: what it is}`` of *cls*'s public surface: a property, a
    class attribute's type, or a method's parameter names and kinds."""
    found = {}
    for name in dir(cls):
        if name.startswith("_") and name not in PROTOCOL \
                or name in ONE_SIDED.get(cls, ()):
            continue
        attribute = inspect.getattr_static(cls, name)
        if isinstance(attribute, property):
            found[name] = "property"
        elif inspect.isfunction(attribute):
            found[name] = [
                (parameter.name, parameter.kind) for parameter
                in inspect.signature(attribute).parameters.values()]
        else:
            found[name] = type(attribute).__name__
    return found


@pytest.mark.parametrize("embedded, remote", [
    (Connection, RemoteConnection),
    (Cursor, RemoteCursor),
    (DatabaseMetaData, RemoteMetaData),
], ids=["connection", "cursor", "metadata"])
def test_both_transports_offer_one_surface(embedded, remote):
    ours, theirs = surface(embedded), surface(remote)
    differ = sorted(name for name in ours.keys() | theirs.keys()
                    if ours.get(name) != theirs.get(name))
    assert differ == []


@pytest.fixture(scope="module")
def transports():
    """``{"embedded": connection, "remote": connection}``, both over
    one runtime."""
    runtime = runtime_with_procedure()
    tenant = TenantConfig(name="app", runtime=runtime, token=TOKEN)
    with serve_in_thread(tenant) as handle:
        connections = {
            "embedded": connect(runtime),
            "remote": connect(handle.dsn("app", PROJECT, token=TOKEN)),
        }
        yield connections
        for connection in connections.values():
            connection.close()


ORDERED = "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID"
IDS = [(7,), (12,), (23,), (31,), (44,), (55,)]
#: 6^3 = 216 rows: more than one remote page at arraysize 7.
BIG = "SELECT * FROM CUSTOMERS C1, CUSTOMERS C2, CUSTOMERS C3"
TOUCH = ("UPDATE CUSTOMERS SET CREDITLIMIT = CREDITLIMIT "
         "WHERE CUSTOMERID = ?")
INSERT = "INSERT INTO CUSTOMERS VALUES (?, 'Nobody', 'WEST', 1)"


def outcome(thunk):
    """What *thunk* returns, or the class of what it raised."""
    try:
        return thunk()
    except Exception as exc:  # the class is what is compared
        return type(exc)


def fetchone(cursor):
    cursor.execute(ORDERED)
    return [cursor.fetchone(), cursor.fetchone()]


def fetchmany(cursor):
    cursor.execute(ORDERED)
    return [cursor.fetchmany(0), cursor.fetchmany(None),
            cursor.fetchmany(3), cursor.fetchmany(5), cursor.fetchmany(1)]


def fetchall_after_iterating(cursor):
    cursor.execute(ORDERED)
    head = []
    for row in cursor:
        head.append(row)
        if len(head) == 2:
            break
    return [head, cursor.fetchall(), cursor.fetchall(), cursor.fetchone()]


def fetchone_inside_iteration(cursor):
    cursor.execute(ORDERED)
    looped, fetched = [], []
    for row in cursor:
        looped.append(row)
        if len(looped) == 2:
            fetched.append(cursor.fetchone())
    return [looped, fetched]


def rowcount_while_streaming(cursor):
    cursor.arraysize = 7
    cursor.execute(BIG)
    counts = [cursor.rowcount]
    cursor.fetchmany(10)
    counts.append(cursor.rowcount)
    counts.append(len(cursor.fetchall()))
    counts.append(cursor.rowcount)
    return counts


def fetch_after_close(cursor):
    cursor.execute(ORDERED)
    cursor.close()
    return [outcome(cursor.fetchone), outcome(cursor.fetchall)]


def fetch_after_dml(cursor):
    cursor.execute(TOUCH, [23])
    return [cursor.rowcount, cursor.description,
            outcome(cursor.fetchone), outcome(cursor.fetchall)]


def fetch_before_execute(cursor):
    return [outcome(cursor.fetchone), outcome(lambda: list(cursor))]


def executemany_rowcount(cursor):
    cursor.executemany(TOUCH, [[7], [23], [99], [55]])
    return cursor.rowcount


def executemany_failing_set(cursor):
    failed = outcome(lambda: cursor.executemany(
        INSERT, [[901], [902], ["not a number"]]))
    cursor.execute("SELECT COUNT(*) FROM CUSTOMERS "
                   "WHERE CUSTOMERID IN (901, 902)")
    return [failed, cursor.fetchall()]


def procedure_columns_by_schema(cursor):
    metadata = cursor.connection.metadata
    return [
        metadata.procedure_columns("getCustomerById", schema=SCHEMA),
        metadata.get_procedure_columns("getCustomerById", SCHEMA),
        issubclass(outcome(lambda: metadata.procedure_columns(
            "getCustomerById", schema="Elsewhere")), Exception)]


def metadata_of_unknown_artifacts(cursor):
    metadata = cursor.connection.metadata
    return [outcome(lambda: metadata.columns("NOPE")),
            outcome(lambda: metadata.procedure_columns(
                "getCustomerById", schema="Elsewhere"))]


SCHEMA = f"{PROJECT}/CUSTOMERS"
PROCEDURE_COLUMNS = [
    ("id", "IN", "int"), ("CUSTOMERID", "RESULT", "INTEGER"),
    ("CUSTOMERNAME", "RESULT", "VARCHAR"), ("REGION", "RESULT", "VARCHAR"),
    ("CREDITLIMIT", "RESULT", "DECIMAL")]

#: ``(case, what either transport observes)``.
CONTRACT = [
    (fetchone, IDS[:2]),
    (fetchmany, [[], IDS[:1], IDS[1:4], IDS[4:], []]),
    (fetchall_after_iterating, [IDS[:2], IDS[2:], [], None]),
    (fetchone_inside_iteration, [IDS[:2] + IDS[3:], IDS[2:3]]),
    (rowcount_while_streaming, [-1, -1, 206, 216]),
    (fetch_after_close, [InterfaceError, InterfaceError]),
    (fetch_after_dml, [1, None, ProgrammingError, ProgrammingError]),
    (fetch_before_execute, [ProgrammingError, ProgrammingError]),
    (executemany_rowcount, 3),
    (executemany_failing_set, [ProgrammingError, [(0,)]]),
    (procedure_columns_by_schema,
     [PROCEDURE_COLUMNS, PROCEDURE_COLUMNS, True]),
    (metadata_of_unknown_artifacts, [ProgrammingError, ProgrammingError]),
]


@pytest.mark.parametrize("transport", ["embedded", "remote"])
@pytest.mark.parametrize("case, expected", CONTRACT,
                         ids=[case.__name__ for case, _ in CONTRACT])
def test_cursor_contract(transports, transport, case, expected):
    assert case(transports[transport].cursor()) == expected
