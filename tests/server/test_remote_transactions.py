"""Remote transaction semantics: the protocol-v2 txn verbs end to end.

The remote Connection mirrors transaction state client-side from verb
replies and from every execute reply (DML with autocommit off opens an
implicit transaction server-side; the mirror must track it without an
extra round trip). These tests pin that symmetry against a live
server.
"""

import pytest

import repro
from repro.driver import connect
from repro.server import TenantConfig, serve_in_thread
from repro.workloads import build_runtime

TOKEN = "txn-token"


@pytest.fixture()
def server():
    tenant = TenantConfig(name="app", runtime=build_runtime(),
                          token=TOKEN)
    with serve_in_thread(tenant) as handle:
        yield handle


@pytest.fixture()
def conn(server):
    connection = connect(
        server.dsn("app", "TestDataServices", token=TOKEN))
    yield connection
    connection.close()


def count(conn, where=""):
    cur = conn.cursor()
    cur.execute(f"SELECT COUNT(*) FROM CUSTOMERS {where}")
    return cur.fetchall()[0][0]


class TestRemoteDML:
    def test_insert_rowcount_lastrowid_description(self, conn):
        cur = conn.cursor()
        cur.execute("INSERT INTO CUSTOMERS VALUES (930, 'Rem', 'E', 1)")
        assert cur.rowcount == 1
        assert cur.lastrowid is not None
        assert cur.description is None
        with pytest.raises(repro.ProgrammingError):
            cur.fetchall()
        assert count(conn, "WHERE CUSTOMERID = 930") == 1

    def test_error_class_crosses_the_wire(self, conn):
        cur = conn.cursor()
        with pytest.raises(repro.ProgrammingError):
            cur.execute("UPDATE CUSTOMERS SET CREDITLIMIT = "
                        "MAX(CREDITLIMIT)")

    @pytest.mark.parametrize("sql", [
        "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = -'5'",
        "UPDATE CUSTOMERS SET CREDITLIMIT = 1 WHERE CUSTOMERID = -'5'",
        "DELETE FROM CUSTOMERS WHERE CUSTOMERID = -'5'",
    ])
    def test_unary_minus_on_text_fails_alike(self, conn, sql):
        """The DML predicate evaluator used to leak a bare TypeError
        where the SELECT path raises the typed SQL error: one PEP 249
        class for all three statement kinds, embedded and remote."""
        for connection in (connect(build_runtime()), conn):
            with pytest.raises(repro.ProgrammingError,
                               match="requires a numeric operand"):
                connection.cursor().execute(sql)
            assert count(connection) == 6

    def test_executemany(self, conn):
        cur = conn.cursor()
        cur.executemany(
            "INSERT INTO CUSTOMERS (CUSTOMERID, CUSTOMERNAME) "
            "VALUES (?, ?)", [(931, "A"), (932, "B")])
        assert cur.rowcount == 2
        assert count(conn, "WHERE CUSTOMERID >= 931") == 2


class TestRemoteDemarcation:
    def test_begin_rollback_mirror(self, conn):
        assert conn.autocommit is True
        assert conn.in_transaction is False
        before = count(conn)
        conn.begin()
        assert conn.in_transaction is True
        cur = conn.cursor()
        cur.execute("DELETE FROM CUSTOMERS")
        assert count(conn) == 0
        conn.rollback()
        assert conn.in_transaction is False
        assert count(conn) == before

    def test_commit_keeps_writes(self, conn):
        conn.begin()
        conn.cursor().execute(
            "INSERT INTO CUSTOMERS VALUES (933, 'Kept', 'E', 2)")
        conn.commit()
        assert count(conn, "WHERE CUSTOMERID = 933") == 1

    def test_begin_twice_raises_remotely(self, conn):
        conn.begin()
        with pytest.raises(repro.ProgrammingError):
            conn.begin()
        conn.rollback()

    def test_autocommit_setter_round_trips(self, conn):
        conn.autocommit = False
        assert conn.autocommit is False
        cur = conn.cursor()
        cur.execute("INSERT INTO CUSTOMERS VALUES (934, 'Imp', 'E', 2)")
        # The implicit begin happened server-side; the execute reply
        # carried the new state to the mirror.
        assert conn.in_transaction is True
        conn.rollback()
        assert count(conn, "WHERE CUSTOMERID = 934") == 0
        conn.autocommit = True
        assert conn.autocommit is True

    def test_enabling_autocommit_commits(self, conn):
        conn.autocommit = False
        conn.cursor().execute(
            "INSERT INTO CUSTOMERS VALUES (935, 'AC', 'E', 2)")
        conn.autocommit = True
        assert conn.in_transaction is False
        assert count(conn, "WHERE CUSTOMERID = 935") == 1

    def test_disconnect_discards_pending_transaction(self, server):
        first = connect(
            server.dsn("app", "TestDataServices", token=TOKEN))
        first.begin()
        first.cursor().execute(
            "INSERT INTO CUSTOMERS VALUES (936, 'Lost', 'E', 2)")
        first.close()
        second = connect(
            server.dsn("app", "TestDataServices", token=TOKEN))
        try:
            assert count(second, "WHERE CUSTOMERID = 936") == 0
        finally:
            second.close()

    def test_stats_include_transactions(self, conn):
        conn.begin()
        conn.cursor().execute(
            "UPDATE CUSTOMERS SET REGION = 'Z' WHERE CUSTOMERID = 23")
        conn.commit()
        snapshot = conn.stats()
        assert snapshot["stats_schema_version"] == \
            repro.STATS_SCHEMA_VERSION
        assert snapshot["transactions"]["committed"] >= 1
