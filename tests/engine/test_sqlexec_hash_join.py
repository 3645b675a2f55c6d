"""The oracle's joins: one nested loop for every join kind.

``SQLExecutor`` is the semantics oracle for the whole repo, so its
joins are checked against SQL itself — NULL keys, outer-join padding
order, three-valued residual conjuncts, an ON condition that raises —
and the demo-schema joins against the driver's rows.
"""

from decimal import Decimal

import pytest

from repro import connect
from repro.engine.table import Storage
from repro.errors import ReproError
from repro.sql import parse_statement
from repro.sql.types import SQLType
from repro.workloads import build_runtime, build_storage

from tests.engine.sqlexec import SQLExecutor, TableProvider, canonical_value

CONNECTION = connect(build_runtime())


def run(storage, sql):
    executor = SQLExecutor(TableProvider(storage))
    result = executor.execute(parse_statement(sql))
    return result.columns, result.rows


def _bag(rows) -> list:
    def key(value):
        if isinstance(value, (int, float, Decimal)) \
                and not isinstance(value, bool):
            return ("n", Decimal(str(value)).normalize())
        return canonical_value(value)
    return sorted(tuple(key(value) for value in row) for row in rows)


def assert_driver_parity(sql):
    """The oracle's rows over the demo tables are the driver's, as a
    multiset."""
    cursor = CONNECTION.cursor()
    cursor.execute(sql)
    assert _bag(run(build_storage(), sql)[1]) == _bag(cursor.fetchall()), \
        sql


DEMO_JOINS = [
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID",
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID",
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C RIGHT OUTER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID",
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C FULL OUTER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID",
    # Residual conjunct next to the equality: evaluated per pair, in
    # the written order, with SQL three-valued logic.
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID AND P.PAYMENT > 50",
    # Two equality conjuncts (composite key).
    "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C INNER JOIN "
    "PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID "
    "AND C.CUSTOMERID = O.CUSTOMERID",
    # Three-way chain: the upper join's left side is itself a join.
    "SELECT C.CUSTOMERNAME, P.PAYMENT, O.ORDERID FROM CUSTOMERS C "
    "INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID "
    "INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID",
    # DECIMAL keys compared by value (100.00 = 100).
    "SELECT C.CUSTOMERNAME FROM CUSTOMERS C INNER JOIN PAYMENTS P "
    "ON C.CREDITLIMIT = P.PAYMENT",
    # Date keys.
    "SELECT A.PAYMENTID, B.PAYMENTID FROM PAYMENTS A INNER JOIN "
    "PAYMENTS B ON A.PAYDATE = B.PAYDATE",
]


@pytest.mark.parametrize("sql", DEMO_JOINS)
def test_demo_join_parity(sql):
    assert_driver_parity(sql)


@pytest.fixture()
def null_key_storage():
    """Tables whose join keys include NULLs on both sides."""
    storage = Storage()
    left = storage.create_table("L", [
        ("K", SQLType("INTEGER")), ("LV", SQLType("VARCHAR"))])
    left.insert_many([(1, "a"), (None, "b"), (2, "c"), (1, "d"),
                      (None, "e"), (3, "f")])
    right = storage.create_table("R", [
        ("K", SQLType("INTEGER")), ("RV", SQLType("VARCHAR"))])
    right.insert_many([(1, "x"), (None, "y"), (3, "z"), (1, "w"),
                       (4, "q")])
    return storage


@pytest.mark.parametrize("kind", ["INNER", "LEFT OUTER", "RIGHT OUTER",
                                  "FULL OUTER"])
def test_null_keys_never_match(null_key_storage, kind):
    sql = (f"SELECT L.LV, R.RV FROM L {kind} JOIN R ON L.K = R.K")
    _columns, rows = run(null_key_storage, sql)
    # NULL = NULL is UNKNOWN: no ("b"/"e", "y") pairings anywhere.
    assert ("b", "y") not in rows and ("e", "y") not in rows
    assert sum(row[0] is not None and row[1] is not None
               for row in rows) == 5  # a-x a-w d-x d-w f-z


def test_unmatched_padding_order(null_key_storage):
    """FULL OUTER emits left rows in scan order (padded inline), then
    unmatched right rows in scan order."""
    sql = "SELECT L.LV, R.RV FROM L FULL OUTER JOIN R ON L.K = R.K"
    columns, rows = run(null_key_storage, sql)
    assert rows == [
        ("a", "x"), ("a", "w"), ("b", None), ("c", None), ("d", "x"),
        ("d", "w"), ("e", None), ("f", "z"), (None, "y"), (None, "q")]


def test_residual_three_valued_logic():
    """A residual conjunct evaluating to UNKNOWN drops the pair but
    keeps outer padding."""
    storage = Storage()
    left = storage.create_table("A", [
        ("K", SQLType("INTEGER")), ("N", SQLType("INTEGER"))])
    left.insert_many([(1, 10), (2, None), (3, 30)])
    right = storage.create_table("B", [
        ("K", SQLType("INTEGER")), ("M", SQLType("INTEGER"))])
    right.insert_many([(1, 5), (2, 7), (3, 99)])
    sql = ("SELECT A.K, B.M FROM A LEFT OUTER JOIN B "
           "ON A.K = B.K AND A.N > B.M")
    _columns, rows = run(storage, sql)
    # K=2 pairs key-wise but N > M is UNKNOWN -> padded, not matched.
    assert rows == [(1, 5), (2, None), (3, None)]


def test_correlated_subquery_join_stays_correct():
    """A join inside a correlated subquery reads the outer row."""
    assert_driver_parity(
        "SELECT CUSTOMERNAME, (SELECT COUNT(*) FROM PAYMENTS P "
        "INNER JOIN PO_CUSTOMERS O ON P.CUSTID = O.CUSTOMERID "
        "WHERE P.CUSTID = C.CUSTOMERID) FROM CUSTOMERS C")


def test_on_condition_error_raises_as_the_driver_does():
    """Every pair evaluates the ON condition in written order, so a
    division by zero ahead of the equality raises — no key match can
    skip the pair that would."""
    sql = ("SELECT C.CUSTOMERNAME FROM CUSTOMERS C INNER JOIN ORDERS O "
           "ON C.CREDITLIMIT / 0 > 1 AND C.CUSTOMERID = O.ORDERID")
    with pytest.raises(ReproError, match="division by zero"):
        run(build_storage(), sql)
    cursor = CONNECTION.cursor()
    with pytest.raises(ReproError, match="division by zero"):
        cursor.execute(sql)
        cursor.fetchall()
