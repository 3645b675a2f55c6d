"""Integration parity: the XQuery engine's optimizer never changes rows.

Runs a join/subquery-heavy slice of the equivalence battery (and random
queries) on the batch executor — planned, hash joins, cost-based — and
on the Evaluator running every FLWOR's clauses as written. The
Evaluator shares no code with the planner, so a planner fault shows as
a difference (``test_a_planner_fault_is_caught``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, import_tables
from repro.workloads import PROJECT, build_storage, generate_query
from repro.xquery import planner

from tests.fuzz.harness import evaluator_leg


def make_runtime() -> DSPRuntime:
    storage = build_storage()
    application = Application("RTLApp")
    import_tables(application, PROJECT, storage)
    return DSPRuntime(application, storage)


FAST = connect(make_runtime())
SLOW = connect(evaluator_leg(make_runtime()))

JOIN_HEAVY = [
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID",
    "SELECT C.CUSTOMERNAME, P.PAYMENT, O.ORDERID FROM CUSTOMERS C "
    "INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID INNER JOIN "
    "PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID",
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS "
    "LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
    "SELECT C.CUSTOMERNAME FROM CUSTOMERS C, PAYMENTS P "
    "WHERE C.CUSTOMERID = P.CUSTID AND P.PAYMENT > 50",
    "SELECT C.REGION, COUNT(*) FROM CUSTOMERS C INNER JOIN PAYMENTS P "
    "ON C.CUSTOMERID = P.CUSTID GROUP BY C.REGION",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN "
    "(SELECT CUSTID FROM PAYMENTS)",
    "SELECT CUSTOMERNAME, (SELECT COUNT(*) FROM PAYMENTS P WHERE "
    "P.CUSTID = C.CUSTOMERID) FROM CUSTOMERS C",
    "SELECT * FROM CUSTOMERS NATURAL INNER JOIN PO_CUSTOMERS",
    "SELECT A.CUSTOMERNAME FROM CUSTOMERS A INNER JOIN "
    "(PAYMENTS B INNER JOIN PO_CUSTOMERS C ON B.CUSTID = C.CUSTOMERID) "
    "ON A.CUSTOMERID = B.CUSTID",
]


def run(connection, sql):
    cursor = connection.cursor()
    cursor.execute(sql)
    return cursor.fetchall()


@pytest.mark.parametrize("sql", JOIN_HEAVY)
def test_battery_parity(sql):
    assert run(FAST, sql) == run(SLOW, sql)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=20_000))
def test_random_query_parity(seed):
    sql = generate_query(seed)
    assert sorted(map(repr, run(FAST, sql))) == \
        sorted(map(repr, run(SLOW, sql)))


def test_a_planner_fault_is_caught(monkeypatch):
    """A planner that drops a WHERE's last conjunct: the batch executor
    keeps the rows only that conjunct rules out, the Evaluator does
    not."""
    split_conjuncts = planner.split_conjuncts

    def drop_last(condition):
        conjuncts = split_conjuncts(condition)
        return conjuncts[:-1] if len(conjuncts) > 1 else conjuncts

    monkeypatch.setattr(planner, "split_conjuncts", drop_last)
    sql = ("SELECT CUSTOMERID FROM CUSTOMERS "
           "WHERE CUSTOMERID > 10 AND CUSTOMERID < 40")
    faulty = run(connect(make_runtime()), sql)
    oracle = run(connect(evaluator_leg(make_runtime())), sql)
    assert sorted(oracle) == [(12,), (23,), (31,)]
    assert sorted(faulty) == [(12,), (23,), (31,), (44,), (55,)]
