"""Experiment E11 integration: SQL over logical data services.

Regression coverage for schema validation of logical function results:
constructor-built rows must become typed per the declared return schema,
or numeric/date predicates over logical views break. A logical body,
and SQL that reads one, runs on the Evaluator (DESIGN §7) — under the
statement's deadline.
"""

import time
from decimal import Decimal

import pytest

from repro.catalog import DataService, FunctionParameter
from repro.driver import OperationalError, connect
from repro.engine import (
    DSPRuntime,
    FaultProfile,
    install_fault,
    logical_function,
)
from repro.workloads import PROJECT, build_runtime

BODY = f"""
import schema namespace c = "ld:{PROJECT}/CUSTOMERS";
import schema namespace p = "ld:{PROJECT}/PAYMENTS";
for $c in c:CUSTOMERS()
for $p in p:PAYMENTS()
where $c/CUSTOMERID = $p/CUSTID
return
<CUSTOMER_PAYMENTS>
  <CUSTOMERID>{{fn:data($c/CUSTOMERID)}}</CUSTOMERID>
  <CUSTOMERNAME>{{fn:data($c/CUSTOMERNAME)}}</CUSTOMERNAME>
  <PAYMENT>{{fn:data($p/PAYMENT)}}</PAYMENT>
  <PAYDATE>{{fn:data($p/PAYDATE)}}</PAYDATE>
</CUSTOMER_PAYMENTS>
"""


def with_view() -> DSPRuntime:
    """The demo runtime plus the CUSTOMER_PAYMENTS logical view."""
    runtime = build_runtime()
    project = runtime.application.project(PROJECT)
    service = DataService("views/CUSTOMER_PAYMENTS")
    service.add_function(logical_function(
        "CUSTOMER_PAYMENTS", BODY, PROJECT, "views/CUSTOMER_PAYMENTS",
        [("CUSTOMERID", "int"), ("CUSTOMERNAME", "string"),
         ("PAYMENT", "decimal"), ("PAYDATE", "date")]))
    project.add_data_service(service)
    return DSPRuntime(runtime.application, runtime.storage)


@pytest.fixture(scope="module")
def conn():
    return connect(with_view())


def test_a_deadline_fires_inside_the_evaluator_run_body():
    """The view's body reads PAYMENTS, which hangs: the Evaluator that
    runs the body passes the statement's context to the source, whose
    wait notices the deadline; the admission slot is released."""
    runtime = with_view()
    install_fault(runtime, "PAYMENTS",
                  FaultProfile(hang=True, hang_seconds=10.0))
    connection = connect(runtime)
    cursor = connection.cursor()
    started = time.monotonic()
    with pytest.raises(OperationalError, match="deadline"):
        cursor.execute("SELECT * FROM CUSTOMER_PAYMENTS", timeout=0.2)
        cursor.fetchall()
    assert time.monotonic() - started < 2.0
    stats = connection.stats()
    assert stats["admission"]["active"] == 0
    assert stats["counters"]["queries.timeout"] == 1
    # SQL over a logical view is not lowered: it has no columnar scan.
    assert stats["runtime"]["counters"][
        "vector.decline.non_scan_source"] == 1


class TestLogicalViewAsTable:
    def test_visible_in_metadata(self, conn):
        tables = conn.metadata.get_tables()
        assert (f"{PROJECT}/views/CUSTOMER_PAYMENTS",
                "CUSTOMER_PAYMENTS") in tables

    def test_plain_select(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT * FROM CUSTOMER_PAYMENTS")
        assert len(cursor.fetchall()) == 5  # orphan payment drops out
        assert cursor.rowcount == 5

    def test_numeric_predicate_on_logical_column(self, conn):
        """The schema-validation regression: constructor-built rows must
        compare numerically, not as untyped strings."""
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERNAME, PAYMENT FROM "
                       "CUSTOMER_PAYMENTS WHERE PAYMENT > 90 "
                       "ORDER BY PAYMENT DESC")
        assert cursor.fetchall() == [("Sue", Decimal("250.00")),
                                     ("Joe", Decimal("100.00"))]

    def test_date_predicate_on_logical_column(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT COUNT(*) FROM CUSTOMER_PAYMENTS "
                       "WHERE PAYDATE >= DATE '2005-02-01'")
        assert cursor.fetchone() == (3,)

    def test_null_survives_logical_view(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT PAYMENT FROM CUSTOMER_PAYMENTS "
                       "WHERE PAYMENT IS NULL")
        assert cursor.fetchall() == [(None,)]

    def test_aggregation_over_logical_view(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT CUSTOMERNAME, SUM(PAYMENT) FROM "
                       "CUSTOMER_PAYMENTS GROUP BY CUSTOMERNAME "
                       "ORDER BY 2 DESC")
        rows = cursor.fetchall()
        assert rows[0] == ("Sue", Decimal("250.00"))

    def test_join_logical_with_physical(self, conn):
        cursor = conn.cursor()
        cursor.execute(
            "SELECT V.CUSTOMERNAME, O.ORDERID FROM CUSTOMER_PAYMENTS V "
            "INNER JOIN PO_CUSTOMERS O ON V.CUSTOMERID = O.CUSTOMERID "
            "WHERE V.PAYMENT > 90")
        assert len(cursor.fetchall()) > 0
