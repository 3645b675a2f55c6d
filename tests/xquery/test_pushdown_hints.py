"""Pushdown hints: what the planner/compiler attach to source scans.

These tests observe the advisory :class:`repro.ScanRequest` each scan
receives by compiling translated SQL against a recording columnar host,
then pin the hint *shapes*: which conjuncts are deemed sargable (literals,
mirrored comparisons, ``xs:`` casts, external-variable parameters,
IS [NOT] NULL), which are not (OR, column-vs-column), and when the
projection narrows versus staying full-width.
"""

from decimal import Decimal

import pytest

from repro.sources import Predicate
from repro.translator import SQLToXQueryTranslator
from repro.workloads import build_runtime
from repro.xquery import compile_module, parse_xquery

from tests.sources.blind import without_pushdown

RUNTIME = build_runtime(backend="memory")
TRANSLATOR = SQLToXQueryTranslator(RUNTIME.metadata_api())


class RecordingHost:
    """The runtime as the batch executor's columnar host, remembering
    the scan request (if any) each column scan arrived with."""

    def __init__(self, runtime):
        self._runtime = runtime
        self.requests = []

    def __getattr__(self, name):
        return getattr(self._runtime, name)

    def scan_columns(self, uri, local, context=None, scan=None):
        self.requests.append((local, scan))
        return self._runtime.scan_columns(uri, local, context=context,
                                          scan=scan)


def scanned(xquery: str, resolver=RUNTIME.call_function, variables=None,
            **options) -> list:
    """Compile *xquery* batched and evaluate it, returning
    [(table, ScanRequest|None)]."""
    host = RecordingHost(RUNTIME)
    plan = compile_module(parse_xquery(xquery), resolver=resolver,
                          columnar=host, **options)
    assert plan.batched
    plan.evaluate(variables=variables)
    return host.requests


def scans_for(sql: str, variables=None):
    """Compile and evaluate *sql*, returning [(table, ScanRequest|None)]."""
    xquery = TRANSLATOR.translate(sql, format="recordset").xquery
    return scanned(xquery, variables=variables)


def only_scan(sql: str, variables=None):
    requests = scans_for(sql, variables)
    assert len(requests) == 1, requests
    return requests[0][1]


class TestSargableConjuncts:
    def test_integer_literal_equality(self):
        request = only_scan(
            "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 12")
        assert Predicate("CUSTOMERID", "eq", 12) in request.predicates

    def test_string_literal_equality(self):
        request = only_scan(
            "SELECT CUSTOMERID FROM CUSTOMERS WHERE REGION = 'EAST'")
        assert Predicate("REGION", "eq", "EAST") in request.predicates

    def test_mirrored_comparison_flips_operator(self):
        # "30 < CUSTOMERID" reaches the scan as CUSTOMERID gt 30.
        request = only_scan(
            "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE 30 < CUSTOMERID")
        assert Predicate("CUSTOMERID", "gt", 30) in request.predicates

    def test_decimal_cast_literal(self):
        # The translator emits xs:decimal('1000.00'); the planner folds
        # the constructor cast into a typed predicate value.
        request = only_scan("SELECT CUSTOMERNAME FROM CUSTOMERS "
                            "WHERE CREDITLIMIT >= 1000.00")
        assert Predicate("CREDITLIMIT", "ge",
                         Decimal("1000.00")) in request.predicates

    def test_is_null_and_is_not_null(self):
        request = only_scan(
            "SELECT CUSTOMERID FROM CUSTOMERS WHERE REGION IS NULL")
        assert Predicate("REGION", "isnull") in request.predicates
        request = only_scan(
            "SELECT CUSTOMERID FROM CUSTOMERS WHERE REGION IS NOT NULL")
        assert Predicate("REGION", "notnull") in request.predicates

    def test_conjunction_pushes_every_sargable_leg(self):
        request = only_scan(
            "SELECT CUSTOMERNAME FROM CUSTOMERS "
            "WHERE REGION = 'WEST' AND CUSTOMERID > 10")
        assert Predicate("REGION", "eq", "WEST") in request.predicates
        assert Predicate("CUSTOMERID", "gt", 10) in request.predicates

    def test_parameter_binds_late_per_execution(self):
        # WHERE CUSTOMERID = ? → a ParamRef hint; by the time the scan
        # reaches the resolver the placeholder is the bound value.
        sql = "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?"
        variables = TRANSLATOR.translate(
            sql, format="recordset").parameter_variables([23])
        request = only_scan(sql, variables=variables)
        assert Predicate("CUSTOMERID", "eq", 23) in request.predicates


class TestNonSargable:
    def test_or_disjunction_not_pushed(self):
        request = only_scan(
            "SELECT CUSTOMERID FROM CUSTOMERS "
            "WHERE REGION = 'EAST' OR REGION = 'WEST'")
        assert request is None or request.predicates == ()

    def test_column_vs_column_not_pushed(self):
        requests = scans_for(
            "SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P "
            "WHERE C.CUSTOMERID = P.CUSTID AND P.PAYMENT > 50.00")
        by_table = dict(requests)
        customers = by_table["CUSTOMERS"]
        # The join key is column-vs-column: never a CUSTOMERS predicate.
        if customers is not None:
            assert all(p.column != "CUSTOMERID" or p.op in
                       ("isnull", "notnull")
                       for p in customers.predicates) or \
                customers.predicates == ()
        payments = by_table["PAYMENTS"]
        assert payments is not None
        assert Predicate("PAYMENT", "gt",
                         Decimal("50.00")) in payments.predicates


class TestProjection:
    def test_narrow_select_narrows_scan(self):
        request = only_scan(
            "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE REGION = 'EAST'")
        assert request.columns == ("CUSTOMERNAME", "REGION")

    def test_select_star_names_every_column(self):
        # The recordset wrapper enumerates each column explicitly, so
        # even SELECT * yields a (full-width) explicit projection.
        request = only_scan("SELECT * FROM CUSTOMERS "
                            "WHERE CUSTOMERID = 55")
        assert request.columns == ("CREDITLIMIT", "CUSTOMERID",
                                   "CUSTOMERNAME", "REGION")

    def test_projection_sorted_and_includes_filter_columns(self):
        request = only_scan(
            "SELECT REGION, CUSTOMERNAME FROM CUSTOMERS "
            "WHERE CUSTOMERID > 0")
        assert request.columns == ("CUSTOMERID", "CUSTOMERNAME", "REGION")


class TestGating:
    def test_three_argument_resolver_still_gets_hints(self):
        # Hints reach the source through the columnar host's
        # scan_columns; the resolver's signature has no say in them.
        def resolver(uri, local, args):  # no context parameter
            return RUNTIME.call_function(uri, local, args)

        xquery = TRANSLATOR.translate(
            "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE REGION = 'EAST'",
            format="recordset").xquery
        (table, request), = scanned(xquery, resolver=resolver)
        assert table == "CUSTOMERS"
        assert Predicate("REGION", "eq", "EAST") in request.predicates

    def test_results_identical_with_and_without_pushdown(self):
        sql = ("SELECT CUSTOMERNAME FROM CUSTOMERS "
               "WHERE REGION = 'WEST' AND CUSTOMERID < 50")
        xquery = TRANSLATOR.translate(sql, format="delimited").xquery
        module = parse_xquery(xquery)
        blind = without_pushdown(build_runtime(backend="memory"))
        pushed = compile_module(module, resolver=RUNTIME.call_function,
                                columnar=RUNTIME)
        plain = compile_module(module, resolver=blind.call_function,
                               columnar=blind)
        assert pushed.evaluate() == plain.evaluate()
