"""Tests for the exception hierarchy and the shared clock."""

import datetime

import pytest

from repro import clock, errors


class TestHierarchy:
    def test_everything_is_reproerror(self):
        for name in ("SQLSyntaxError", "SQLSemanticError",
                     "UnsupportedSQLError", "CatalogError",
                     "UnknownArtifactError", "FlatnessError",
                     "XQuerySyntaxError", "XQueryStaticError",
                     "XQueryDynamicError", "XQueryTypeError",
                     "XMLParseError", "Error", "InterfaceError",
                     "DatabaseError", "ProgrammingError", "DataError",
                     "NotSupportedError", "OperationalError",
                     "IntegrityError", "InternalError", "Warning"):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_pep249_shape(self):
        assert issubclass(errors.InterfaceError, errors.Error)
        assert issubclass(errors.DatabaseError, errors.Error)
        assert issubclass(errors.ProgrammingError, errors.DatabaseError)
        assert issubclass(errors.DataError, errors.DatabaseError)
        assert not issubclass(errors.Warning, errors.Error)

    def test_sql_errors_are_sql(self):
        assert issubclass(errors.SQLSyntaxError, errors.SQLError)
        assert issubclass(errors.SQLSemanticError, errors.SQLError)
        assert issubclass(errors.UnsupportedSQLError, errors.SQLError)

    def test_sql_error_position(self):
        error = errors.SQLSyntaxError("oops", 3, 7)
        assert error.line == 3
        assert error.column == 7
        assert "line 3" in str(error)

    def test_sql_error_without_position(self):
        assert str(errors.SQLSemanticError("bad")) == "bad"

    def test_xquery_error_code(self):
        error = errors.XQueryDynamicError("div by zero", code="FOAR0001")
        assert error.code == "FOAR0001"
        assert "[FOAR0001]" in str(error)

    def test_xml_parse_error_offset(self):
        error = errors.XMLParseError("bad", position=12)
        assert "offset 12" in str(error)


class TestClock:
    def teardown_method(self):
        clock.set_fixed(None)

    def test_fixed_clock(self):
        moment = datetime.datetime(2005, 6, 1, 10, 30, 15)
        clock.set_fixed(moment)
        assert clock.now() == moment
        assert clock.today() == datetime.date(2005, 6, 1)
        assert clock.current_time() == datetime.time(10, 30, 15)

    def test_unpinned_clock_moves(self):
        clock.set_fixed(None)
        assert abs((clock.now() - datetime.datetime.now())
                   .total_seconds()) < 1

    def test_sql_and_xquery_agree(self):
        from repro.xquery import execute_xquery
        clock.set_fixed(datetime.datetime(2005, 6, 1, 10, 30, 15))
        assert execute_xquery("fn:current-date()") == \
            [datetime.date(2005, 6, 1)]
        assert execute_xquery("fn:current-dateTime()") == \
            [datetime.datetime(2005, 6, 1, 10, 30, 15)]
        assert execute_xquery("fn:current-time()") == \
            [datetime.time(10, 30, 15)]

    def test_equivalence_of_current_date(self):
        """CURRENT_DATE through the driver equals the oracle's."""
        from repro.driver import connect
        from tests.engine.sqlexec import SQLExecutor, TableProvider
        from repro.sql import parse_statement
        from repro.workloads import build_runtime, build_storage
        clock.set_fixed(datetime.datetime(2005, 6, 1, 12, 0, 0))
        cursor = connect(build_runtime()).cursor()
        cursor.execute("SELECT CURRENT_DATE FROM CUSTOMERS")
        driver_rows = cursor.fetchall()
        oracle = SQLExecutor(TableProvider(build_storage())).execute(
            parse_statement("SELECT CURRENT_DATE FROM CUSTOMERS"))
        assert driver_rows == oracle.rows
