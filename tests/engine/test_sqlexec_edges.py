"""Edge-case tests for the reference executor: 3VL corners, casts,
sort-key handling, and error paths."""

import datetime
from decimal import Decimal

import pytest

from repro import connect
from repro.catalog import Application
from repro.engine import DSPRuntime, Storage, import_tables
from repro.errors import SQLSemanticError
from repro.sql import parse_statement
from repro.sql.types import SQLType
from repro.workloads import build_storage

from tests.engine.sqlexec import (
    SQLExecutor,
    TableProvider,
    _and3,
    _not3,
    _or3,
    canonical_value,
    sql_cast,
)


def run(sql, storage=None, params=()):
    executor = SQLExecutor(TableProvider(storage or build_storage()),
                           parameters=params)
    return executor.execute(parse_statement(sql))


class TestThreeValuedLogic:
    @pytest.mark.parametrize("a,b,expected", [
        (True, True, True), (True, False, False), (True, None, None),
        (False, None, False), (None, None, None), (False, False, False),
    ])
    def test_and3(self, a, b, expected):
        assert _and3(a, b) is expected
        assert _and3(b, a) is expected

    @pytest.mark.parametrize("a,b,expected", [
        (True, True, True), (True, False, True), (True, None, True),
        (False, None, None), (None, None, None), (False, False, False),
    ])
    def test_or3(self, a, b, expected):
        assert _or3(a, b) is expected
        assert _or3(b, a) is expected

    def test_not3(self):
        assert _not3(True) is False
        assert _not3(False) is True
        assert _not3(None) is None

    def test_case_when_unknown_skips_branch(self):
        result = run("SELECT CASE WHEN REGION = 'WEST' THEN 1 ELSE 0 END "
                     "FROM CUSTOMERS WHERE CUSTOMERID = 44")
        assert result.rows == [(0,)]  # NULL = 'WEST' is UNKNOWN

    def test_between_with_null_bound(self):
        result = run("SELECT COUNT(*) FROM CUSTOMERS WHERE "
                     "CUSTOMERID BETWEEN NULL AND 100")
        assert result.rows == [(0,)]

    def test_like_with_null_pattern(self):
        result = run("SELECT COUNT(*) FROM CUSTOMERS WHERE "
                     "CUSTOMERNAME LIKE NULL")
        assert result.rows == [(0,)]

    def test_quantified_any_empty_subquery_false(self):
        result = run("SELECT COUNT(*) FROM CUSTOMERS WHERE CUSTOMERID "
                     "= ANY (SELECT CUSTID FROM PAYMENTS WHERE 1 = 2)")
        assert result.rows == [(0,)]

    def test_quantified_all_empty_subquery_true(self):
        result = run("SELECT COUNT(*) FROM CUSTOMERS WHERE CUSTOMERID "
                     "> ALL (SELECT CUSTID FROM PAYMENTS WHERE 1 = 2)")
        assert result.rows == [(6,)]

    def test_null_quantified_over_empty_is_true_for_all(self):
        result = run("SELECT COUNT(*) FROM CUSTOMERS WHERE CREDITLIMIT "
                     "> ALL (SELECT PAYMENT FROM PAYMENTS WHERE 1 = 2)")
        assert result.rows == [(6,)]  # even the NULL CREDITLIMIT rows


class TestSqlCast:
    @pytest.mark.parametrize("value,target,expected", [
        ("42", SQLType("INTEGER"), 42),
        (42.7, SQLType("INTEGER"), 42),
        (Decimal("3.9"), SQLType("BIGINT"), 3),
        ("3.25", SQLType("DECIMAL"), Decimal("3.25")),
        (0.1, SQLType("DECIMAL"), Decimal("0.1")),
        ("1.5", SQLType("DOUBLE"), 1.5),
        (7, SQLType("VARCHAR"), "7"),
        (Decimal("4.50"), SQLType("VARCHAR"), "4.50"),
        (12.0, SQLType("VARCHAR"), "12"),
        ("2020-01-31", SQLType("DATE"), datetime.date(2020, 1, 31)),
        (datetime.datetime(2020, 1, 31, 10, 0), SQLType("DATE"),
         datetime.date(2020, 1, 31)),
        (datetime.date(2020, 1, 31), SQLType("TIMESTAMP"),
         datetime.datetime(2020, 1, 31)),
        ("10:30:00", SQLType("TIME"), datetime.time(10, 30)),
    ])
    def test_casts(self, value, target, expected):
        assert sql_cast(value, target) == expected

    def test_null_passthrough(self):
        assert sql_cast(None, SQLType("INTEGER")) is None

    def test_varchar_truncation(self):
        assert sql_cast("abcdef", SQLType("VARCHAR", length=3)) == "abc"

    def test_decimal_scale(self):
        result = sql_cast(Decimal("3.14159"),
                          SQLType("DECIMAL", precision=10, scale=2))
        assert result == Decimal("3.14")

    def test_invalid_cast(self):
        with pytest.raises(SQLSemanticError):
            sql_cast("notanumber", SQLType("INTEGER"))

    def test_unsupported_target(self):
        with pytest.raises(SQLSemanticError):
            sql_cast(1, SQLType("BLOB"))


class TestCanonicalValue:
    def test_numeric_unification(self):
        assert canonical_value(2) == canonical_value(2.0)
        assert canonical_value(2) == canonical_value(Decimal("2.00"))

    def test_null_key(self):
        assert canonical_value(None) == ("null",)

    def test_bool_distinct_from_int(self):
        assert canonical_value(True) != canonical_value(1)

    def test_datetime_kinds_distinct(self):
        date = datetime.date(2020, 1, 1)
        moment = datetime.datetime(2020, 1, 1)
        assert canonical_value(date) != canonical_value(moment)

    def test_unkeyable(self):
        with pytest.raises(SQLSemanticError):
            canonical_value(object())


class TestLargeNumberKeys:
    """Two 32-digit DECIMALs that a 28-digit rounding context would
    merge stay two keys in DISTINCT, GROUP BY and UNION — in the oracle
    as through the driver."""

    VALUES = [Decimal("12345678901234567890123456789012"),
              Decimal("12345678901234567890123456790000")]

    @pytest.fixture(scope="class")
    def storage(self):
        storage = Storage()
        storage.create_table("BIG", [("X", SQLType("DECIMAL"))]) \
            .insert_many([(value,) for value in self.VALUES])
        return storage

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT DISTINCT X FROM BIG", [(v,) for v in VALUES]),
        ("SELECT X, COUNT(*) FROM BIG GROUP BY X", [(v, 1) for v in VALUES]),
        ("SELECT X FROM BIG UNION SELECT X FROM BIG",
         [(v,) for v in VALUES]),
    ], ids=["distinct", "group-by", "union"])
    def test_oracle_and_driver_keep_both(self, storage, sql, expected):
        application = Application("BigApp")
        import_tables(application, "Big", storage)
        cursor = connect(DSPRuntime(application, storage)).cursor()
        cursor.execute(sql)
        assert sorted(cursor.fetchall()) == expected
        assert sorted(run(sql, storage).rows) == expected


class TestNaturalJoinEdge:
    def storage(self):
        storage = Storage()
        left = storage.create_table("L", [
            ("K1", SQLType("INTEGER")), ("K2", SQLType("INTEGER")),
            ("A", SQLType("VARCHAR"))])
        right = storage.create_table("R", [
            ("K1", SQLType("INTEGER")), ("K2", SQLType("INTEGER")),
            ("B", SQLType("VARCHAR"))])
        left.insert_many([(1, 1, "a"), (1, 2, "b"), (2, 1, "c")])
        right.insert_many([(1, 1, "x"), (2, 1, "y"), (2, 2, "z")])
        return storage

    def test_natural_join_on_all_common_columns(self):
        result = run("SELECT A, B FROM L NATURAL INNER JOIN R",
                     storage=self.storage())
        assert sorted(result.rows) == [("a", "x"), ("c", "y")]

    def test_using_subset_of_common_columns(self):
        result = run("SELECT A, B FROM L INNER JOIN R USING (K1)",
                     storage=self.storage())
        assert sorted(result.rows) == [
            ("a", "x"), ("b", "x"), ("c", "y"), ("c", "z")]


class TestSortEdges:
    def test_mixed_null_keys_ascending_first(self):
        result = run("SELECT CREDITLIMIT FROM CUSTOMERS "
                     "ORDER BY CREDITLIMIT")
        assert result.rows[0] == (None,)
        assert result.rows[-1] == (Decimal("2500.50"),)

    def test_order_by_date(self):
        result = run("SELECT PAYDATE FROM PAYMENTS ORDER BY PAYDATE DESC")
        assert result.rows[0] == (datetime.date(2005, 3, 2),)

    def test_order_by_two_directions(self):
        result = run("SELECT REGION, CUSTOMERID FROM CUSTOMERS "
                     "ORDER BY REGION ASC, CUSTOMERID DESC")
        west = [row for row in result.rows if row[0] == "WEST"]
        assert west == [("WEST", 55), ("WEST", 7)]

    def test_order_by_alias_of_expression(self):
        result = run("SELECT CUSTOMERID * -1 AS NEG FROM CUSTOMERS "
                     "ORDER BY NEG")
        assert result.rows[0] == (-55,)


class TestMiscErrors:
    def test_mod_by_zero(self):
        with pytest.raises(SQLSemanticError):
            run("SELECT MOD(CUSTOMERID, 0) FROM CUSTOMERS")

    def test_sqrt_negative(self):
        with pytest.raises(SQLSemanticError):
            run("SELECT SQRT(CUSTOMERID - 100) FROM CUSTOMERS")

    def test_trim_multichar(self):
        with pytest.raises(SQLSemanticError):
            run("SELECT TRIM(BOTH 'ab' FROM CUSTOMERNAME) FROM CUSTOMERS")

    def test_substring_negative_length(self):
        with pytest.raises(SQLSemanticError):
            run("SELECT SUBSTRING(CUSTOMERNAME FROM 1 FOR 0 - 1) "
                "FROM CUSTOMERS")

    def test_concat_non_string(self):
        with pytest.raises(SQLSemanticError):
            run("SELECT CUSTOMERID || CUSTOMERID FROM CUSTOMERS")
