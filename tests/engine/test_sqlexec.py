"""Tests for the reference SQL-92 executor (the correctness oracle)."""

import datetime
from decimal import Decimal

import pytest

from repro import clock
from repro.errors import SQLSemanticError
from repro.sql import parse_statement
from repro.workloads import build_storage

from tests.engine.sqlexec import SQLExecutor, TableProvider


@pytest.fixture()
def executor():
    return SQLExecutor(TableProvider(build_storage()))


def run(executor, sql, params=()):
    if params:
        executor = SQLExecutor(executor._provider, parameters=params)
    return executor.execute(parse_statement(sql))


class TestProjection:
    def test_select_star(self, executor):
        result = run(executor, "SELECT * FROM CUSTOMERS")
        assert result.columns == ["CUSTOMERID", "CUSTOMERNAME", "REGION",
                                  "CREDITLIMIT"]
        assert len(result.rows) == 6

    def test_select_columns_and_aliases(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID ID, CUSTOMERNAME FROM CUSTOMERS")
        assert result.columns == ["ID", "CUSTOMERNAME"]
        assert result.rows[0] == (55, "Joe")

    def test_qualified_star(self, executor):
        result = run(executor, "SELECT C.* FROM CUSTOMERS C")
        assert len(result.columns) == 4

    def test_expression_item_gets_synthetic_name(self, executor):
        result = run(executor, "SELECT CUSTOMERID + 1 FROM CUSTOMERS")
        assert result.columns == ["EXPR$1"]
        assert result.rows[0] == (56,)

    def test_unknown_column_rejected(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor, "SELECT NOPE FROM CUSTOMERS")

    def test_unknown_star_qualifier(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor, "SELECT X.* FROM CUSTOMERS C")

    def test_distinct(self, executor):
        result = run(executor, "SELECT DISTINCT REGION FROM CUSTOMERS")
        values = {row[0] for row in result.rows}
        assert values == {"WEST", "EAST", "NORTH", None}
        assert len(result.rows) == 4  # NULLs collapse under DISTINCT


class TestWhere:
    def test_comparison(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE CUSTOMERID > 30")
        assert {r[0] for r in result.rows} == {"Joe", "Eve", "Dan"}

    def test_null_comparison_filters(self, executor):
        # Dan has NULL region: NULL = 'WEST' is UNKNOWN -> filtered.
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE REGION = 'WEST'")
        assert {r[0] for r in result.rows} == {"Joe", "Ann"}

    def test_not_of_unknown_still_filters(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE NOT REGION = 'WEST'")
        assert {r[0] for r in result.rows} == {"Sue", "Bob", "Eve"}

    def test_is_null(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE REGION IS NULL")
        assert [r[0] for r in result.rows] == ["Dan"]

    def test_is_not_null(self, executor):
        result = run(executor,
                     "SELECT COUNT(*) FROM CUSTOMERS "
                     "WHERE CREDITLIMIT IS NOT NULL")
        assert result.rows == [(5,)]

    def test_between(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID FROM CUSTOMERS "
                     "WHERE CUSTOMERID BETWEEN 10 AND 40")
        assert {r[0] for r in result.rows} == {23, 12, 31}

    def test_not_between_with_null(self, executor):
        # NULL NOT BETWEEN ... is UNKNOWN -> filtered.
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE CREDITLIMIT NOT BETWEEN 0 AND 800")
        assert {r[0] for r in result.rows} == {"Joe", "Sue", "Eve"}

    def test_in_list(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE REGION IN ('EAST', 'NORTH')")
        assert {r[0] for r in result.rows} == {"Sue", "Bob", "Eve"}

    def test_not_in_list_with_null_item(self, executor):
        # x NOT IN (..., NULL) is never TRUE.
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE REGION NOT IN ('EAST', NULL)")
        assert result.rows == []

    def test_like(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE CUSTOMERNAME LIKE '%o%'")
        assert {r[0] for r in result.rows} == {"Joe", "Bob"}

    def test_like_underscore_and_escape(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE CUSTOMERNAME LIKE '_o_'")
        assert {r[0] for r in result.rows} == {"Joe", "Bob"}

    def test_and_or_three_valued(self, executor):
        # REGION IS NULL for Dan: (NULL='WEST' OR TRUE) must be TRUE.
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE REGION = 'WEST' OR CUSTOMERID = 44")
        assert {r[0] for r in result.rows} == {"Joe", "Ann", "Dan"}

    def test_parameters(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS "
                     "WHERE CUSTOMERID = ?", params=[23])
        assert result.rows == [("Sue",)]

    def test_missing_parameter(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor, "SELECT * FROM CUSTOMERS WHERE CUSTOMERID = ?")


class TestJoins:
    def test_inner_join(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT "
                     "FROM CUSTOMERS INNER JOIN PAYMENTS "
                     "ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID")
        assert len(result.rows) == 5  # orphan payment 99 drops out

    def test_left_outer_join(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT "
                     "FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS "
                     "ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID")
        # 6 customers; Joe 2 payments, Sue 2, Eve 1, others padded.
        assert len(result.rows) == 8
        padded = [r for r in result.rows if r[1] is None]
        # Ann(7), Bob(12), Dan(44) unmatched + Sue's NULL payment row.
        assert len(padded) == 4

    def test_right_outer_join(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENTID "
                     "FROM CUSTOMERS RIGHT OUTER JOIN PAYMENTS "
                     "ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID")
        assert len(result.rows) == 6
        unmatched = [r for r in result.rows if r[0] is None]
        assert len(unmatched) == 1  # payment for unknown customer 99

    def test_full_outer_join(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENTID "
                     "FROM CUSTOMERS FULL OUTER JOIN PAYMENTS "
                     "ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID")
        assert len(result.rows) == 9  # 6 matches + 3 left-only + ...

    def test_cross_join(self, executor):
        result = run(executor,
                     "SELECT * FROM CUSTOMERS CROSS JOIN PO_CUSTOMERS")
        assert len(result.rows) == 6 * 7

    def test_join_using(self, executor):
        result = run(executor,
                     "SELECT * FROM CUSTOMERS INNER JOIN PO_CUSTOMERS "
                     "USING (CUSTOMERID)")
        assert len(result.rows) == 7

    def test_natural_join(self, executor):
        result = run(executor,
                     "SELECT * FROM CUSTOMERS NATURAL INNER JOIN "
                     "PO_CUSTOMERS")
        assert len(result.rows) == 7

    def test_implicit_cross_join_with_where(self, executor):
        result = run(executor,
                     "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, "
                     "PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID")
        assert len(result.rows) == 5

    def test_nested_join(self, executor):
        sql = ("SELECT C.CUSTOMERNAME FROM CUSTOMERS C JOIN "
               "(PAYMENTS P JOIN PO_CUSTOMERS O "
               "ON P.CUSTID = O.CUSTOMERID) ON C.CUSTOMERID = P.CUSTID")
        result = run(executor, sql)
        assert len(result.rows) > 0

    def test_duplicate_range_variable_rejected(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor, "SELECT * FROM CUSTOMERS, CUSTOMERS")

    def test_ambiguous_column_rejected(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor,
                "SELECT CUSTOMERID FROM CUSTOMERS "
                "INNER JOIN PO_CUSTOMERS ON 1 = 1")


class TestAggregates:
    def test_count_star(self, executor):
        assert run(executor,
                   "SELECT COUNT(*) FROM CUSTOMERS").rows == [(6,)]

    def test_count_column_skips_nulls(self, executor):
        assert run(executor,
                   "SELECT COUNT(REGION) FROM CUSTOMERS").rows == [(5,)]

    def test_count_distinct(self, executor):
        assert run(executor,
                   "SELECT COUNT(DISTINCT REGION) FROM CUSTOMERS"
                   ).rows == [(3,)]

    def test_sum_avg_min_max(self, executor):
        result = run(executor,
                     "SELECT SUM(PAYMENT), AVG(PAYMENT), MIN(PAYMENT), "
                     "MAX(PAYMENT) FROM PAYMENTS")
        total, avg, low, high = result.rows[0]
        assert total == Decimal("468.50")
        assert avg == Decimal("93.70")
        assert low == Decimal("10.00")
        assert high == Decimal("250.00")

    def test_sum_of_empty_is_null(self, executor):
        result = run(executor,
                     "SELECT SUM(PAYMENT), COUNT(*) FROM PAYMENTS "
                     "WHERE CUSTID = 12345")
        assert result.rows == [(None, 0)]

    def test_group_by(self, executor):
        result = run(executor,
                     "SELECT REGION, COUNT(*) FROM CUSTOMERS "
                     "GROUP BY REGION")
        mapping = dict(result.rows)
        assert mapping == {"WEST": 2, "EAST": 2, "NORTH": 1, None: 1}

    def test_group_by_having(self, executor):
        result = run(executor,
                     "SELECT REGION, COUNT(*) FROM CUSTOMERS "
                     "GROUP BY REGION HAVING COUNT(*) > 1")
        assert dict(result.rows) == {"WEST": 2, "EAST": 2}

    def test_group_by_expression_key(self, executor):
        result = run(executor,
                     "SELECT COUNT(*) FROM ORDERS "
                     "GROUP BY EXTRACT(MONTH FROM ORDERDATE)")
        assert sorted(r[0] for r in result.rows) == [2, 2, 3]

    def test_aggregate_with_arithmetic(self, executor):
        result = run(executor,
                     "SELECT CUSTID, SUM(PAYMENT) * 2 FROM PAYMENTS "
                     "GROUP BY CUSTID HAVING SUM(PAYMENT) > 100")
        assert dict(result.rows) == {55: Decimal("351.00"),
                                     23: Decimal("500.00")}

    def test_aggregate_outside_group_rejected(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor,
                "SELECT * FROM CUSTOMERS WHERE COUNT(*) > 1")


class TestSubqueries:
    def test_derived_table(self, executor):
        result = run(executor,
                     "SELECT INFO.ID FROM (SELECT CUSTOMERID ID, "
                     "CUSTOMERNAME NAME FROM CUSTOMERS) AS INFO "
                     "WHERE INFO.ID > 10")
        assert {r[0] for r in result.rows} == {55, 23, 12, 31, 44}

    def test_derived_table_column_aliases(self, executor):
        result = run(executor,
                     "SELECT D.X FROM (SELECT CUSTOMERID FROM CUSTOMERS) "
                     "AS D (X)")
        assert len(result.rows) == 6

    def test_scalar_subquery(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE "
                     "CUSTOMERID = (SELECT MAX(CUSTOMERID) FROM CUSTOMERS)")
        assert result.rows == [("Joe",)]

    def test_scalar_subquery_empty_is_null(self, executor):
        result = run(executor,
                     "SELECT (SELECT PAYMENT FROM PAYMENTS "
                     "WHERE CUSTID = 12345) FROM CUSTOMERS")
        assert all(r == (None,) for r in result.rows)

    def test_scalar_subquery_multirow_errors(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor,
                "SELECT (SELECT PAYMENT FROM PAYMENTS) FROM CUSTOMERS")

    def test_exists_correlated(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS "
                     "(SELECT PAYMENTID FROM PAYMENTS P "
                     "WHERE P.CUSTID = C.CUSTOMERID)")
        assert {r[0] for r in result.rows} == {"Joe", "Sue", "Eve"}

    def test_not_exists(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE NOT "
                     "EXISTS (SELECT PAYMENTID FROM PAYMENTS P "
                     "WHERE P.CUSTID = C.CUSTOMERID)")
        assert {r[0] for r in result.rows} == {"Ann", "Bob", "Dan"}

    def test_in_subquery(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID "
                     "IN (SELECT CUSTID FROM PAYMENTS)")
        assert {r[0] for r in result.rows} == {"Joe", "Sue", "Eve"}

    def test_quantified_all(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID "
                     ">= ALL (SELECT CUSTOMERID FROM CUSTOMERS)")
        assert result.rows == [("Joe",)]

    def test_quantified_any(self, executor):
        result = run(executor,
                     "SELECT COUNT(*) FROM CUSTOMERS WHERE CUSTOMERID "
                     "= ANY (SELECT CUSTID FROM PAYMENTS)")
        assert result.rows == [(3,)]

    def test_correlated_scalar_in_select(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME, (SELECT COUNT(*) FROM PAYMENTS "
                     "P WHERE P.CUSTID = C.CUSTOMERID) FROM CUSTOMERS C")
        mapping = dict(result.rows)
        assert mapping["Joe"] == 2
        assert mapping["Ann"] == 0


class TestSetOperations:
    def test_union_removes_duplicates(self, executor):
        result = run(executor,
                     "SELECT REGION FROM CUSTOMERS UNION "
                     "SELECT REGION FROM CUSTOMERS")
        assert len(result.rows) == 4

    def test_union_all_keeps_duplicates(self, executor):
        result = run(executor,
                     "SELECT REGION FROM CUSTOMERS UNION ALL "
                     "SELECT REGION FROM CUSTOMERS")
        assert len(result.rows) == 12

    def test_intersect(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT "
                     "SELECT CUSTID FROM PAYMENTS")
        assert {r[0] for r in result.rows} == {55, 23, 31}

    def test_except(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID FROM CUSTOMERS EXCEPT "
                     "SELECT CUSTID FROM PAYMENTS")
        assert {r[0] for r in result.rows} == {7, 12, 44}

    def test_except_all_bag_semantics(self, executor):
        result = run(executor,
                     "SELECT CUSTID FROM PAYMENTS EXCEPT ALL "
                     "SELECT CUSTOMERID FROM CUSTOMERS")
        # Payments CUSTIDs: 55,23,55,31,99,23; minus one each of 55,23,31.
        assert sorted(r[0] for r in result.rows) == [23, 55, 99]

    def test_column_count_mismatch(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor,
                "SELECT CUSTOMERID, REGION FROM CUSTOMERS UNION "
                "SELECT CUSTID FROM PAYMENTS")


class TestOrderBy:
    def test_order_by_column(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY CUSTOMERID")
        assert [r[0] for r in result.rows] == [7, 12, 23, 31, 44, 55]

    def test_order_by_desc(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID FROM CUSTOMERS "
                     "ORDER BY CUSTOMERID DESC")
        assert [r[0] for r in result.rows] == [55, 44, 31, 23, 12, 7]

    def test_order_by_position(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME, CUSTOMERID FROM CUSTOMERS "
                     "ORDER BY 2")
        assert result.rows[0][0] == "Ann"

    def test_order_by_alias(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID AS K FROM CUSTOMERS ORDER BY K")
        assert [r[0] for r in result.rows] == [7, 12, 23, 31, 44, 55]

    def test_nulls_sort_first_ascending(self, executor):
        result = run(executor,
                     "SELECT REGION FROM CUSTOMERS ORDER BY REGION")
        assert result.rows[0][0] is None

    def test_nulls_sort_last_descending(self, executor):
        result = run(executor,
                     "SELECT REGION FROM CUSTOMERS ORDER BY REGION DESC")
        assert result.rows[-1][0] is None

    def test_order_by_expression(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID FROM CUSTOMERS "
                     "ORDER BY CUSTOMERID * -1")
        assert [r[0] for r in result.rows] == [55, 44, 31, 23, 12, 7]

    def test_order_by_on_union(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID FROM CUSTOMERS UNION "
                     "SELECT CUSTID FROM PAYMENTS ORDER BY 1")
        assert [r[0] for r in result.rows] == [7, 12, 23, 31, 44, 55, 99]

    def test_order_by_multiple_keys(self, executor):
        result = run(executor,
                     "SELECT REGION, CUSTOMERID FROM CUSTOMERS "
                     "ORDER BY REGION DESC, CUSTOMERID ASC")
        assert result.rows[0] == ("WEST", 7)

    def test_position_out_of_range(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor, "SELECT CUSTOMERID FROM CUSTOMERS ORDER BY 9")


class TestExpressions:
    def test_arithmetic_and_precedence(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID + 2 * 10 FROM CUSTOMERS "
                     "WHERE CUSTOMERID = 7")
        assert result.rows == [(27,)]

    def test_integer_division_truncates(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERID / 10 FROM CUSTOMERS "
                     "WHERE CUSTOMERID = 55")
        assert result.rows == [(5,)]

    def test_decimal_division(self, executor):
        result = run(executor,
                     "SELECT CREDITLIMIT / 2 FROM CUSTOMERS "
                     "WHERE CUSTOMERID = 55")
        assert result.rows == [(Decimal("500.00"),)]

    def test_concat_operator(self, executor):
        result = run(executor,
                     "SELECT CUSTOMERNAME || '!' FROM CUSTOMERS "
                     "WHERE CUSTOMERID = 23")
        assert result.rows == [("Sue!",)]

    def test_concat_null_propagates(self, executor):
        result = run(executor,
                     "SELECT REGION || 'x' FROM CUSTOMERS "
                     "WHERE CUSTOMERID = 44")
        assert result.rows == [(None,)]

    def test_case_searched(self, executor):
        result = run(executor,
                     "SELECT CASE WHEN CUSTOMERID > 30 THEN 'high' "
                     "ELSE 'low' END FROM CUSTOMERS ORDER BY 1")
        values = [r[0] for r in result.rows]
        assert values.count("high") == 3

    def test_case_simple_with_null_operand(self, executor):
        result = run(executor,
                     "SELECT CASE REGION WHEN 'WEST' THEN 1 ELSE 0 END "
                     "FROM CUSTOMERS WHERE CUSTOMERID = 44")
        assert result.rows == [(0,)]  # NULL matches nothing -> ELSE

    def test_case_no_else_yields_null(self, executor):
        result = run(executor,
                     "SELECT CASE WHEN 1 = 2 THEN 'x' END FROM CUSTOMERS")
        assert all(r == (None,) for r in result.rows)

    def test_cast(self, executor):
        result = run(executor,
                     "SELECT CAST(CUSTOMERID AS VARCHAR(10)), "
                     "CAST('12' AS INTEGER) FROM CUSTOMERS "
                     "WHERE CUSTOMERID = 55")
        assert result.rows == [("55", 12)]

    def test_functions(self, executor):
        result = run(executor,
                     "SELECT UPPER(CUSTOMERNAME), CHAR_LENGTH("
                     "CUSTOMERNAME), SUBSTRING(CUSTOMERNAME FROM 1 FOR 2) "
                     "FROM CUSTOMERS WHERE CUSTOMERID = 23")
        assert result.rows == [("SUE", 3, "Su")]

    def test_coalesce_nullif(self, executor):
        result = run(executor,
                     "SELECT COALESCE(REGION, 'NONE'), "
                     "NULLIF(CUSTOMERID, 44) FROM CUSTOMERS "
                     "WHERE CUSTOMERID = 44")
        assert result.rows == [("NONE", None)]

    def test_extract(self, executor):
        result = run(executor,
                     "SELECT EXTRACT(MONTH FROM ORDERDATE) FROM ORDERS "
                     "WHERE ORDERID = 1003")
        assert result.rows == [(2,)]

    def test_date_literal_comparison(self, executor):
        result = run(executor,
                     "SELECT COUNT(*) FROM ORDERS "
                     "WHERE ORDERDATE >= DATE '2005-03-01'")
        assert result.rows == [(3,)]

    def test_current_date_uses_clock(self, executor):
        clock.set_fixed(datetime.datetime(2005, 6, 1, 12, 0, 0))
        try:
            result = run(executor, "SELECT CURRENT_DATE FROM CUSTOMERS")
            assert result.rows[0] == (datetime.date(2005, 6, 1),)
        finally:
            clock.set_fixed(None)

    def test_division_by_zero(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor, "SELECT CUSTOMERID / 0 FROM CUSTOMERS")

    def test_type_mismatch_comparison(self, executor):
        with pytest.raises(SQLSemanticError):
            run(executor,
                "SELECT * FROM CUSTOMERS WHERE CUSTOMERNAME > 5")
