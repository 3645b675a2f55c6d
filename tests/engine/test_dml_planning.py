"""Unit tests for repro.engine.dml — SQL mutations to MutationPlans.

Victim selection, expression evaluation, subqueries, and the DML
checks (target columns, no aggregates), exercised directly against
``plan_mutation`` so error classes are pinned before the driver wraps
them.
"""

from decimal import Decimal

import pytest

import repro
from repro.engine.dml import (
    mutation_parameter_count,
    plan_mutation,
)
from repro.errors import SQLSemanticError, UnknownArtifactError
from repro.sql import parse_mutation
from repro.workloads import build_runtime


@pytest.fixture
def rig():
    conn = repro.connect(build_runtime())
    yield conn
    conn.close()


def plan(conn, sql, parameters=()):
    statement = parse_mutation(sql)
    metadata = conn._metadata_cache.fetch_table(
        statement.table.name, schema=statement.table.schema,
        catalog=statement.table.catalog)
    return plan_mutation(conn._runtime, statement, metadata, parameters)


class TestPlans:
    def test_insert_plan_shape(self, rig):
        built = plan(rig, "INSERT INTO CUSTOMERS (CUSTOMERID, "
                          "CUSTOMERNAME) VALUES (900, 'P'), (901, 'Q')")
        assert built.rowcount == 2
        assert built.table == "CUSTOMERS"
        mutation, = built.mutations
        assert mutation.kind == "insert"
        # Unnamed columns land as NULL, values coerced to column types.
        assert mutation.rows == ((900, "P", None, None),
                                 (901, "Q", None, None))

    def test_update_counts_victims_at_plan_time(self, rig):
        built = plan(rig, "UPDATE CUSTOMERS SET CREDITLIMIT = "
                          "CREDITLIMIT + 1 WHERE CUSTOMERID = 23")
        assert built.rowcount == 1
        mutation, = built.mutations
        assert mutation.kind == "update"
        assert len(mutation.changes) == 1

    def test_plan_carries_the_current_token(self, rig):
        built = plan(rig, "DELETE FROM CUSTOMERS WHERE CUSTOMERID < 0")
        assert built.version == built.source.version("CUSTOMERS")
        assert built.rowcount == 0

    def test_insert_coerces_to_column_types(self, rig):
        built = plan(rig, "INSERT INTO CUSTOMERS VALUES "
                          "(902, 'R', 'E', 5)")
        mutation, = built.mutations
        assert mutation.rows[0][3] == Decimal(5)
        assert isinstance(mutation.rows[0][3], Decimal)

    def test_parameter_count(self):
        statement = parse_mutation(
            "UPDATE CUSTOMERS SET REGION = ? WHERE CUSTOMERID = ? "
            "OR CREDITLIMIT > ?")
        assert mutation_parameter_count(statement) == 3
        assert mutation_parameter_count(
            parse_mutation("DELETE FROM CUSTOMERS")) == 0


class TestRestrictions:
    def test_subquery_in_where_runs(self, rig):
        cur = rig.cursor()
        cur.execute("SELECT COUNT(*) FROM CUSTOMERS WHERE CUSTOMERID IN "
                    "(SELECT CUSTID FROM PAYMENTS)")
        (paying,), = cur.fetchall()
        built = plan(rig, "DELETE FROM CUSTOMERS WHERE CUSTOMERID IN "
                          "(SELECT CUSTID FROM PAYMENTS)")
        assert built.rowcount == paying > 0

    def test_subquery_in_values_runs(self, rig):
        built = plan(rig, "INSERT INTO CUSTOMERS (CUSTOMERID) VALUES "
                          "((SELECT MAX(CUSTOMERID) + 1 FROM CUSTOMERS))")
        cur = rig.cursor()
        cur.execute("SELECT MAX(CUSTOMERID) FROM CUSTOMERS")
        (highest,), = cur.fetchall()
        mutation, = built.mutations
        assert mutation.rows == ((highest + 1, None, None, None),)

    def test_aggregate_in_set_rejected(self, rig):
        with pytest.raises(SQLSemanticError, match="aggregate"):
            plan(rig, "UPDATE CUSTOMERS SET CREDITLIMIT = "
                      "MAX(CREDITLIMIT)")

    def test_unknown_column_rejected(self, rig):
        with pytest.raises(SQLSemanticError, match="no column"):
            plan(rig, "INSERT INTO CUSTOMERS (NOPE) VALUES (1)")
        with pytest.raises(SQLSemanticError, match="no column"):
            plan(rig, "UPDATE CUSTOMERS SET NOPE = 1")

    def test_duplicate_targets_rejected(self, rig):
        with pytest.raises(SQLSemanticError, match="twice"):
            plan(rig, "INSERT INTO CUSTOMERS (CUSTOMERID, CUSTOMERID) "
                      "VALUES (1, 2)")
        with pytest.raises(SQLSemanticError, match="twice"):
            plan(rig, "UPDATE CUSTOMERS SET REGION = 'a', REGION = 'b'")

    def test_positional_arity_checked(self, rig):
        with pytest.raises(SQLSemanticError, match="VALUES row"):
            plan(rig, "INSERT INTO CUSTOMERS VALUES (1)")


class TestWriteTarget:
    def test_unknown_function_raises(self, rig):
        with pytest.raises(UnknownArtifactError):
            rig._runtime.write_target(
                "ld:DataServices/TestDataServices/", "NOPE")

    def test_driver_wraps_plan_errors(self, rig):
        cur = rig.cursor()
        with pytest.raises(repro.ProgrammingError):
            cur.execute("UPDATE CUSTOMERS SET CREDITLIMIT = "
                        "MAX(CREDITLIMIT)")
        # A dynamic error raises as it does in a read.
        with pytest.raises(repro.OperationalError, match="division"):
            cur.execute("DELETE FROM CUSTOMERS WHERE CUSTOMERID / 0 = 1")
