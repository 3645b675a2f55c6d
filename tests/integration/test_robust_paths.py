"""Cross-cutting robustness: result-path agreement on random queries,
deep view nesting, and Unicode survival end-to-end."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver import connect
from repro.engine import Storage, DSPRuntime, import_tables
from repro.catalog import Application
from repro.sql.types import SQLType
from repro.workloads import build_runtime, generate_query

RUNTIME = build_runtime()
DELIMITED = connect(RUNTIME, format="delimited")
XML = connect(RUNTIME, format="xml")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=30_000))
def test_result_paths_agree_on_random_queries(seed):
    """Section 4's two result paths are interchangeable: identical typed
    rows for arbitrary queries."""
    sql = generate_query(seed)
    a = DELIMITED.cursor()
    b = XML.cursor()
    a.execute(sql)
    b.execute(sql)
    assert sorted(map(repr, a.fetchall())) == \
        sorted(map(repr, b.fetchall()))


class TestDeepNesting:
    def test_ten_level_derived_tables(self):
        sql = "SELECT CUSTOMERID FROM CUSTOMERS"
        for level in range(10):
            sql = f"SELECT CUSTOMERID FROM ({sql}) AS D{level}"
        cursor = DELIMITED.cursor()
        cursor.execute(sql + " ORDER BY CUSTOMERID")
        assert [r[0] for r in cursor.fetchall()] == \
            [7, 12, 23, 31, 44, 55]

    def test_deep_boolean_nesting(self):
        condition = "CUSTOMERID > 0"
        for _ in range(12):
            condition = f"NOT ({condition} AND CUSTOMERID < 9999)"
        cursor = DELIMITED.cursor()
        cursor.execute(f"SELECT COUNT(*) FROM CUSTOMERS WHERE {condition}")
        # Even depth of NOTs -> all rows filtered... verify against the
        # oracle instead of reasoning by hand.
        from tests.engine.sqlexec import SQLExecutor, TableProvider
        from repro.sql import parse_statement
        from repro.workloads import build_storage
        oracle = SQLExecutor(TableProvider(build_storage())).execute(
            parse_statement(
                f"SELECT COUNT(*) FROM CUSTOMERS WHERE {condition}"))
        assert cursor.fetchall() == oracle.rows

    def test_long_in_list(self):
        values = ", ".join(str(i) for i in range(200))
        cursor = DELIMITED.cursor()
        cursor.execute(f"SELECT COUNT(*) FROM CUSTOMERS WHERE "
                       f"CUSTOMERID IN ({values})")
        assert cursor.fetchone() == (6,)  # every demo id is below 200

    def test_long_not_in_list(self):
        values = ", ".join(str(i) for i in range(200, 400))
        cursor = DELIMITED.cursor()
        cursor.execute(f"SELECT COUNT(*) FROM CUSTOMERS WHERE "
                       f"CUSTOMERID NOT IN ({values})")
        assert cursor.fetchone() == (6,)


class TestUnicode:
    @pytest.fixture(scope="class")
    def conn(self):
        storage = Storage()
        table = storage.create_table("INTL", [
            ("ID", SQLType("INTEGER")),
            ("NAME", SQLType("VARCHAR")),
        ])
        table.insert_many([
            (1, "Grüße & <Söhne>"),
            (2, "学习数据库"),
            (3, "emoji 🙂 row"),
            (4, ""),          # empty string, distinct from NULL
            (5, None),
        ])
        application = Application("Intl")
        import_tables(application, "P", storage)
        return connect(DSPRuntime(application, storage))

    def test_values_roundtrip_delimited(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT NAME FROM INTL ORDER BY ID")
        assert [r[0] for r in cursor.fetchall()] == [
            "Grüße & <Söhne>", "学习数据库", "emoji 🙂 row", "", None]

    def test_predicates_on_unicode(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT ID FROM INTL WHERE NAME = '学习数据库'")
        assert cursor.fetchall() == [(2,)]

    def test_like_on_unicode(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT ID FROM INTL WHERE NAME LIKE '%Söhne%'")
        assert cursor.fetchall() == [(1,)]

    def test_empty_string_vs_null(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT ID FROM INTL WHERE NAME = ''")
        assert cursor.fetchall() == [(4,)]
        cursor.execute("SELECT ID FROM INTL WHERE NAME IS NULL")
        assert cursor.fetchall() == [(5,)]

    def test_unicode_string_literal_in_projection(self, conn):
        cursor = conn.cursor()
        cursor.execute("SELECT NAME || ' ✓' FROM INTL WHERE ID = 2")
        assert cursor.fetchall() == [("学习数据库 ✓",)]


def test_long_in_list_exact():
    cursor = DELIMITED.cursor()
    values = ", ".join(str(i) for i in range(200))
    cursor.execute(f"SELECT COUNT(*) FROM CUSTOMERS WHERE "
                   f"CUSTOMERID IN ({values})")
    assert cursor.fetchone() == (6,)  # every demo id is below 200
