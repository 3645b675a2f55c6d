"""SQLite backend specifics: pushdown, the type-safety gate, fallback.

The conformance battery (test_spi_conformance) covers the generic
contract; here we pin the SQLite-only behavior — which conjuncts are
pushed into SQL, which are refused (falling back to a full scan plus
residual filtering), and the storage encodings that defeat SQLite's
type affinity.
"""

import datetime
from decimal import Decimal

import pytest

from repro.errors import CatalogError, UnknownArtifactError
from repro.sources import Predicate, ScanRequest
from repro.sources.sqlite import (
    SQLiteSource,
    _decltype_for,
    _type_from_decltype,
)
from repro.sql.types import SQLType

COLUMNS = [
    ("ID", SQLType("INTEGER")),
    ("NAME", SQLType("VARCHAR", length=30)),
    ("LIMITAMT", SQLType("DECIMAL", precision=9, scale=2)),
    ("BORN", SQLType("DATE")),
    ("SEEN", SQLType("TIMESTAMP")),
]

ROWS = [
    (1, "Ann", Decimal("2500.50"), datetime.date(2001, 2, 3),
     datetime.datetime(2005, 3, 1, 12, 30, 45)),
    (2, "Bob", Decimal("0.10"), datetime.date(1999, 12, 31), None),
    (3, None, None, None, datetime.datetime(2006, 1, 1, 0, 0, 0)),
    (4, "Zoe", Decimal("2500.5"), datetime.date(2001, 2, 3),
     datetime.datetime(2005, 3, 1, 12, 30, 45)),
]


@pytest.fixture
def source():
    built = SQLiteSource()
    built.create_table("T", COLUMNS)
    built.insert_rows("T", ROWS)
    yield built
    built.close()


class TestStorageEncoding:
    def test_decimal_round_trips_byte_exact(self, source):
        rows = list(source.scan("T"))
        # "2500.50" and "2500.5" are distinct lexical forms; REAL
        # affinity would collapse both to 2500.5.
        assert rows[0][2] == Decimal("2500.50")
        assert str(rows[0][2]) == "2500.50"
        assert str(rows[3][2]) == "2500.5"

    def test_temporal_types_round_trip(self, source):
        rows = list(source.scan("T"))
        assert rows[0][3] == datetime.date(2001, 2, 3)
        assert rows[0][4] == datetime.datetime(2005, 3, 1, 12, 30, 45)
        assert rows[1][4] is None

    def test_decltype_round_trip(self):
        for _name, sql_type in COLUMNS:
            recovered = _type_from_decltype(_decltype_for(sql_type))
            assert recovered.kind == sql_type.kind

    def test_foreign_decltypes_degrade_safely(self):
        assert _type_from_decltype("TEXT").kind == "VARCHAR"
        assert _type_from_decltype("NUMERIC(10,2)").kind == "DECIMAL"
        assert _type_from_decltype("DOUBLE PRECISION").kind == "DOUBLE"
        assert _type_from_decltype(None).kind == "VARCHAR"

    def test_duplicate_create_raises_catalog_error(self, source):
        with pytest.raises(CatalogError):
            source.create_table("T", COLUMNS)


class TestPredicateGate:
    """supports_predicate refuses any conjunct whose SQLite-native
    comparison could disagree with the engine's semantics."""

    def test_integer_eq_pushable(self, source):
        assert source.supports_predicate("T", Predicate("ID", "eq", 3))

    def test_bool_value_refused_for_integer_column(self, source):
        assert not source.supports_predicate(
            "T", Predicate("ID", "eq", True))

    def test_string_comparison_pushable(self, source):
        assert source.supports_predicate(
            "T", Predicate("NAME", "gt", "Ann"))

    def test_decimal_comparison_never_pushed(self, source):
        assert not source.supports_predicate(
            "T", Predicate("LIMITAMT", "eq", Decimal("2500.50")))

    def test_date_column_refuses_datetime_value(self, source):
        assert not source.supports_predicate(
            "T", Predicate("BORN", "eq",
                           datetime.datetime(2001, 2, 3, 0, 0)))

    def test_date_comparison_pushable(self, source):
        assert source.supports_predicate(
            "T", Predicate("BORN", "le", datetime.date(2001, 2, 3)))

    def test_timestamp_comparison_pushable(self, source):
        assert source.supports_predicate(
            "T", Predicate("SEEN", "lt",
                           datetime.datetime(2006, 1, 1)))

    def test_null_tests_always_pushable(self, source):
        assert source.supports_predicate("T", Predicate("LIMITAMT",
                                                        "isnull"))
        assert source.supports_predicate("T", Predicate("LIMITAMT",
                                                        "notnull"))

    def test_unknown_column_refused(self, source):
        assert not source.supports_predicate("T",
                                             Predicate("NOPE", "eq", 1))


class TestPushdownScan:
    def test_eq_predicate_filters_in_store(self, source):
        result = source.scan("T", ScanRequest(
            predicates=(Predicate("ID", "eq", 2),)))
        rows = list(result)
        assert result.pushed
        assert [r[0] for r in rows] == [2]

    def test_range_predicates_conjoin(self, source):
        result = source.scan("T", ScanRequest(
            predicates=(Predicate("ID", "gt", 1),
                        Predicate("ID", "lt", 4))))
        assert [r[0] for r in list(result)] == [2, 3]

    def test_null_comparison_matches_sql_semantics(self, source):
        # NAME <> 'Ann' must not return the NULL row (ID 3): SQL's
        # three-valued logic and XQuery's empty-sequence comparison
        # both drop it.
        result = source.scan("T", ScanRequest(
            predicates=(Predicate("NAME", "ne", "Ann"),)))
        assert [r[0] for r in list(result)] == [2, 4]

    def test_isnull_notnull(self, source):
        nulls = source.scan("T", ScanRequest(
            predicates=(Predicate("LIMITAMT", "isnull"),)))
        assert [r[0] for r in list(nulls)] == [3]
        filled = source.scan("T", ScanRequest(
            predicates=(Predicate("LIMITAMT", "notnull"),)))
        assert [r[0] for r in list(filled)] == [1, 2, 4]

    def test_date_range_pushdown(self, source):
        result = source.scan("T", ScanRequest(
            predicates=(Predicate("BORN", "ge",
                                  datetime.date(2000, 1, 1)),)))
        assert [r[0] for r in list(result)] == [1, 4]

    def test_unsupported_predicate_falls_back_to_full_scan(self, source):
        # DECIMAL comparisons are refused by the gate: the scan ignores
        # the conjunct (superset rule) rather than evaluating it.
        result = source.scan("T", ScanRequest(
            predicates=(Predicate("LIMITAMT", "gt", Decimal("1")),)))
        rows = list(result)
        assert not result.pushed
        assert len(rows) == len(ROWS)

    def test_projection_pushdown_shrinks_columns(self, source):
        # Answered in schema order, whatever order the request names.
        result = source.scan("T", ScanRequest(columns=("NAME", "ID")))
        assert [name for name, _t in result.columns] == ["ID", "NAME"]
        assert list(result) == [(1, "Ann"), (2, "Bob"), (3, None),
                                (4, "Zoe")]

    def test_projection_and_predicate_combine(self, source):
        result = source.scan("T", ScanRequest(
            columns=("NAME",),
            predicates=(Predicate("ID", "ge", 3),)))
        assert list(result) == [(None,), ("Zoe",)]

    def test_quoted_identifiers_survive(self):
        source = SQLiteSource()
        source.create_table('WE"IRD', [("A B", SQLType("INTEGER"))])
        source.insert_rows('WE"IRD', [(7,)])
        result = source.scan('WE"IRD', ScanRequest(
            predicates=(Predicate("A B", "eq", 7),)))
        assert list(result) == [(7,)]
        source.close()


class TestFilterRequestIntegration:
    """How ``scan`` filters a request itself: the type-safety gate
    picks the conjuncts, the projection keeps schema order."""

    def test_keeps_supported_drops_unsupported(self, source):
        request = ScanRequest(
            columns=("LIMITAMT", "ID"),
            predicates=(Predicate("ID", "eq", 1),
                        Predicate("LIMITAMT", "gt", Decimal("1"))))
        result = source.scan("T", request)
        assert result.pushed
        # Projection answered in source schema order; the DECIMAL
        # conjunct is left to the residual filter.
        assert [n for n, _t in result.columns] == ["ID", "LIMITAMT"]
        assert list(result) == [(1, Decimal("2500.50"))]

    def test_full_width_projection_dropped(self, source):
        request = ScanRequest(columns=tuple(sorted(n for n, _t in COLUMNS)))
        result = source.scan("T", request)
        assert result.columns == COLUMNS
        assert not result.pushed
        assert list(result) == ROWS

    def test_version_changes_after_insert(self, source):
        before = source.version("T")
        source.insert_rows("T", [(9, "new", None, None, None)])
        assert source.version("T") != before

    def test_unknown_table_scan_raises(self, source):
        with pytest.raises(UnknownArtifactError):
            source.scan("NOPE")
