"""Tests for the demo application, scaling workloads, and the random
query generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import parse_statement
from repro.workloads import (
    COMPLEXITY_CLASSES,
    build_runtime,
    build_scaled_runtime,
    build_scaled_storage,
    build_storage,
    generate_query,
)

from tests.engine.sqlexec import SQLExecutor, TableProvider


class TestDemoData:
    def test_tables_present(self):
        storage = build_storage()
        assert storage.table_names() == [
            "CUSTOMERS", "ORDERS", "PAYMENTS", "PO_CUSTOMERS"]

    def test_row_counts(self):
        storage = build_storage()
        assert len(storage.table("CUSTOMERS").rows) == 6
        assert len(storage.table("PAYMENTS").rows) == 6
        assert len(storage.table("PO_CUSTOMERS").rows) == 7
        assert len(storage.table("ORDERS").rows) == 7

    def test_nulls_present(self):
        """3VL paths must always be exercised by the demo data."""
        storage = build_storage()
        customers = storage.table("CUSTOMERS").rows
        assert any(row[2] is None for row in customers)  # REGION
        assert any(row[3] is None for row in customers)  # CREDITLIMIT
        payments = storage.table("PAYMENTS").rows
        assert any(row[2] is None for row in payments)   # PAYMENT

    def test_orphan_payment_present(self):
        """An unmatched CUSTID keeps right/full outer joins honest."""
        storage = build_storage()
        custids = {row[1] for row in storage.table("PAYMENTS").rows}
        customers = {row[0] for row in storage.table("CUSTOMERS").rows}
        assert custids - customers

    def test_runtime_exposes_all_tables(self):
        runtime = build_runtime()
        api = runtime.metadata_api()
        assert len(api.list_tables()) == 4


class TestScaledWorkload:
    def test_row_count(self):
        storage = build_scaled_storage(50)
        assert len(storage.table("FACTS").rows) == 50
        assert len(storage.table("DETAILS").rows) == 100

    def test_extra_columns(self):
        storage = build_scaled_storage(10, extra_columns=3)
        assert len(storage.table("FACTS").columns) == 7

    def test_null_rate(self):
        storage = build_scaled_storage(100, null_rate=10)
        nulls = sum(1 for row in storage.table("FACTS").rows
                    if row[3] is None)
        assert nulls == 10

    def test_no_nulls_when_disabled(self):
        storage = build_scaled_storage(20, null_rate=0)
        assert all(row[3] is not None
                   for row in storage.table("FACTS").rows)

    def test_deterministic(self):
        a = build_scaled_storage(30).table("FACTS").rows
        b = build_scaled_storage(30).table("FACTS").rows
        assert a == b

    def test_runtime_queryable(self):
        runtime = build_scaled_runtime(25)
        result = runtime.execute(
            'import schema namespace f = "ld:Bench/FACTS";\n'
            "fn:count(f:FACTS())")
        assert result == [25]


class TestQueryGenerator:
    def test_deterministic_per_seed(self):
        assert generate_query(7) == generate_query(7)

    def test_varies_across_seeds(self):
        queries = {generate_query(seed) for seed in range(40)}
        assert len(queries) > 30

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_queries_are_valid(self, seed):
        """Every generated query parses and executes on the oracle."""
        sql = generate_query(seed)
        query = parse_statement(sql)
        executor = SQLExecutor(TableProvider(build_storage()))
        executor.execute(query)  # must not raise

    def test_feature_coverage(self):
        """Across many seeds the generator exercises the major SQL
        features the translator must handle."""
        corpus = " ".join(generate_query(seed) for seed in range(400))
        for feature in ("JOIN", "LEFT OUTER", "GROUP BY", "DISTINCT",
                        "EXISTS", "IN (SELECT", "BETWEEN", "LIKE",
                        "IS", "UNION", "CASE WHEN"):
            assert feature in corpus, f"generator never emits {feature}"


class TestComplexityClasses:
    @pytest.mark.parametrize("klass", sorted(COMPLEXITY_CLASSES))
    def test_classes_execute(self, klass):
        executor = SQLExecutor(TableProvider(build_storage()))
        executor.execute(parse_statement(COMPLEXITY_CLASSES[klass]))

    def test_monotone_feature_growth(self):
        lengths = [len(COMPLEXITY_CLASSES[k])
                   for k in sorted(COMPLEXITY_CLASSES)]
        assert lengths == sorted(lengths)
