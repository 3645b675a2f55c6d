"""Statement-cache coherence (ISSUE 1 satellites): LRU eviction order,
the capacity-0 kill switch, cache release on close, and format-aware
cache keys."""

import pytest

from repro import RuntimeConfig
from repro.driver import connect
from repro.errors import InterfaceError
from repro.workloads import build_runtime

Q1 = "SELECT CUSTOMERID FROM CUSTOMERS"
Q2 = "SELECT PAYMENTID FROM PAYMENTS"
Q3 = "SELECT ORDERID FROM ORDERS"


@pytest.fixture
def runtime():
    return build_runtime()


class TestEvictionOrder:
    def test_lru_eviction_order(self, runtime):
        connection = connect(runtime, config=RuntimeConfig(
            statement_cache_capacity=2))
        connection.translate(Q1)
        connection.translate(Q2)
        connection.translate(Q3)  # evicts Q1
        assert connection._statement_cache.keys() == \
            {("delimited", Q2), ("delimited", Q3)}
        stats = connection.stats()["statement_cache"]
        assert stats["evictions"] == 1

        # Re-translating the evicted statement is a miss; the cache
        # stays bounded and now holds Q3 and Q1 (Q2 was least recent).
        connection.translate(Q1)
        assert connection._statement_cache.keys() == \
            {("delimited", Q3), ("delimited", Q1)}
        assert connection.stats()["counters"]["queries.translated"] == 4

    def test_hit_refreshes_recency(self, runtime):
        connection = connect(runtime, config=RuntimeConfig(
            statement_cache_capacity=2))
        connection.translate(Q1)
        connection.translate(Q2)
        connection.translate(Q1)  # Q1 most recent
        connection.translate(Q3)  # evicts Q2
        assert connection._statement_cache.keys() == \
            {("delimited", Q1), ("delimited", Q3)}

    def test_cached_translation_is_reused(self, runtime):
        connection = connect(runtime)
        first = connection.translate(Q1)
        second = connection.translate(Q1)
        assert first is second


class TestCapacityZero:
    def test_capacity_zero_disables_caching(self, runtime):
        connection = connect(runtime, config=RuntimeConfig(
            statement_cache_capacity=0))
        first = connection.translate(Q1)
        second = connection.translate(Q1)
        assert first is not second
        assert first.xquery == second.xquery
        assert len(connection._statement_cache) == 0
        assert connection.stats()["counters"]["queries.translated"] == 2

    def test_capacity_zero_still_executes(self, runtime):
        connection = connect(runtime, config=RuntimeConfig(
            statement_cache_capacity=0))
        cursor = connection.cursor()
        cursor.execute(Q1)
        cursor.execute(Q1)
        assert len(cursor.fetchall()) > 0


class TestCloseReleases:
    def test_close_clears_statement_cache(self, runtime):
        connection = connect(runtime)
        connection.translate(Q1)
        connection.translate(Q2)
        assert len(connection._statement_cache) == 2
        connection.close()
        assert len(connection._statement_cache) == 0

    def test_close_invalidates_metadata_cache(self, runtime):
        connection = connect(runtime)
        connection.translate(Q1)
        assert connection._metadata_cache.stats_dict()["size"] > 0
        connection.close()
        assert connection._metadata_cache.stats_dict()["size"] == 0

    def test_close_is_idempotent_and_closed_translate_raises(
            self, runtime):
        connection = connect(runtime)
        connection.close()
        connection.close()
        with pytest.raises(InterfaceError):
            connection.translate(Q1)


class TestFormatKeys:
    def test_keys_distinguish_delimited_from_recordset(self, runtime):
        connection = connect(runtime, format="delimited")
        delimited = connection.translate(Q1)
        assert ("delimited", Q1) in connection._statement_cache

        # Flipping the result path must not serve the cached delimited
        # wrapper query for the recordset path.
        connection.format = "xml"
        recordset = connection.translate(Q1)
        assert ("recordset", Q1) in connection._statement_cache
        assert connection._statement_cache.keys() == \
            {("delimited", Q1), ("recordset", Q1)}
        assert delimited.format == "delimited"
        assert recordset.format == "recordset"
        assert delimited.xquery != recordset.xquery

    def test_same_sql_both_formats_count_two_translations(self, runtime):
        connection = connect(runtime, format="delimited")
        connection.translate(Q1)
        connection.format = "xml"
        connection.translate(Q1)
        connection.format = "delimited"
        connection.translate(Q1)  # hit on the delimited entry
        snapshot = connection.stats()
        assert snapshot["counters"]["queries.translated"] == 2
        assert snapshot["statement_cache"]["hits"] == 1
        assert snapshot["statement_cache"]["misses"] == 2
