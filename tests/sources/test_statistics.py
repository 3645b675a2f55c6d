"""Source statistics: the cost model's input across all backends.

``compute_statistics`` (shared by the memory and XML-file backends) is
checked for exact small-table numbers, bounded sampling with scaling,
and the ndv=0 "unknown" convention; ``SQLiteSource.statistics`` must
agree with the Python computation on the same data; and the runtime's
``statistics_for`` cache must honor the source's version token, and a
plan whose for order it chose must re-plan once on a data change.
"""

import datetime
from decimal import Decimal

import pytest

from repro import connect
from repro.catalog import Application
from repro.config import RuntimeConfig
from repro.engine import DSPRuntime, import_source
from repro.engine.table import Storage
from repro.sources.memory import TableSource
from repro.sources.spi import compute_statistics
from repro.sources.sqlite import SQLiteSource
from repro.sources.xmlfile import XMLFileSource
from repro.sql.types import SQLType

COLUMNS = [("ID", SQLType("INTEGER")), ("NAME", SQLType("VARCHAR")),
           ("AMT", SQLType("DECIMAL"))]
ROWS = [
    (1, "a", Decimal("10.00")),
    (2, "b", None),
    (3, "a", Decimal("30.00")),
    (None, "c", Decimal("10.00")),
]


class TestComputeStatistics:
    def test_exact_small_table(self):
        stats = compute_statistics(COLUMNS, ROWS)
        assert stats.row_count == 4 and not stats.sampled
        ident = stats.column("ID")
        assert ident.ndv == 3 and ident.low == 1 and ident.high == 3
        assert ident.null_fraction == pytest.approx(0.25)
        assert stats.column("NAME").ndv == 3
        assert stats.column("AMT").ndv == 2

    def test_empty_table(self):
        stats = compute_statistics(COLUMNS, [])
        assert stats.row_count == 0
        assert stats.column("ID").ndv == 0
        assert stats.column("ID").null_fraction == 0.0

    def test_all_null_column_means_unknown_ndv(self):
        stats = compute_statistics([("X", SQLType("INTEGER"))],
                                   [(None,), (None,)])
        column = stats.column("X")
        assert column.ndv == 0 and column.null_fraction == 1.0
        assert column.low is None and column.high is None

    def test_sampling_scales_ndv_to_total(self):
        rows = [(i % 50,) for i in range(1000)]
        stats = compute_statistics([("K", SQLType("INTEGER"))], rows,
                                   sample_limit=100)
        assert stats.sampled
        assert stats.row_count == 1000
        # 50 distinct values in the 100-row sample scale to 500 — a
        # (wrong but bounded) estimate, capped at the row count.
        assert 0 < stats.column("K").ndv <= 1000

    def test_sampled_ndv_never_exceeds_row_count(self):
        rows = [(i,) for i in range(300)]
        stats = compute_statistics([("K", SQLType("INTEGER"))], rows,
                                   sample_limit=100)
        assert stats.column("K").ndv <= 300

    def test_unhashable_values_degrade_to_unknown(self):
        stats = compute_statistics([("X", SQLType("VARCHAR"))],
                                   [(["not", "hashable"],)])
        assert stats.column("X").ndv == 0

    def test_date_extrema(self):
        rows = [(datetime.date(2005, 1, 10),),
                (datetime.date(2005, 3, 1),), (None,)]
        stats = compute_statistics([("D", SQLType("DATE"))], rows)
        column = stats.column("D")
        assert column.low == datetime.date(2005, 1, 10)
        assert column.high == datetime.date(2005, 3, 1)


def make_storage():
    storage = Storage()
    table = storage.create_table("T", COLUMNS)
    table.insert_many(ROWS)
    return storage


class TestBackendStatistics:
    def test_memory_source(self):
        stats = TableSource(make_storage()).statistics("T")
        assert stats.row_count == 4
        assert stats.column("ID").ndv == 3

    def test_memory_cache_invalidates_on_insert(self):
        storage = make_storage()
        source = TableSource(storage)
        first = source.statistics("T")
        assert source.statistics("T") is first  # version unchanged
        storage.table("T").insert(9, "z", None)
        second = source.statistics("T")
        assert second is not first
        assert second.row_count == 5

    def test_sqlite_native_matches_python(self):
        source = SQLiteSource(name="s")
        source.create_table("T", COLUMNS)
        source.insert_rows("T", ROWS)
        native = source.statistics("T")
        oracle = compute_statistics(COLUMNS, ROWS)
        assert native.row_count == oracle.row_count
        for name, _type in COLUMNS:
            got, want = native.column(name), oracle.column(name)
            assert got.ndv == want.ndv, name
            assert got.null_fraction == pytest.approx(
                want.null_fraction), name
        # DECIMAL extrema are withheld (stored as text in SQLite).
        assert native.column("AMT").low is None
        assert native.column("ID").low == 1

    def test_xmlfile_source(self, tmp_path):
        (tmp_path / "T.xml").write_text(
            "<T><ROW><ID>1</ID><V>a</V></ROW>"
            "<ROW><ID>2</ID><V/></ROW></T>", encoding="utf-8")
        with XMLFileSource(tmp_path, columns={
                "T": [("ID", SQLType("INTEGER")),
                      ("V", SQLType("VARCHAR"))]}) as source:
            stats = source.statistics("T")
            assert stats.row_count == 2
            assert stats.column("ID").ndv == 2
            assert stats.column("V").null_fraction == pytest.approx(0.5)


class TestRuntimeStatisticsCache:
    def make_runtime(self):
        storage = make_storage()
        source = TableSource(storage, name="mem")
        application = Application("StatsApp")
        import_source(application, "Data", source)
        runtime = DSPRuntime(application, source,
                             config=RuntimeConfig())
        uri = next(u for (u, local) in runtime._functions
                   if local == "T")
        return runtime, storage, uri

    def test_cache_hit_under_same_version(self):
        runtime, _storage, uri = self.make_runtime()
        first = runtime.statistics_for(uri, "T")
        assert first is not None and first.row_count == 4
        assert runtime.statistics_for(uri, "T") is first

    def test_version_change_re_plans_once(self):
        """A join whose for order statistics chose re-plans once when
        its table's version token moves, then hits again."""
        runtime, storage, uri = self.make_runtime()
        replans = self.replans(runtime)
        assert next(replans) == 1  # the first compile
        storage.table("T").insert(9, "z", None)
        fresh = runtime.statistics_for(uri, "T")
        assert fresh.row_count == 5
        assert [next(replans) for _ in range(2)] == [1, 0]

    def test_first_computation_re_plans_nothing(self):
        """The compile that triggers the first computation consumes it,
        so the plan it caches is current."""
        runtime, _storage, _uri = self.make_runtime()
        replans = self.replans(runtime)
        assert [next(replans) for _ in range(3)] == [1, 0, 0]

    @staticmethod
    def replans(runtime):
        """Yields, per execution of a self-join over T (a run of two
        for clauses: statistics order it), the plan-cache misses it
        caused."""
        cursor = connect(runtime).cursor()
        while True:
            misses = runtime.plan_cache.misses
            cursor.execute("SELECT A.NAME FROM T A, T B "
                           "WHERE A.ID = B.ID")
            assert cursor.fetchall()
            yield runtime.plan_cache.misses - misses

    def test_unknown_function_is_none(self):
        runtime, _storage, _uri = self.make_runtime()
        assert runtime.statistics_for("no-such-uri", "T") is None

    def test_failing_source_is_advisory(self, monkeypatch):
        runtime, _storage, uri = self.make_runtime()
        monkeypatch.setattr(TableSource, "statistics",
                            lambda self, table: 1 / 0)
        assert runtime.statistics_for(uri, "T") is None
