"""One way to run a statement: what the partitioned scatter/gather
pool was held to, the serial vector plan now holds alone.

Partitioned parallel execution is gone (DESIGN, EXPERIMENTS E33). Its
checks stay, aimed at the one path left: the vector plan returns the
Evaluator's rows, honors deadlines, cancellation, retries and
staleness, and nothing — a setting, a retired environment variable or
an EXPLAIN run — starts a worker process or publishes a ``parallel.*``
metric. The values the pool used to ship still pickle.
"""

import dataclasses
import inspect
import multiprocessing
import pickle

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.config import _env_int, with_environment
from repro.driver import connect
from repro.engine import (
    DSPRuntime,
    FaultProfile,
    QueryContext,
    RetryPolicy,
    Storage,
    import_tables,
    install_fault,
)
from repro.engine.faults import make_faulty
from repro.errors import QueryCancelledError
from repro.sources import DataSource, Predicate, ScanRequest, spi
from repro.sources.memory import TableSource
from repro.sources.sqlite import SQLiteSource
from repro.sources.xmlfile import XMLFileSource
from repro.sql.types import SQLType

from tests.fuzz.harness import evaluator_leg

N_ROWS = 600

#: The environment a process that predates the removal may still set;
#: every variable here is read by nothing.
RETIRED = {"REPRO_PARALLELISM": "4", "REPRO_PARALLEL_MIN_ROWS": "0"}


@pytest.fixture(autouse=True)
def _retired_settings(monkeypatch):
    """Every test runs with the retired parallel variables set, as the
    old forced-parallelism CI leg did: they must change nothing."""
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
    for name, value in RETIRED.items():
        monkeypatch.setenv(name, value)


#: Statements the pool once scattered (the first two, scan-only) or
#: kept serial by plan shape (ordered): all now run on the one plan.
SCATTERS = (
    "SELECT * FROM FACTS",
    "SELECT ID, V FROM FACTS WHERE V > 3",
    "SELECT * FROM FACTS ORDER BY V, ID",
    "SELECT NAME FROM FACTS WHERE ID < 50 ORDER BY NAME DESC",
    "SELECT ID FROM FACTS ORDER BY ID LIMIT 7 OFFSET 11",
)


def _storage(n_rows: int = N_ROWS) -> Storage:
    storage = Storage()
    handle = storage.create_table("FACTS", [
        ("ID", SQLType("INTEGER")),
        ("NAME", SQLType("VARCHAR")),
        ("V", SQLType("INTEGER")),
    ])
    handle.insert_many([
        (i, None if i % 11 == 10 else f"name{i}", i % 7)
        for i in range(n_rows)
    ])
    return storage


def _runtime(storage=None, backend: str = "memory",
             **config) -> DSPRuntime:
    storage = storage if storage is not None else _storage()
    if backend == "sqlite":
        source = SQLiteSource.from_storage(storage, name="sqlite")
    else:
        source = storage
    application = Application("ParallelApp")
    import_tables(application, "Par", source)
    return DSPRuntime(application, source,
                      config=RuntimeConfig(**config))


def _rows(runtime, sql: str, params=()):
    connection = connect(runtime)
    try:
        cursor = connection.cursor()
        cursor.execute(sql, params)
        return cursor.fetchall()
    finally:
        connection.close()


def _evaluator_rows(storage, backend: str, sql: str, params=()):
    """*sql*'s rows as the Evaluator computes them over *storage*."""
    runtime = evaluator_leg(_runtime(storage, backend))
    try:
        return _rows(runtime, sql, params)
    finally:
        runtime.close()


def _counter(runtime, name: str) -> int:
    return runtime.metrics.snapshot()["counters"].get(name, 0)


def _assert_one_path(runtime) -> None:
    """Nothing ran off the serial vector plan: no worker process, no
    ``parallel.*`` metric, no Evaluator decline."""
    assert multiprocessing.active_children() == []
    snapshot = runtime.metrics.snapshot()
    names = [*snapshot["counters"], *snapshot["histograms"]]
    assert [n for n in names if n.startswith("parallel.")] == []
    assert {n: v for n, v in snapshot["counters"].items()
            if n.startswith("vector.decline.") and v} == {}
    assert not hasattr(runtime, "_pool")


class TestPicklable:
    """What a source is handed — pushdown requests — and the fault
    configuration still pickle; the partition spec is gone."""

    def test_partition_spec(self):
        assert not hasattr(spi, "PartitionSpec")
        assert not hasattr(spi, "row_range")
        for cls in (DataSource, TableSource, SQLiteSource, XMLFileSource):
            assert "partition" not in inspect.signature(cls.scan) \
                .parameters, cls.__name__

    def test_predicate_and_scan_request(self):
        request = ScanRequest(
            columns=("ID", "V"),
            predicates=(Predicate("ID", "eq", 4),
                        Predicate("V", "in", (1, 2, 3))))
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request

    def test_fault_profile(self):
        profile = FaultProfile(error_rate=0.25, fail_times=2,
                               latency=0.5, seed=7)
        clone = pickle.loads(pickle.dumps(profile))
        assert clone == profile

    def test_faulty_binding(self):
        runtime = _runtime()
        try:
            function = next(iter(runtime._functions.values()))
            faulty = make_faulty(function,
                                 FaultProfile(fail_times=1)).binding
            faulty.calls = 3
            clone = pickle.loads(pickle.dumps(faulty))
            assert clone.profile == faulty.profile
            assert clone.calls == 3
        finally:
            runtime.close()


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("sql", SCATTERS)
    def test_rows_identical(self, backend, sql):
        storage = _storage()
        runtime = _runtime(storage, backend)
        try:
            assert _rows(runtime, sql) == \
                _evaluator_rows(storage, backend, sql)
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_decomposable_aggregate_scatters_partial_states(self):
        # Seven groups over 600 rows, folded in one pass.
        storage = _storage()
        runtime = _runtime(storage)
        sql = "SELECT V, COUNT(*), SUM(ID), MIN(NAME) FROM FACTS GROUP BY V"
        try:
            assert _rows(runtime, sql) == \
                _evaluator_rows(storage, "memory", sql)
            assert _counter(runtime, "vector.agg_queries") == 1
            assert _counter(runtime, "vector.agg_groups") == 7
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_unique_key_aggregate_stays_serial(self):
        # Groups = rows: one group-table entry per row, in one fold.
        storage = _storage()
        runtime = _runtime(storage)
        sql = "SELECT ID, COUNT(*) FROM FACTS GROUP BY ID"
        try:
            assert _rows(runtime, sql) == \
                _evaluator_rows(storage, "memory", sql)
            assert _counter(runtime, "vector.agg_groups") == N_ROWS
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_parallel_path_engages(self):
        # The one path engages: one cold compile, one full source scan.
        runtime = _runtime()
        try:
            assert len(_rows(runtime, "SELECT * FROM FACTS")) == N_ROWS
            assert _counter(runtime, "plan_cache.misses") == 1
            assert _counter(runtime, "sources.rows_scanned") == N_ROWS
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_eq_predicate_plan_is_join_led_and_stays_serial(self):
        # The cost planner rewrites an eq predicate into a constant-
        # probe hash join; the join-led plan returns the scan's rows.
        storage = _storage()
        runtime = _runtime(storage)
        sql = "SELECT ID FROM FACTS WHERE V = 2"
        try:
            assert _rows(runtime, sql) == \
                _evaluator_rows(storage, "memory", sql)
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_repeated_queries_reuse_the_pool(self):
        # What repeats is the cached plan and the cached columns.
        runtime = _runtime()
        try:
            for _ in range(3):
                _rows(runtime, "SELECT ID FROM FACTS WHERE V > 2")
            assert _counter(runtime, "plan_cache.misses") == 1
            assert _counter(runtime, "plan_cache.hits") == 2
            _rows(runtime, "SELECT ID FROM FACTS")
            assert _counter(runtime, "sources.rows_scanned") == N_ROWS
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_parameter_queries_match(self):
        storage = _storage()
        runtime = _runtime(storage)
        sql = "SELECT ID, NAME FROM FACTS WHERE V > ?"
        try:
            assert _rows(runtime, sql, (3,)) == \
                _evaluator_rows(storage, "memory", sql, (3,))
            _assert_one_path(runtime)
        finally:
            runtime.close()


class TestGating:
    def test_default_threshold_keeps_small_scans_serial(self):
        runtime = _runtime()
        try:
            rows = _rows(runtime, "SELECT * FROM FACTS")
            assert len(rows) == N_ROWS
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_threshold_admits_large_scans(self, monkeypatch):
        # No row threshold admits a scan to anything but the one path.
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", str(N_ROWS))
        runtime = _runtime()
        try:
            assert len(_rows(runtime, "SELECT * FROM FACTS")) == N_ROWS
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_parallelism_below_two_disables(self):
        # The knobs are gone: naming one is an error, not a no-op.
        fields = {f.name for f in dataclasses.fields(RuntimeConfig)}
        assert {"parallelism", "parallel_min_rows"}.isdisjoint(fields)
        with pytest.raises(TypeError):
            RuntimeConfig(parallelism=1)
        with pytest.raises(TypeError):
            RuntimeConfig(parallel_min_rows=0)

    def test_explain_actuals_stay_serial(self):
        # An actuals-collecting run executes in this process.
        runtime = _runtime()
        query = ('declare namespace p = "ld:Par/FACTS";\n'
                 'for $f in p:FACTS() return $f/ID')
        try:
            actuals: dict = {}
            result = runtime.execute(query, actuals=actuals)
            assert len(result) == N_ROWS
            _assert_one_path(runtime)
        finally:
            runtime.close()


class TestEnvOverrides:
    def test_env_parallelism_wins(self, monkeypatch):
        config = RuntimeConfig()
        for name in RETIRED:
            monkeypatch.delenv(name)
        unset = with_environment(config)
        monkeypatch.setenv("REPRO_PARALLELISM", "2")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "0")
        assert with_environment(config) == unset
        runtime = _runtime()
        try:
            assert not hasattr(runtime, "parallelism")
            assert not hasattr(runtime, "parallel_min_rows")
            assert len(_rows(runtime, "SELECT * FROM FACTS")) == N_ROWS
            _assert_one_path(runtime)
        finally:
            runtime.close()

    def test_scattered_plan_prints_its_text_once(self, monkeypatch):
        """The driver hands the runtime a tree, and with no workers to
        ship text to, executing a translated statement prints and
        parses nothing."""
        from repro.translator import translator
        from repro.xquery import printer
        runtime = _runtime()
        printed = []

        def counting(module):
            printed.append(module)
            return printer.print_module(module)

        for module in (printer, translator):
            monkeypatch.setattr(module, "print_module", counting)
        sql = "SELECT ID, V FROM FACTS WHERE V > 3"
        try:
            connection = connect(runtime)
            cursor = connection.cursor()
            expected = None
            for _ in range(3):
                cursor.execute(sql)
                rows = cursor.fetchall()
                assert expected is None or rows == expected
                expected = rows
            assert printed == []
            assert _counter(runtime, "xquery.parses") == 0
            _assert_one_path(runtime)
            connection.close()
        finally:
            runtime.close()

    def test_env_int_semantics(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert _env_int("REPRO_X", 3) == 3
        assert _env_int("REPRO_X", -1) == 0
        monkeypatch.setenv("REPRO_X", "7")
        assert _env_int("REPRO_X", 3) == 7
        monkeypatch.setenv("REPRO_X", "0")
        assert _env_int("REPRO_X", 3) == 0
        monkeypatch.setenv("REPRO_X", "junk")
        assert _env_int("REPRO_X", 3) == 3
        monkeypatch.setenv("REPRO_X", "-5")
        assert _env_int("REPRO_X", 3) == 3


class TestStaleness:
    def test_insert_between_queries_restarts_pool(self):
        # The column cache is keyed by the source's version token: an
        # insert between queries makes the second one scan again.
        storage = _storage()
        runtime = _runtime(storage)
        try:
            first = _rows(runtime, "SELECT ID FROM FACTS")
            assert len(first) == N_ROWS
            storage.table("FACTS").insert_many(
                [(N_ROWS + i, f"late{i}", 0) for i in range(5)])
            second = _rows(runtime, "SELECT ID FROM FACTS")
            assert len(second) == N_ROWS + 5
            assert second[:N_ROWS] == first
            assert _counter(runtime, "sources.rows_scanned") == \
                2 * N_ROWS + 5
            _assert_one_path(runtime)
        finally:
            runtime.close()


class TestLifecycle:
    def test_timeout_raises_through_parallel_path(self):
        # An expired per-statement deadline surfaces as the driver's
        # OperationalError.
        from repro.driver import OperationalError

        runtime = _runtime()
        connection = connect(
            runtime, config=RuntimeConfig(default_timeout=1e-7))
        try:
            cursor = connection.cursor()
            with pytest.raises(OperationalError):
                cursor.execute("SELECT * FROM FACTS")
                cursor.fetchall()
        finally:
            connection.close()
            runtime.close()

    def test_cancelled_context_raises(self):
        runtime = _runtime()
        try:
            context = QueryContext(check_interval=1)
            context.cancel("parallel lifecycle test")
            query = ('declare namespace p = "ld:Par/FACTS";\n'
                     'for $f in p:FACTS() return $f/ID')
            with pytest.raises(QueryCancelledError):
                runtime.execute(query, context=context)
        finally:
            runtime.close()


class TestFaultsUnderPool:
    def test_transient_faults_retried_inside_workers(self):
        runtime = _runtime()
        runtime.retry_policy = RetryPolicy(attempts=3, base=0.001,
                                           sleep=lambda _s: None)
        install_fault(runtime, "FACTS", FaultProfile(fail_times=2))
        try:
            rows = _rows(runtime, "SELECT ID FROM FACTS")
            assert len(rows) == N_ROWS
            assert _counter(runtime, "source.retries") == 2
        finally:
            runtime.close()

    def test_exhausted_faults_fall_back_to_serial_error(self):
        runtime = _runtime()
        runtime.retry_policy = RetryPolicy(attempts=2, base=0.001,
                                           sleep=lambda _s: None)
        install_fault(runtime, "FACTS", FaultProfile(error_rate=1.0,
                                                     seed=3))
        try:
            connection = connect(runtime)
            cursor = connection.cursor()
            with pytest.raises(Exception):
                cursor.execute("SELECT ID FROM FACTS")
                cursor.fetchall()
            connection.close()
            assert _counter(runtime, "source.failures") >= 1
        finally:
            runtime.close()


class TestShutdown:
    def test_close_tears_down_pool(self):
        # Closing leaves nothing behind: no pool, no worker process.
        runtime = _runtime()
        _rows(runtime, "SELECT * FROM FACTS")
        runtime.close()
        _assert_one_path(runtime)
        assert runtime._default_source.closed

    def test_shutdown_pool_is_idempotent(self):
        runtime = _runtime(backend="sqlite")
        assert not hasattr(runtime, "shutdown_pool")
        _rows(runtime, "SELECT * FROM FACTS")
        runtime.close()
        runtime.close()
        assert runtime._default_source.closed
