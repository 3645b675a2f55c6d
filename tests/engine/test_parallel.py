"""Partitioned parallel execution: the process-pool scatter/gather
path must be byte-identical to the serial executor, engage only when
asked (only above the row threshold, and only for plan shapes whose
gather is small), survive staleness with one pool restart, honor
deadlines/cancellation, and run fault/retry logic inside workers.
Everything crossing the pool pipe must pickle."""

import pickle

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.config import _env_int
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
from repro.sources import PartitionSpec, Predicate, ScanRequest
from repro.sources.sqlite import SQLiteSource
from repro.sql.types import SQLType

N_ROWS = 600


@pytest.fixture(autouse=True)
def _pin_parallel_env(monkeypatch):
    """This suite asserts behavior of *specific* parallelism settings;
    the CI leg that forces REPRO_PARALLELISM=2 over the whole tree must
    not override them (tests that want the env set it themselves)."""
    monkeypatch.delenv("REPRO_PARALLELISM", raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_MIN_ROWS", raising=False)

#: Statement -> does its plan scatter? Scan-only plans ship encoded
#: text; ordered and windowed plans would ship every row to a parent
#: that still has the sort to do, so they run serially by plan shape.
SCATTERS = {
    "SELECT * FROM FACTS": True,
    "SELECT ID, V FROM FACTS WHERE V > 3": True,
    "SELECT * FROM FACTS ORDER BY V, ID": False,
    "SELECT NAME FROM FACTS WHERE ID < 50 ORDER BY NAME DESC": False,
    "SELECT ID FROM FACTS ORDER BY ID LIMIT 7 OFFSET 11": False,
}


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
    defaults = dict(parallelism=4, parallel_min_rows=0)
    defaults.update(config)
    return DSPRuntime(application, source,
                      config=RuntimeConfig(**defaults))


def _rows(runtime, sql: str):
    connection = connect(runtime)
    try:
        cursor = connection.cursor()
        cursor.execute(sql)
        return cursor.fetchall()
    finally:
        connection.close()


def _counter(runtime, name: str) -> int:
    return runtime.metrics.snapshot()["counters"].get(name, 0)


def _parallel_queries(runtime) -> int:
    return _counter(runtime, "parallel.queries")


class TestPicklable:
    """Satellite: everything shipped over the pool pipe must survive a
    pickle round-trip — specs, pushdown requests, fault configs."""

    def test_partition_spec(self):
        spec = PartitionSpec(table="T", index=1, count=3, kind="rowid",
                             lower=5, upper=9)
        assert pickle.loads(pickle.dumps(spec)) == spec

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
        serial = _runtime(storage, backend, parallelism=0)
        parallel = _runtime(storage, backend)
        try:
            assert _rows(serial, sql) == _rows(parallel, sql)
            assert _parallel_queries(parallel) == int(SCATTERS[sql])
            # Serial by shape is a plan decision, not a failed scatter.
            assert _counter(parallel, "parallel.fallbacks") == 0
            assert (parallel._pool is not None) == SCATTERS[sql]
        finally:
            serial.close()
            parallel.close()

    def test_decomposable_aggregate_scatters_partial_states(self):
        # Seven groups over 600 rows: workers fold their partition and
        # ship O(groups) partial states.
        storage = _storage()
        serial = _runtime(storage, parallelism=0)
        parallel = _runtime(storage, parallelism=2)
        sql = "SELECT V, COUNT(*), SUM(ID), MIN(NAME) FROM FACTS GROUP BY V"
        try:
            assert _rows(serial, sql) == _rows(parallel, sql)
            assert _parallel_queries(parallel) == 1
            assert _counter(parallel, "parallel.partial_aggs") == 1
        finally:
            serial.close()
            parallel.close()

    def test_unique_key_aggregate_stays_serial(self):
        # Groups = rows: the partial tables would be as large as the
        # partitions, so statistics keep the plan serial. Without
        # statistics (the cost-planning-off leg) partial aggregation is
        # the default — never wrong, only no smaller.
        storage = _storage()
        serial = _runtime(storage, parallelism=0)
        parallel = _runtime(storage, parallelism=2)
        sql = "SELECT ID, COUNT(*) FROM FACTS GROUP BY ID"
        try:
            assert _rows(serial, sql) == _rows(parallel, sql)
            assert _parallel_queries(parallel) == int(not parallel.cost)
            assert _counter(parallel, "parallel.fallbacks") == 0
        finally:
            serial.close()
            parallel.close()

    def test_parallel_path_engages(self):
        runtime = _runtime()
        try:
            _rows(runtime, "SELECT * FROM FACTS")
            counters = runtime.metrics.snapshot()["counters"]
            assert counters["parallel.queries"] == 1
            assert counters["parallel.partitions"] >= 2
            assert counters["parallel.workers"] >= 2
            histograms = runtime.metrics.snapshot()["histograms"]
            assert histograms["parallel.gather_seconds"]["count"] == 1
        finally:
            runtime.close()

    def test_eq_predicate_plan_is_join_led_and_stays_serial(self):
        # The cost planner rewrites an eq predicate into a constant-
        # probe hash join; a join-led plan has no driving scan to split
        # (the probe side is the unit tuple stream), so the eligibility
        # gate keeps it serial — with correct results.
        storage = _storage()
        serial = _runtime(storage, parallelism=0)
        parallel = _runtime(storage)
        sql = "SELECT ID FROM FACTS WHERE V = 2"
        try:
            assert _rows(serial, sql) == _rows(parallel, sql)
            assert _parallel_queries(parallel) == 0
        finally:
            serial.close()
            parallel.close()

    def test_repeated_queries_reuse_the_pool(self):
        runtime = _runtime()
        try:
            for _ in range(3):
                _rows(runtime, "SELECT ID FROM FACTS WHERE V > 2")
            assert _parallel_queries(runtime) == 3
            pool = runtime._pool
            assert pool is not None
            _rows(runtime, "SELECT ID FROM FACTS")
            assert runtime._pool is pool
            assert _parallel_queries(runtime) == 4
        finally:
            runtime.close()

    def test_parameter_queries_match(self):
        storage = _storage()
        serial = _runtime(storage, parallelism=0)
        parallel = _runtime(storage)
        sql = "SELECT ID, NAME FROM FACTS WHERE V > ?"
        try:
            for runtime in (serial, parallel):
                connection = connect(runtime)
                cursor = connection.cursor()
                cursor.execute(sql, (3,))
                runtime._last = cursor.fetchall()
                connection.close()
            assert serial._last == parallel._last
            assert _parallel_queries(parallel) == 1
        finally:
            serial.close()
            parallel.close()


class TestGating:
    def test_default_threshold_keeps_small_scans_serial(self):
        runtime = _runtime(parallel_min_rows=5_000)
        try:
            rows = _rows(runtime, "SELECT * FROM FACTS")
            assert len(rows) == N_ROWS
            assert _parallel_queries(runtime) == 0
            assert runtime._pool is None  # pool never even started
        finally:
            runtime.close()

    def test_threshold_admits_large_scans(self):
        runtime = _runtime(parallel_min_rows=N_ROWS)
        try:
            _rows(runtime, "SELECT * FROM FACTS")
            assert _parallel_queries(runtime) == 1
        finally:
            runtime.close()

    def test_parallelism_below_two_disables(self):
        runtime = _runtime(parallelism=1)
        try:
            _rows(runtime, "SELECT * FROM FACTS")
            assert _parallel_queries(runtime) == 0
        finally:
            runtime.close()

    def test_explain_actuals_stay_serial(self):
        # Actuals collection counts rows per plan node inside the
        # executing process; worker-side counts can't merge, so an
        # EXPLAIN-style run must bypass the pool.
        runtime = _runtime()
        query = ('declare namespace p = "ld:Par/FACTS";\n'
                 'for $f in p:FACTS() return $f/ID')
        try:
            actuals: dict = {}
            result = runtime.execute(query, actuals=actuals)
            assert len(result) == N_ROWS
            assert _parallel_queries(runtime) == 0
        finally:
            runtime.close()


class TestEnvOverrides:
    def test_env_parallelism_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "2")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "0")
        runtime = _runtime(parallelism=0, parallel_min_rows=5_000)
        try:
            assert runtime.parallelism == 2
            assert runtime.parallel_min_rows == 0
            _rows(runtime, "SELECT * FROM FACTS")
            assert _parallel_queries(runtime) == 1
        finally:
            runtime.close()

    def test_scattered_plan_prints_its_text_once(self, monkeypatch):
        """The driver hands the runtime a tree; the only text a
        translated statement ever gets is the one the scatter executor
        ships to its workers, printed on the first scatter."""
        from repro.xquery import printer, vector
        storage = _storage()
        serial = _runtime(storage, parallelism=0)
        monkeypatch.setenv("REPRO_PARALLELISM", "2")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "0")
        parallel = _runtime(storage, parallelism=0)
        printed = []

        def counting(module):
            printed.append(module)
            return printer.print_module(module)

        monkeypatch.setattr(vector, "print_module", counting)
        sql = "SELECT ID, V FROM FACTS WHERE V > 3"
        try:
            expected = _rows(serial, sql)
            connection = connect(parallel)
            cursor = connection.cursor()
            for _ in range(3):
                cursor.execute(sql)
                assert cursor.fetchall() == expected
            assert _parallel_queries(parallel) == 3
            assert _counter(parallel, "parallel.fallbacks") == 0
            assert len(printed) == 1
            # The parent never parsed: its workers did, in their own
            # processes, once each.
            assert _counter(parallel, "xquery.parses") == 0
            connection.close()
        finally:
            serial.close()
            parallel.close()

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
        storage = _storage()
        runtime = _runtime(storage)
        try:
            first = _rows(runtime, "SELECT ID FROM FACTS")
            assert len(first) == N_ROWS
            old_pool = runtime._pool
            storage.table("FACTS").insert_many(
                [(N_ROWS + i, f"late{i}", 0) for i in range(5)])
            second = _rows(runtime, "SELECT ID FROM FACTS")
            assert len(second) == N_ROWS + 5
            # Both executions count as parallel: the stale round was
            # retried against a freshly forked pool, not fallen back.
            assert _parallel_queries(runtime) == 2
            assert runtime._pool is not old_pool
            assert _counter(runtime, "parallel.fallbacks") == 0
        finally:
            runtime.close()


class TestLifecycle:
    def test_timeout_raises_through_parallel_path(self):
        # The driver's per-statement deadline rides into the workers
        # (each builds its own context from the parent's remaining
        # time); an expired deadline surfaces as the same
        # OperationalError the serial path raises.
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
        finally:
            runtime.close()


class TestShutdown:
    def test_close_tears_down_pool(self):
        runtime = _runtime()
        _rows(runtime, "SELECT * FROM FACTS")
        assert runtime._pool is not None
        runtime.close()
        assert runtime._pool is None

    def test_shutdown_pool_is_idempotent(self):
        runtime = _runtime()
        try:
            runtime.shutdown_pool()
            runtime.shutdown_pool()
            _rows(runtime, "SELECT * FROM FACTS")
            runtime.shutdown_pool()
            assert runtime._pool is None
            # Next query lazily restarts the pool.
            _rows(runtime, "SELECT * FROM FACTS")
            assert _parallel_queries(runtime) == 2
        finally:
            runtime.close()
