"""PEP 249 surface tests: DSN connect, keyword-only tuning, arraysize
batching, executemany translation reuse, the exception taxonomy, and
the packages' public ``__all__``."""

import pytest

import repro
import repro.driver as driver
from repro.driver import (
    Connection,
    InterfaceError,
    OperationalError,
    ProgrammingError,
    connect,
    register_runtime,
    unregister_runtime,
)
from repro.workloads import APPLICATION, build_runtime


class TestConnectDSN:
    def test_demo_application_resolves_without_registration(self):
        unregister_runtime(APPLICATION)
        try:
            connection = connect("repro://RTLApp/TestDataServices")
            cursor = connection.cursor()
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
            assert len(cursor.fetchall()) == 6
        finally:
            unregister_runtime(APPLICATION)

    def test_dsn_query_parameters(self):
        connection = connect(
            "repro://RTLApp/TestDataServices?format=xml&timeout=5"
            "&statement_cache_capacity=7")
        try:
            assert connection.format == "xml"
            assert connection.default_timeout == 5.0
            assert connection._statement_cache.stats()["capacity"] == 7
        finally:
            unregister_runtime(APPLICATION)

    def test_format_keyword_overrides_dsn_overrides_config(self):
        connection = connect(
            "repro://RTLApp/TestDataServices?format=xml&timeout=5",
            format="delimited",
            config=repro.RuntimeConfig(default_timeout=9.0))
        try:
            assert connection.format == "delimited"
            assert connection.default_timeout == 5.0
        finally:
            unregister_runtime(APPLICATION)

    def test_registered_runtime_resolves(self):
        runtime = build_runtime()
        register_runtime("MyApp", runtime)
        try:
            connection = connect("repro://MyApp")
            assert connection._runtime is runtime
        finally:
            unregister_runtime("MyApp")

    def test_bad_scheme_rejected(self):
        with pytest.raises(InterfaceError, match="scheme"):
            connect("postgres://RTLApp/TestDataServices")

    def test_unknown_application_rejected(self):
        with pytest.raises(InterfaceError, match="no runtime registered"):
            connect("repro://NoSuchApp")

    def test_unknown_project_rejected(self):
        try:
            with pytest.raises(InterfaceError, match="no project"):
                connect("repro://RTLApp/Bogus")
        finally:
            unregister_runtime(APPLICATION)

    def test_unknown_dsn_parameter_rejected(self):
        try:
            with pytest.raises(InterfaceError, match="unknown DSN"):
                connect("repro://RTLApp/TestDataServices?bogus=1")
        finally:
            unregister_runtime(APPLICATION)

    def test_bad_dsn_parameter_value_rejected(self):
        try:
            with pytest.raises(InterfaceError, match="bad value"):
                connect("repro://RTLApp/TestDataServices?timeout=soon")
        finally:
            unregister_runtime(APPLICATION)

    def test_connect_rejects_other_types(self):
        with pytest.raises(InterfaceError):
            connect(42)

    def test_tuning_arguments_are_keyword_only(self):
        with pytest.raises(TypeError):
            connect(build_runtime(), "xml")


class TestCursorSurface:
    def test_iteration_pulls_arraysize_batches(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.arraysize = 4
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS ORDER BY "
                       "CUSTOMERID")
        rows = list(cursor)
        assert [row[0] for row in rows] == [7, 12, 23, 31, 44, 55]
        assert cursor.rowcount == 6

    def test_fetchmany_defaults_to_arraysize(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.arraysize = 2
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        assert len(cursor.fetchmany()) == 2

    def test_cursor_context_manager_closes(self):
        connection = connect(build_runtime())
        with connection.cursor() as cursor:
            cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
            assert cursor.fetchone() is not None
        with pytest.raises(InterfaceError):
            cursor.fetchone()

    def test_executemany_translates_once(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.executemany(
            "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?",
            [[17], [23], [31]])
        counters = connection.stats()["counters"]
        assert counters["queries.translated"] == 1
        assert counters["queries.executed"] == 3
        assert len(cursor.fetchall()) == 1  # last parameter set's rows

    def test_executemany_rejects_call(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.executemany("{call getX(?)}", [[1]])

    def test_executemany_bad_sql_is_programming_error(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.executemany("SELEC bogus", [[1]])


class TestErrorTaxonomy:
    def test_connection_carries_exception_attributes(self):
        # The PEP 249 optional extension: exceptions as Connection
        # attributes, so multi-driver code can catch conn.Error.
        for name in ("Warning", "Error", "InterfaceError",
                     "DatabaseError", "DataError", "OperationalError",
                     "IntegrityError", "InternalError",
                     "ProgrammingError", "NotSupportedError"):
            assert getattr(Connection, name) is getattr(driver, name)

    def test_driver_reexports_full_exception_set(self):
        for name in ("Warning", "Error", "InterfaceError",
                     "DatabaseError", "DataError", "OperationalError",
                     "IntegrityError", "InternalError",
                     "ProgrammingError", "NotSupportedError"):
            assert name in driver.__all__

    def test_xquery_dynamic_error_maps_to_operational(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        with pytest.raises(OperationalError, match="FOAR0001"):
            cursor.execute("SELECT CUSTOMERID / 0 FROM CUSTOMERS")
            cursor.fetchall()

    def test_exception_hierarchy_shape(self):
        assert issubclass(driver.OperationalError, driver.DatabaseError)
        assert issubclass(driver.DatabaseError, driver.Error)
        assert issubclass(driver.InterfaceError, driver.Error)
        assert not issubclass(driver.Warning, driver.Error)


class TestPublicAll:
    def test_repro_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_driver_all_resolves(self):
        for name in driver.__all__:
            assert getattr(driver, name) is not None

    def test_lifecycle_names_importable(self):
        # 2.0 removed the top-level aliases: lifecycle names live in
        # repro.engine; only the driver entry points stay top-level.
        from repro.engine import (  # noqa: F401
            AdmissionController,
            CancellationToken,
            FaultProfile,
            QueryContext,
            RetryPolicy,
            install_fault,
        )

        for name in ("register_runtime", "unregister_runtime"):
            assert name in repro.__all__

    def test_one_admission_gate(self):
        """A tenant's quota is the runtime's gate class: the tenant
        pair is gone from ``repro.engine`` and ``repro.server``."""
        import repro.engine
        import repro.server

        for module in (repro.engine, repro.server):
            for name in ("TenantQuota", "TenantSlot"):
                assert name not in module.__all__, name
                assert not hasattr(module, name), name
        assert "AdmissionSlot" in repro.engine.__all__


class TestStatsSchema:
    """The ``Connection.stats()`` document is a versioned contract —
    dashboards pin on ``stats_schema_version`` and these section names.
    Renaming or removing any of them requires bumping
    ``STATS_SCHEMA_VERSION`` (and this test)."""

    #: Version-4 sections and the keys each must carry (version 2 = the
    #: version-1 document plus the write path's ``transactions``;
    #: version 3 keeps the same sections and adds the grouped-
    #: aggregation counters under ``runtime.counters``; version 4 keeps
    #: them and drops the ``parallel.*`` counters and histogram).
    SCHEMA_V4 = {
        "statement_cache": {"hits", "misses", "evictions", "size",
                            "capacity"},
        "metadata_cache": {"hits", "misses", "evictions", "size",
                           "capacity"},
        "plan_cache": {"hits", "misses", "evictions", "size", "capacity"},
        "admission": {"active", "max_concurrent", "queued", "admitted",
                      "rejected", "inflight_rows", "max_inflight_rows",
                      "queue_timeout", "max_timeout"},
        "runtime": {"counters", "histograms"},
        "transactions": {"active", "begun", "committed", "rolled_back",
                         "autocommits", "statements", "rows_written"},
    }

    def test_version_key_present(self):
        snapshot = connect(build_runtime()).stats()
        assert snapshot["stats_schema_version"] == \
            repro.STATS_SCHEMA_VERSION == 4

    def test_v3_sections_and_keys(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        cursor.fetchall()
        snapshot = connection.stats()
        assert isinstance(snapshot["counters"], dict)
        assert isinstance(snapshot["histograms"], dict)
        for section, keys in self.SCHEMA_V4.items():
            assert section in snapshot, section
            missing = keys - set(snapshot[section])
            assert not missing, f"{section} lost keys {sorted(missing)}"

    def test_v3_aggregation_counters_present(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.execute("SELECT REGION, COUNT(*) FROM CUSTOMERS "
                       "GROUP BY REGION")
        cursor.fetchall()
        counters = connection.stats()["runtime"]["counters"]
        for name in ("vector.agg_queries", "vector.agg_groups"):
            assert name in counters, name
        assert counters["vector.agg_queries"] >= 1
        assert counters["vector.agg_groups"] >= 1

    def test_v4_runtime_has_no_parallel_keys(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.execute("SELECT REGION, COUNT(*) FROM CUSTOMERS "
                       "GROUP BY REGION")
        cursor.fetchall()
        runtime = connection.stats()["runtime"]
        names = set(runtime["counters"]) | set(runtime["histograms"])
        assert not {name for name in names if name.startswith("parallel.")}

    def test_counter_names_stable(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")
        cursor.fetchall()
        counters = connection.stats()["counters"]
        for name in ("queries.translated", "queries.executed",
                     "rows.streamed"):
            assert name in counters, name

    def test_remote_stats_carries_same_schema(self):
        from repro.server import TenantConfig, serve_in_thread

        tenant = TenantConfig(name="app", runtime=build_runtime(),
                              token="t")
        with serve_in_thread(tenant) as handle:
            connection = connect(
                handle.dsn("app", "TestDataServices", token="t"))
            try:
                snapshot = connection.stats()
                assert snapshot["stats_schema_version"] == 4
                for section in self.SCHEMA_V4:
                    assert section in snapshot, section
                # plus the server-only and client-only sections
                assert "server" in snapshot
                assert "client" in snapshot
            finally:
                connection.close()
