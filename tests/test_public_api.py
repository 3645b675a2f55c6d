"""Tests for the top-level package facade (repro/__init__.py)."""

import dataclasses
import pathlib
import re
import warnings

import pytest

import repro

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

#: Every tuning knob, by name: a knob removed (or added) changes this
#: set, the README's knob table, and the test below together.
KNOBS = {
    "plan_cache_capacity", "max_concurrent_queries",
    "admission_queue_timeout", "max_inflight_rows", "retry_policy",
    "batch_size", "format", "statement_cache_capacity",
    "metadata_cache_capacity", "default_timeout", "remote_connect_timeout",
}


class TestFacade:
    def test_version(self):
        assert repro.__version__ == "2.0.0"
        # The packaging metadata is single-sourced from the attribute;
        # only checkable where the package is actually installed.
        from importlib import metadata

        try:
            installed = metadata.version("repro")
        except metadata.PackageNotFoundError:
            return
        assert installed == repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_exact(self):
        """``__all__`` is the whole supported surface — every public
        attribute of the module is either listed or a submodule; nothing
        leaks in by accident."""
        listed = set(repro.__all__)
        import types

        for name in dir(repro):
            if name.startswith("_"):
                continue
            if isinstance(getattr(repro, name), types.ModuleType):
                continue  # imported submodules are addressed by path
            assert name in listed, f"unlisted public attribute {name!r}"

    def test_dsn_exports(self):
        parsed = repro.parse_dsn("repro://RTLApp/TestDataServices")
        assert isinstance(parsed, repro.DSN)
        assert not parsed.remote
        remote = repro.parse_dsn(
            "repro+tcp://db.example:7777/RTLApp/TestDataServices?token=s")
        assert remote.remote and remote.address == ("db.example", 7777)

    def test_stats_schema_version_exported(self):
        assert repro.STATS_SCHEMA_VERSION == 4

    def test_pep249_globals(self):
        assert repro.apilevel == "2.0"
        assert repro.threadsafety == 2
        assert repro.paramstyle == "qmark"

    def test_exception_hierarchy_exported(self):
        assert issubclass(repro.OperationalError, repro.DatabaseError)
        assert issubclass(repro.DatabaseError, repro.Error)
        assert issubclass(repro.InterfaceError, repro.Error)

    def test_config_and_spi_types_exported(self):
        config = repro.RuntimeConfig(batch_size=7)
        assert config.batch_size == 7
        assert repro.ScanRequest(columns=("A",)).columns == ("A",)
        assert issubclass(repro.SQLiteSource, repro.DataSource)
        assert issubclass(repro.TableSource, repro.DataSource)
        assert issubclass(repro.XMLFileSource, repro.DataSource)

    def test_sources_export_no_partition_spi(self):
        import repro.sources

        assert "PartitionSpec" not in repro.sources.__all__
        assert not hasattr(repro.sources, "PartitionSpec")
        assert not hasattr(repro.DataSource, "partitions")

    def test_write_spi_types_exported(self):
        mutation = repro.Mutation(kind="insert", table="T",
                                  rows=((1,),))
        assert mutation.kind == "insert"
        assert repro.MutationResult(rowcount=1).rowcount == 1

    def test_quickstart_flow(self):
        from repro.workloads import build_runtime

        conn = repro.connect(build_runtime())
        cur = conn.cursor()
        cur.execute("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE "
                    "CUSTOMERID = ?", [23])
        assert cur.fetchall() == [("Sue",)]


class TestLegacyAliasesRemoved:
    """2.0 removed the pre-1.1 top-level aliases; the names now raise
    AttributeError so stale imports fail loudly instead of silently
    resolving through a deprecation shim."""

    def test_legacy_names_raise(self):
        for name in ("DSPRuntime", "Storage", "SQLExecutor", "Tracer",
                     "MetricsRegistry", "LRUCache", "translate",
                     "build_demo_runtime", "execute_xquery",
                     "SQLToXQueryTranslator", "TranslationResult"):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_legacy_names_still_live_in_subpackages(self):
        from repro.engine import DSPRuntime  # noqa: F401
        from repro.obs import MetricsRegistry, Tracer  # noqa: F401
        from repro.translator import SQLToXQueryTranslator  # noqa: F401
        from repro.xquery import execute_xquery

        assert execute_xquery("1 + 1") == [2]

    def test_sql_oracle_left_the_engine(self):
        """The naive SQL executor is the tests' oracle, no product
        code: writes run on the vector plan. Its exports went with it
        (to ``tests/engine/sqlexec.py``)."""
        import importlib.util

        import repro.engine

        for name in ("SQLExecutor", "TableProvider", "ResultTable",
                     "canonical_value", "row_key", "sql_cast"):
            assert name not in repro.engine.__all__, name
            assert not hasattr(repro.engine, name), name
        assert importlib.util.find_spec("repro.engine.sqlexec") is None

    def test_no_deprecation_machinery_left(self):
        assert not hasattr(repro, "_LEGACY")
        assert not hasattr(repro, "_warned_legacy")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name


class TestRuntimeConfig:
    def test_replace_returns_new_frozen_copy(self):
        base = repro.RuntimeConfig()
        tuned = base.replace(default_timeout=2.5)
        assert base.default_timeout is None
        assert tuned.default_timeout == 2.5
        with pytest.raises(Exception):
            tuned.default_timeout = 1.0

    def test_replace_unknown_field_raises(self):
        with pytest.raises(TypeError):
            repro.RuntimeConfig().replace(bogus=1)

    def test_field_set_is_exact(self):
        fields = {field.name for field in
                  dataclasses.fields(repro.RuntimeConfig)}
        assert fields == KNOBS and len(fields) == 11

    def test_readme_knob_table_lists_every_field(self):
        """README's "RuntimeConfig knobs" table has one row per field,
        in field order."""
        section = README.read_text().split("### RuntimeConfig knobs", 1)[1]
        table = section.split("| field |", 1)[1].split("\n\n", 1)[0]
        listed = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
        assert listed == [field.name for field in
                          dataclasses.fields(repro.RuntimeConfig)]

    def test_connect_accepts_config(self):
        from repro.workloads import build_runtime

        config = repro.RuntimeConfig(format="xml", default_timeout=4.0,
                                     statement_cache_capacity=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            conn = repro.connect(build_runtime(), config=config)
        assert conn.format == "xml"
        assert conn.default_timeout == 4.0
        assert conn.config.statement_cache_capacity == 3
        assert conn._statement_cache.stats()["capacity"] == 3

    def test_runtime_accepts_config(self):
        from repro.engine import DSPRuntime
        from repro.workloads import build_runtime

        base = build_runtime()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runtime = DSPRuntime(base.application, base.storage,
                                 config=repro.RuntimeConfig(
                                     plan_cache_capacity=7))
        assert runtime.plan_cache.stats()["capacity"] == 7

    @pytest.mark.parametrize("keyword", ["bogus", "default_timeout"])
    def test_unknown_kwarg_still_typeerror(self, keyword):
        # Tuning reaches connect() through config= only; a former
        # pre-config keyword is as unknown as any other.
        from repro.workloads import build_runtime

        with pytest.raises(TypeError, match=keyword):
            repro.connect(build_runtime(), **{keyword: 1})

    def test_driver_kwarg_rejected_by_runtime(self):
        from repro.engine import DSPRuntime
        from repro.workloads import build_runtime

        base = build_runtime()
        with pytest.raises(TypeError, match="default_timeout"):
            DSPRuntime(base.application, base.storage,
                       default_timeout=1.0)


class TestEnvironment:
    """``config.py`` is the one reader of the process environment."""

    def test_config_reads_exactly_two_variables(self):
        source = (pathlib.Path(repro.__file__).parent / "config.py") \
            .read_text()
        assert set(re.findall(r"REPRO_[A-Z_]+", source)) == {
            "REPRO_BATCH_SIZE", "REPRO_DEFAULT_BACKEND"}

    def test_a_retired_variable_changes_nothing(self, monkeypatch):
        from repro.config import with_environment

        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        config = repro.RuntimeConfig()
        monkeypatch.setenv("REPRO_COST_PLANNING", "0")
        assert with_environment(config) == config
        monkeypatch.setenv("REPRO_PARALLELISM", "2")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "0")
        assert with_environment(config) == config


class TestConnectionMetadata:
    def test_metadata_callable_and_property_styles(self):
        from repro.workloads import build_runtime

        conn = repro.connect(build_runtime())
        meta = conn.metadata
        assert conn.metadata() is meta  # __call__ returns the instance
        assert meta.catalogs() == ["RTLApp"]
        assert "TestDataServices/CUSTOMERS" in meta.schemas()
        tables = meta.tables()
        assert ("TestDataServices/CUSTOMERS", "CUSTOMERS") in tables
        columns = meta.columns("CUSTOMERS")
        assert [c[0] for c in columns] == [
            "CUSTOMERID", "CUSTOMERNAME", "REGION", "CREDITLIMIT"]
        assert meta.procedures() == meta.get_procedures()

    def test_get_aliases_preserved(self):
        from repro.workloads import build_runtime

        conn = repro.connect(build_runtime())
        meta = conn.metadata()
        assert meta.get_catalogs() == meta.catalogs()
        assert meta.get_tables() == meta.tables()
        assert meta.get_columns("CUSTOMERS") == meta.columns("CUSTOMERS")
