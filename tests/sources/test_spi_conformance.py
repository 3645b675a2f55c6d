"""SPI conformance: one contract, three backends.

Every :class:`repro.DataSource` implementation must satisfy the same
observable contract — stable scan order, typed round-tripping (NULL
included), per-row deadline/cancellation ticks, idempotent close that
invalidates live scans, and a usable staleness token. The suite is
parametrized over all three shipped backends so a new backend only has
to add a factory here to inherit the whole battery.
"""

from decimal import Decimal

import pytest

from repro.engine import DSPRuntime, QueryContext, RetryPolicy, Storage, \
    import_source
from repro.catalog import Application
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
    UnknownArtifactError,
)
from repro.sources import DataSource, Predicate, Scan, ScanRequest
from repro.sources.memory import TableSource
from repro.sources.sqlite import SQLiteSource
from repro.sources.xmlfile import XMLFileSource
from repro.sql.types import SQLType

COLUMNS = [
    ("ID", SQLType("INTEGER")),
    ("NAME", SQLType("VARCHAR")),
    ("AMT", SQLType("DECIMAL", precision=7, scale=2)),
]

ROWS = [
    (1, "alpha", Decimal("10.50")),
    (2, None, Decimal("3.25")),
    (3, "gamma", None),
    (4, "delta", Decimal("99.99")),
    (5, "omega", Decimal("0.01")),
]


def _xml_document(rows) -> str:
    parts = ["<T>"]
    for row_id, name, amt in rows:
        parts.append("<R>")
        parts.append(f"<ID>{row_id}</ID>")
        parts.append(f"<NAME>{name}</NAME>" if name is not None
                     else "<NAME/>")
        parts.append(f"<AMT>{amt}</AMT>" if amt is not None
                     else "<AMT/>")
        parts.append("</R>")
    parts.append("</T>")
    return "".join(parts)


def _make_memory(tmp_path):
    storage = Storage()
    table = storage.create_table("T", COLUMNS)
    table.insert_many(ROWS)
    return TableSource(storage)


def _make_sqlite(tmp_path):
    # batch_size=1 so a mid-scan close is observed on the very next row.
    source = SQLiteSource(batch_size=1)
    source.create_table("T", COLUMNS)
    source.insert_rows("T", ROWS)
    return source


def _make_xml(tmp_path):
    path = tmp_path / "T.xml"
    path.write_text(_xml_document(ROWS), encoding="utf-8")
    return XMLFileSource(path, columns={"T": COLUMNS})


FACTORIES = {
    "memory": _make_memory,
    "sqlite": _make_sqlite,
    "xml": _make_xml,
}


@pytest.fixture(params=sorted(FACTORIES))
def source(request, tmp_path):
    built = FACTORIES[request.param](tmp_path)
    yield built
    built.close()


class TestMetadata:
    def test_tables(self, source):
        assert source.tables() == ["T"]

    def test_columns_names_and_kinds(self, source):
        columns = source.columns("T")
        assert [name for name, _t in columns] == ["ID", "NAME", "AMT"]
        assert [t.kind for _n, t in columns] == [
            "INTEGER", "VARCHAR", "DECIMAL"]

    def test_unknown_table_raises(self, source):
        with pytest.raises(UnknownArtifactError):
            source.columns("NOPE")

    def test_version_token_stable_while_unchanged(self, source):
        assert source.version("T") == source.version("T")


class TestScan:
    def test_scan_returns_scan_object(self, source):
        result = source.scan("T")
        assert isinstance(result, Scan)
        assert [name for name, _t in result.columns] == [
            "ID", "NAME", "AMT"]
        assert result.pushed is False  # no request → nothing pushed

    def test_rows_round_trip_exactly(self, source):
        assert list(source.scan("T")) == ROWS

    def test_scan_order_stable_across_scans(self, source):
        first = list(source.scan("T"))
        second = list(source.scan("T"))
        third = list(source.scan("T"))
        assert first == second == third

    def test_trivial_request_equals_no_request(self, source):
        assert list(source.scan("T", ScanRequest())) == ROWS

    def test_unsupported_request_returns_superset_semantics(self, source):
        # Advisory contract: a source may ignore any part of the
        # request, but must never drop a row the predicates keep.
        request = ScanRequest(columns=("ID", "AMT"))
        rows = list(source.scan("T", request))
        assert len(rows) == len(ROWS)


    def test_a_request_it_cannot_take_comes_back_whole(self, source):
        # No backend evaluates either conjunct exactly (a DECIMAL range,
        # a number against VARCHAR): the answer is unfiltered, with
        # every column in schema order.
        result = source.scan("T", ScanRequest(predicates=(
            Predicate("AMT", "gt", Decimal("1")),
            Predicate("NAME", "eq", 5))))
        assert result.pushed is False
        assert [name for name, _t in result.columns] == [
            "ID", "NAME", "AMT"]
        assert list(result) == ROWS

    def test_a_projection_of_every_column_is_cached(self, source):
        # The planner names a projection's columns sorted; an answer in
        # schema order is the table version, which the runtime keeps.
        request = ScanRequest(columns=("AMT", "ID", "NAME"))
        result = source.scan("T", request)
        assert [name for name, _t in result.columns] == [
            "ID", "NAME", "AMT"]
        assert list(result) == ROWS
        application = Application("App")
        import_source(application, "P", source, tables=["T"])
        runtime = DSPRuntime(application, source)
        _columns, values, _count = runtime.scan_columns(
            "ld:P/T", "T", scan=request)
        assert runtime.cached_entry("ld:P/T", "T", values) is not None


class TestLifecycleTicks:
    def test_cancellation_aborts_mid_scan(self, source):
        context = QueryContext(check_interval=1)
        rows = iter(source.scan("T", None, context))
        assert next(rows) == ROWS[0]
        context.cancel("conformance test")
        with pytest.raises(QueryCancelledError):
            next(rows)

    def test_deadline_aborts_mid_scan(self, source):
        context = QueryContext(timeout=1e-9, check_interval=1)
        with pytest.raises(QueryTimeoutError):
            list(source.scan("T", None, context))


class TestClose:
    def test_scan_after_close_raises(self, source):
        source.close()
        assert source.closed
        with pytest.raises(SourceUnavailableError):
            list(source.scan("T"))

    def test_metadata_after_close_raises(self, source):
        source.close()
        with pytest.raises(SourceUnavailableError):
            source.tables()

    def test_close_is_idempotent(self, source):
        source.close()
        source.close()
        assert source.closed

    def test_close_aborts_live_scan(self, source):
        rows = iter(source.scan("T"))
        assert next(rows) == ROWS[0]
        source.close()
        with pytest.raises(SourceUnavailableError):
            list(rows)

    def test_context_manager_closes(self, tmp_path):
        for factory in FACTORIES.values():
            with factory(tmp_path) as built:
                assert not built.closed
            assert built.closed


class _Flaky(DataSource):
    """Wrapper that fails the first *failures* scans transiently."""

    def __init__(self, inner: DataSource, failures: int):
        super().__init__(name="flaky")
        self._inner = inner
        self._remaining = failures
        self.attempts = 0

    def tables(self):
        return self._inner.tables()

    def columns(self, table):
        return self._inner.columns(table)

    def scan(self, table, request=None, context=None):
        self.attempts += 1
        if self._remaining > 0:
            self._remaining -= 1
            raise TransientSourceError("flaky source: try again")
        return self._inner.scan(table, request, context)


class TestRetryAfterFault:
    """Any SPI source wrapped by the runtime's retry policy recovers
    from transient faults; the conformance point is that the retried
    scan returns exactly the rows a clean scan would."""

    @pytest.mark.parametrize("backend", sorted(FACTORIES))
    def test_runtime_retries_transient_scan(self, backend, tmp_path):
        from repro.config import RuntimeConfig

        flaky = _Flaky(FACTORIES[backend](tmp_path), failures=2)
        application = Application("App")
        import_source(application, "P", flaky, tables=["T"])
        policy = RetryPolicy(attempts=3, sleep=lambda _s: None)
        runtime = DSPRuntime(application, flaky,
                             config=RuntimeConfig(retry_policy=policy))
        result = runtime.call_function("ld:P/T", "T", [])
        assert len(result) == len(ROWS)
        assert flaky.attempts == 3  # two transient failures + success

    @pytest.mark.parametrize("backend", sorted(FACTORIES))
    def test_exhausted_retries_raise_unavailable(self, backend, tmp_path):
        from repro.config import RuntimeConfig

        flaky = _Flaky(FACTORIES[backend](tmp_path), failures=99)
        application = Application("App")
        import_source(application, "P", flaky, tables=["T"])
        runtime = DSPRuntime(application, flaky, config=RuntimeConfig(
            retry_policy=RetryPolicy(attempts=2, sleep=lambda _s: None)))
        with pytest.raises(SourceUnavailableError):
            runtime.call_function("ld:P/T", "T", [])
