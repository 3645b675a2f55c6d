"""The engine's one scan seam: the row path (``call_function``) and
the column path (``scan_columns``) reduce, count, and cache a source
scan by the same rules, and late-bound pushdown values resolve through
one helper."""

import pytest

from repro.catalog import Application
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sources import Predicate, ScanRequest
from repro.sources.sqlite import SQLiteSource
from repro.sql.types import SQLType
from repro.xmlmodel import Element, QName
from repro.xquery.planner import ParamRef, bind_scan_request

URI = "ld:Seam/FACTS"
N_ROWS = 600  # past TableSource.index_min_rows, so eq/in really push

COUNTERS = ("sources.rows_scanned", "sources.rows_pushed",
            "sources.index_hits", "sources.index_builds")

REQUESTS = {
    "plain": None,
    "eq": ScanRequest(predicates=(Predicate("ID", "eq", 41),)),
    "in": ScanRequest(predicates=(Predicate("ID", "in", (3, 99, 512)),)),
    # V has 7 distinct values: memory declines the probe as too wide
    # (nothing survives the reduction), SQLite pushes it.
    "unselective": ScanRequest(predicates=(Predicate("V", "eq", 3),)),
    "projected": ScanRequest(columns=("ID",), predicates=(
        Predicate("ID", "eq", 41),)),
}


def _runtime(backend: str) -> DSPRuntime:
    storage = Storage()
    storage.create_table("FACTS", [
        ("ID", SQLType("INTEGER")),
        ("NAME", SQLType("VARCHAR")),
        ("V", SQLType("INTEGER")),
    ]).insert_many([(i, f"name{i}", i % 7) for i in range(N_ROWS)])
    source = SQLiteSource.from_storage(storage) \
        if backend == "sqlite" else storage
    application = Application("SeamApp")
    import_tables(application, "Seam", source)
    return DSPRuntime(application, source)


def _moved(runtime, scan) -> dict:
    """How far one *scan* call moves each source counter."""
    def read():
        counters = runtime.metrics.snapshot()["counters"]
        return {name: counters.get(name, 0) for name in COUNTERS}
    before = read()
    scan()
    after = read()
    return {name: after[name] - before[name] for name in COUNTERS}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestRowAndColumnPathsAgree:
    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    def test_counters_move_identically(self, backend, kind):
        # One fresh runtime per path: the first pushed scan builds the
        # memory index, and both paths must report that build.
        request = REQUESTS[kind]
        by_rows, by_columns = _runtime(backend), _runtime(backend)
        rows = _moved(by_rows, lambda: by_rows.call_function(
            URI, "FACTS", [], scan=request))
        columns = _moved(by_columns, lambda: by_columns.scan_columns(
            URI, "FACTS", scan=request))
        assert rows == columns
        assert rows["sources.rows_scanned"] > 0

    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    def test_same_rows_either_way(self, backend, kind):
        runtime = _runtime(backend)
        elements = runtime.call_function(URI, "FACTS", [],
                                         scan=REQUESTS[kind])
        names, values, row_count = runtime.scan_columns(
            URI, "FACTS", scan=REQUESTS[kind])
        assert row_count == len(elements)
        assert [name for name, _xs in names] == \
            [child.name.local for child in elements[0].child_elements()]
        assert [str(v) for v in values[0]] == \
            [next(e.child_elements()).string_value() for e in elements]

    def test_plain_scan_is_cached_by_both_paths(self, backend):
        runtime = _runtime(backend)
        first = _moved(runtime, lambda: runtime.scan_columns(URI, "FACTS"))
        again = _moved(runtime, lambda: runtime.scan_columns(URI, "FACTS"))
        assert first["sources.rows_scanned"] == N_ROWS
        assert again["sources.rows_scanned"] == 0
        first = _moved(runtime, lambda: runtime.call_function(
            URI, "FACTS", []))
        again = _moved(runtime, lambda: runtime.call_function(
            URI, "FACTS", []))
        assert first["sources.rows_scanned"] == N_ROWS
        assert again["sources.rows_scanned"] == 0

    def test_partition_scan_bypasses_column_cache(self, backend):
        # Nothing bypasses the column cache any more: the column path
        # takes no partition, and a plain scan under the live token is
        # answered from the cache — a poisoned entry shows through.
        runtime = _runtime(backend)
        source = runtime.sources[next(iter(runtime.sources))]
        with pytest.raises(TypeError):
            runtime.scan_columns(URI, "FACTS", partition=object())
        names, values, row_count = runtime.scan_columns(URI, "FACTS")
        assert row_count == N_ROWS
        assert runtime._table_columns[(URI, "FACTS")][1] is values
        token = source.version("FACTS")
        runtime._table_columns[(URI, "FACTS")] = (token, [[], [], []], 0,
                                                  {})
        moved = _moved(runtime, lambda: runtime.scan_columns(URI, "FACTS"))
        assert moved["sources.rows_scanned"] == 0
        assert runtime.scan_columns(URI, "FACTS")[1:] == ([[], [], []], 0)


class TestBindScanRequest:
    REQUEST = ScanRequest(columns=None, predicates=(
        Predicate("ID", "eq", ParamRef("p1")),
        Predicate("V", "eq", 3)))

    def _bind(self, request, **variables):
        return bind_scan_request(request,
                                 lambda name: variables.get(name, []))

    def test_one_atomic_value_binds(self):
        live = self._bind(self.REQUEST, p1=[41])
        assert live.predicates == (Predicate("ID", "eq", 41),
                                   Predicate("V", "eq", 3))

    @pytest.mark.parametrize("bound", [
        [], [1, 2], [Element(QName("ID"))]],
        ids=["zero", "two", "node"])
    def test_anything_else_drops_the_conjunct(self, bound):
        live = self._bind(self.REQUEST, p1=bound)
        assert live.predicates == (Predicate("V", "eq", 3),)

    def test_trivial_result_is_none(self):
        only = ScanRequest(predicates=(
            Predicate("ID", "eq", ParamRef("p1")),))
        assert self._bind(only, p1=[]) is None
        assert self._bind(only, p1=[7]).predicates == \
            (Predicate("ID", "eq", 7),)

    def test_projection_survives_dropped_predicates(self):
        projected = ScanRequest(columns=("ID",), predicates=(
            Predicate("ID", "eq", ParamRef("p1")),))
        live = self._bind(projected, p1=[1, 2])
        assert live == ScanRequest(columns=("ID",))

    def test_requests_without_param_refs_pass_through(self):
        plain = ScanRequest(predicates=(Predicate("V", "eq", 3),))
        assert self._bind(plain) is plain
        assert self._bind(None) is None
