"""The engine's one scan seam: the column path (``scan_columns``)
sends the request and counts a source scan as the source reports it,
the row path (``call_function``) reads elements built from the same
cache entry, so one table version is scanned once for both, and
late-bound pushdown values resolve through one helper."""

import pytest

from repro.catalog import Application
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sources import Mutation, Predicate, ScanRequest
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
    # (a plain scan), SQLite pushes it.
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


def _source_report(backend: str, request) -> dict:
    """The counters one scan under *request* must move, read off the
    source's own row scan on a fresh runtime: rows it returned, those
    it pre-filtered, and its index use."""
    runtime = _runtime(backend)
    source = runtime.sources[next(iter(runtime.sources))]
    result = source.scan("FACTS", request)
    rows = len(list(result))
    return {"sources.rows_scanned": rows,
            "sources.rows_pushed": rows if result.pushed else 0,
            "sources.index_hits": int(result.index_used),
            "sources.index_builds": int(result.index_built)}


def _satisfies(row: dict, request) -> bool:
    """True when *row* (column name -> text) passes every predicate of
    *request* (``eq`` / ``in`` on integer columns)."""
    for predicate in () if request is None else request.predicates:
        value = int(row[predicate.column])
        wanted = predicate.value if predicate.op == "in" \
            else (predicate.value,)
        if value not in wanted:
            return False
    return True


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestRowAndColumnPathsAgree:
    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    def test_counters_move_identically(self, backend, kind):
        # One fresh runtime per leg: the first pushed scan builds the
        # memory index, and the engine must report that build. A plain
        # scan reads the same way through call_function.
        request = REQUESTS[kind]
        expected = _source_report(backend, request)
        assert expected["sources.rows_scanned"] > 0
        by_columns = _runtime(backend)
        assert _moved(by_columns, lambda: by_columns.scan_columns(
            URI, "FACTS", scan=request)) == expected
        if request is None:
            by_rows = _runtime(backend)
            assert _moved(by_rows, lambda: by_rows.call_function(
                URI, "FACTS", [])) == expected

    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    def test_same_rows_either_way(self, backend, kind):
        # The row leg reads the plain scan as elements built from the
        # column cache entry; a pushed column scan keeps, in scan order,
        # every one of those rows its predicates pass (a declined
        # predicate stays a residual filter, so more rows may come).
        runtime = _runtime(backend)
        elements = runtime.call_function(URI, "FACTS", [])
        rows = [{child.name.local: child.string_value()
                 for child in element.child_elements()}
                for element in elements]
        names, values, row_count = runtime.scan_columns(
            URI, "FACTS", scan=REQUESTS[kind])
        names = [name for name, _xs in names]
        got = [tuple(str(v) for v in row) for row in zip(*values)]
        assert row_count == len(got)
        plain = [tuple(row[name] for name in names) for row in rows]
        wanted = [tuple(row[name] for name in names) for row in rows
                  if _satisfies(row, REQUESTS[kind])]
        if kind == "plain":
            assert got == plain and len(got) == N_ROWS
        kept = iter(got)
        assert all(row in kept for row in wanted)  # in order
        assert set(got) <= set(plain)

    def test_one_version_is_scanned_once(self, backend):
        runtime = _runtime(backend)
        source = runtime.sources[next(iter(runtime.sources))]

        def scanned(scan) -> int:
            return _moved(runtime, scan)["sources.rows_scanned"]

        def columns():
            return runtime.scan_columns(URI, "FACTS")

        def rows():
            return runtime.call_function(URI, "FACTS", [])

        assert [scanned(columns), scanned(rows), scanned(rows)] == \
            [N_ROWS, 0, 0]
        elements = rows()
        assert len(elements) == N_ROWS and rows() is elements
        source.apply_mutations([Mutation("insert", "FACTS",
                                         rows=((N_ROWS, "new", 0),))])
        assert [scanned(rows), scanned(columns)] == [N_ROWS + 1, 0]
        assert len(rows()) == N_ROWS + 1 and elements is not rows()

    def test_partition_scan_bypasses_column_cache(self, backend):
        # Nothing bypasses the column cache any more: the column path
        # takes no partition, and a plain scan under the live token is
        # answered from the cache — a poisoned entry shows through, to
        # the row path as well.
        runtime = _runtime(backend)
        with pytest.raises(TypeError):
            runtime.scan_columns(URI, "FACTS", partition=object())
        names, values, row_count = runtime.scan_columns(URI, "FACTS")
        assert row_count == N_ROWS
        entry = runtime._table_columns[(URI, "FACTS")]
        assert entry.values is values
        entry.values, entry.row_count = [[], [], []], 0
        moved = _moved(runtime, lambda: runtime.scan_columns(URI, "FACTS"))
        assert moved["sources.rows_scanned"] == 0
        assert runtime.scan_columns(URI, "FACTS")[1:] == ([[], [], []], 0)
        assert runtime.call_function(URI, "FACTS", []) == []


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

    def test_a_negated_parameter_binds_a_number_only(self):
        negated = ScanRequest(predicates=(
            Predicate("ID", "gt", ParamRef("p1", negate=True)),))
        assert self._bind(negated, p1=[5]).predicates == \
            (Predicate("ID", "gt", -5),)
        assert self._bind(negated, p1=["5"]) is None
        assert self._bind(negated, p1=[True]) is None

    def test_an_in_list_binds_every_member_or_drops(self):
        listed = ScanRequest(predicates=(
            Predicate("ID", "in", (1, ParamRef("p1"), 3)),
            Predicate("V", "eq", 3)))
        assert self._bind(listed, p1=[2]).predicates == \
            (Predicate("ID", "in", (1, 2, 3)), Predicate("V", "eq", 3))
        assert self._bind(listed, p1=[]).predicates == \
            (Predicate("V", "eq", 3),)

    def test_requests_without_param_refs_pass_through(self):
        plain = ScanRequest(predicates=(Predicate("V", "eq", 3),))
        assert self._bind(plain) is plain
        assert self._bind(None) is None
