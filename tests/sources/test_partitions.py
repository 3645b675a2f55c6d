"""Scan-order conformance: one contract, three backends.

The partition SPI is gone (no source carves a table any more, and no
scan takes ``partition=``). What it leaned on stays and binds every
backend: a scan's row order is stable across repeated scans, and both
surfaces — ``scan`` rows and the column blocks the runtime transposes
them into (``dsp._column_blocks``) — replay it. So any contiguous
carving a caller lays over fresh scans (the i-th of *target* row
ranges, each read from its own scan) concatenates back to the full
scan exactly, each row once, with or without a pushed request. This
suite is parametrized over all three shipped backends so a new source
only has to add a factory.
"""

import pickle
from decimal import Decimal

import pytest

from repro.engine import QueryContext, Storage
from repro.engine.dsp import _column_blocks
from repro.errors import QueryCancelledError
from repro.sources import Predicate, ScanRequest
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
    (i,
     None if i % 5 == 3 else f"name{i}",
     None if i % 7 == 6 else Decimal(f"{i}.25"))
    for i in range(11)
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


class _EagerIndexSource(TableSource):
    """Indexes every table and serves every probe, so eq/in requests
    really are pushed on 11 rows."""

    index_min_rows = 0
    index_max_fraction = 1.0


def _make_memory(tmp_path, rows=ROWS):
    storage = Storage()
    table = storage.create_table("T", COLUMNS)
    table.insert_many(rows)
    return _EagerIndexSource(storage)


def _make_sqlite(tmp_path, rows=ROWS):
    source = SQLiteSource()
    source.create_table("T", COLUMNS)
    source.insert_rows("T", rows)
    return source


def _make_xml(tmp_path, rows=ROWS):
    path = tmp_path / "T.xml"
    path.write_text(_xml_document(rows), encoding="utf-8")
    return XMLFileSource(path, columns={"T": COLUMNS})


class _TickRecorder:
    """Stands in for a ``QueryContext``: records ``tick_rows`` sizes."""

    def __init__(self):
        self.ticks = []

    def tick(self):
        raise AssertionError("column scans tick per block, not per row")

    def tick_rows(self, count):
        self.ticks.append(count)


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


def _rows(source, request=None):
    return list(source.scan("T", request))


def _blocks(source, request=None, batch_size=1024, context=None):
    return list(_column_blocks(source.scan("T", request).rows, batch_size,
                               context))


def _batch_rows(batch_size):
    """A surface reading rows back out of the runtime's column blocks."""
    def surface(source, request=None):
        result = source.scan("T", request)
        rows = []
        for block in _column_blocks(result.rows, batch_size, None):
            assert len(block) == len(result.columns)
            assert 1 <= len(block[0]) <= batch_size
            rows.extend(zip(*block))
        return rows
    return surface


#: Both scan surfaces: each returns the row tuples of one whole scan.
SURFACES = {
    "rows": _rows,
    "batches-1": _batch_rows(1),
    "batches-7": _batch_rows(7),
    "batches-1024": _batch_rows(1024),
}

REQUESTS = {
    "plain": None,
    "in": ScanRequest(predicates=(Predicate("ID", "in", (1, 4, 7, 9)),)),
    "eq": ScanRequest(predicates=(Predicate("ID", "eq", 6),)),
}


@pytest.fixture(params=sorted(SURFACES))
def surface(request):
    return SURFACES[request.param]


def _ranges(total: int, target: int) -> list[tuple[int, int]]:
    """Up to *target* contiguous ``[lower, upper)`` ranges tiling
    *total* row positions (one empty range for an empty scan)."""
    count = max(1, min(target, total))
    step = total / count
    bounds = [round(i * step) for i in range(count + 1)]
    bounds[-1] = total
    return list(zip(bounds, bounds[1:]))


def _gather(source, target, request=None, surface=_rows):
    """Concatenate the *target* ranges of the scan, each range sliced
    out of a scan of its own."""
    total = len(surface(source, request))
    rows = []
    for lower, upper in _ranges(total, target):
        rows.extend(surface(source, request)[lower:upper])
    return rows


class TestConcatenationContract:
    @pytest.mark.parametrize("target", [2, 3, 4, len(ROWS), 100])
    def test_union_replays_full_scan(self, source, surface, target):
        assert 2 <= len(_ranges(len(ROWS), target)) <= min(target,
                                                            len(ROWS))
        assert _gather(source, target, None, surface) == _rows(source)
        assert surface(source) == _rows(source)

    def test_partitions_are_disjoint_and_complete(self, source):
        rows = _gather(source, 3)
        assert sorted(r[0] for r in rows) == [r[0] for r in ROWS]

    def test_spec_metadata_consistent(self, source):
        # A scan describes the table with the same columns, scan after
        # scan.
        names = [name for name, _type in COLUMNS]
        for _ in range(2):
            assert [n for n, _t in source.scan("T").columns] == names

    @pytest.mark.parametrize("kind", ["in", "eq"])
    @pytest.mark.parametrize("target", [2, 3])
    def test_union_with_request_matches_full_scan(self, source, surface,
                                                  kind, target):
        request = REQUESTS[kind]
        full = _rows(source, request)
        assert surface(source, request) == full
        assert _gather(source, target, request, surface) == full


class TestPushedFlags:
    def test_pushed_refers_to_request_not_carving(self, source):
        # No request predicates -> pushed is False.
        for _ in range(2):
            assert source.scan("T").pushed is False

    def test_pushed_matches_full_scan_capability(self, source):
        # Whatever the source reports for a pushed scan it reports for
        # every repeat: the engine decides what to cache from this flag.
        request = ScanRequest(predicates=(Predicate("ID", "eq", 4),))
        expected = source.scan("T", request).pushed
        for _ in range(2):
            assert source.scan("T", request).pushed == expected


class TestDegenerateTargets:
    def test_target_below_two_declines(self, source):
        # No source answers a partitioning request any more.
        assert not hasattr(source, "partitions")
        assert not hasattr(source, "reset_after_fork")

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_tiny_table_declines(self, tmp_path, n_rows):
        for name, factory in sorted(FACTORIES.items()):
            built = factory(tmp_path, ROWS[:n_rows])
            try:
                assert len(_rows(built)) == n_rows, name
                assert [len(b[0]) for b in _blocks(built, batch_size=4)] \
                    == [1] * n_rows, name
                assert _gather(built, 4) == _rows(built), name
            finally:
                built.close()

    def test_never_returns_a_single_partition(self, source):
        # No block is ever empty, and only the last is short.
        for batch_size in (2, 3, 5, 50):
            sizes = [len(b[0]) for b in _blocks(source,
                                                batch_size=batch_size)]
            assert sum(sizes) == len(ROWS)
            assert all(size == batch_size for size in sizes[:-1])
            assert 1 <= sizes[-1] <= batch_size


class TestVersionStability:
    def test_version_stable_across_partitioned_scans(self, source):
        before = source.version("T")
        _gather(source, 3)
        _gather(source, 3, surface=_batch_rows(2))
        assert source.version("T") == before


class TestBatches:
    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    def test_batches_tick_once_per_block(self, source, kind):
        # The runtime's column blocks tick the lifecycle context with
        # each block's row count.
        context = _TickRecorder()
        blocks = _blocks(source, REQUESTS[kind], 2, context)
        sizes = [len(block[0]) for block in blocks]
        assert sizes and context.ticks == sizes


class TestLifecycle:
    def test_cancellation_aborts_partition_scan(self, source):
        context = QueryContext(check_interval=1)
        rows = iter(source.scan("T", None, context))
        next(rows)
        context.cancel("scan-order conformance")
        with pytest.raises(QueryCancelledError):
            list(rows)


class TestSQLiteRowidGaps:
    def test_union_survives_rowid_gaps(self):
        # Deletes leave holes in the rowid sequence; repeated scans on
        # both surfaces still agree on one order.
        source = _make_sqlite(None)
        try:
            source._connection.execute(
                "DELETE FROM T WHERE ID IN (0, 3, 4, 8)")
            full = list(source.scan("T"))
            assert [r[0] for r in full] == [1, 2, 5, 6, 7, 9, 10]
            assert _gather(source, 3) == full
            assert _gather(source, 3, surface=_batch_rows(2)) == full
        finally:
            source.close()


class TestPicklability:
    def test_partition_spec_round_trips(self, source):
        # A request is a plain value: a pickled copy scans the same.
        for request in REQUESTS.values():
            clone = pickle.loads(pickle.dumps(request))
            assert clone == request
            assert _rows(source, clone) == _rows(source, request)

    def test_unsupported_kind_rejected(self, source):
        # A scan takes no partition any more.
        with pytest.raises(TypeError):
            source.scan("T", partition=object())
