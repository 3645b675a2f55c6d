"""Partition-SPI conformance: one contract, three backends.

The :class:`repro.sources.PartitionSpec` contract — concatenating the
``scan(..., partition=spec)`` row streams (or the
``scan_batches(..., partition=spec)`` column blocks) in partition index
order replays the full scan with the same request exactly, each row
once — is what lets the parallel executor restore byte order by plain
concatenation. Every backend that answers :meth:`DataSource.partitions`
must satisfy it; this suite is parametrized over all three shipped
backends so a new partition-capable source only has to add a factory.
"""

import pickle
from decimal import Decimal

import pytest

from repro.engine import QueryContext, Storage
from repro.errors import QueryCancelledError
from repro.sources import PartitionSpec, Predicate, ScanRequest
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


def _make_memory(tmp_path, rows=ROWS):
    storage = Storage()
    table = storage.create_table("T", COLUMNS)
    table.insert_many(rows)
    # Index eagerly so eq/in requests really are pushed on 11 rows.
    return TableSource(storage, index_min_rows=0, index_max_fraction=1.0)


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


def _rows(source, request=None, partition=None):
    return list(source.scan("T", request, partition=partition))


def _batch_rows(batch_size):
    """A surface reading rows back out of ``scan_batches`` blocks."""
    def surface(source, request=None, partition=None):
        result = source.scan_batches("T", request, None, batch_size,
                                     partition=partition)
        rows = []
        for block in result:
            assert len(block) == len(result.columns)
            assert 1 <= len(block[0]) <= batch_size
            rows.extend(zip(*block))
        return rows
    return surface


#: Both scan surfaces: each returns the row tuples of one (whole or
#: partition) scan.
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


def _gather(source, specs, request=None, surface=_rows):
    """Concatenate partition scans in index order."""
    rows = []
    for spec in sorted(specs, key=lambda s: s.index):
        rows.extend(surface(source, request, spec))
    return rows


class TestConcatenationContract:
    @pytest.mark.parametrize("target", [2, 3, 4, len(ROWS), 100])
    def test_union_replays_full_scan(self, source, surface, target):
        specs = source.partitions("T", None, target)
        assert specs is not None
        assert 2 <= len(specs) <= min(target, len(ROWS))
        assert _gather(source, specs, None, surface) == _rows(source)
        assert surface(source) == _rows(source)

    def test_partitions_are_disjoint_and_complete(self, source):
        specs = source.partitions("T", None, 3)
        rows = _gather(source, specs)
        assert sorted(r[0] for r in rows) == [r[0] for r in ROWS]

    def test_spec_metadata_consistent(self, source):
        specs = source.partitions("T", None, 3)
        assert [s.index for s in specs] == list(range(len(specs)))
        assert all(s.count == len(specs) for s in specs)
        assert all(s.table == "T" for s in specs)

    @pytest.mark.parametrize("kind", ["in", "eq"])
    @pytest.mark.parametrize("target", [2, 3])
    def test_union_with_request_matches_full_scan(self, source, surface,
                                                  kind, target):
        request = REQUESTS[kind]
        full = _rows(source, request)
        assert surface(source, request) == full
        specs = source.partitions("T", request, target)
        assert _gather(source, specs, request, surface) == full


class TestPushedFlags:
    def test_pushed_refers_to_request_not_carving(self, source):
        # No request predicates -> pushed must be False even though
        # the carving itself restricted the rows.
        specs = source.partitions("T", None, 2)
        for spec in specs:
            assert source.scan("T", partition=spec).pushed is False
            assert source.scan_batches(
                "T", partition=spec).pushed is False

    def test_pushed_matches_full_scan_capability(self, source):
        # Whatever the source reports for a full pushed scan it must
        # report per partition and per surface: the engine skips
        # residual predicate re-evaluation based on this flag.
        request = ScanRequest(predicates=(Predicate("ID", "eq", 4),))
        expected = source.scan("T", request).pushed
        assert source.scan_batches("T", request).pushed == expected
        specs = source.partitions("T", request, 2)
        for spec in specs:
            assert source.scan("T", request, partition=spec).pushed \
                == expected
            assert source.scan_batches(
                "T", request, partition=spec).pushed == expected


class TestDegenerateTargets:
    def test_target_below_two_declines(self, source):
        assert source.partitions("T", None, 0) is None
        assert source.partitions("T", None, 1) is None

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_tiny_table_declines(self, tmp_path, n_rows):
        for name, factory in sorted(FACTORIES.items()):
            built = factory(tmp_path, ROWS[:n_rows])
            try:
                assert built.partitions("T", None, 4) is None, name
            finally:
                built.close()

    def test_never_returns_a_single_partition(self, source):
        for target in (2, 3, 5, 50):
            specs = source.partitions("T", None, target)
            assert specs is None or len(specs) >= 2


class TestVersionStability:
    def test_version_stable_across_partitioned_scans(self, source):
        before = source.version("T")
        specs = source.partitions("T", None, 3)
        _gather(source, specs)
        assert source.version("T") == before


class TestBatches:
    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    def test_batches_tick_once_per_block(self, source, kind):
        # The column surface ticks the lifecycle context with each
        # block's row count, whole table or partition alike.
        specs = source.partitions("T", REQUESTS[kind], 2)
        for partition in [None, *specs]:
            context = _TickRecorder()
            result = source.scan_batches("T", REQUESTS[kind], context, 2,
                                         partition=partition)
            sizes = [len(block[0]) for block in result]
            assert context.ticks == sizes

    def test_batches_reject_zero_batch(self, source):
        specs = source.partitions("T", None, 2)
        for partition in (None, specs[0]):
            with pytest.raises(ValueError):
                source.scan_batches("T", batch_size=0,
                                    partition=partition)


class TestLifecycle:
    def test_cancellation_aborts_partition_scan(self, source):
        context = QueryContext(check_interval=1)
        specs = source.partitions("T", None, 2)
        rows = iter(source.scan("T", None, context, specs[0]))
        next(rows)
        context.cancel("partition conformance")
        with pytest.raises(QueryCancelledError):
            list(rows)


class TestSQLiteRowidGaps:
    def test_union_survives_rowid_gaps(self):
        # Deletes leave holes in the rowid sequence; the carved ranges
        # tile [MIN(rowid), MAX(rowid)] regardless, so the union must
        # still replay the full scan exactly.
        source = _make_sqlite(None)
        try:
            source._connection.execute(
                "DELETE FROM T WHERE ID IN (0, 3, 4, 8)")
            full = list(source.scan("T"))
            specs = source.partitions("T", None, 3)
            assert specs is not None
            assert _gather(source, specs) == full
        finally:
            source.close()


class TestPicklability:
    def test_partition_spec_round_trips(self, source):
        for spec in source.partitions("T", None, 3):
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_unsupported_kind_rejected(self, source):
        bogus = PartitionSpec(table="T", index=0, count=1,
                              kind="nonsense", lower=0, upper=1)
        with pytest.raises(ValueError):
            source.scan("T", partition=bogus)
        with pytest.raises(ValueError):
            list(source.scan_batches("T", partition=bogus))
