"""Executor coverage gated by count, not by stopwatch.

The benchmark's statement shapes over ``build_scaled_runtime``, checked
through ``Connection.stats()`` counters that say which path a statement
took:

* the four ``report_50k`` statements never take the per-cell path —
  int / str / Decimal / date columns all have typed kernels, so
  ``vector.generic_columns`` stays 0;
* the three ``shapes_200`` texts read exactly as many record-set
  columns as untyped views (``vector.untyped_views``) as their EXPLAIN
  notes list ``view`` reads — for ``nested`` and ``subq`` the IN
  subquery's member column, for ``group`` none;
* the report join, run twice over the same rows, probes the DETAILS
  hash table kept from the first run (``vector.join_reuses`` up by
  exactly 1; FACTS is index-pushed and still builds);
* a report statement and an Evaluator read of the same FACTS version
  scan it once (``sources.rows_scanned`` moves by the table's rows,
  then by 0), on memory and on SQLite: the Evaluator's elements are
  built from the column-cache entry the batch executor filled;
* once a ``SELECT *`` has cached FACTS, the report ``filter`` reads
  that version, not the source, and probes the ``REGION`` table kept
  for it: ``sources.rows_scanned`` and ``vector.join_builds`` move by
  0, on memory and on SQLite (a version's first read is still pushed:
  tests/xquery/test_cached_pushdown_parity.py);
* an embedded ``SELECT * FROM FACTS`` fetched row by row prints no
  delimited text (``vector.text_chunks`` stays put: the cursor converts
  the executor's typed cells), while its ``fetch_text`` pages print
  exactly the stream ``stream_chunks`` yields, a chunk per batch. That
  rows read either way keep their types cell for cell is
  tests/server/test_remote_differential.py's check;
* once warm, the same ``SELECT *`` read by ``fetchall`` hands every
  output column of every batch over on its table version's facts
  (``vector.as_computed_columns``), on memory and on SQLite: no column
  is observed, ``plain_decimals`` is not called and
  ``vector.generic_columns`` does not move; a computed cell
  (``AMOUNT * 2``) is still observed, once per batch (that facts follow
  the version: tests/integration/test_version_facts.py);
* a point join that names the big table first (``FROM DETAILS D,
  FACTS F ... F.ID = ?``) is reordered by statistics: its plan holds
  ``restore-order``, and the one FACTS row drives the join, not the
  DETAILS scan;
* 30 parameterised point UPDATEs, then 30 point DELETEs, on SQLite
  compile their DML read once each (``plan_cache.misses`` up by 1 per
  statement text, though every write moves the version token) and read
  exactly the rows they change (``sources.rows_scanned``);
* statistics are read only where they choose a for order: on a SQLite
  runtime shaped like the benchmark's ``mixed_rw`` (autocommit writes
  to FACTS, each followed by the ``filter``, ``point`` and ``group``
  reads, which read FACTS alone) ``SQLiteSource.statistics`` is not
  called and ``plan_cache.misses`` does not move once warm; the point
  join above re-plans exactly once after a write to either of its
  tables, and (on memory, whose tokens are per table) a write to
  another table leaves its plan a hit; EXPLAIN's estimates, priced when
  printed, count a row just inserted;
* warm executions of a cached point statement build no PEP 249
  description (``dbapi._type_object_for`` is not called), and the
  description they show is the one the first execution built;
* a source is asked once: a pushed point read of a table the runtime
  has not read runs the backend's own pushdown gate
  (``supports_predicate``) once per conjunct, on memory and on SQLite,
  and a request the 6-row demo table declines whole (it is below
  ``TableSource.index_min_rows``) fills the column cache, so the next
  read scans no source row;
* a warm report ``group`` over a held FACTS version filters and folds
  by dictionary code: it gathers no batch (``vector._gather`` is not
  called), evaluates its ``<>`` on the 4 distinct REGION values, not
  per row, and observes the kind of no scanned column (``_kind`` sees
  only its filter's 4-cell mask); the version's REGION and NAME codes
  are built once across 10 executions, a write gives the next read new
  ones, and point reads and writes build none (``ID`` and ``AMOUNT``
  never get a dictionary).
"""

from __future__ import annotations

import datetime
from decimal import Decimal

import pytest

from repro import connect
from repro.catalog import Application
from repro.driver import codec, dbapi
from repro.engine import DSPRuntime, dsp, import_tables
from repro.sources.memory import TableSource
from repro.sources.sqlite import SQLiteSource
from repro.sql.types import SQLType
from repro.workloads.scaling import (
    APPLICATION,
    PROJECT,
    build_scaled_runtime,
    build_scaled_storage,
)
from repro.workloads import build_runtime
from repro.xquery import vector
from repro.xquery.atomic import REGULAR_KINDS

REPORT_JOIN = ("SELECT F.ID, F.NAME, D.DETAILID, D.QTY FROM FACTS F "
               "INNER JOIN DETAILS D ON F.ID = D.FACTID WHERE F.REGION = ?")

REPORT_STATEMENTS = [
    ("SELECT * FROM FACTS", ()),
    ("SELECT ID, NAME, AMOUNT FROM FACTS WHERE REGION = ? AND AMOUNT > ?",
     ("WEST", 50)),
    (REPORT_JOIN, ("WEST",)),
    ("SELECT NAME, COUNT(*), SUM(AMOUNT) FROM FACTS WHERE REGION <> ? "
     "GROUP BY NAME", ("WEST",)),
]

SHAPE_STATEMENTS = {
    "group": ("SELECT F.REGION, COUNT(*), SUM(D.QTY) FROM FACTS F INNER "
              "JOIN DETAILS D ON F.ID = D.FACTID GROUP BY F.REGION HAVING "
              "COUNT(*) > ? ORDER BY 1", (10,)),
    "nested": ("SELECT INFO.ID, INFO.TOTAL FROM (SELECT F.ID ID, "
               "SUM(D.QTY) TOTAL FROM FACTS F LEFT OUTER JOIN DETAILS D ON "
               "F.ID = D.FACTID GROUP BY F.ID) AS INFO WHERE INFO.TOTAL > "
               "(SELECT AVG(QTY) FROM DETAILS) OR INFO.ID IN (SELECT ID "
               "FROM FACTS WHERE REGION = ?) ORDER BY INFO.ID", ("WEST",)),
    "subq": ("SELECT F.ID, F.NAME FROM FACTS F WHERE F.AMOUNT > (SELECT "
             "AVG(AMOUNT) FROM FACTS) OR F.ID IN (SELECT FACTID FROM "
             "DETAILS WHERE QTY = ?) ORDER BY F.ID", (3,)),
}


@pytest.fixture(autouse=True)
def _pin_executor_shape(monkeypatch):
    """The gates hold for the default batch size: a CI leg's override
    must not reshape them."""
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)


def _counter(connection, name: str) -> int:
    return connection.stats()["runtime"]["counters"].get(name, 0)


def _runtime_on(backend: str, storage) -> DSPRuntime:
    source = SQLiteSource.from_storage(storage) \
        if backend == "sqlite" else storage
    application = Application(APPLICATION)
    import_tables(application, PROJECT, source)
    return DSPRuntime(application, source)


def test_report_statements_take_no_per_cell_path():
    connection = connect(build_scaled_runtime(2_000))
    cursor = connection.cursor()
    for sql, params in REPORT_STATEMENTS:
        cursor.execute(sql, params)
        assert cursor.fetchall(), sql
    assert _counter(connection, "vector.generic_columns") == 0


@pytest.mark.parametrize("shape", sorted(SHAPE_STATEMENTS))
def test_untyped_views_are_the_explained_view_reads(shape):
    sql, params = SHAPE_STATEMENTS[shape]
    runtime = build_scaled_runtime(200)
    connection = connect(runtime)
    plan = runtime.prepare_module(
        ("delimited", sql),
        connection.translator.translate(sql, format="delimited").module)
    predicted = [read for report in plan.plan_reports
                 for read in report.get("boundary", ()) if read[1] == "view"]
    before = _counter(connection, "vector.untyped_views")
    cursor = connection.cursor()
    cursor.execute(sql, params)
    assert cursor.fetchall(), sql
    views = _counter(connection, "vector.untyped_views") - before
    assert views == len(predicted), (shape, views, predicted)
    assert len(predicted) == (0 if shape == "group" else 1)
    assert _counter(connection, "vector.generic_columns") == 0


def test_repeated_report_join_reuses_one_hash_table():
    connection = connect(build_scaled_runtime(2_000))
    cursor = connection.cursor()
    reuses = []
    for _ in range(2):
        cursor.execute(REPORT_JOIN, ("WEST",))
        assert cursor.fetchall()
        reuses.append(_counter(connection, "vector.join_reuses"))
    assert reuses[1] - reuses[0] == 1, reuses


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_report_and_evaluator_reads_scan_one_version_once(backend):
    runtime = _runtime_on(backend, build_scaled_storage(2_000))
    connection = connect(runtime)
    cursor = connection.cursor()
    scanned = [_counter(connection, "sources.rows_scanned")]
    cursor.execute("SELECT * FROM FACTS")
    assert len(cursor.fetchall()) == 2_000
    scanned.append(_counter(connection, "sources.rows_scanned"))
    # User XQuery runs on the Evaluator, which reads through
    # call_function.
    counted = runtime.execute(
        f'import schema namespace ns0 = "ld:{PROJECT}/FACTS";\n'
        f'fn:count(ns0:FACTS())')
    assert counted == [2_000]
    scanned.append(_counter(connection, "sources.rows_scanned"))
    assert [b - a for a, b in zip(scanned, scanned[1:])] == [2_000, 0]
    connection.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_report_filter_over_a_held_version_scans_and_builds_nothing(backend):
    sql, params = REPORT_STATEMENTS[1]
    connection = connect(_runtime_on(backend, build_scaled_storage(2_000)))
    cursor = connection.cursor()
    cursor.execute("SELECT * FROM FACTS")
    assert len(cursor.fetchall()) == 2_000
    counted = []
    for _ in range(3):
        counted.append((_counter(connection, "sources.rows_scanned"),
                        _counter(connection, "vector.join_builds")))
        cursor.execute(sql, params)
        assert cursor.fetchall(), sql
    counted.append((_counter(connection, "sources.rows_scanned"),
                    _counter(connection, "vector.join_builds")))
    # The first execution over the version hashes it once; none scans.
    assert [(b[0] - a[0], b[1] - a[1])
            for a, b in zip(counted, counted[1:])] == [(0, 1), (0, 0),
                                                       (0, 0)]
    connection.close()


def test_embedded_rows_print_no_text_and_pages_are_the_stream():
    sql, rows = "SELECT * FROM FACTS", 5_000
    runtime = build_scaled_runtime(rows)
    connection = connect(runtime)
    cursor = connection.cursor()
    printed = [_counter(connection, "vector.text_chunks")]
    cursor.execute(sql)
    assert len(cursor.fetchall()) == rows
    printed.append(_counter(connection, "vector.text_chunks"))
    cursor.execute(sql)
    pages, last = [], False
    while not last:
        text, _count, last = cursor.fetch_text(1_000)
        pages.append(text)
    printed.append(_counter(connection, "vector.text_chunks"))
    assert [b - a for a, b in zip(printed, printed[1:])] == [0, 5]
    plan = runtime.prepare_module(
        ("delimited", sql),
        connection.translator.translate(sql, format="delimited").module)
    assert "".join(pages) == "".join(plan.stream_chunks())
    connection.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_warm_scan_hands_every_column_over_on_facts(backend, monkeypatch):
    connection = connect(_runtime_on(backend, build_scaled_storage(5_000)))
    cursor = connection.cursor()
    cursor.execute("SELECT * FROM FACTS")
    cursor.fetchall()  # the version and its facts, once
    guarded, observed = [], []
    guard = REGULAR_KINDS[Decimal]
    typed_column = codec._typed_column

    def counted_guard(col):
        guarded.append(len(col))
        return guard(col)

    def counted_column(col, *args):
        observed.append(len(col))
        return typed_column(col, *args)

    monkeypatch.setitem(REGULAR_KINDS, Decimal, counted_guard)
    monkeypatch.setitem(codec._AS_COMPUTED, (Decimal, "DECIMAL"),
                        counted_guard)
    monkeypatch.setattr(codec, "_typed_column", counted_column)

    def counters():
        return [_counter(connection, name) for name in (
            "vector.as_computed_columns", "vector.generic_columns")]

    before = counters()
    cursor.execute("SELECT * FROM FACTS")
    assert len(cursor.fetchall()) == 5_000
    after = counters()
    # 5 batches of 4 columns.
    assert [b - a for a, b in zip(before, after)] == [20, 0]
    assert guarded == [] and observed == []
    cursor.execute("SELECT ID, AMOUNT * 2 FROM FACTS")
    assert len(cursor.fetchall()) == 5_000
    assert observed == [1_024] * 4 + [904]
    assert [b - a for a, b in zip(after, counters())] == [5, 0]
    connection.close()


def test_point_join_named_big_table_first_drives_from_the_point():
    sql = ("SELECT F.NAME, D.QTY FROM DETAILS D, FACTS F "
           "WHERE D.FACTID = F.ID AND F.ID = ?")
    runtime = build_scaled_runtime(2_000)
    connection = connect(runtime)
    translation = connection.translator.translate(sql, format="delimited")
    plan = runtime.prepare_module(("delimited", sql), translation.module)
    actuals: dict = {}
    plan.evaluate(translation.parameter_variables([7]), actuals=actuals)
    nodes = plan.plan_reports[0]["nodes"]
    assert [node["op"] for node in nodes] == [
        "hash_join", "hash_join", "restore_order"]
    # The first node is the stream that enters the join: the FACTS row
    # ``F.ID = 7`` selects, where the written order streams all of
    # DETAILS (4 000 rows).
    assert actuals[nodes[0]["id"]] == 1
    cursor = connection.cursor()
    cursor.execute(sql, (7,))
    assert actuals[nodes[1]["id"]] == len(cursor.fetchall()) > 0
    connection.close()


@pytest.mark.parametrize("sql, changed", [
    ("UPDATE FACTS SET AMOUNT = ? WHERE ID = ?", 1),
    ("DELETE FROM FACTS WHERE ID = ?", 1),
    ("UPDATE FACTS SET AMOUNT = ? WHERE ID = ?", 0),
], ids=["update", "delete", "update-no-row"])
def test_point_writes_compile_once_and_read_what_they_change(sql, changed):
    """Two sessions on one runtime alternate the writes: the DML read
    is compiled once per statement text, whichever session runs it."""
    runtime = _runtime_on("sqlite", build_scaled_storage(2_000))
    connections = [connect(runtime), connect(runtime)]
    cursors = [connection.cursor() for connection in connections]
    connection = connections[0]
    before = (_counter(connection, "plan_cache.misses"),
              _counter(connection, "sources.rows_scanned"))
    rowcount = 0
    for index in range(30):
        target = 7 * index if changed else -1 - index
        parameters = (target,) if sql.startswith("DELETE") \
            else (index, target)
        cursor = cursors[index % 2]
        cursor.execute(sql, parameters)
        rowcount += cursor.rowcount
    assert rowcount == 30 * changed
    after = (_counter(connection, "plan_cache.misses"),
             _counter(connection, "sources.rows_scanned"))
    assert (after[0] - before[0], after[1] - before[1]) == (1, rowcount)
    for connection in connections:
        connection.close()


MIXED_READS = [
    ("SELECT ID, NAME, AMOUNT FROM FACTS WHERE REGION = ? AND AMOUNT > ?",
     ("WEST", 50)),
    ("SELECT ID, NAME, REGION, AMOUNT FROM FACTS WHERE ID = ?", (7,)),
    ("SELECT NAME, COUNT(*), SUM(AMOUNT) FROM FACTS WHERE REGION <> ? "
     "GROUP BY NAME", ("WEST",)),
]


def _mixed_writes(cycle: int) -> list:
    return [
        ("INSERT INTO FACTS (ID, NAME, REGION, AMOUNT) VALUES (?, ?, ?, ?)",
         (1_000_000 + cycle, "Inserted", "WEST", 5)),
        ("UPDATE FACTS SET AMOUNT = ? WHERE ID = ?", (cycle, 7 * cycle)),
        ("DELETE FROM FACTS WHERE ID = ?", (1_000_000 + cycle,)),
    ]


def test_writes_beside_single_table_reads_read_no_statistics(monkeypatch):
    calls = []
    statistics = SQLiteSource.statistics
    monkeypatch.setattr(SQLiteSource, "statistics",
                        lambda self, table: calls.append(table)
                        or statistics(self, table))
    connection = connect(_runtime_on("sqlite", build_scaled_storage(5_000)))
    cursor = connection.cursor()

    def cycle(index: int) -> None:
        for sql, params in _mixed_writes(index):
            cursor.execute(sql, params)
            assert cursor.rowcount == 1, sql
            for read, read_params in MIXED_READS:
                cursor.execute(read, read_params)
                assert cursor.fetchall(), read

    cycle(0)  # warm-up: each text compiles once
    before = (len(calls), _counter(connection, "plan_cache.misses"))
    for index in range(1, 4):
        cycle(index)
    after = (len(calls), _counter(connection, "plan_cache.misses"))
    assert (after[0] - before[0], after[1] - before[1]) == (0, 0), calls
    connection.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_reordered_join_re_plans_once_per_write_to_its_tables(backend):
    sql = ("SELECT F.NAME, D.QTY FROM DETAILS D, FACTS F "
           "WHERE D.FACTID = F.ID AND F.ID = ?")
    storage = build_scaled_storage(2_000)
    storage.create_table("CUSTOMERS", [("ID", SQLType("INTEGER"))])
    connection = connect(_runtime_on(backend, storage))
    cursor = connection.cursor()

    def replans() -> int:
        misses = _counter(connection, "plan_cache.misses")
        cursor.execute(sql, (7,))
        assert cursor.fetchall()
        return _counter(connection, "plan_cache.misses") - misses

    def write(statement: str, params: tuple) -> None:
        cursor.execute(statement, params)
        assert cursor.rowcount == 1

    assert replans() == 1
    plan = connection._runtime.prepare_module(
        ("delimited", sql), connection.translator.translate(
            sql, format="delimited").module)
    assert "restore_order" in [node["op"] for report in plan.plan_reports
                               for node in report["nodes"]]
    counted = [replans()]
    write("INSERT INTO DETAILS VALUES (?, ?, ?, ?)",
          (99_999, 7, 1, datetime.date(2005, 1, 1)))
    counted += [replans(), replans()]
    write("UPDATE FACTS SET AMOUNT = ? WHERE ID = ?", (1, 8))
    counted += [replans(), replans()]
    write("INSERT INTO CUSTOMERS VALUES (?)", (1,))
    counted.append(replans())
    # SQLite's version token is the whole database's, so a write to
    # any table moves it.
    assert counted == [0, 1, 0, 1, 0, 1 if backend == "sqlite" else 0]
    connection.close()


def test_explain_estimates_count_a_row_just_inserted():
    sql = "SELECT ID, NAME FROM FACTS"
    runtime = build_scaled_runtime(2_000)
    connection = connect(runtime)
    module = connection.translator.translate(sql, format="delimited").module

    def estimated() -> float:
        plan = runtime.prepare_module(("delimited", sql), module)
        return plan.plan_reports[0]["nodes"][0]["estimate"]

    assert estimated() == 2_000
    cursor = connection.cursor()
    cursor.execute("INSERT INTO FACTS (ID, NAME, REGION, AMOUNT) "
                   "VALUES (?, ?, ?, ?)", (1_000_000, "X", "WEST", 1))
    misses = _counter(connection, "plan_cache.misses")
    assert estimated() == 2_001
    assert _counter(connection, "plan_cache.misses") == misses
    connection.close()


def test_warm_point_executions_describe_their_result_once(monkeypatch):
    sql = "SELECT ID, NAME, AMOUNT FROM FACTS WHERE ID = ?"
    cursor = connect(build_scaled_runtime(2_000)).cursor()
    cursor.execute(sql, (7,))
    cursor.fetchall()
    description = cursor.description
    calls = []
    type_object_for = dbapi._type_object_for

    def counted(kind):
        calls.append(kind)
        return type_object_for(kind)

    monkeypatch.setattr(dbapi, "_type_object_for", counted)
    for key in range(1, 31):
        cursor.execute(sql, (key,))
        assert len(cursor.fetchall()) == 1
        assert cursor.description == description
    assert calls == []
    cursor.connection.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_pushed_point_read_gates_each_conjunct_once(backend, monkeypatch):
    gated = SQLiteSource if backend == "sqlite" else TableSource
    calls = []
    gate = gated.supports_predicate

    def counted(self, table, predicate):
        calls.append(predicate)
        return gate(self, table, predicate)

    monkeypatch.setattr(gated, "supports_predicate", counted)
    connection = connect(_runtime_on(backend, build_scaled_storage(2_000)))
    cursor = connection.cursor()
    cursor.execute("SELECT ID, NAME FROM FACTS WHERE ID = ?", (123,))
    assert [row[0] for row in cursor.fetchall()] == [123]
    assert _counter(connection, "sources.rows_pushed") == 1
    assert len(calls) == 1, calls
    connection.close()


def test_a_declined_request_fills_the_cache():
    connection = connect(build_runtime(backend="memory"))
    cursor = connection.cursor()
    sql = "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?"
    scanned = []
    for key in (23, 55):
        cursor.execute(sql, (key,))
        assert len(cursor.fetchall()) == 1
        scanned.append(_counter(connection, "sources.rows_scanned"))
    assert scanned == [6, 6]
    assert _counter(connection, "sources.rows_pushed") == 0
    connection.close()


REPORT_GROUP = REPORT_STATEMENTS[3][0]


def _held_facts(rows: int = 5_000):
    """A connection over a scaled memory runtime holding its FACTS
    version (a ``SELECT *`` fills the column cache)."""
    connection = connect(build_scaled_runtime(rows))
    cursor = connection.cursor()
    cursor.execute("SELECT * FROM FACTS")
    assert len(cursor.fetchall()) == rows
    return connection, cursor


def _counted_codes(monkeypatch) -> list:
    """The columns a version's codes are asked to be built over."""
    built = []
    codes = dsp.dictionary_codes

    def counted(col):
        built.append(col)
        return codes(col)

    monkeypatch.setattr(dsp, "dictionary_codes", counted)
    return built


def test_a_warm_group_filters_and_folds_by_code(monkeypatch):
    compared, gathered, observed = [], [], []
    ne = vector._CMP_OPS["ne"]

    def counted_ne(x, y):
        compared.append(x)
        return ne(x, y)

    monkeypatch.setitem(vector._CMP_OPS, "ne", counted_ne)
    connection, cursor = _held_facts()
    cursor.execute(REPORT_GROUP, ("WEST",))
    warm = cursor.fetchall()
    assert len(warm) == 6
    gather, kind = vector._gather, vector._kind

    def counted_gather(batch, idx):
        gathered.append(len(idx))
        return gather(batch, idx)

    def counted_kind(col):
        observed.append(set(map(type, col)))
        return kind(col)

    monkeypatch.setattr(vector, "_gather", counted_gather)
    monkeypatch.setattr(vector, "_kind", counted_kind)
    del compared[:]
    cursor.execute(REPORT_GROUP, ("WEST",))
    assert cursor.fetchall() == warm
    assert gathered == []
    assert sorted(compared) == ["EAST", "NORTH", "SOUTH", "WEST"]
    assert observed == [{bool}], observed
    connection.close()


def test_a_version_is_coded_once_and_a_write_codes_the_next(monkeypatch):
    built = _counted_codes(monkeypatch)
    connection, cursor = _held_facts()
    for _ in range(10):
        cursor.execute(REPORT_GROUP, ("WEST",))
        rows = cursor.fetchall()
    assert [len(set(col)) for col in built] == [4, 6]  # REGION, NAME
    cursor.execute("UPDATE FACTS SET NAME = ? WHERE ID = ?",
                   ("Newco", 4_998))
    for _ in range(2):
        cursor.execute(REPORT_GROUP, ("WEST",))
        after = cursor.fetchall()
    assert [len(set(col)) for col in built] == [4, 6, 4, 7]
    assert [row[0] for row in after] == [row[0] for row in rows] + ["Newco"]
    connection.close()


def test_point_reads_and_writes_build_no_codes(monkeypatch):
    built = _counted_codes(monkeypatch)
    connection, cursor = _held_facts()
    for key in (7, 8, 4_999):
        cursor.execute(REPORT_STATEMENTS[0][0] + " WHERE ID = ?", (key,))
        assert [row[0] for row in cursor.fetchall()] == [key]
    for sql, params in (
            ("UPDATE FACTS SET AMOUNT = ? WHERE ID = ?", (Decimal("1.5"), 7)),
            ("DELETE FROM FACTS WHERE ID = ?", (8,)),
            ("INSERT INTO FACTS (ID, NAME, REGION, AMOUNT) VALUES "
             "(?, ?, ?, ?)", (9_000, "Acme", "WEST", Decimal("2")))):
        cursor.execute(sql, params)
        assert cursor.rowcount == 1
    assert built == []
    connection.close()
