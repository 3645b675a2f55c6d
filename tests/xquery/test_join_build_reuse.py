"""A join's hash table lives as long as the table version it indexes.

When a batched join's build side is a plain whole-table scan that the
runtime's column cache served — no outer join's build filter, every key a
``fn:data($v/COL)`` column — its hash table is stored beside those
columns in the cache entry (``DSPRuntime.join_tables``) and the next
execution over the same table version probes it instead of building it
again. Every test here holds the batched plan's result to the
Evaluator's (the clauses as written) over the same sources, across
whatever moved the table between executions, and counts builds and
reuses (``vector.join_builds`` / ``vector.join_reuses``) so a reuse is
never silent — or wrong.
"""

from __future__ import annotations

import datetime
import gc
import os
import sys
import threading
import types

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.engine.dsp import import_source
from repro.sources.memory import TableSource
from repro.sources.sqlite import SQLiteSource
from repro.sources.xmlfile import XMLFileSource
from repro.sql.types import SQLType
from repro.workloads.scaling import build_scaled_runtime, build_scaled_storage
from repro.xquery import Evaluator
from repro.xquery.vector import VSTATS

from tests.sources.blind import without_pushdown

NAN = float("nan")

#: Every column of both sides is read, so no source is asked for a
#: projection: the SQLite build side is a plain (cacheable) scan too.
JOIN = "SELECT L.ID, L.K, L.S, R.RK, R.V FROM L INNER JOIN R ON L.K = R.RK"

REPORT_JOIN = ("SELECT F.ID, F.NAME, D.DETAILID, D.QTY FROM FACTS F "
               "INNER JOIN DETAILS D ON F.ID = D.FACTID")


@pytest.fixture(autouse=True)
def _pin_executor_shape(monkeypatch):
    """Batch size is pinned per test: a CI leg's override must not
    reshape the plans asserted on."""
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)


def _storage(rows: int = 12) -> Storage:
    storage = Storage()
    storage.create_table("L", [("ID", SQLType("INTEGER")),
                               ("K", SQLType("INTEGER")),
                               ("S", SQLType("VARCHAR"))]).insert_many(
        [(i, i % 5, f"s{i}") for i in range(rows)])
    storage.create_table("R", [("RK", SQLType("INTEGER")),
                               ("V", SQLType("VARCHAR"))]).insert_many(
        [(k % 4, f"v{k}") for k in range(rows // 2)])
    return storage


def _runtime(source, batch_size: int = 1024, **options) -> DSPRuntime:
    application = Application("ReuseApp")
    import_tables(application, "Reuse", source)
    return DSPRuntime(application, source, config=RuntimeConfig(
        batch_size=batch_size, **options))


def outcome(thunk):
    """What *thunk* returns, or the class of what it raises."""
    try:
        return thunk()
    except Exception as exc:  # the class is what is compared
        return type(exc)


def join_counts(runtime: DSPRuntime) -> tuple:
    counters = runtime.metrics.snapshot()["counters"]
    return (counters.get("vector.join_builds", 0),
            counters.get("vector.join_reuses", 0))


def moved(runtime: DSPRuntime, thunk) -> tuple:
    """``(builds, reuses)`` counted while *thunk* ran."""
    before = join_counts(runtime)
    thunk()
    after = join_counts(runtime)
    return after[0] - before[0], after[1] - before[1]


class Statement:
    """One translated SELECT over *runtime*, run on two legs: the
    batched plan the runtime caches (what a prepared statement runs)
    and the interpreter — both over the runtime's own sources, so each
    sees the rows as they are now.

    A test whose rows do not move between runs passes one *oracle*
    dict to all its statements: the Evaluator then runs once per
    (statement, parameters), and every batched run is held to that
    result."""

    def __init__(self, runtime: DSPRuntime, sql: str,
                 oracle: dict | None = None):
        self.runtime = runtime
        self.key = ("reuse-test", sql)
        self.module = connect(runtime).translate(sql).module
        self.oracle = oracle

    def plan(self):
        plan = self.runtime.prepare_module(self.key, self.module)
        assert plan.batched
        return plan

    def run(self, *params) -> tuple:
        """``(result, (builds, reuses))`` of one batched execution; the
        result is its text, or the class of what it raised, and the
        interpreter agrees with it."""
        variables = {f"p{i}": [value]
                     for i, value in enumerate(params, start=1)}
        plan = self.plan()
        before = join_counts(self.runtime)
        batched = outcome(lambda: plan.evaluate(variables))
        after = join_counts(self.runtime)
        oracle = {} if self.oracle is None else self.oracle
        key = (self.key, params)
        if key not in oracle:
            oracle[key] = outcome(lambda: Evaluator(
                self.module, resolver=self.runtime.call_function,
                variables=variables).evaluate())
        assert oracle[key] == batched
        return batched, (after[0] - before[0], after[1] - before[1])

    def build_table(self) -> str:
        """The table the (last) join operator of the plan builds on."""
        ops = self.plan().vector_plan.lowered.ops
        joins = [op for op in ops if op.name == "hash_join"]
        return joins[-1].source.local


BUILT, REUSED = (1, 0), (0, 1)


# -- a table version's writes -------------------------------------------------


WRITES = {
    "insert": {"L": "INSERT INTO L VALUES (90, 2, 'new')",
               "R": "INSERT INTO R VALUES (2, 'new')"},
    "update": {"L": "UPDATE L SET K = 3 WHERE ID = 1",
               "R": "UPDATE R SET V = 'upd' WHERE RK = 1"},
    "delete": {"L": "DELETE FROM L WHERE K = 2",
               "R": "DELETE FROM R WHERE RK = 2"},
}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_write_between_executions_rebuilds_the_table(backend, write):
    storage = _storage()
    runtime = _runtime(SQLiteSource.from_storage(storage)
                       if backend == "sqlite" else TableSource(storage))
    statement = Statement(runtime, JOIN)
    built = statement.build_table()
    before, counts = statement.run()
    assert counts == BUILT
    assert statement.run() == (before, REUSED)
    cursor = connect(runtime).cursor()
    cursor.execute(WRITES[write][built])
    assert cursor.rowcount >= 1
    after, counts = statement.run()
    assert after != before and counts == BUILT
    assert statement.run() == (after, REUSED)
    # SQLite's token is connection-global: a write anywhere moves it.
    # Memory keeps one token per table, so the build side's stays —
    # unless a re-plan the writes caused picked the other side.
    built = statement.build_table()
    cursor.execute(WRITES["insert"]["R" if built == "L" else "L"])
    kept = backend == "memory" and statement.build_table() == built
    assert statement.run()[1] == (REUSED if kept else BUILT)
    runtime.close()


def test_a_rollback_restores_the_pre_transaction_table():
    """Memory restores ``generation`` on rollback: the table built
    before the transaction is valid again, and one built over a
    mid-transaction version is never served afterwards (its token is
    never re-issued)."""
    runtime = _runtime(TableSource(_storage()))
    statement = Statement(runtime, JOIN)
    write = WRITES["update"][statement.build_table()]
    original, _counts = statement.run()
    connection = connect(runtime)
    connection.autocommit = False
    cursor = connection.cursor()
    cursor.execute(write)
    connection.rollback()
    assert statement.run() == (original, REUSED)
    # Read mid-transaction: a table is built over that version ...
    cursor.execute(write)
    mid, counts = statement.run()
    assert mid != original and counts == BUILT
    connection.rollback()
    # ... and is gone with it; the next commit draws a fresh token.
    assert statement.run() == (original, BUILT)
    connection.autocommit = True
    cursor.execute(write)
    assert statement.run() == (mid, BUILT)
    runtime.close()


def _xml(name: str, rows: list, columns: list) -> str:
    body = "".join(
        "<ROW>" + "".join(f"<{column}>{value}</{column}>"
                          for column, value in zip(columns, row))
        + "</ROW>" for row in rows)
    return f"<{name}>{body}</{name}>"


def test_a_rewritten_xml_file_rebuilds_the_table(tmp_path):
    declared = {"L": [("ID", SQLType("INTEGER")), ("K", SQLType("INTEGER")),
                      ("S", SQLType("VARCHAR"))],
                "R": [("RK", SQLType("INTEGER")),
                      ("V", SQLType("VARCHAR"))]}
    rows = {"L": [(i, i % 3, f"s{i}") for i in range(6)],
            "R": [(k, f"v{k}") for k in range(3)]}
    for table, table_rows in rows.items():
        (tmp_path / f"{table}.xml").write_text(_xml(
            table, table_rows, [name for name, _t in declared[table]]))
    runtime = _runtime(XMLFileSource(tmp_path, columns=declared))
    statement = Statement(runtime, JOIN)
    built = statement.build_table()
    before, _counts = statement.run()
    assert statement.run() == (before, REUSED)
    rewritten = ([(i, i % 2, f"t{i}") for i in range(9)] if built == "L"
                 else [(k, f"w{k}x") for k in range(2)])
    (tmp_path / f"{built}.xml").write_text(_xml(
        built, rewritten, [name for name, _t in declared[built]]))
    after, counts = statement.run()
    assert after != before and counts == BUILT
    assert statement.run() == (after, REUSED)
    runtime.close()


class _Unversioned(TableSource):
    """An SPI source that offers no staleness token: nothing it serves
    may be cached, so its join tables are never reused."""

    def version(self, table: str):
        return None


def test_a_source_without_version_tokens_builds_every_time():
    runtime = _runtime(_Unversioned(_storage()))
    statement = Statement(runtime, JOIN)
    first, _counts = statement.run()
    for _ in range(3):
        assert statement.run() == (first, BUILT)
    assert runtime._table_columns == {}
    runtime.close()


# -- plan shapes --------------------------------------------------------------

SHAPES = {
    "left_outer": ("SELECT F.ID, D.QTY FROM FACTS F "
                   "LEFT OUTER JOIN DETAILS D ON F.ID = D.FACTID", (),
                   REUSED),
    "composite": ("SELECT F.ID, D.QTY FROM FACTS F INNER JOIN DETAILS D "
                  "ON F.ID = D.FACTID AND F.ID = D.DETAILID", (), REUSED),
    # A leading join on the selective conjunct (DETAILS is below the
    # memory index's threshold, so its scan is the cached one), FACTS
    # built next, and the probe order restored from both variables'
    # ordinals: both tables are kept.
    "restore_order": ("SELECT F.ID, D.QTY FROM FACTS F INNER JOIN DETAILS D "
                      "ON F.ID = D.FACTID WHERE D.DETAILID = ?", (11,),
                      (0, 2)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_plan_shapes_probe_the_kept_table(shape, batch_size):
    sql, params, second = SHAPES[shape]
    runtime = _runtime(build_scaled_storage(120), batch_size)
    statement = Statement(runtime, sql)
    names = [op.name for op in statement.plan().vector_plan.lowered.ops]
    assert ("restore_order" in names) == (shape == "restore_order")
    first, _counts = statement.run(*params)
    assert first[0].count(">") > 1  # (real rows)
    assert statement.run(*params) == (first, second)
    runtime.close()


def _keyed_storage() -> Storage:
    """A / B joined on DOUBLE keys holding NULL and NaN (equal to
    nothing) besides real matches."""
    storage = Storage()
    storage.create_table("A", [("ID", SQLType("INTEGER")),
                               ("X", SQLType("DOUBLE"))]).replace_rows(
        [(0, 1.5), (1, NAN), (2, 2.5), (3, None), (4, 2.5)])
    storage.create_table("B", [("BID", SQLType("INTEGER")),
                               ("Y", SQLType("DOUBLE"))]).replace_rows(
        [(0, NAN), (1, 2.5), (2, None), (3, 1.5), (4, 2.5)])
    return storage


@pytest.mark.parametrize("join", ["INNER JOIN", "LEFT OUTER JOIN"])
def test_null_and_nan_keys_are_never_stored(join):
    runtime = _runtime(_keyed_storage())
    statement = Statement(runtime,
                          f"SELECT A.ID, B.BID FROM A {join} B ON A.X = B.Y")
    first, _counts = statement.run()
    assert statement.run() == (first, REUSED)
    (_keys, (_categories, table, pairwise)), = [
        item for entry in runtime._table_columns.values()
        for item in entry.join_tables.items()]
    assert not pairwise and len(table) == 2  # 1.5 and 2.5
    runtime.close()


def test_another_category_probes_the_kept_table_pairwise():
    """A build of numbers probed by a string: the probe key of a
    leading join over B reads the parameter (no pushdown, so B's scan
    is a plain one and its table is kept, as A's is). The kept
    categories send the string pair by pair, where ``eq`` raises its
    type error on every leg — before A's join opens; a number then
    probes both kept tables. The same holds for the second position of
    a two-key join over B."""
    for where, numbers, strings, rows in [
            ("B.Y = ?", (2.5,), ("2.5",), ">2>1>2>4>4>1>4>4"),
            ("B.Y = ? AND B.BID = ?", (2.5, 1), (2.5, "1"), ">2>1>4>1")]:
        runtime = without_pushdown(_runtime(_keyed_storage()))
        statement = Statement(
            runtime, "SELECT A.ID, B.BID FROM A INNER JOIN B "
                     "ON A.X = B.Y WHERE " + where)
        assert statement.run(*numbers) == ([rows], (2, 0))
        failed, counts = statement.run(*strings)
        assert isinstance(failed, type) and counts == REUSED
        assert statement.run(*numbers) == ([rows], (0, 2))
        runtime.close()


def test_a_mixed_category_build_keeps_its_pairwise_flag():
    """A build column mixing categories (a source trusted for its
    declared type that hands a VARCHAR column a number) probes pair by
    pair; the kept table remembers that. NULL probe keys compare with
    nothing, so every row is padded once on every leg."""
    storage = Storage()
    storage.create_table("A", [("ID", SQLType("INTEGER")),
                               ("K", SQLType("VARCHAR"))]).replace_rows(
        [(0, None), (1, None)])
    storage.create_table("B", [("BID", SQLType("INTEGER")),
                               ("K2", SQLType("VARCHAR"))]).replace_rows(
        [(0, "x"), (1, 5), (2, None)])
    runtime = _runtime(storage)
    statement = Statement(runtime, "SELECT A.ID, B.BID FROM A "
                                   "LEFT OUTER JOIN B ON A.K = B.K2")
    assert statement.run() == ([">0<>1<"], BUILT)
    assert statement.run() == ([">0<>1<"], REUSED)
    (_keys, kept), = [item for entry in runtime._table_columns.values()
                      for item in entry.join_tables.items()]
    assert kept == (None, {}, True)
    runtime.close()


# -- concurrency --------------------------------------------------------------


def test_scattered_plans_return_the_serial_rows(monkeypatch):
    """The report join the retired pool used to scatter runs on the
    one plan whatever the retired variables say: the same rows, one
    build, then reuse."""
    storage, oracle = build_scaled_storage(300), {}
    serial = _runtime(storage)
    expected, _counts = Statement(serial, REPORT_JOIN, oracle).run()
    monkeypatch.setenv("REPRO_PARALLELISM", "2")
    monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "0")
    runtime = _runtime(storage)
    try:
        statement = Statement(runtime, REPORT_JOIN, oracle)
        assert [statement.run() for _ in range(2)] == \
            [(expected, BUILT), (expected, REUSED)]
        assert not [name for name in runtime.metrics.snapshot()["counters"]
                    if name.startswith("parallel.")]
    finally:
        runtime.close()
        serial.close()


#: More threads than cores, each running the prepared join this often.
THREADS, RUNS = (os.cpu_count() or 1) + 2, 25


def _in_threads(worker) -> None:
    """Run *worker* on :data:`THREADS` threads that switch often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("warm", [True, False])
def test_threads_run_one_prepared_join(warm):
    """Warm, the table one execution built serves every run; cold,
    concurrent first executions may each build it (the last to publish
    wins) and every later one probes whichever was kept."""
    runtime = _runtime(build_scaled_storage(200), 64)
    statement = Statement(runtime, REPORT_JOIN)
    plan = statement.plan()
    expected = "".join(plan.stream_chunks()) if warm else None
    barrier = threading.Barrier(THREADS, timeout=120)
    results: list = []

    def worker():
        barrier.wait()
        results.extend("".join(plan.stream_chunks()) for _ in range(RUNS))

    builds, reuses = moved(runtime, lambda: _in_threads(worker))
    assert len(results) == THREADS * RUNS and len(set(results)) == 1
    assert [results[0]] == statement.run()[0]
    assert expected in (None, results[0])
    assert builds + reuses == THREADS * RUNS
    assert (builds == 0) if warm else (1 <= builds <= THREADS)
    runtime.close()


# -- what the runtime holds ---------------------------------------------------


def _is_build_table(obj) -> bool:
    """The ``(categories, table, pairwise)`` triple a join keeps."""
    return (type(obj) is tuple and len(obj) == 3
            and type(obj[2]) is bool and type(obj[1]) is dict
            and (obj[0] is None or type(obj[0]) is list)
            and all(type(rows) is list for rows in obj[1].values()))


def reachable_build_tables(*roots) -> int:
    """Build tables reachable from *roots* (module globals and classes
    are not followed: they hold no execution's state)."""
    skip = {id(vars(module)) for module in list(sys.modules.values())
            if module is not None}
    seen: set = set()
    stack = list(roots)
    found = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skip \
                or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found += _is_build_table(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_re_plans_and_distinct_texts_share_one_table_per_version():
    """The hash table lives in the column cache, not on the plan: 20
    re-plans of one statement (the plan cache is emptied before each,
    and every plan is kept) and 20 texts joining on the same key hold
    one table."""
    runtime = _runtime(build_scaled_storage(200))
    connection = connect(runtime)
    cursor = connection.cursor()
    plans = []
    for _ in range(20):
        runtime.plan_cache.clear()
        cursor.execute(REPORT_JOIN)
        assert cursor.fetchall()
        plans.extend(runtime.plan_cache.copy().values())
    assert len({id(plan) for plan in plans}) == 20
    assert reachable_build_tables(runtime, connection, plans) == 1
    for extra in range(20):
        cursor.execute(REPORT_JOIN.replace("D.QTY", f"D.QTY + {extra}"))
        assert cursor.fetchall()
    assert reachable_build_tables(runtime, connection) == 1
    # A new version replaces the table with the columns it indexes.
    cursor.execute("INSERT INTO DETAILS VALUES (?, ?, ?, ?)",
                   (9999, 1, 1, datetime.date(2005, 1, 1)))
    cursor.execute(REPORT_JOIN)
    assert cursor.fetchall()
    assert reachable_build_tables(runtime, connection) == 1
    connection.close()
    runtime.close()


# -- observability ------------------------------------------------------------

LABELS = {
    REPORT_JOIN: "hash-join $var1FR1 (1 keys, built once, "
                 "reused per table version)",
    REPORT_JOIN + " WHERE F.REGION = ?": "reused per table version",
    "SELECT F.ID, D.QTY FROM FACTS F LEFT OUTER JOIN DETAILS D "
    "ON F.ID = D.FACTID AND D.QTY > 3": "not reused: build filters",
    "SELECT F.ID, T.Q FROM FACTS F LEFT OUTER JOIN "
    "(SELECT FACTID, QTY Q FROM DETAILS) AS T ON F.ID = T.FACTID":
        "not reused: sub-plan",
    "SELECT F.ID, D.QTY FROM FACTS F LEFT OUTER JOIN DETAILS D "
    "ON F.ID = D.FACTID - 1": "not reused: computed key",
}


@pytest.mark.parametrize("sql", sorted(LABELS))
def test_explain_says_whether_the_table_is_reused(sql):
    runtime = _runtime(build_scaled_storage(200))
    labels = [node["label"] for report in Statement(runtime, sql).plan()
              .plan_reports for node in report["nodes"]
              if "hash join" in node["label"]
              or "hash-join" in node["label"]]
    assert any(LABELS[sql] in label for label in labels), labels
    assert all("reused per table version" in label
               or "not reused: " in label for label in labels), labels
    runtime.close()


def test_connection_stats_count_builds_and_reuses():
    connection = connect(_runtime(build_scaled_storage(2_000)))
    cursor = connection.cursor()

    def counters():
        found = connection.stats()["runtime"]["counters"]
        return found["vector.join_builds"], found["vector.join_reuses"]

    sql = REPORT_JOIN + " WHERE F.REGION = ?"
    before = VSTATS.join_builds, VSTATS.join_reuses
    cursor.execute(sql, ("WEST",))
    first = cursor.fetchall()
    assert counters() == (2, 0)
    cursor.execute(sql, ("WEST",))
    # DETAILS is probed again; FACTS is index-pushed and still builds.
    assert cursor.fetchall() == first
    assert counters() == (3, 1)
    assert (VSTATS.join_builds - before[0],
            VSTATS.join_reuses - before[1]) == (3, 1)
    connection.close()


def test_a_declined_request_probes_the_kept_table():
    """Below ``index_min_rows`` the memory source declines the pushed
    ``REGION`` conjunct, so FACTS is read from the column cache; the
    leading join over it probes the table kept for that version instead
    of hashing the rows again on every execution."""
    runtime = build_scaled_runtime(200)
    statement = Statement(runtime, REPORT_JOIN + " WHERE F.REGION = ?",
                          oracle={})
    first, _counts = statement.run("WEST")
    east, counts = statement.run("EAST")
    assert first[0].count(">") > 1 and east != first and counts == (0, 2)
    assert statement.run("WEST") == (first, (0, 2))
    counters = runtime.metrics.snapshot()["counters"]
    assert counters.get("sources.rows_pushed", 0) == 0
    runtime.close()


# -- a replaced source --------------------------------------------------------


def _source_runtime(batch_size: int) -> tuple:
    """A runtime over a registered source ``mem``, and a second source
    of that name whose tables carry the same tokens over other rows."""
    first = TableSource(build_scaled_storage(100), name="mem")
    storage = build_scaled_storage(99)
    storage.table("FACTS").insert(99, "Replaced", "WEST", None)
    for detail_id in (198, 199):
        storage.table("DETAILS").insert(detail_id, 99, 7, None)
    second = TableSource(storage, name="mem")
    for table in ("FACTS", "DETAILS"):
        assert first.version(table) == second.version(table)
    application = Application("ReuseApp")
    import_source(application, "Reuse", first)
    runtime = DSPRuntime(application, None,
                         config=RuntimeConfig(batch_size=batch_size))
    runtime.register_source(first)
    return runtime, second


@pytest.mark.parametrize("batch_size", [0, 1024])
def test_a_replaced_source_is_read_not_its_predecessors_cache(batch_size):
    runtime, second = _source_runtime(batch_size)
    cursor = connect(runtime).cursor()
    queries = {
        "SELECT ID, NAME FROM FACTS WHERE ID > 97": (
            [(98, "Ajax Distributors"), (99, "Zenith Parts and Service")],
            [(98, "Ajax Distributors"), (99, "Replaced")]),
        REPORT_JOIN + " WHERE F.ID > 98": (
            [(99, "Zenith Parts and Service", 99, 14),
             (99, "Zenith Parts and Service", 199, 12)],
            [(99, "Replaced", 198, 7), (99, "Replaced", 199, 7)]),
    }
    for _ in range(2):  # the second run reads the caches
        for sql, (old, _new) in queries.items():
            cursor.execute(sql)
            assert sorted(cursor.fetchall()) == old
    runtime.register_source(second)
    for _ in range(2):
        for sql, (_old, new) in queries.items():
            cursor.execute(sql)
            assert sorted(cursor.fetchall()) == new
    runtime.close()
