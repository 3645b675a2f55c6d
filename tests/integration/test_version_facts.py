"""A table version's column facts follow the version.

An embedded cursor hands a scanned table's output column over as the
plan computed it when the facts of the version it was read from vouch
for it: one exact kind, its guard passed on the whole column
(``_TableScan.fact``). A source's declared types are not enforced, and
``coerce_value`` admits cells whose lexical form does not read back as
themselves: ``Decimal('1E+2')`` and ``Decimal('NaN')``, ``-0.0``, a
``time`` with a zone, an ``IntEnum`` member in an INTEGER column. Here
they are mixed with regular cells, on a memory and a SQLite table, and
read through a filter, a join, an outer join, ORDER BY and LIMIT at
batch sizes 1, 2 and 1024: the typed rows must be the decoder's rows of
the plan's own delimited text, in ``repr`` and cell type. An UPDATE
that writes ``Decimal('1E+2')`` into a column whose facts vouched for
it must be read back as ``Decimal('100')``: a fact may not outlive its
version.

A held version's low-cardinality columns are also filtered and grouped
by dictionary code (``_TableScan.codes``). Their differential runs
columns of NULLs, NaN, ``-0.0``, ``Decimal('1E+2')`` beside
``Decimal('100')``, str mixed with int, and exactly 256 or 257 distinct
values through ``<>``, ``=``, ``IN``, GROUP BY with COUNT / SUM / AVG /
MIN and a join, at batch sizes 1, 2 and 1024, before and after an
UPDATE, on memory and SQLite: rows, cell types and group order must be
the Evaluator's, and a statement raises on one leg if and only if it
raises on the other.

``REPRO_FUZZ_SEED`` shifts the hypothesis seed (CI's shifted-seed step
runs this file).
"""

from __future__ import annotations

import datetime
import enum
import os
import sys
import threading
from decimal import Decimal

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import connect
from repro.catalog import Application
from repro.driver import Error
from repro.driver.codec import decode_delimited
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sources.sqlite import SQLiteSource
from repro.sql.types import SQLType
from repro.xquery.vector import dictionary_codes
from tests.fuzz.harness import evaluator_leg, typed

SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
UTC_PLUS_2 = datetime.timezone(datetime.timedelta(hours=2))


class Kind(enum.IntEnum):
    TWO = 2


COLUMNS = {
    "T": [("ID", "INTEGER"), ("K", "INTEGER"), ("D", "DECIMAL"),
          ("F", "DOUBLE"), ("TM", "TIME"), ("S", "VARCHAR")],
    "U": [("ID", "INTEGER"), ("K", "INTEGER"), ("Q", "DECIMAL"),
          ("F", "DOUBLE")],
}

#: Per column type, cells whose lexical form reads back as themselves,
#: and those that do not (no VARCHAR cell is irregular).
REGULAR = {
    "INTEGER": st.integers(-3, 3),
    "DECIMAL": st.sampled_from([Decimal("1.50"), Decimal("-2"),
                                Decimal("0.07")]),
    "DOUBLE": st.sampled_from([1.5, 0.0, -2.25]),
    "TIME": st.sampled_from([datetime.time(1, 2),
                             datetime.time(23, 59, 59, 5)]),
    "VARCHAR": st.sampled_from(["a", "a<b", ""]),
}
IRREGULAR = {
    "INTEGER": st.just(Kind.TWO),
    "DECIMAL": st.sampled_from([Decimal("1E+2"), Decimal("NaN")]),
    "DOUBLE": st.just(-0.0),
    "TIME": st.just(datetime.time(1, 2, tzinfo=UTC_PLUS_2)),
}

STATEMENTS = (
    ("SELECT * FROM T", ()),
    ("SELECT ID, K, D, F, TM FROM T WHERE ID > ?", (1,)),
    ("SELECT T.K, T.D, U.Q, U.F FROM T INNER JOIN U ON T.ID = U.ID", ()),
    ("SELECT T.ID, T.TM, U.K, U.Q FROM T LEFT OUTER JOIN U "
     "ON T.ID = U.ID", ()),
    ("SELECT D, F, TM, K FROM T ORDER BY ID DESC", ()),
    ("SELECT ID, D, TM, S FROM T ORDER BY ID LIMIT 3 OFFSET 1", ()),
    # A computed cell is observed: 0.0 * -1 is -0.0.
    ("SELECT F, F * -1, K + 0 FROM T", ()),
)


@st.composite
def tables(draw) -> dict:
    """Per table, its cells column by column: an ``ID`` key, then per
    column either regular cells or a mix with irregular ones (NULLs in
    both)."""
    drawn = {}
    for name, columns in COLUMNS.items():
        rows = draw(st.integers(0, 6))
        cells = [list(range(rows))]
        for _column, sql_type in columns[1:]:
            kind = REGULAR[sql_type]
            if sql_type in IRREGULAR and draw(st.booleans()):
                kind = kind | IRREGULAR[sql_type]
            cells.append(draw(st.lists(st.none() | kind, min_size=rows,
                                       max_size=rows)))
        drawn[name] = cells
    return drawn


def _runtime(drawn: dict, backend: str, batch_size: int) -> DSPRuntime:
    storage = Storage()
    for name, columns in COLUMNS.items():
        table = storage.create_table(
            name, [(column, SQLType(kind)) for column, kind in columns])
        for row in zip(*drawn[name]):
            table.insert(*row)
    source = SQLiteSource.from_storage(storage) \
        if backend == "sqlite" else storage
    application = Application("FactsApp")
    import_tables(application, "Facts", source)
    runtime = DSPRuntime(application, source)
    # Pinned: a forced batch size must not move the boundaries tested.
    runtime.batch_size = batch_size
    return runtime


def _text_rows(cursor, sql: str, params) -> list:
    """The decoder's rows of the plan's own text for *sql*."""
    cursor.execute(sql, params)
    pages, last = [], False
    while not last:
        text, _rows, last = cursor.fetch_text(1_000)
        pages.append(text)
    return decode_delimited("".join(pages), cursor.columns)


def _same_rows(cursor, sql: str, params) -> None:
    cursor.execute(sql, params)
    typed = cursor.fetchall()
    decoded = _text_rows(cursor, sql, params)
    assert [repr(row) for row in typed] == [repr(row) for row in decoded]
    assert [list(map(type, row)) for row in typed] == \
        [list(map(type, row)) for row in decoded], sql


def _as_computed(connection) -> int:
    return connection.stats()["runtime"]["counters"][
        "vector.as_computed_columns"]


@seed(SEED_BASE)
@settings(max_examples=25, deadline=None)
@given(drawn=tables())
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_typed_rows_are_the_decoded_text_of_every_version(backend, drawn):
    for batch_size in (1, 2, 1024):
        connection = connect(_runtime(drawn, backend, batch_size))
        cursor = connection.cursor()
        # Hold both versions, so every read below is served from the
        # column cache with its facts (a version's first read of a
        # filter is pushed and has none).
        for table in COLUMNS:
            cursor.execute(f"SELECT * FROM {table}")
            cursor.fetchall()
        for sql, params in STATEMENTS:
            _same_rows(cursor, sql, params)
        if drawn["T"][0]:
            cursor.execute("UPDATE T SET D = ?, TM = ? WHERE ID = ?",
                           (Decimal("1E+2"),
                            datetime.time(1, 2, tzinfo=UTC_PLUS_2), 0))
            for sql, params in STATEMENTS:
                _same_rows(cursor, sql, params)
        connection.close()


@seed(SEED_BASE)
@settings(max_examples=25, deadline=None)
@given(drawn=tables())
def test_facts_vouch_for_exactly_the_regular_columns(drawn):
    """On memory, where cells are stored as given: a warm ``SELECT *``
    hands over on facts exactly the columns that hold no irregular
    cell, once per batch."""
    connection = connect(_runtime(drawn, "memory", 2))
    cursor = connection.cursor()
    cursor.execute("SELECT * FROM T")
    cursor.fetchall()
    before = _as_computed(connection)
    cursor.execute("SELECT * FROM T")
    cursor.fetchall()
    irregular = (Kind.TWO, Decimal("1E+2"), -0.0,
                 datetime.time(1, 2, tzinfo=UTC_PLUS_2))
    regular = sum(
        not any(repr(cell) in map(repr, irregular) or cell != cell
                for cell in column if cell is not None)
        for column in drawn["T"])
    batches = -(-len(drawn["T"][0]) // 2)
    assert _as_computed(connection) - before == regular * batches


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_write_gives_the_next_read_new_facts(backend):
    drawn = {"T": [[0, 1], [1, 2], [Decimal("1.50"), Decimal("2")],
                   [1.5, 2.5], [None, datetime.time(1, 2)], ["a", "b"]],
             "U": [[], [], [], []]}
    connection = connect(_runtime(drawn, backend, 1024))
    cursor = connection.cursor()
    cursor.execute("SELECT * FROM T")  # holds the version
    cursor.fetchall()
    before = _as_computed(connection)
    cursor.execute("SELECT ID, D FROM T")
    assert cursor.fetchall() == [(0, Decimal("1.50")), (1, Decimal("2"))]
    assert _as_computed(connection) - before == 2  # D's fact vouched
    cursor.execute("UPDATE T SET D = ? WHERE ID = ?", (Decimal("1E+2"), 1))
    cursor.execute("SELECT * FROM T")  # the new version's plain scan
    cursor.fetchall()
    for _ in range(2):
        cursor.execute("SELECT ID, D FROM T")
        rows = cursor.fetchall()
        assert repr(rows) == repr([(0, Decimal("1.50")),
                                   (1, Decimal("100"))])
    connection.close()


def test_racing_first_reads_of_a_version_agree():
    """Threads reading one fresh version at once may each compute a
    column's fact; whichever is kept, every reader's rows are right."""
    drawn = {"T": [list(range(40)), [i % 3 for i in range(40)],
                   [Decimal(i) / 4 for i in range(40)],
                   [float(i) for i in range(40)],
                   [datetime.time(i % 24) for i in range(40)],
                   [str(i) for i in range(40)]],
             "U": [[], [], [], []]}
    runtime = _runtime(drawn, "memory", 7)
    expected = [tuple(row) for row in zip(*drawn["T"])]
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            runtime.storage.table("T").insert(
                99, 1, Decimal("1.5"), 1.5, datetime.time(1), "x")
            expected.append((99, 1, Decimal("1.5"), 1.5,
                             datetime.time(1), "x"))

            def read():
                cursor = connect(runtime).cursor()
                cursor.execute("SELECT * FROM T")
                results.append(repr(cursor.fetchall()) == repr(expected))

            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 30


CODED_COLUMNS = {
    "C": [("ID", "INTEGER"), ("S", "VARCHAR"), ("N", "INTEGER"),
          ("D", "DECIMAL"), ("F", "DOUBLE"), ("W", "VARCHAR"),
          ("X", "VARCHAR")],
    "U": [("ID", "INTEGER"), ("S", "VARCHAR"), ("Q", "INTEGER")],
}

#: Per column, the cells a drawn pattern repeats down the table: few
#: distinct values, NULL among them; D and F hold cells dict equality
#: merges or splits unlike the comparison (no codes), X str beside int.
CODED_CELLS = {
    "S": st.sampled_from(["a", "b", "c<", ""]),
    "N": st.integers(-1, 2),
    "D": st.sampled_from([Decimal("100"), Decimal("1E+2"), Decimal("NaN"),
                          Decimal("0.5")]),
    "F": st.sampled_from([0.0, -0.0, float("nan"), 1.5]),
    "X": st.sampled_from(["a", "b", 3]),
    "Q": st.integers(0, 3),
}

CODED_STATEMENTS = (
    ("SELECT ID, S FROM C WHERE S <> ?", ("a",)),
    ("SELECT ID, N, D FROM C WHERE N = ?", (1,)),
    ("SELECT ID FROM C WHERE S IN ('a', 'c<') AND N <> ?", (0,)),
    ("SELECT ID, W FROM C WHERE W <> ?", ("w1",)),
    ("SELECT ID, D, F FROM C WHERE D <> ?", (Decimal("100"),)),
    ("SELECT ID, F FROM C WHERE F = ?", (0.0,)),
    ("SELECT ID, X FROM C WHERE X IS NOT NULL", ()),
    # A value raising under the condition may sit only in dropped rows.
    ("SELECT ID FROM C WHERE ID > ? AND 10 / (N - 1) > 0", (2,)),
    ("SELECT S, COUNT(*), SUM(D), AVG(N), MIN(F) FROM C WHERE N <> ? "
     "GROUP BY S", (2,)),
    ("SELECT N, S, COUNT(*), SUM(N), MIN(S) FROM C GROUP BY N, S", ()),
    ("SELECT W, COUNT(*), MAX(ID) FROM C GROUP BY W", ()),
    ("SELECT D, COUNT(*), SUM(F) FROM C GROUP BY D", ()),
    ("SELECT F, COUNT(*), AVG(D) FROM C WHERE F <> ? GROUP BY F", (1.5,)),
    ("SELECT X, COUNT(*) FROM C GROUP BY X", ()),
    ("SELECT C.ID, U.Q FROM C INNER JOIN U ON C.S = U.S WHERE C.N <> ?",
     (0,)),
    ("SELECT C.S, COUNT(*), SUM(U.Q) FROM C INNER JOIN U ON C.ID = U.ID "
     "WHERE C.S <> ? GROUP BY C.S", ("b",)),
)

#: A write that gives S a value the old version's codes lack and D a
#: cell whose lexical form is not itself (and X a str: a memory write
#: coerces the whole row).
CODED_UPDATE = ("UPDATE C SET S = ?, D = ?, X = ? WHERE ID = ?",
                ("z", Decimal("1E+2"), "a", 0))


@st.composite
def coded_tables(draw) -> dict:
    """Per table, its cells column by column. C has 0–12 rows, or, for
    a wide W, one row per W value and up to 3 more: W holds 2, 256 or
    257 distinct values; every other column repeats a drawn pattern."""
    width = draw(st.sampled_from([2, 256, 257]))
    rows = draw(st.integers(0, 12)) if width == 2 \
        else width + draw(st.integers(0, 3))
    drawn = {}
    for name, columns in CODED_COLUMNS.items():
        count = rows if name == "C" else draw(st.integers(0, 6))
        cells = [list(range(count))]
        for column, _sql_type in columns[1:]:
            if column == "W":
                cells.append([f"w{i * 7 % width}" for i in range(count)])
                continue
            pattern = draw(st.lists(st.none() | CODED_CELLS[column],
                                    min_size=1, max_size=5))
            step = draw(st.integers(1, 3))
            cells.append([pattern[i * step % len(pattern)]
                          for i in range(count)])
        drawn[name] = cells
    return drawn


def _coded_runtime(drawn: dict, backend: str, batch_size: int,
                   evaluator: bool) -> DSPRuntime:
    """A runtime over its own copy of *drawn*; X's int cells are stored
    as they are (``replace_rows`` does not coerce)."""
    storage = Storage()
    for name, columns in CODED_COLUMNS.items():
        table = storage.create_table(
            name, [(column, SQLType(kind)) for column, kind in columns])
        table.replace_rows([tuple(row) for row in zip(*drawn[name])])
    source = SQLiteSource.from_storage(storage) \
        if backend == "sqlite" else storage
    application = Application("CodedApp")
    import_tables(application, "Coded", source)
    runtime = DSPRuntime(application, source)
    runtime.batch_size = batch_size
    return evaluator_leg(runtime) if evaluator else runtime


def _outcomes(connection) -> list:
    """Per statement, its typed rows, or the driver's error class;
    before and after :data:`CODED_UPDATE`, each version held first."""
    cursor = connection.cursor()
    outcomes = []
    for write in (None, CODED_UPDATE):
        if write is not None:
            cursor.execute(*write)
        for table in CODED_COLUMNS:
            cursor.execute(f"SELECT * FROM {table}")
            cursor.fetchall()
        for sql, params in CODED_STATEMENTS:
            try:
                cursor.execute(sql, params)
                outcomes.append((sql, repr(typed(cursor.fetchall()))))
            except Error as error:
                outcomes.append((sql, type(error).__name__))
    return outcomes


@seed(SEED_BASE)
@settings(max_examples=12, deadline=None)
@given(drawn=coded_tables())
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_coded_filters_and_groups_match_the_evaluator(backend, drawn):
    expected = _outcomes(connect(_coded_runtime(drawn, backend, 1, True)))
    for batch_size in (1, 2, 1024):
        runtime = _coded_runtime(drawn, backend, batch_size, False)
        assert _outcomes(connect(runtime)) == expected, batch_size
        if len(set(drawn["C"][1])) < len(drawn["C"][1]):
            # The code paths ran: the held C version's S is coded.
            held = [entry for (_uri, name), entry
                    in runtime._table_columns.items() if name == "C"]
            assert held[0].dictionaries.get(1) is not None


@pytest.mark.parametrize("width", [256, 257])
def test_a_column_is_coded_up_to_256_distinct_values(width):
    """NULL is a value of its own; the codes rebuild the column."""
    col = [None] + [f"v{i % (width - 1)}" for i in range(3_000)]
    found = dictionary_codes(col)
    if width == 257:
        assert found is None
        return
    values, codes = found
    assert values == list(dict.fromkeys(col))
    assert [values[code] for code in codes] == col


def test_a_wide_column_is_given_up_within_its_first_1024_rows():
    # (the unhashable cell after them is never read)
    assert dictionary_codes(list(range(2_000)) + [[]]) is None
    assert dictionary_codes(["a"] * 1_024 + list(range(300))) is None


def test_a_column_of_distinct_cells_is_not_coded():
    assert dictionary_codes(["a", "b", None]) is None
    assert dictionary_codes(["a", "b", "a"]) == (["a", "b"], b"\x00\x01\x00")
