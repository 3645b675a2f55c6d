"""A record-set sub-plan's cells cross the RECORD boundary as computed.

The Evaluator reads a RECORD child back as ``UntypedAtomic(
serialize_atomic(v))``; the batch executor hands its readers that
*view* (``vector._untyped``), except where reading the value itself is
proven to be the same: an ``xs:`` cast that maps the cell's kind onto
itself (``vector._CAST_IDENTITY``), and the delimited encoder, which
applies the serialiser the view would. Here:

* every identity pair is proven cell by cell (same value, type, repr),
  and the cast kernel equals the per-cell cast of the view on any
  column;
* raw and view columns encode to the same text;
* derived tables holding each SQL type, the known exceptions
  (``Decimal('1E+2')``, ``-0.0``), NaN, mixed kinds, DISTINCT / UNION
  ALL / IN over record sets and an uncast aggregate return the
  Evaluator's rows — or its error — at batch sizes 1, 2 and 1024, in
  both result formats;
* what EXPLAIN says crosses typed is what runs: ``cast_to`` and
  ``serialize_atomic`` are never called in a warm ``nested`` execution,
  and ``vector.untyped_views`` counts the one column read as a view.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.driver import connect
from repro.engine import Storage
from repro.xquery import vector
from repro.xquery.atomic import UntypedAtomic, cast_to, serialize_atomic
from repro.xquery.compile import compile_module
from repro.xquery.parser import parse_xquery
from repro.xquery.vector import (
    _CAST_IDENTITY,
    VSTATS,
    _Batch,
    _cast_kernel,
    _untyped,
    encode_columns,
)

from tests.fuzz.harness import typed
from tests.xquery.test_vector_kernels import (
    COLUMNS,
    EVALUATOR,
    GATED,
    KINDS,
    _cursor_rows,
    _runtime,
    _scaled_runtime,
    _table,
)

BATCH_SIZES = (1, 2, 1024)
FORMATS = ("delimited", "xml")
NAN = float("nan")


@pytest.fixture(autouse=True)
def _pin_executor_shape(monkeypatch):
    """Batch sizes are pinned per test: a CI leg's override must not
    reshape the plans whose boundary notes are asserted on."""
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)


def _view_cell(value) -> UntypedAtomic:
    return UntypedAtomic(serialize_atomic(value))


def _state():
    return SimpleNamespace(plan=SimpleNamespace(columnar=None), ctx=None)


# -- the identity table, cell by cell -----------------------------------------

#: Cells of each identity pair's kind, the awkward ones included.
PAIR_CELLS = {
    int: st.integers(-10**30, 10**30),
    Decimal: KINDS["decimal"] | st.sampled_from(
        [Decimal("1.50"), Decimal("1.5E-7"), Decimal("0E-5"),
         Decimal("-0.00"), Decimal("123456789012345678901234567.8")]),
    float: st.floats(allow_nan=False) | st.sampled_from(
        [1e16, 1e15, 0.1, 5e-324, 1.7976931348623157e308, NAN]),
    str: st.text(alphabet="ab &<' \t\n0", max_size=6),
    bool: st.booleans(),
    datetime.date: st.dates(),
    datetime.time: st.times(),
    datetime.datetime: st.datetimes(),
}

PAIRS = [(target, kind) for target, kinds in _CAST_IDENTITY.items()
         for kind in kinds]


def _same(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("target, kind", PAIRS,
                         ids=[f"{k.__name__}->{t}" for t, k in PAIRS])
@given(data=st.data())
def test_identity_pair_casts_every_guarded_cell_onto_itself(target, kind,
                                                            data):
    value = data.draw(PAIR_CELLS[kind])
    guard = _CAST_IDENTITY[target][kind]
    if guard is True or guard([value]):
        assert _same(cast_to(target, [_view_cell(value)])[0], value)


@pytest.mark.parametrize("target, value, cast", [
    ("decimal", Decimal("1E+2"), Decimal("100")),
    ("decimal", Decimal("0E+3"), Decimal("0")),
    ("double", -0.0, 0.0),
    ("float", -0.0, 0.0),
])
def test_the_known_exceptions_fail_their_column_guard(target, value, cast):
    guard = _CAST_IDENTITY[target][type(value)]
    assert not guard([None, value])
    assert _same(cast_to(target, [_view_cell(value)])[0], cast)
    assert not _same(cast, value)


def test_a_guard_passes_a_column_without_an_exception():
    assert _CAST_IDENTITY["decimal"][Decimal](
        [Decimal("1.50"), None, Decimal("-3")])
    assert _CAST_IDENTITY["double"][float]([0.0, 1.5, NAN, None])


def _per_cell(target: str, col: list):
    try:
        return [None if v is None else cast_to(target, [_view_cell(v)])[0]
                for v in col]
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("target", sorted(
    vector._XS_CONSTRUCTOR_TYPES))
@given(col=COLUMNS)
def test_cast_kernel_is_the_cast_of_each_cells_view(target, col):
    kernel = _cast_kernel(target, lambda state, batch: batch.cols["c"])
    try:
        got = kernel(_state(), _Batch(len(col), {"c": col}))
    except Exception as exc:
        got = type(exc), str(exc)
    expected = _per_cell(target, col)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert len(got) == len(expected)
        assert all(a is b is None or _same(a, b)
                   for a, b in zip(got, expected)), (got, expected)


# -- views, and encoding raw columns ------------------------------------------


@given(COLUMNS)
def test_view_is_the_view_of_each_cell(col):
    assert [None if v is None else (type(v), v) for v in _untyped(col)] \
        == [None if v is None else (UntypedAtomic, _view_cell(v))
            for v in col]


def _encoded(col: list) -> str:
    return encode_columns([col]) if col else ""


@given(COLUMNS)
def test_a_raw_column_encodes_as_its_view(col):
    """``SERIALIZERS`` is the table ``serialize_atomic`` reads, and only
    string forms can hold XML specials: the encoder may read the values
    a sub-plan computed."""
    assert _encoded(col) == _encoded(_untyped(col))


# -- derived tables against the Evaluator -------------------------------------

#: One column per SQL type stage 3 casts to, each holding its edge cells.
TYPES = [("SM", "SMALLINT"), ("I", "INTEGER"), ("BI", "BIGINT"),
         ("D", "DECIMAL"), ("R", "REAL"), ("F", "DOUBLE"),
         ("S", "VARCHAR"), ("DT", "DATE"), ("TM", "TIME"),
         ("TS", "TIMESTAMP")]
ROWS = [
    (0, 1, 2, 10**18, Decimal("1.50"), 1.5, 1e16, "a<b",
     datetime.date(2005, 1, 2), datetime.time(7, 30),
     datetime.datetime(2005, 1, 2, 7, 30, 0, 5)),
    (1, -3, 0, -1, Decimal("1E+2"), -0.0, NAN, "",
     datetime.date(1999, 12, 31), datetime.time(0, 0, 0, 1),
     datetime.datetime(1999, 12, 31, 23, 59)),
    (2, None, None, None, None, None, None, None, None, None, None),
    (3, 7, 7, 2**53, Decimal("-0.25"), 2.0, -0.0, " x ",
     datetime.date(2024, 2, 29), datetime.time(23, 59, 59),
     datetime.datetime(2024, 2, 29)),
]


def _storage() -> Storage:
    storage = Storage()
    _table(storage, "T", [("ID", "INTEGER")] + TYPES, ROWS)
    _table(storage, "U", [("ID", "INTEGER"), ("K", "INTEGER"),
                          ("V", "DECIMAL")],
           [(0, 1, Decimal("1.5")), (1, Decimal(2), Decimal("1.50")),
            (2, None, None), (3, 3, Decimal("1.5"))])
    _table(storage, "E", [("ID", "INTEGER"), ("K", "INTEGER"),
                          ("S", "VARCHAR")],
           [(0, 1, "12"), (1, "", "")])
    return storage


def _outcome(storage, batch_size, sql, fmt):
    """Typed rows, or the error class and message."""
    connection = connect(_runtime(storage, batch_size), format=fmt)
    try:
        return typed(_cursor_rows(connection, sql))
    except Exception as exc:
        return type(exc), str(exc)
    finally:
        connection.close()


def _assert_batched_is_evaluator(sql: str) -> list:
    storage = _storage()
    outcomes = []
    for fmt in FORMATS:
        expected = _outcome(storage, EVALUATOR, sql, fmt)
        for batch_size in BATCH_SIZES:
            got = _outcome(storage, batch_size, sql, fmt)
            assert repr(got) == repr(expected), (sql, fmt, batch_size)
        outcomes.append(expected)
    return outcomes


@pytest.mark.parametrize("column", [name for name, _t in TYPES])
def test_each_sql_type_crosses_a_derived_table(column):
    _assert_batched_is_evaluator(
        f"SELECT X.ID, X.{column} FROM (SELECT ID, {column} FROM T) AS X "
        f"ORDER BY X.ID")


@pytest.mark.parametrize("sql", [
    # Decimal('1E+2') * 1.5 is 1.5E+2 ('150'); Decimal('100') * 1.5 is
    # 150.0: the per-cell cast decides.
    "SELECT X.D * 1.5 FROM (SELECT ID, D FROM T) AS X ORDER BY X.ID",
    # 1 / -0.0 is -INF, 1 / 0.0 INF.
    "SELECT 1 / X.R, 1 / X.F FROM (SELECT ID, R, F FROM T) AS X "
    "WHERE X.ID = 1 OR X.ID = 3",
    "SELECT X.F FROM (SELECT F FROM T) AS X WHERE X.F > 1",
    "SELECT X.ID FROM (SELECT ID, F FROM T) AS X WHERE X.F = X.F",
    "SELECT Y.D FROM (SELECT X.D D FROM (SELECT D FROM T) AS X) AS Y",
])
def test_exceptions_and_nan_cross_as_the_evaluator_reads_them(sql):
    _assert_batched_is_evaluator(sql)


def test_an_empty_string_cast_to_int_raises_the_evaluators_error():
    delimited, xml = _assert_batched_is_evaluator(
        "SELECT CAST(X.S AS INTEGER) FROM (SELECT ID, S FROM E) AS X")
    assert delimited == xml
    assert "FORG0001" in delimited[1]
    assert "cannot cast '' to xs:int" in delimited[1]


def test_a_mis_declared_cell_raises_the_evaluators_error_class():
    """An INTEGER column holding ``''`` (a source's declared type is not
    enforced): the Evaluator refuses it where it reads the source row,
    the batch executor where the derived table's cast reads it — the
    same class and code, in other words."""
    storage = _storage()
    sql = "SELECT X.K FROM (SELECT K FROM E) AS X"
    for fmt in FORMATS:
        expected = _outcome(storage, EVALUATOR, sql, fmt)
        for batch_size in BATCH_SIZES:
            got = _outcome(storage, batch_size, sql, fmt)
            assert got[0] is expected[0]
            assert "FORG0001" in got[1] and "FORG0001" in expected[1]


def test_a_mixed_kind_column_takes_the_counted_per_cell_path():
    before = VSTATS.generic_columns
    _assert_batched_is_evaluator(
        "SELECT X.K FROM (SELECT ID, K FROM U) AS X ORDER BY X.ID")
    assert VSTATS.generic_columns > before


def test_distinct_keys_on_the_lexical_form():
    """1.5 and 1.50 are equal values, but two RECORDs."""
    delimited, _xml = _assert_batched_is_evaluator(
        "SELECT DISTINCT V FROM U")
    assert len(delimited) == 3
    assert _assert_batched_is_evaluator(
        "SELECT COUNT(*) FROM (SELECT DISTINCT V FROM U) AS R")[0] \
        == [(("int", 3),)]


@pytest.mark.parametrize("sql", [
    "SELECT X FROM (SELECT K X FROM U UNION ALL SELECT V FROM U) AS W",
    "SELECT X FROM (SELECT I X FROM T UNION ALL SELECT D FROM T) AS W "
    "WHERE X > 1",
    "SELECT ID FROM T WHERE D IN (SELECT V FROM U)",
    # IN compares an int needle with untyped members as doubles: 2**53 + 1
    # is a member of a set holding 2**53.
    "SELECT ID FROM T WHERE BI + 1 IN (SELECT BI FROM T WHERE ID = 3) "
    "OR BI IN (SELECT BI * 2 FROM T)",
    "SELECT ID FROM U WHERE K IN (SELECT X.I FROM (SELECT I FROM T) AS X)",
    "SELECT ID FROM U WHERE V > (SELECT AVG(X.D) FROM (SELECT D FROM T) "
    "AS X)",
    "SELECT X.ID FROM (SELECT ID, K FROM U) AS X "
    "WHERE EXISTS (SELECT 1 FROM T WHERE T.I = X.K)",
])
def test_set_operations_and_subqueries_over_record_sets(sql):
    _assert_batched_is_evaluator(sql)


def test_an_uncast_sum_folds_the_view_as_double():
    """Stage 3 casts every aggregate's argument; written without the
    cast, ``fn:sum`` folds the untyped cells as doubles."""
    storage = _storage()
    runtime = _runtime(storage, 1024)
    text = connect(runtime).translate(
        "SELECT SUM(X.D) FROM (SELECT D FROM T) AS X").xquery
    uncast = text.replace("xs:decimal(fn:data($var0SL0/D))",
                          "fn:data($var0SL0/D)")
    assert uncast != text
    batched = runtime.prepare(uncast)
    assert batched.batched
    evaluator = compile_module(parse_xquery(uncast),
                               resolver=runtime.call_function)
    assert batched.evaluate() == evaluator.evaluate() == [">101.25"]


# -- what crosses typed is what runs ------------------------------------------

NESTED_SQL, NESTED_PARAMS = GATED[5]


def _counting(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(vector, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vector, name, counted)
    return calls


def test_a_warm_nested_execution_neither_casts_nor_serialises(monkeypatch):
    assert "INFO.TOTAL" in NESTED_SQL
    connection = connect(_scaled_runtime(200))
    assert _cursor_rows(connection, NESTED_SQL, NESTED_PARAMS)
    casts = _counting(monkeypatch, "cast_to")
    serialised = _counting(monkeypatch, "serialize_atomic")
    counters = connection.stats()["runtime"]["counters"]
    views = counters["vector.untyped_views"]
    assert _cursor_rows(connection, NESTED_SQL, NESTED_PARAMS)
    assert casts == [] and serialised == []
    counters = connection.stats()["runtime"]["counters"]
    # the IN subquery's member column, once per execution
    assert counters["vector.untyped_views"] - views == 1
    assert counters["vector.generic_columns"] == 0
    connection.close()


def test_explain_names_each_cells_crossing():
    runtime = _scaled_runtime(200)
    connection = connect(runtime)
    result = connection.translator.translate(NESTED_SQL, format="delimited")
    plan = runtime.prepare_module(("delimited", NESTED_SQL), result.module)
    notes = [read for report in plan.plan_reports
             for read in report.get("boundary", ())]
    assert ("ID", "view", "in3 members") in notes
    assert ("EXPR_1", "typed", "xs:decimal") in notes
    assert ("TOTAL", "typed", "xs:int") in notes
    assert ("D.QTY", "typed", "record") in notes
    assert [read for read in notes if read[1] == "view"] \
        == [("ID", "view", "in3 members")]
    connection.close()


def test_explain_names_the_output_consumer_per_format():
    """A statement over a set operation returns its RECORDs whole: the
    encoder reads their cells typed, the xml RECORDs as views."""
    sql = "SELECT DISTINCT V FROM U"
    for fmt, read in (("delimited", ("V", "typed", "encode")),
                      ("recordset", ("V", "view", "xml record"))):
        runtime = _runtime(_storage(), 1024)
        connection = connect(runtime)
        result = connection.translator.translate(sql, format=fmt)
        plan = runtime.prepare_module((fmt, sql), result.module)
        notes = [note for report in plan.plan_reports
                 for note in report.get("boundary", ())]
        assert sorted(notes) == sorted([read, ("V", "view", "distinct key")])
        connection.close()
