"""The batch executor's typed kernels against the per-cell rules.

``xquery/vector.py`` observes a batch column's kind once and runs one
per-kind rule over the whole column (encode, join keys, group keys,
parameter comparisons, mask compaction); mixed columns keep the
per-cell loop. Here every kernel is held to the rule it replaces —
``serialize_atomic`` + ``escape_text``, ``join_key``, ``grouping_key``,
``compare_values``, ``_ebv_scalar`` — cell by cell, over columns of one
kind and columns that mix int / bool / Decimal / float (NaN, signed
zero, infinities) / strings with XML specials / untyped atomics /
dates / times / NULL: same values, same exception class. The statement
level tests then pin what the kernels must not change: rows against
the Evaluator where kinds meet inside one join or aggregate, the
partial-aggregation state shapes, NaN join keys at every batch size
and on the Evaluator, and — by count — that the benchmark's report and
shape statements never take the per-cell path.

``REPRO_FUZZ_SEED`` shifts the statement-level generators (CI's
shifted-seed step runs this file too).
"""

from __future__ import annotations

import os
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sql.types import SQLType
from repro.workloads.scaling import build_scaled_storage
from repro.xmlmodel.escape import escape_text
from repro.xquery import Evaluator
from repro.xquery.atomic import (
    UntypedAtomic,
    _coerce_for_value_comparison,
    compare_values,
    serialize_atomic,
)
from repro.xquery.atomic import grouping_key, join_key
from repro.xquery.vector import (
    VSTATS,
    _Batch,
    _canon_keys,
    _ebv_scalar,
    _group_keys,
    _selected,
    _V,
    _vcompare,
    encode_columns,
)

from tests.fuzz.harness import evaluator_leg

SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
NAN = float("nan")


@pytest.fixture(autouse=True)
def _pin_executor_shape(monkeypatch):
    """Batch sizes are pinned per test (a batch of one row never mixes
    kinds): the CI legs' environment overrides must not reshape them."""
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)

# -- columns ------------------------------------------------------------------

_TEXT = st.text(alphabet="ab&<> '\"é", max_size=6)
KINDS = {
    "int": st.integers(-10**30, 10**30),
    "bool": st.booleans(),
    "decimal": st.decimals(allow_nan=False, allow_infinity=False,
                           places=2, min_value=-10**6, max_value=10**6)
    | st.sampled_from([Decimal("5"), Decimal("5.00"), Decimal("-0"),
                       Decimal(10**30)]),
    "float": st.floats() | st.sampled_from([NAN, 0.0, -0.0, 5.0,
                                            float("inf"), float("-inf")]),
    "str": _TEXT,
    "untyped": _TEXT.map(UntypedAtomic),
    "date": st.dates(),
    "datetime": st.datetimes(),
    "time": st.times(),
}


def _column(cell) -> st.SearchStrategy:
    return st.lists(st.none() | cell, max_size=12)


#: One kind (with NULLs) per column, or every kind in one column.
COLUMNS = st.one_of(*map(_column, KINDS.values()),
                    _column(st.one_of(*KINDS.values())))


def outcome(thunk):
    """What *thunk* returns, or the class of what it raises."""
    try:
        return thunk()
    except Exception as exc:  # the class is what is compared
        return type(exc)


def partition(keys: list) -> list:
    """Row indexes grouped by key, groups in first-seen order (a NaN
    key is an object of its own: compared by what it groups)."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


# -- (1) encode ---------------------------------------------------------------


def _encoded(col: list) -> str:
    return encode_columns([col]) if col else ""


@given(COLUMNS)
def test_encode_kernel_is_serialize_then_escape_per_cell(col):
    expected = "".join("<" if v is None
                       else ">" + escape_text(serialize_atomic(v))
                       for v in col)
    assert _encoded(col) == expected


def test_encode_tests_a_string_column_for_specials_once():
    assert _encoded(["a", None, "b"]) == ">a<>b"
    assert _encoded(["a", None, "b<&>"]) == ">a<>b&lt;&amp;&gt;"
    assert _encoded([UntypedAtomic("x&y")]) == ">x&amp;y"


# -- (2) join keys, (3) group keys ---------------------------------------------


@given(COLUMNS | _column(st.builds(object) | st.integers()))
def test_join_key_kernel_is_join_key_per_cell(col):
    before = VSTATS.generic_columns
    canon = _canon_keys(col)
    per_cell = [None if v is None else join_key(v) for v in col]
    kinds = {type(v) for v in col if v is not None}
    # only a column that mixes kinds takes (and counts) the per-cell path
    assert VSTATS.generic_columns - before == (len(kinds) > 1
                                               or kinds == {object})
    if any(pair == (None, None) for pair in per_cell):
        assert canon is None  # no canonical form: the join goes pairwise
        return
    categories, keys = canon
    assert categories == {pair[0] for pair in per_cell if pair}
    expected = [pair and pair[1] for pair in per_cell]
    assert keys == expected
    assert list(map(hash, keys)) == list(map(hash, expected))


@given(COLUMNS | _column(st.builds(object)))
def test_group_key_kernel_is_grouping_key_per_cell(col):
    expected = outcome(lambda: partition([grouping_key(v) for v in col]))
    assert outcome(lambda: partition(_group_keys(col))) == expected


@given(st.integers(-10**30, 10**30), st.integers(0, 4))
def test_keys_of_equal_numerics_are_one_key(n, zeros):
    """What lets a kernel batch and a per-cell batch share one hash
    table: eq-equal values of different kinds get keys that are equal
    and hash alike — and distinct values distinct keys, at any size (a
    key normalised under the 28-digit context collided from 10^28)."""
    scaled = Decimal(f"{n}.{'0' * zeros}")
    keys = [join_key(n)[1], join_key(scaled)[1], grouping_key(n),
            grouping_key(scaled), _canon_keys([n])[1][0],
            _canon_keys([scaled, None])[1][0], _canon_keys(["a", n])[1][1]]
    if abs(n) < 2**53:  # (beyond, a float's key is its shortest repr's)
        keys += [join_key(float(n))[1], grouping_key(float(n))]
    assert len(set(keys)) == 1 and len(set(map(hash, keys))) == 1
    assert join_key(n + 1)[1] != keys[0] != join_key(True)[1]
    assert join_key(UntypedAtomic("a")) == join_key("a") == ("s", ("s", "a"))


def test_a_nan_key_equals_nothing():
    for nan in (NAN, Decimal("NaN")):
        assert join_key(nan) == ("n", None)
        assert _canon_keys([nan, None, nan]) == ({"n"}, [None, None, None])
        assert _canon_keys([nan, 1]) == ({"n"}, [None, ("n", 1)])
        first, second = _group_keys([nan, nan])
        assert first != second and first[0] == "n"


# -- (4) comparisons against an untyped operand, (5) mask compaction -----------


@given(COLUMNS, st.one_of(*KINDS.values()),
       st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]))
def test_compare_kernel_is_compare_values_per_cell(col, other, op):
    def per_cell(xs, ys):
        return [None if x is None or y is None else compare_values(
            op, *_coerce_for_value_comparison(x, y))
            for x, y in zip(xs, ys)]

    def kernel(xs, ys):
        batch = _Batch(len(xs), {"x": xs, "y": ys})
        compare = _vcompare(op, _V(lambda state, b: b.cols["x"]),
                            _V(lambda state, b: b.cols["y"]))
        return compare.eval(None, batch)

    # a parameter (one value, broadcast), then column against column
    for xs, ys in ((col, [other] * len(col)), (col, col[::-1])):
        assert outcome(lambda: kernel(xs, ys)) \
            == outcome(lambda: per_cell(xs, ys))


@given(COLUMNS)
def test_mask_compaction_is_ebv_per_cell(mask):
    expected = outcome(lambda: [i for i, cell in enumerate(mask)
                                if _ebv_scalar(cell)])
    assert outcome(lambda: _selected(mask)) == expected


# -- statements: where kinds meet ---------------------------------------------


#: The leg that runs every statement on the Evaluator.
EVALUATOR = None


def _runtime(storage: Storage, batch_size, **options) -> DSPRuntime:
    """Batches of *batch_size* rows, or the Evaluator when it is
    :data:`EVALUATOR`."""
    application = Application("KernelApp")
    import_tables(application, "Kernels", storage)
    runtime = DSPRuntime(application, storage, config=RuntimeConfig(
        batch_size=batch_size or 1024, **options))
    return runtime if batch_size is not EVALUATOR \
        else evaluator_leg(runtime)


def _scaled_runtime(rows: int, **options) -> DSPRuntime:
    """FACTS / DETAILS of the benchmark's report and shape workloads."""
    return _runtime(build_scaled_storage(rows),
                    options.pop("batch_size", 1024), **options)


def _cursor_rows(connection, sql: str, params=()) -> list:
    cursor = connection.cursor()
    cursor.execute(sql, params)
    return cursor.fetchall()


def _rows(storage: Storage, batch_size, sql: str, params=(),
          **options):
    connection = connect(_runtime(storage, batch_size, **options))
    try:
        return _cursor_rows(connection, sql, params)
    finally:
        connection.close()


def _table(storage: Storage, name: str, columns: list, rows: list) -> None:
    """A table whose cells are stored as given: a source is trusted for
    its declared types, not checked (``insert`` would coerce)."""
    storage.create_table(
        name, [(column, SQLType(sql_type)) for column, sql_type in columns]
    ).replace_rows(rows)


def _mixed_storage(seed: int) -> Storage:
    """L(ID, K INTEGER, S) / R(ID, K INTEGER, D DECIMAL, F DOUBLE): the
    INTEGER columns hold a few integral Decimals (which print as the
    integer, so the Evaluator reads them back as one) at seed-chosen
    rows, D holds ints and Decimals of several scales, S XML specials."""
    rng = random.Random(("kernels", SEED_BASE, seed).__repr__())
    storage = Storage()

    def key():
        k = rng.choice((None, 0, 1, 2, 3, 10**20))
        return Decimal(k) if k is not None and rng.random() < 0.2 else k

    _table(storage, "L", [("ID", "INTEGER"), ("K", "INTEGER"),
                          ("S", "VARCHAR")],
           [(i, key(), rng.choice(("a", "a<b", "x&y", "", None)))
            for i in range(rng.randint(1, 9))])
    _table(storage, "R", [("ID", "INTEGER"), ("K", "INTEGER"),
                          ("D", "DECIMAL"), ("F", "DOUBLE")],
           [(i, key(),
             rng.choice((None, 1, 2, Decimal("2.0"), Decimal("1.50"))),
             rng.choice((None, 0.0, 1.0, 2.0, 1.5, 1e20)))
            for i in range(rng.randint(0, 9))])
    return storage


MIXED_STATEMENTS = (
    "SELECT L.ID, R.ID, L.S FROM L INNER JOIN R ON L.K = R.K",
    "SELECT L.ID, R.ID FROM L LEFT OUTER JOIN R ON L.K = R.K",
    "SELECT L.ID, R.ID FROM L INNER JOIN R ON L.K = R.D",
    "SELECT R.ID, L.ID FROM R LEFT OUTER JOIN L ON R.F = L.K",
    "SELECT L.ID, R.ID FROM L INNER JOIN R ON L.K = R.K AND L.ID = R.D",
    "SELECT A.ID, B.ID FROM L A INNER JOIN L B ON A.S = B.S",
    "SELECT K, COUNT(*), SUM(ID), MIN(S) FROM L GROUP BY K",
    "SELECT D, COUNT(*), COUNT(K), SUM(K), AVG(K) FROM R GROUP BY D",
    "SELECT S, K, COUNT(*) FROM L GROUP BY S, K",
    "SELECT SUM(D), AVG(D), SUM(K), AVG(K), MAX(D) FROM R",
    "SELECT ID, S FROM L WHERE K = ? OR S <> ?",
)


@pytest.mark.parametrize("seed", range(12))
def test_mixed_kind_columns_return_the_tuple_paths_rows(seed):
    """Build and probe batches of different kinds share one hash table
    (batch size 2: an all-int batch beside one holding a Decimal; an
    int build probed by Decimal and float batches), groups and sums
    that meet both kinds fold as the Evaluator does."""
    storage = _mixed_storage(seed)
    for sql in MIXED_STATEMENTS:
        params = (2, "a<b")[:sql.count("?")]
        expected = _rows(storage, EVALUATOR, sql, params)
        for batch_size in (1, 2, 1024):
            assert _rows(storage, batch_size, sql, params) == expected, \
                (seed, sql, batch_size)


def test_decimal_sums_round_as_the_tuple_paths_left_fold():
    """28 significant digits: where a sum overflows them, the result
    depends on the order of additions — the per-group fold keeps it."""
    wide = Decimal("9" * 28)
    storage = Storage()
    _table(storage, "T", [("G", "INTEGER"), ("D", "DECIMAL"),
                          ("M", "DECIMAL")],
           [(i % 2, value, mixed) for i, (value, mixed) in enumerate([
               (wide, 1), (Decimal("0.5"), Decimal("2.50")),
               (Decimal("0.5"), 3), (wide, Decimal("0.25")),
               (-wide, None), (Decimal("1e-10"), 7)] * 3)])
    for sql in ("SELECT G, SUM(D), AVG(D), SUM(M), AVG(M) FROM T GROUP BY G",
                "SELECT SUM(D), AVG(D), SUM(M), AVG(M) FROM T"):
        expected = _rows(storage, EVALUATOR, sql)
        assert any(len(str(cell)) > 28 for row in expected for cell in row)
        for batch_size in (1, 4, 1024):
            assert _rows(storage, batch_size, sql) == expected


def test_partial_aggregation_ships_the_same_state_shapes():
    """The group states the retired partial aggregation shipped are the
    ones the serial fold keeps — int, ``[total, count]``, ``[best,
    seen]``, ordered distinct list: one grouped statement over every
    kind returns the Evaluator's rows at every batch size."""
    storage = build_scaled_storage(40)
    sql = ("SELECT NAME, COUNT(*), SUM(AMOUNT), AVG(ID), MIN(AMOUNT), "
           "COUNT(DISTINCT REGION) FROM FACTS WHERE REGION <> ? "
           "GROUP BY NAME")
    expected = _rows(storage, EVALUATOR, sql, ("WEST",))
    assert expected[0] == ("Supermart", 7, Decimal("9.31"),
                           Decimal("19"), Decimal("0.07"), 2)
    for batch_size in (1, 7, 1024):
        assert _rows(storage, batch_size, sql, ("WEST",)) == expected


# -- NaN join keys ------------------------------------------------------------


@pytest.mark.parametrize("join, expected", [
    ("INNER JOIN", [(2, 1)]),
    ("LEFT OUTER JOIN", [(0, None), (1, None), (2, 1)]),
])
def test_a_nan_join_key_matches_nothing_on_any_executor(join, expected):
    """``join_key(NaN)`` used to be ``("nan", id(object()))`` — the id
    of a freed temporary, the same for every NaN, so NaN met NaN."""
    storage = Storage()
    _table(storage, "A", [("ID", "INTEGER"), ("X", "DOUBLE")],
           [(0, 1.5), (1, NAN), (2, 2.5)])
    _table(storage, "B", [("ID", "INTEGER"), ("Y", "DOUBLE")],
           [(0, NAN), (1, 2.5), (2, NAN)])
    sql = f"SELECT A.ID, B.ID FROM A {join} B ON A.X = B.Y"
    for batch_size in (1024, 2, EVALUATOR):
        assert _rows(storage, batch_size, sql) == expected, batch_size
    runtime = _runtime(storage, 1024)
    text = "".join(">" + str(a) + ("<" if b is None else ">" + str(b))
                   for a, b in expected)
    module = connect(runtime).translate(sql).module
    assert Evaluator(module,
                     resolver=runtime.call_function).evaluate() == [text]


# -- no silent decision: the per-cell path is counted --------------------------

#: The ``report_50k`` and ``shapes_200`` statement classes of
#: ``benchmarks/layered/workloads.py``.
GATED = [
    ("SELECT * FROM FACTS", ()),
    ("SELECT ID, NAME, AMOUNT FROM FACTS WHERE REGION = ? AND AMOUNT > ?",
     ("WEST", 1)),
    ("SELECT F.ID, F.NAME, D.DETAILID, D.QTY FROM FACTS F "
     "INNER JOIN DETAILS D ON F.ID = D.FACTID WHERE F.REGION = ?",
     ("EAST",)),
    ("SELECT NAME, COUNT(*), SUM(AMOUNT) FROM FACTS "
     "WHERE REGION <> ? GROUP BY NAME", ("WEST",)),
    ("SELECT F.REGION, COUNT(*), SUM(D.QTY) FROM FACTS F "
     "INNER JOIN DETAILS D ON F.ID = D.FACTID GROUP BY F.REGION "
     "HAVING COUNT(*) > ? ORDER BY 1", (10,)),
    ("SELECT INFO.ID, INFO.TOTAL FROM (SELECT F.ID ID, SUM(D.QTY) TOTAL "
     "FROM FACTS F LEFT OUTER JOIN DETAILS D ON F.ID = D.FACTID "
     "GROUP BY F.ID) AS INFO "
     "WHERE INFO.TOTAL > (SELECT AVG(QTY) FROM DETAILS) "
     "OR INFO.ID IN (SELECT ID FROM FACTS WHERE REGION = ?) "
     "ORDER BY INFO.ID", ("WEST",)),
    ("SELECT F.ID, F.NAME FROM FACTS F "
     "WHERE F.AMOUNT > (SELECT AVG(AMOUNT) FROM FACTS) "
     "OR F.ID IN (SELECT FACTID FROM DETAILS WHERE QTY = ?) "
     "ORDER BY F.ID", (3,)),
    ("SELECT SHIPDATE, COUNT(*) FROM DETAILS GROUP BY SHIPDATE", ()),
]


def _generic_columns(connection) -> int:
    return connection.stats()["runtime"]["counters"].get(
        "vector.generic_columns", 0)


def test_benchmark_statements_never_take_the_per_cell_path():
    """By count, as ``xquery.batched_share`` is gated: int / str /
    Decimal / date key, group and encode columns (and the untyped cells
    of a derived table) all have kernels."""
    connection = connect(_scaled_runtime(200, batch_size=64))
    before = VSTATS.generic_columns, VSTATS.executions
    for sql, params in GATED:
        assert _cursor_rows(connection, sql, params), sql
        assert VSTATS.generic_columns == before[0], sql
    assert VSTATS.executions - before[1] == len(GATED)
    assert _generic_columns(connection) == 0
    connection.close()


def test_a_mixed_kind_column_is_counted():
    storage = _mixed_storage(0)
    _table(storage, "M", [("K", "INTEGER")], [(1,), (Decimal(2),), (1,)])
    connection = connect(_runtime(storage, 1024))
    before = VSTATS.generic_columns
    assert _cursor_rows(connection, "SELECT K, COUNT(*) FROM M GROUP BY K") \
        == [(1, 2), (2, 1)]
    # the group key column, then the encoded K column of the groups
    assert VSTATS.generic_columns - before == 2
    assert _generic_columns(connection) == 2
    connection.close()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(
    [None, 1, 2, Decimal(1), Decimal("2"), 10**20, Decimal(10**20)]),
    min_size=1, max_size=8), st.sampled_from([1, 2, 3, 1024]))
def test_group_by_over_any_int_decimal_mix(cells, batch_size):
    storage = Storage()
    _table(storage, "M", [("ID", "INTEGER"), ("K", "INTEGER")],
           list(enumerate(cells)))
    sql = "SELECT K, COUNT(*), SUM(ID), AVG(K) FROM M GROUP BY K"
    assert _rows(storage, batch_size, sql) == _rows(storage, EVALUATOR, sql)
