"""The paper's C4/C5 shapes cost O(rows), checked without a stopwatch.

Outer joins, derived tables, scalar / IN / EXISTS subqueries all reach
the tuple pipeline as a FLWOR that is re-run for every outer tuple.
What that FLWOR scans and builds does not depend on the outer tuple, so
one execution must scan each table and build each hash table a fixed
number of times — the same number at 100 rows and at 400 — and the
frames it creates may grow only with the rows (4x the rows, at most
4.5x the frames). At the parent commit the scans and builds grew with
the table (400 builds for 400 rows) and the frames with its square.
"""

import pytest

from repro import connect
from repro.workloads import build_scaled_runtime
from repro.xquery import compile as xq_compile

SHAPES = {
    "nested": (
        "SELECT INFO.ID, INFO.TOTAL FROM (SELECT F.ID ID, SUM(D.QTY) "
        "TOTAL FROM FACTS F LEFT OUTER JOIN DETAILS D ON F.ID = D.FACTID "
        "GROUP BY F.ID) AS INFO "
        "WHERE INFO.TOTAL > (SELECT AVG(QTY) FROM DETAILS) "
        "OR INFO.ID IN (SELECT ID FROM FACTS WHERE REGION = ?) "
        "ORDER BY INFO.ID", ("EAST",)),
    "subq": (
        "SELECT F.ID, F.NAME FROM FACTS F "
        "WHERE F.AMOUNT > (SELECT AVG(AMOUNT) FROM FACTS) "
        "OR F.ID IN (SELECT FACTID FROM DETAILS WHERE QTY = ?) "
        "ORDER BY F.ID", (3,)),
    "correlated_exists": (
        "SELECT F.ID FROM FACTS F WHERE EXISTS "
        "(SELECT 1 FROM DETAILS D WHERE D.FACTID = F.ID AND D.QTY > ?)",
        (8,)),
    "correlated_scalar_avg": (
        "SELECT F.ID, (SELECT AVG(D.QTY) FROM DETAILS D "
        "WHERE D.FACTID = F.ID) FROM FACTS F", ()),
    "left_outer_join": (
        "SELECT F.ID, D.QTY FROM FACTS F LEFT OUTER JOIN DETAILS D "
        "ON F.ID = D.FACTID", ()),
}

#: No shape may scan or build more often than this in one execution.
SMALL_CONSTANT = 6


def measure(rows: int, monkeypatch) -> dict:
    """Per shape, one warm execution's (result rows, data-service calls,
    hash-table builds, frames) at *rows* rows."""
    runtime = build_scaled_runtime(rows)
    cursor = connect(runtime).cursor()
    builds = []
    real_build = xq_compile._build_join_table

    def counting_build(*args):
        builds.append(1)
        return real_build(*args)

    monkeypatch.setattr(xq_compile, "_build_join_table",
                        counting_build)
    measured = {}
    for name, (sql, params) in SHAPES.items():
        cursor.execute(sql, params)
        cursor.fetchall()  # plan cached; statistics computed
        del builds[:]
        calls = runtime.function_call_count
        frames = xq_compile.STATS.frames
        cursor.execute(sql, params)
        result = cursor.fetchall()
        measured[name] = (len(result),
                          runtime.function_call_count - calls,
                          len(builds),
                          xq_compile.STATS.frames - frames)
    return measured


@pytest.fixture(scope="module")
def sizes():
    monkeypatch = pytest.MonkeyPatch()
    try:
        yield measure(100, monkeypatch), measure(400, monkeypatch)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("shape", SHAPES)
def test_scans_and_builds_do_not_grow_with_the_table(sizes, shape):
    small, large = sizes
    rows_small, scans_small, builds_small, frames_small = small[shape]
    rows_large, scans_large, builds_large, frames_large = large[shape]
    assert rows_small > 0 and rows_large > rows_small  # real work
    assert scans_small == scans_large <= SMALL_CONSTANT
    assert builds_small == builds_large <= SMALL_CONSTANT
    assert frames_small > 0
    assert frames_large <= 4.5 * frames_small
