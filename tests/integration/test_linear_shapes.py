"""The paper's C4/C5 shapes cost O(rows), checked without a stopwatch.

Outer joins, derived tables, uncorrelated scalar / IN subqueries and
correlated EXISTS / scalar subqueries all run on the batched executor:
as sub-plans and hash joins, a correlated subquery as a sub-plan run per
outer row whose hash-join build is made once per execution. What a
statement scans and builds therefore does not depend on the outer row,
so one execution must call each data service and build each hash table
a fixed number of times — the same number at 100 rows and at 400 — and
the rows its batch stages tick through (``QueryContext`` ticks: scanned,
joined and sub-plan rows) may grow only with the rows (4x the rows, at
most 4.5x the ticks), as may the rows it encodes (``VSTATS.rows``).
Run as written, per outer row, the scans and builds would grow with
the table (400 builds for 400 rows) and the work with its square.

Between batched operators a row is a tuple of columns: one ``nested``
execution builds no element at all (28 870 ``copy_node`` calls before).
"""

import pytest

from repro import connect
from repro.workloads import build_scaled_runtime
from repro.xquery import evaluator as xq_evaluator
from repro.xquery import vector as xq_vector
from repro.xquery.vector import VSTATS

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
    "correlated_not_exists": (
        "SELECT F.ID FROM FACTS F WHERE NOT EXISTS "
        "(SELECT 1 FROM DETAILS D WHERE D.FACTID = F.ID AND D.QTY > ?)",
        (12,)),
    "correlated_scalar_avg": (
        "SELECT F.ID, (SELECT AVG(D.QTY) FROM DETAILS D "
        "WHERE D.FACTID = F.ID) FROM FACTS F", ()),
    "left_outer_join": (
        "SELECT F.ID, D.QTY FROM FACTS F LEFT OUTER JOIN DETAILS D "
        "ON F.ID = D.FACTID", ()),
}

#: No shape may scan or build more often than this in one execution.
SMALL_CONSTANT = 6


def measure(rows: int) -> dict:
    """Per shape, one warm execution's (result rows, data-service calls,
    hash-table builds, rows ticked, rows encoded, vector-plan runs) at
    *rows* rows. A batched join that probes a table kept from an
    earlier execution counts as a build: whether it may is a property
    of the scan (pushed or not), not of the shape."""
    runtime = build_scaled_runtime(rows)
    cursor = connect(runtime).cursor()
    measured = {}
    for name, (sql, params) in SHAPES.items():
        cursor.execute(sql, params)
        cursor.fetchall()  # plan cached; statistics computed
        calls = runtime.function_call_count
        before = (VSTATS.join_builds + VSTATS.join_reuses, VSTATS.rows,
                  VSTATS.executions)
        cursor.execute(sql, params)
        result = cursor.fetchall()
        measured[name] = (len(result),
                          runtime.function_call_count - calls,
                          VSTATS.join_builds + VSTATS.join_reuses
                          - before[0],
                          cursor._context._ticks,
                          VSTATS.rows - before[1],
                          VSTATS.executions - before[2])
    return measured


@pytest.fixture(scope="module")
def sizes():
    return measure(100), measure(400)


@pytest.mark.parametrize("shape", SHAPES)
def test_scans_and_builds_do_not_grow_with_the_table(sizes, shape):
    small, large = sizes
    (rows_small, scans_small, builds_small, ticks_small, encoded_small,
     batched) = small[shape]
    rows_large, scans_large, builds_large, ticks_large, encoded_large, _ \
        = large[shape]
    assert rows_small > 0 and rows_large > rows_small  # real work
    assert 0 < scans_small == scans_large <= SMALL_CONSTANT
    assert builds_small == builds_large <= SMALL_CONSTANT
    assert batched == 1
    assert 0 < ticks_large <= 4.5 * ticks_small
    assert encoded_small == rows_small and encoded_large == rows_large


def test_a_nested_execution_builds_no_element(monkeypatch):
    """Derived table over an outer join under GROUP BY, with a scalar
    and an IN subquery: RECORDs cross every boundary as columns."""
    runtime = build_scaled_runtime(200)
    cursor = connect(runtime).cursor()
    sql, params = SHAPES["nested"]
    cursor.execute(sql, params)
    cursor.fetchall()
    calls = {"copy_node": 0, "_append_content": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(xq_evaluator, "copy_node",
                        counted("copy_node", xq_evaluator.copy_node))
    for module in (xq_evaluator, xq_vector):
        monkeypatch.setattr(module, "_append_content", counted(
            "_append_content", module._append_content))
    before = VSTATS.executions
    cursor.execute(sql, params)
    assert len(cursor.fetchall()) > 100
    assert VSTATS.executions == before + 1
    assert calls == {"copy_node": 0, "_append_content": 0}
