"""A write costs what it touches, checked without a stopwatch.

UPDATE / DELETE victim selection is a pushed scan (DESIGN §14), so what
a point write pulls out of its source must not depend on the table: one
row at 1 000 rows and one row at 20 000. The runtime publishes the
victim scan on the same ``sources.*`` counters as any read, which is
what makes this assertable by counts. At the parent commit the victim
scan read the whole table (and was not counted at all).
"""

from decimal import Decimal

import pytest

from repro.driver import connect
from repro.workloads import build_scaled_storage

from tests.fuzz.harness import build_runtime

SIZES = (1_000, 20_000)


@pytest.fixture(scope="module", params=["sqlite", "memory"])
def backend(request):
    return request.param


@pytest.fixture(scope="module", params=SIZES)
def rig(request, backend):
    """(connection, rows at build time, backend) over a FACTS table."""
    runtime = build_runtime(build_scaled_storage(request.param), backend, 0)
    connection = connect(runtime)
    yield connection, request.param, backend
    connection.close()


def moved(connection, statement, parameters=()):
    """(rowcount, counter deltas) of one DML statement."""
    counters = connection._runtime.metrics
    names = ("sources.rows_scanned", "sources.rows_pushed",
             "sources.index_hits")
    before = [counters.counter(name).value for name in names]
    cursor = connection.cursor()
    cursor.execute(statement, parameters)
    after = [counters.counter(name).value for name in names]
    return cursor.rowcount, tuple(b - a for a, b in zip(before, after))


def facts(connection, where="", parameters=()):
    cursor = connection.cursor()
    cursor.execute(f"SELECT ID, NAME, REGION, AMOUNT FROM FACTS {where} "
                   f"ORDER BY ID", parameters)
    return cursor.fetchall()


def test_point_update_reads_one_row(rig):
    connection, rows, backend = rig
    target = rows - 3
    rowcount, (scanned, pushed, index_hits) = moved(
        connection, "UPDATE FACTS SET AMOUNT = ? WHERE ID = ?",
        (Decimal("12.34"), target))
    assert rowcount == 1
    assert (scanned, pushed) == (1, 1)
    assert index_hits == (1 if backend == "memory" else 0)
    assert facts(connection, "WHERE ID = ?", (target,))[0][3] \
        == Decimal("12.34")


def test_point_delete_reads_one_row(rig):
    connection, rows, backend = rig
    target = rows // 2
    before = facts(connection)
    rowcount, (scanned, pushed, index_hits) = moved(
        connection, "DELETE FROM FACTS WHERE ID = ?", (target,))
    assert rowcount == 1
    assert (scanned, pushed) == (1, 1)
    assert index_hits == (1 if backend == "memory" else 0)
    assert facts(connection) == [row for row in before
                                 if row[0] != target]


def test_selective_conjunct_bounds_an_unpushable_one(rig):
    """``REGION = ?`` is pushed, the DECIMAL comparison is not: the
    scan shrinks to the region (on memory only if a quarter of the
    table passes its selectivity cap), the residual decides."""
    connection, _rows, backend = rig
    before = facts(connection)
    expected = [row for row in before if row[2] == "EAST"
                and row[3] is not None and row[3] > Decimal("50")]
    in_region = sum(row[2] == "EAST" for row in before)
    rowcount, (scanned, pushed, _hits) = moved(
        connection,
        "UPDATE FACTS SET NAME = 'hot' WHERE AMOUNT > ? AND REGION = ?",
        (Decimal("50"), "EAST"))
    assert rowcount == len(expected) > 0
    if backend == "sqlite":
        assert (scanned, pushed) == (in_region, in_region)
    else:
        assert (scanned, pushed) in ((in_region, in_region),
                                     (len(before), 0))
    assert [row[0] for row in facts(connection, "WHERE NAME = 'hot'")] \
        == [row[0] for row in expected]


def test_unpushable_where_still_scans_the_table(rig):
    """DECIMAL comparisons are refused by both type gates: the full
    scan and the residual filter do the work, and pick the same rows."""
    connection, _rows, _backend = rig
    before = facts(connection)
    expected = [row[0] for row in before
                if row[3] is not None and row[3] > Decimal("69")]
    rowcount, (scanned, pushed, index_hits) = moved(
        connection, "DELETE FROM FACTS WHERE AMOUNT > ?",
        (Decimal("69"),))
    assert rowcount == len(expected) > 0
    assert (scanned, pushed, index_hits) == (len(before), 0, 0)
    assert facts(connection) == [row for row in before
                                 if row[0] not in set(expected)]


def test_update_without_where_touches_every_row(rig):
    connection, _rows, _backend = rig
    live = len(facts(connection))
    rowcount, (scanned, pushed, _hits) = moved(
        connection, "UPDATE FACTS SET REGION = 'ALL'")
    assert rowcount == live
    assert (scanned, pushed) == (live, 0)
    assert {row[2] for row in facts(connection)} == {"ALL"}
