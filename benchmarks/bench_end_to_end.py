"""Experiment E12: end-to-end JDBC-analog path vs the embedded baseline.

Table R4: reporting-mix latency through the full driver pipeline
(translate → XQuery compile+execute → decode) compared against the
reference SQL executor evaluating the same AST directly over the same
tables (the test suite's oracle, ``tests/engine/sqlexec.py``). The
delta is the cost of the paper's architecture: SQL arriving at XML data
services through translation rather than a native SQL engine.
(The paper does not claim parity — the driver exists for integration, not
speed — so this table bounds the overhead rather than reproducing a
published number.)
"""

import sys
from pathlib import Path

import pytest

from repro.driver import connect
from repro.sql import parse_statement
from repro.workloads import COMPLEXITY_CLASSES
from repro.workloads.scaling import build_scaled_runtime

# The baseline is the SQL oracle, which lives with the tests and is no
# part of the package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.engine.sqlexec import SQLExecutor, TableProvider  # noqa: E402

RUNTIME = build_scaled_runtime(500)
# The baseline executor evaluates joins nested-loop (it is a semantics
# oracle, not an engine), so the join case uses a smaller instance to
# keep its round times sane; the driver side benefits from the XQuery
# processor's hash join (experiment E15). The driver/baseline *ratio*
# is the quantity of interest.
JOIN_RUNTIME = build_scaled_runtime(100)

REPORTING_MIX = {
    "scan": "SELECT * FROM FACTS",
    "filter": "SELECT ID, NAME FROM FACTS WHERE AMOUNT > 20 "
              "AND REGION = 'WEST'",
    "join": "SELECT F.NAME, D.QTY FROM FACTS F INNER JOIN DETAILS D "
            "ON F.ID = D.FACTID WHERE D.QTY > 10",
    "group": "SELECT REGION, COUNT(*), SUM(AMOUNT) FROM FACTS "
             "GROUP BY REGION ORDER BY 3 DESC",
}


def _runtime_for(name):
    return JOIN_RUNTIME if name == "join" else RUNTIME


@pytest.mark.parametrize("name", sorted(REPORTING_MIX))
@pytest.mark.benchmark(group="E12-end-to-end")
def test_driver_pipeline(benchmark, name):
    cursor = connect(_runtime_for(name), format="delimited").cursor()
    sql = REPORTING_MIX[name]
    cursor.execute(sql)

    def run():
        cursor.execute(sql)
        return cursor.fetchall()

    rows = benchmark(run)
    assert rows


@pytest.mark.parametrize("name", sorted(REPORTING_MIX))
@pytest.mark.benchmark(group="E12-end-to-end")
def test_baseline_executor(benchmark, name):
    executor = SQLExecutor(TableProvider(_runtime_for(name).storage))
    query = parse_statement(REPORTING_MIX[name])

    result = benchmark(executor.execute, query)
    assert result.rows


@pytest.mark.benchmark(group="E12b-demo-mix")
def test_demo_complexity_mix(benchmark, demo_runtime):
    """The C1..C5 classes end to end on the demo application."""
    cursor = connect(demo_runtime, format="delimited").cursor()
    statements = list(COMPLEXITY_CLASSES.values())
    for sql in statements:
        cursor.execute(sql)

    def run():
        total = 0
        for sql in statements:
            cursor.execute(sql)
            total += len(cursor.fetchall())
        return total

    assert benchmark(run) > 0
