"""Experiment E15 (ablation): the XQuery processor's hash equi-join.

The paper's translator deliberately emits unoptimized, "patterned"
XQuery: "any/all optimizations should be left to the XQuery processor"
(section 3.2). Table R7 validates that division of labor: the same
translated join executed by the engine's planned batch executor, and
by the Evaluator, which runs the clauses as written (nested loops, no
hash join), at two scales. The pattern the
translator emits (double ``for`` + value-equality ``where``) is exactly
what the processor's planner recognizes.
"""

import pytest

from repro.catalog import Application
from repro.driver import connect
from repro.driver.codec import decode_delimited
from repro.engine import DSPRuntime, import_tables
from repro.workloads.scaling import build_scaled_storage
from repro.xquery import Evaluator

EXECUTORS = ["batched", "evaluator"]

SQL = ("SELECT F.NAME, D.QTY FROM FACTS F INNER JOIN DETAILS D "
       "ON F.ID = D.FACTID WHERE D.QTY > 10")


def make_run(rows: int, executor: str, sql: str):
    """A thunk running *sql* over *rows* scaled rows: through the driver
    (planned, ``batched``), or on the ``evaluator``."""
    storage = build_scaled_storage(rows)
    application = Application("BenchApp")
    import_tables(application, "Bench", storage)
    runtime = DSPRuntime(application, storage)
    connection = connect(runtime)
    if executor == "batched":
        cursor = connection.cursor()

        def run():
            cursor.execute(sql)
            return cursor.fetchall()

        return run
    translation = connection.translate(sql)

    def run_evaluator():
        text = Evaluator(translation.module,
                         resolver=runtime.call_function).evaluate()[0]
        return decode_delimited(text, translation.columns)

    return run_evaluator


@pytest.mark.parametrize("rows", [100, 300])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.benchmark(group="E15-join-optimizer")
def test_translated_join(benchmark, rows, executor):
    run = make_run(rows, executor, SQL)
    run()  # warm translation and plan caches
    result = benchmark.pedantic(run, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert result


THREE_WAY = ("SELECT F.NAME, D.QTY, G.QTY FROM FACTS F "
             "INNER JOIN DETAILS D ON F.ID = D.FACTID "
             "INNER JOIN DETAILS G ON F.ID = G.FACTID "
             "WHERE D.QTY > 14 AND G.QTY > 15")


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.benchmark(group="E15c-three-way-join")
def test_three_way_join_chain(benchmark, executor):
    """The planner's filter hoisting turns an N-way translated join into
    a left-deep chain of hash joins."""
    result = benchmark.pedantic(make_run(25, executor, THREE_WAY),
                                rounds=3, iterations=1, warmup_rounds=0)
    assert result


@pytest.mark.benchmark(group="E15b-optimizer-results-identical")
def test_optimizer_preserves_results(benchmark):
    """Same rows either way (the ablation's sanity condition)."""
    fast_rows = benchmark(make_run(120, "batched", SQL))
    assert fast_rows == make_run(120, "evaluator", SQL)()
