"""Experiment E15 (ablation): the XQuery processor's hash equi-join.

The paper's translator deliberately emits unoptimized, "patterned"
XQuery: "any/all optimizations should be left to the XQuery processor"
(section 3.2). Table R7 validates that division of labor: the same
translated join executed by the engine with its hash-join optimization
on vs off, at two scales. The pattern the translator emits (double
``for`` + value-equality ``where``) is exactly what the processor's
planner recognizes.
"""

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, import_tables
from repro.workloads.scaling import build_scaled_storage

SQL = ("SELECT F.NAME, D.QTY FROM FACTS F INNER JOIN DETAILS D "
       "ON F.ID = D.FACTID WHERE D.QTY > 10")


def make_runtime(rows: int, optimize: bool) -> DSPRuntime:
    storage = build_scaled_storage(rows)
    application = Application("BenchApp")
    import_tables(application, "Bench", storage)
    return DSPRuntime(application, storage,
                      config=RuntimeConfig(optimize=optimize))


@pytest.mark.parametrize("rows", [100, 300])
@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.benchmark(group="E15-join-optimizer")
def test_translated_join(benchmark, rows, optimize):
    cursor = connect(make_runtime(rows, optimize)).cursor()
    cursor.execute(SQL)  # warm translation cache

    def run():
        cursor.execute(SQL)
        return cursor.fetchall()

    result = benchmark.pedantic(run, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert result


THREE_WAY = ("SELECT F.NAME, D.QTY, G.QTY FROM FACTS F "
             "INNER JOIN DETAILS D ON F.ID = D.FACTID "
             "INNER JOIN DETAILS G ON F.ID = G.FACTID "
             "WHERE D.QTY > 14 AND G.QTY > 15")


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.benchmark(group="E15c-three-way-join")
def test_three_way_join_chain(benchmark, optimize):
    """The planner's filter hoisting turns an N-way translated join into
    a left-deep chain of hash joins."""
    cursor = connect(make_runtime(25, optimize)).cursor()

    def run():
        cursor.execute(THREE_WAY)
        return cursor.fetchall()

    result = benchmark.pedantic(run, rounds=3, iterations=1,
                                warmup_rounds=0)
    assert result


@pytest.mark.benchmark(group="E15b-optimizer-results-identical")
def test_optimizer_preserves_results(benchmark):
    """Same rows either way (the ablation's sanity condition)."""
    fast = connect(make_runtime(120, True)).cursor()
    slow = connect(make_runtime(120, False)).cursor()

    def run():
        fast.execute(SQL)
        return fast.fetchall()

    fast_rows = benchmark(run)
    slow.execute(SQL)
    assert fast_rows == slow.fetchall()
