"""One plan, one compile — asserted by count, not by stopwatch.

A module's FLWORs are planned once each and lowered onto one executor;
``evaluate``, ``stream_chunks`` and ``stream_columns`` are three views
of that one compiled form, so they agree with each other and with the
interpreter at every batch size, run the same executor, and report
actual rows under the same plan-node ids.
"""

from collections import Counter

import pytest

from repro.translator import SQLToXQueryTranslator
from repro.workloads import build_runtime
from repro.xmlmodel import element
from repro.xquery import Evaluator, ast, compile_module, parse_xquery
from repro.xquery import compile as xq_compile
from repro.xquery import vector as xq_vector
from repro.xquery.analysis import subexpressions
from repro.xquery.vector import VSTATS

from tests.xquery.test_compile_differential import CORPUS

#: The five ``adhoc_small`` templates of ``benchmarks/layered`` (C1..C5
#: with fresh aliases and one conjunct no row fails), instantiated once.
ADHOC = [
    "SELECT * FROM CUSTOMERS T1 WHERE T1.CUSTOMERID <> -1",
    "SELECT T1.CUSTOMERID, T1.CUSTOMERNAME FROM CUSTOMERS T1 "
    "WHERE T1.REGION = 'WEST' AND T1.CREDITLIMIT > 500 "
    "AND T1.CUSTOMERID <> -1",
    "SELECT T1.CUSTOMERNAME, T2.PAYMENT FROM CUSTOMERS T1 "
    "INNER JOIN PAYMENTS T2 ON T1.CUSTOMERID = T2.CUSTID "
    "WHERE T2.PAYMENT > 50 AND T1.CUSTOMERID <> -1 "
    "ORDER BY T2.PAYMENT DESC",
    "SELECT T1.REGION, COUNT(*), SUM(T2.PAYMENT) FROM CUSTOMERS T1 "
    "INNER JOIN PAYMENTS T2 ON T1.CUSTOMERID = T2.CUSTID "
    "WHERE T1.CUSTOMERID <> -1 "
    "GROUP BY T1.REGION HAVING COUNT(*) > 1 ORDER BY 2 DESC",
    "SELECT T1.NAME, T1.TOTAL FROM "
    "(SELECT C.CUSTOMERNAME NAME, SUM(P.PAYMENT) TOTAL "
    "FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P "
    "ON C.CUSTOMERID = P.CUSTID WHERE C.CUSTOMERID <> -1 "
    "GROUP BY C.CUSTOMERNAME) AS T1 "
    "WHERE T1.TOTAL > (SELECT AVG(PAYMENT) FROM PAYMENTS) "
    "OR T1.NAME IN (SELECT CUSTOMERNAME FROM CUSTOMERS "
    "WHERE REGION = 'WEST') ORDER BY T1.NAME",
]

STATEMENTS = CORPUS + ADHOC
BATCH_SIZES = (1, 2, 1024)

RUNTIME = build_runtime()
TRANSLATOR = SQLToXQueryTranslator(RUNTIME.metadata_api())


def module_of(sql: str, fmt: str = "delimited") -> ast.Module:
    return parse_xquery(TRANSLATOR.translate(sql, format=fmt).xquery)


def compiled(module: ast.Module, batch_size: int):
    """The runtime's own compile, with the batch size pinned (the
    ``REPRO_BATCH_SIZE`` CI legs must not collapse the three sizes)."""
    return compile_module(module, resolver=RUNTIME.call_function,
                          statistics=RUNTIME.statistics_for,
                          batch_size=batch_size, columnar=RUNTIME)


def interpreted(module: ast.Module, variables=None) -> list:
    return Evaluator(module, resolver=RUNTIME.call_function,
                     variables=variables).evaluate()


@pytest.fixture
def counters(monkeypatch):
    """Count planner entries (by the FLWOR's clause tuple) and FLWOR
    lowerings (by node) of one compile."""
    seen = {"plan": Counter(), "hints": 0, "lowered": Counter()}
    real_plan = xq_compile.plan_clauses
    real_hints = xq_compile.scan_requests
    real_lower = xq_vector.lower_flwor

    def plan(clauses, *args, **kwargs):
        seen["plan"][id(clauses)] += 1
        return real_plan(clauses, *args, **kwargs)

    def hints(*args, **kwargs):
        seen["hints"] += 1
        return real_hints(*args, **kwargs)

    def lower(cc, flwor):
        seen["lowered"][id(flwor)] += 1
        return real_lower(cc, flwor)

    monkeypatch.setattr(xq_compile, "plan_clauses", plan)
    monkeypatch.setattr(xq_compile, "scan_requests", hints)
    monkeypatch.setattr(xq_vector, "lower_flwor", lower)
    return seen


@pytest.mark.parametrize("sql", STATEMENTS)
def test_each_flwor_planned_once_each_clause_lowered_once(sql, counters):
    """The lowering reads one planned object per FLWOR (``plan_clauses``
    and ``scan_requests`` run once per FLWOR planned, never twice for
    one), and lowers each FLWOR once per place it is read: a record set
    FULL OUTER reads on both of its sides is lowered twice. The
    wrapper's cell FLWORs are matched, not planned, and an aggregate's
    per-row FLWORs are folded into its hash aggregation; a statement
    whose record set is a set operation plans one more, the ``for``
    that reads it."""
    for fmt in ("delimited", "recordset"):
        module = module_of(sql, fmt)
        flwors = sum(isinstance(node, ast.FLWOR)
                     for node, _p in subexpressions(module.body))
        for batch_size in (1, 1024):
            counters["plan"].clear()
            counters["hints"] = 0
            counters["lowered"].clear()
            plan = compiled(module, batch_size)
            assert plan.batched, (sql, fmt)
            planned = sum(counters["plan"].values())
            assert planned == counters["hints"]
            assert set(counters["plan"].values()) == {1}, (sql, fmt)
            assert 0 < planned <= flwors + 1, (sql, fmt)
            limit = 2 if "FULL OUTER" in sql else 1
            assert max(counters["lowered"].values()) <= limit, \
                (sql, fmt, batch_size)


@pytest.mark.parametrize("sql", STATEMENTS)
def test_three_views_agree_with_the_interpreter(sql):
    module = module_of(sql)
    expected = interpreted(module)
    for batch_size in BATCH_SIZES:
        plan = compiled(module, batch_size)
        assert plan.streams_text and plan.batched
        assert plan.evaluate() == expected, (sql, batch_size)
        assert ["".join(plan.stream_chunks())] == expected, \
            (sql, batch_size)
        typed, batches = plan.stream_columns()
        assert typed and ["".join(plan.vector_plan.encode(batches))] \
            == expected, (sql, batch_size)


def test_evaluate_on_a_batched_plan_runs_the_vector_plan():
    """One plan means one executor: ``evaluate`` is the chunk stream
    joined, so it counts as a vector execution — and hands a run to the
    Evaluator only for a parameter the scalar column model cannot
    hold."""
    module = module_of("SELECT CUSTOMERID FROM CUSTOMERS "
                       "WHERE CUSTOMERNAME = ?")
    plan = compiled(module, 1024)
    assert plan.batched

    def run(variables):
        before = (VSTATS.executions, VSTATS.fallbacks)
        try:
            result = plan.evaluate(variables)
        except Exception as exc:  # compared with the oracle's below
            result = (type(exc), str(exc))
        moved = (VSTATS.executions - before[0],
                 VSTATS.fallbacks - before[1])
        try:
            oracle = interpreted(module, variables)
        except Exception as exc:
            oracle = (type(exc), str(exc))
        assert result == oracle, variables
        return result, moved

    assert run({"p1": ["Sue"]}) == ([">23"], (1, 0))
    assert run({"p1": [element("X", "Sue")]}) == ([">23"], (0, 1))
    failed, moved = run({"p1": ["Sue", "Joe"]})
    assert moved == (0, 1) and isinstance(failed, tuple)


@pytest.mark.parametrize("sql", STATEMENTS)
def test_views_count_actual_rows_under_the_reported_node_ids(sql):
    module = module_of(sql)
    for batch_size in (1, 1024):
        plan = compiled(module, batch_size)
        reported = [node["id"] for report in plan.plan_reports
                    for node in report["nodes"]]
        assert len(set(reported)) == len(reported), (sql, batch_size)
        by_evaluate: dict = {}
        by_chunks: dict = {}
        plan.evaluate(actuals=by_evaluate)
        for _chunk in plan.stream_chunks(actuals=by_chunks):
            pass
        assert by_evaluate == by_chunks, (sql, batch_size)
        assert by_evaluate and set(by_evaluate) <= set(reported), \
            (sql, batch_size)
