"""Cost-based planning: the statistics-driven for reorder and its safety.

Structural tests drive ``plan_clauses`` with a :class:`CostEstimator`
over hand-built statistics and pin the one rewrite statistics make
(for-clause reorder with order restoration) plus every legality
bail-out; conjuncts keep the written order. Semantic tests compile
modules with deliberately WRONG statistics and assert byte-identical
results — the cost model may only ever change speed.
"""

import pytest

from repro.catalog import Application
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sources.spi import ColumnStats, TableStatistics
from repro.sql.types import SQLType
from repro.xquery import ast, compile_module, parse_xquery
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_xquery_expr
from repro.xquery.planner import (
    CostEstimator,
    HashJoinClause,
    RestoreOrderClause,
    estimate_plan,
    plan_clauses,
    predicate_selectivity,
)
from repro.sources.spi import Predicate

BIG = TableStatistics(row_count=1000, columns={
    "K": ColumnStats(ndv=1000, low=0, high=999),
    "V": ColumnStats(ndv=100, low=0, high=100),
})
SMALL = TableStatistics(row_count=10, columns={
    "K": ColumnStats(ndv=10, low=0, high=9),
})

STATS = {"BIG": BIG, "SMALL": SMALL}


def estimator(stats=STATS):
    def lookup(source):
        if isinstance(source, ast.XFunctionCall):
            return stats.get(source.local)
        return None

    return CostEstimator(lookup)


def plan(text, est):
    expr = parse_xquery_expr(text)
    assert isinstance(expr, ast.FLWOR)
    return plan_clauses(expr.clauses, expr.return_expr, estimator=est)


def shapes(planned):
    return [type(c).__name__ for c in planned]


JOIN_BIG_FIRST = """
for $a in ns0:BIG()
for $b in ns0:SMALL()
where fn:data($a/K) eq fn:data($b/K)
return fn:data($a/V)
"""


class TestForReorder:
    def test_smaller_input_drives_the_join(self):
        """SMALL (10 rows) becomes the driving stream; BIG folds into
        the hash join (its scan is one pass either way, but only 10
        probe frames flow on instead of 1000)."""
        planned = plan(JOIN_BIG_FIRST, estimator())
        assert shapes(planned) == ["ForClause", "HashJoinClause",
                                   "RestoreOrderClause"]
        assert planned[0].var == "b"
        assert planned[1].for_clause.var == "a"

    def test_restore_order_lists_original_for_vars(self):
        planned = plan(JOIN_BIG_FIRST, estimator())
        restore = planned[-1]
        assert isinstance(restore, RestoreOrderClause)
        assert restore.vars == ("a", "b")

    def test_already_optimal_order_is_untouched(self):
        planned = plan("""
            for $a in ns0:SMALL()
            for $b in ns0:BIG()
            where fn:data($a/K) eq fn:data($b/K)
            return fn:data($a/K)
        """, estimator())
        assert planned[0].var == "a"
        assert not any(isinstance(c, RestoreOrderClause) for c in planned)

    def test_correlated_source_blocks_reorder(self):
        """A for whose source reads an earlier variable cannot move."""
        planned = plan("""
            for $a in ns0:BIG()
            for $b in $a/SUB
            for $c in ns0:SMALL()
            where fn:data($a/K) eq fn:data($c/K)
            return $b
        """, estimator())
        binders = [c for c in planned
                   if isinstance(c, (ast.ForClause, HashJoinClause))]
        first = binders[0]
        assert (first.var if isinstance(first, ast.ForClause)
                else first.for_clause.var) == "a"
        assert not any(isinstance(c, RestoreOrderClause) for c in planned)

    def test_missing_statistics_block_reorder(self):
        planned = plan(JOIN_BIG_FIRST, estimator(stats={"BIG": BIG}))
        binders = [c for c in planned
                   if isinstance(c, (ast.ForClause, HashJoinClause))]
        first = binders[0]
        assert (first.var if isinstance(first, ast.ForClause)
                else first.for_clause.var) == "a"

    def test_no_estimator_means_pre_cost_plan(self):
        expr = parse_xquery_expr(JOIN_BIG_FIRST)
        planned = plan_clauses(expr.clauses, expr.return_expr)
        assert shapes(planned) == ["ForClause", "HashJoinClause"]
        assert planned[0].var == "a"


class TestConjunctOrdering:
    """Statistics never move a conjunct: each runs where filter
    hoisting puts it, and a run holding one that may raise keeps its
    for clauses in the written order too."""

    def test_written_order_is_kept(self):
        """K gt 900 passes ~10% (range stats), V ne 5 ~99%; they still
        run as written."""
        planned = plan("""
            for $a in ns0:BIG()
            where fn:data($a/V) ne 5 and fn:data($a/K) gt 900
            return $a
        """, estimator())
        wheres = [c for c in planned if isinstance(c, ast.WhereClause)]
        assert [w.condition.op for w in wheres] == ["ne", "gt"]

    def test_a_run_that_may_raise_is_not_reordered(self):
        """JOIN_BIG_FIRST reorders (TestForReorder); with a conjunct
        that may raise it keeps the written order, so the rows that
        reach ``div 0`` first are the ones SQL names first."""
        planned = plan("""
            for $a in ns0:BIG()
            for $b in ns0:SMALL()
            where fn:data($a/K) eq fn:data($b/K)
              and fn:data($a/X) div 0 gt 1
            return fn:data($a/V)
        """, estimator())
        assert shapes(planned) == ["ForClause", "WhereClause",
                                   "HashJoinClause"]
        assert planned[0].var == "a"

    def test_selectivity_formulas(self):
        column = BIG.column("K")
        assert predicate_selectivity(
            Predicate("K", "eq", 5), BIG) == pytest.approx(1 / 1000)
        assert predicate_selectivity(
            Predicate("K", "in", (1, 2, 3)), BIG) == pytest.approx(3 / 1000)
        assert predicate_selectivity(
            Predicate("K", "gt", 899), BIG) == pytest.approx(0.1, abs=0.01)
        assert column.null_fraction == 0.0


class TestEstimatePlan:
    def test_cardinalities_flow_through_the_pipeline(self):
        est = estimator()
        planned = plan(JOIN_BIG_FIRST, est)
        estimates = estimate_plan(planned, est)
        assert estimates[0] == pytest.approx(10.0)      # SMALL scan
        assert estimates[1] == pytest.approx(10.0)      # 1/max(ndv) join
        assert estimates[-1] == estimates[-2]           # restore-order

    def test_unknown_source_yields_none(self):
        est = estimator(stats={})
        planned = plan(JOIN_BIG_FIRST, est)
        assert estimate_plan(planned, est)[0] is None


# -- semantic safety: wrong statistics may never change results ------------

MODULE = """\
declare namespace b = "ld:T/BIG";
declare namespace s = "ld:T/SMALL";
<RECORDSET>{
for $a in b:BIG()
for $b in s:SMALL()
where fn:data($a/K) eq fn:data($b/K)
return <RECORD><V>{fn:data($a/V)}</V><K>{fn:data($b/K)}</K></RECORD>
}</RECORDSET>
"""


def dataset() -> DSPRuntime:
    """BIG (40 rows, keys 0..6) and SMALL (7 keys, one duplicated: a
    fan-out) behind a runtime, the batch executor's columnar host."""
    storage = Storage()
    for name, rows in (
            ("BIG", [(k % 7, k) for k in range(40)]),
            ("SMALL", [(k, k * 10) for k in range(7)] + [(3, 99)])):
        table = storage.create_table(name, [("K", SQLType("INTEGER")),
                                            ("V", SQLType("INTEGER"))])
        table.insert_many(rows)
    application = Application("CostApp")
    import_tables(application, "T", storage)
    return DSPRuntime(application, storage)


def compiled(runtime: DSPRuntime, statistics):
    plan = compile_module(parse_xquery(MODULE),
                          resolver=runtime.call_function,
                          statistics=statistics, columnar=runtime)
    assert plan.batched
    return plan


def oracle(runtime: DSPRuntime) -> list:
    return Evaluator(parse_xquery(MODULE),
                     resolver=runtime.call_function).evaluate()


LYING_STATS = [
    {"BIG": SMALL, "SMALL": BIG},                       # sizes swapped
    {"BIG": TableStatistics(row_count=0, columns={}),
     "SMALL": TableStatistics(row_count=10 ** 9, columns={})},
    {"BIG": BIG},                                       # half missing
    {},                                                 # none at all
]


@pytest.mark.parametrize("stats", LYING_STATS)
def test_lying_statistics_are_byte_identical(stats):
    runtime = dataset()

    def statistics(uri, local):
        return stats.get(local)

    plan = compiled(runtime, statistics)
    expected = oracle(runtime)
    assert plan.evaluate() == expected


def test_reorder_restores_original_tuple_order():
    """The reorder demonstrably fires (estimates in plan_reports) yet
    the emitted sequence matches the unplanned order exactly."""
    runtime = dataset()

    def statistics(uri, local):
        return {"BIG": BIG, "SMALL": SMALL}[local]

    plan = compiled(runtime, statistics)
    assert plan.plan_reports  # cost pipeline engaged
    labels = [node["label"] for report in plan.plan_reports
              for node in report["nodes"]]
    assert any("restore-order" in label for label in labels)
    assert plan.evaluate() == oracle(runtime)
