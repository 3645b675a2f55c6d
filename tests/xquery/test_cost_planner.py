"""Cost-based planning: statistics-driven rewrites and their safety.

Structural tests drive ``plan_clauses`` with a :class:`CostEstimator`
over hand-built statistics and pin the three rewrites (for-clause
reorder with order restoration, join-filter absorption, conjunct
ordering) plus every legality bail-out. Semantic tests compile modules
with deliberately WRONG statistics and assert byte-identical results —
the cost model may only ever change speed.
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


def estimator(stats=STATS, pushdown=False):
    def lookup(source):
        if isinstance(source, ast.XFunctionCall):
            return stats.get(source.local)
        return None

    return CostEstimator(lookup, pushdown=pushdown)


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
    def test_most_selective_first(self):
        """K gt 900 passes ~10% (range stats); V ne 5 passes ~99%.
        The planner runs the selective conjunct first regardless of
        the written order."""
        planned = plan("""
            for $a in ns0:BIG()
            where fn:data($a/V) ne 5 and fn:data($a/K) gt 900
            return $a
        """, estimator())
        wheres = [c for c in planned if isinstance(c, ast.WhereClause)]
        assert [w.condition.op for w in wheres] == ["gt", "ne"]

    def test_pushdown_hints_sort_sargables_last(self):
        """With pushdown on, sargable conjuncts are carved off as scan
        hints; their residual copies pass ~everything the source kept,
        so non-sargable conjuncts run first."""
        planned = plan("""
            for $a in ns0:BIG()
            where fn:data($a/K) gt 900
              and fn:not(fn:empty($a/V))
            return $a
        """, estimator(pushdown=True))
        wheres = [c for c in planned if isinstance(c, ast.WhereClause)]
        assert isinstance(wheres[0].condition, ast.XFunctionCall)

    def test_selectivity_formulas(self):
        column = BIG.column("K")
        assert predicate_selectivity(
            Predicate("K", "eq", 5), BIG) == pytest.approx(1 / 1000)
        assert predicate_selectivity(
            Predicate("K", "in", (1, 2, 3)), BIG) == pytest.approx(3 / 1000)
        assert predicate_selectivity(
            Predicate("K", "gt", 899), BIG) == pytest.approx(0.1, abs=0.01)
        assert column.null_fraction == 0.0


#: Fan-out join partners: same size (no reorder), 10 distinct keys, so
#: the estimated join output (1000 * 1000 / 10) dwarfs the build side —
#: filtering 1000 build items once beats filtering 100k output tuples.
FANOUT = TableStatistics(row_count=1000, columns={
    "K": ColumnStats(ndv=10, low=0, high=9),
    "V": ColumnStats(ndv=100, low=0, high=100),
})


class TestFilterAbsorption:
    def test_build_local_conjunct_moves_into_join(self):
        planned = plan("""
            for $a in ns0:EQ1()
            for $b in ns0:EQ2()
            where fn:data($a/K) eq fn:data($b/K)
              and fn:data($b/V) gt 90
            return fn:data($b/V)
        """, estimator(stats={"EQ1": FANOUT, "EQ2": FANOUT}))
        join = next(c for c in planned if isinstance(c, HashJoinClause))
        assert len(join.filters) == 1
        assert not any(isinstance(c, ast.WhereClause) for c in planned)

    def test_absorption_declines_when_build_dwarfs_output(self):
        """A selective join (unique keys, small probe) keeps the
        conjunct residual: testing 1000 build items to save 10 output
        evaluations is a loss."""
        planned = plan("""
            for $a in ns0:SMALL()
            for $b in ns0:BIG()
            where fn:data($a/K) eq fn:data($b/K)
              and fn:data($b/V) gt 90
            return fn:data($b/V)
        """, estimator())
        join = next(c for c in planned if isinstance(c, HashJoinClause))
        assert join.filters == ()
        assert any(isinstance(c, ast.WhereClause) for c in planned)

    def test_probe_side_conjunct_stays_residual(self):
        planned = plan("""
            for $a in ns0:BIG()
            for $b in ns0:SMALL()
            where fn:data($a/K) eq fn:data($b/K)
              and fn:data($a/V) gt 90
            return fn:data($a/V)
        """, estimator())
        from repro.xquery.analysis import free_vars

        join = next(c for c in planned if isinstance(c, HashJoinClause))
        # The gt conjunct reads $a; whichever side $a landed on, it
        # must never be filtered against the other side's build items.
        for condition in join.filters:
            assert free_vars(condition) <= {join.for_clause.var}


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
    return Evaluator(parse_xquery(MODULE), resolver=runtime.call_function,
                     optimize=False).evaluate()


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
    assert list(plan.stream_items()) == expected


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
