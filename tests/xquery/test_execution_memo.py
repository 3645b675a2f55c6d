"""The compiled executor's per-execution memo: what cannot change while
one execution runs — an invariant subquery, a hash-join build, a
prepared IN table — is evaluated once, lazily, and never outlives or
crosses an execution. Every case is also a three-way differential: the
memoising plan (``optimize=True``), the plain-semantics plan
(``optimize=False``) and the tree-walking oracle must produce the same
text or the same error.
"""

import threading
import time
from collections import Counter

import pytest

from repro import RuntimeConfig
from repro.driver import OperationalError, connect
from repro.engine import FaultProfile, install_fault
from repro.errors import XQueryError
from repro.translator import SQLToXQueryTranslator
from repro.translator.explain import explain
from repro.workloads import build_runtime
from repro.xmlmodel import Element, element, serialize
from repro.xquery import Evaluator, compile_module, parse_xquery
from repro.xquery.compile import MEMO_KEY, _Compiler

from tests.integration.test_equivalence import BATTERY, HARD_BATTERY

RUNTIME = build_runtime()
TRANSLATOR = SQLToXQueryTranslator(RUNTIME.metadata_api())

SUBQUERY_CORPUS = [sql for sql in BATTERY + HARD_BATTERY
                   if "(SELECT" in sql.upper()]


def render(sequence) -> str:
    return "|".join(serialize(item) if isinstance(item, Element)
                    else f"{type(item).__name__}:{item!r}"
                    for item in sequence)


def outcome(run) -> str:
    try:
        return render(run())
    except XQueryError as exc:
        return f"error {exc.code}"


def three_ways(xquery: str, variables=None,
               resolver=RUNTIME.call_function) -> str:
    """The query's outcome, asserted identical under the memoising
    plan (materialized and streamed), the plain plan and the oracle."""
    module = parse_xquery(xquery)
    memo = compile_module(module, resolver=resolver, optimize=True)
    plain = compile_module(module, resolver=resolver, optimize=False)
    expected = outcome(lambda: Evaluator(
        module, resolver=resolver, variables=variables,
        optimize=False).evaluate())
    assert outcome(lambda: memo.evaluate(variables)) == expected
    assert outcome(lambda: list(memo.stream_items(variables))) == expected
    assert outcome(lambda: plain.evaluate(variables)) == expected
    return expected


def translate(sql: str) -> str:
    return TRANSLATOR.translate(sql, format="delimited").xquery


class Tables:
    """A plain three-argument resolver over fixed row lists that counts
    its calls per function."""

    def __init__(self, **tables):
        self.tables = tables
        self.calls = Counter()

    def __call__(self, uri, local, args):
        self.calls[local] += 1
        return self.tables[local]


def rows(*values):
    return [element("ROW", element("V", str(value), type_annotation="int"))
            for value in values]


PROLOG = 'declare namespace t = "urn:test";\n'

SCALAR = PROLOG + """
for $o in t:OUTER()
where fn:data($o/V) gt xs:int(fn-bea:scalar(
    (for $i in t:INNER() return <R><V>{fn:data($i/V)}</V></R>)))
return fn:data($o/V)"""


# -- (a) laziness and failures ------------------------------------------------


class TestLazinessAndFailures:
    def test_invariant_subquery_runs_once_per_execution(self):
        tables = Tables(OUTER=rows(1, 5, 9), INNER=rows(4))
        module = parse_xquery(SCALAR)
        plan = compile_module(module, resolver=tables, optimize=True)
        assert plan.evaluate() == [5, 9]
        assert tables.calls == {"OUTER": 1, "INNER": 1}
        assert plan.evaluate() == [5, 9]  # a new execution, a new memo
        assert tables.calls == {"OUTER": 2, "INNER": 2}
        plain = compile_module(module, resolver=tables, optimize=False)
        assert plain.evaluate() == [5, 9]
        assert tables.calls["INNER"] == 2 + 3  # once per outer row

    def test_subquery_never_reached_never_runs(self):
        tables = Tables(OUTER=[], INNER=rows(4, 5))
        plan = compile_module(parse_xquery(SCALAR), resolver=tables,
                              optimize=True)
        assert plan.evaluate() == []
        assert tables.calls["INNER"] == 0
        assert three_ways(SCALAR, resolver=tables) == ""

    def test_two_row_scalar_raises_on_every_execution(self):
        tables = Tables(OUTER=rows(1, 5), INNER=rows(4, 5))
        plan = compile_module(parse_xquery(SCALAR), resolver=tables,
                              optimize=True)
        for _ in range(2):
            with pytest.raises(XQueryError) as raised:
                plan.evaluate()
            assert raised.value.code == "FOBEA002"
        assert three_ways(SCALAR, resolver=tables) == "error FOBEA002"

    def test_scalar_subquery_through_sql(self):
        two_rows = ("(SELECT PAYMENT FROM PAYMENTS WHERE CUSTID = 55)")
        raising = translate(
            "SELECT CUSTOMERNAME FROM CUSTOMERS "
            f"WHERE CREDITLIMIT > {two_rows}")
        assert three_ways(raising) == "error FOBEA002"
        empty_outer = translate(
            "SELECT X.N FROM (SELECT CUSTOMERNAME N, CREDITLIMIT L "
            "FROM CUSTOMERS WHERE CUSTOMERID < 0) AS X "
            f"WHERE X.L > {two_rows}")
        assert three_ways(empty_outer) == "str:''"

    def test_failures_are_not_cached(self):
        compiler = _Compiler(parse_xquery("1"), None, True)
        calls = []

        def flaky(frame):
            calls.append(frame)
            if len(calls) == 1:
                raise ValueError("first use fails")
            return ["value"]

        once = compiler._once(flaky)
        root = compile_module(parse_xquery("1"))._root(None)
        with pytest.raises(ValueError):
            once(root)
        assert once(root.bind("x", [1])) == ["value"]  # re-evaluated
        assert once(root) == ["value"]                 # now memoised
        assert len(calls) == 2
        other = compile_module(parse_xquery("1"))._root(None)
        assert other.variables[MEMO_KEY] is not root.variables[MEMO_KEY]
        assert once(other) == ["value"]
        assert len(calls) == 3

    def test_external_rebound_by_a_flwor_is_not_invariant(self):
        """$p is external, but below ``for $p`` it is a FLWOR variable:
        the subquery that reads it there must run per tuple."""
        query = PROLOG + """
declare variable $p external;
for $p in t:OUTER()
where fn:exists((for $i in t:INNER()
                 where fn:data($i/V) eq fn:data($p/V) return $i))
return fn:data($p/V)"""
        tables = Tables(OUTER=rows(1, 4, 5), INNER=rows(4, 5))
        assert three_ways(query, {"p": 0}, resolver=tables) \
            == "int:4|int:5"

    def test_context_item_from_outside_is_not_invariant(self):
        query = PROLOG + """
t:OUTER()[fn:exists((for $i in t:INNER()
                     where fn:data($i/V) eq fn:data(./V) return $i))]/V"""
        tables = Tables(OUTER=rows(1, 4, 5), INNER=rows(4, 5))
        assert three_ways(query, resolver=tables) \
            == "<V>4</V>|<V>5</V>"


# -- (b) one plan, many executions --------------------------------------------

PARAM_SQL = ("SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE CUSTOMERID IN "
             "(SELECT CUSTOMERID FROM CUSTOMERS WHERE REGION = ?) "
             "OR CREDITLIMIT > (SELECT AVG(CREDITLIMIT) FROM CUSTOMERS "
             "WHERE REGION = ?) ORDER BY CUSTOMERNAME")


class TestIsolation:
    def test_parameters_change_between_executions(self):
        plan = RUNTIME.prepare(translate(PARAM_SQL))
        seen = {region: "".join(plan.stream_chunks(
            {"p1": region, "p2": region}))
            for region in ("EAST", "WEST", "EAST")}
        assert seen["EAST"] != seen["WEST"]
        for region, text in seen.items():
            assert three_ways(translate(PARAM_SQL),
                              {"p1": region, "p2": region}) \
                == f"str:{text!r}"

    def test_eight_threads_never_see_another_memo(self):
        plan = RUNTIME.prepare(translate(PARAM_SQL))
        regions = ["EAST", "WEST", "NORTH", "SOUTH"]
        expected = {region: "".join(plan.stream_chunks(
            {"p1": region, "p2": region})) for region in regions}
        wrong: list = []

        def worker(index: int) -> None:
            for turn in range(25):
                region = regions[(index + turn) % len(regions)]
                text = "".join(plan.stream_chunks(
                    {"p1": region, "p2": region}))
                if text != expected[region]:
                    wrong.append((index, region, text))

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_interleaved_streams_keep_their_own_memo(self):
        plan = RUNTIME.prepare(translate(PARAM_SQL))
        east = plan.stream_chunks({"p1": "EAST", "p2": "EAST"})
        west = plan.stream_chunks({"p1": "WEST", "p2": "WEST"})
        pieces = {"east": [next(east)], "west": [next(west)]}
        pieces["east"].extend(east)
        pieces["west"].extend(west)
        assert "".join(pieces["east"]) == "".join(plan.stream_chunks(
            {"p1": "EAST", "p2": "EAST"}))
        assert "".join(pieces["west"]) == "".join(plan.stream_chunks(
            {"p1": "WEST", "p2": "WEST"}))


# -- (c) lifecycle inside the once-evaluated subquery -------------------------

SUBQUERY_OVER_PAYMENTS = (
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CREDITLIMIT > "
    "(SELECT AVG(PAYMENT) FROM PAYMENTS)")


class TestLifecycle:
    def test_deadline_aborts_inside_the_subquery(self):
        runtime = build_runtime()
        install_fault(runtime, "PAYMENTS", FaultProfile(hang=True))
        connection = connect(runtime)
        cursor = connection.cursor()
        start = time.monotonic()
        with pytest.raises(OperationalError):
            cursor.execute(SUBQUERY_OVER_PAYMENTS, timeout=0.2)
            cursor.fetchall()
        assert time.monotonic() - start < 0.4
        stats = connection.stats()
        assert stats["counters"]["queries.timeout"] == 1
        assert stats["admission"]["active"] == 0

    def test_cancel_aborts_inside_the_subquery(self):
        runtime = build_runtime()
        install_fault(runtime, "PAYMENTS", FaultProfile(hang=True))
        connection = connect(runtime)
        cursor = connection.cursor()
        thread = threading.Thread(
            target=lambda: (time.sleep(0.05), cursor.cancel()))
        thread.start()
        with pytest.raises(OperationalError, match="cancelled"):
            cursor.execute(SUBQUERY_OVER_PAYMENTS)
            cursor.fetchall()
        thread.join(timeout=5)
        assert not thread.is_alive()
        stats = connection.stats()
        assert stats["counters"]["queries.cancelled"] == 1
        assert stats["admission"]["active"] == 0

    def test_subquery_frames_tick_the_deadline(self):
        """No hung source: the subquery's own tuple stream (6^4 frames)
        notices an expired deadline."""
        from repro import clock

        connection = connect(build_runtime(), config=RuntimeConfig(
            max_concurrent_queries=1, admission_queue_timeout=0.05))
        cursor = connection.cursor()
        cursor.execute(
            "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN "
            "(SELECT A.CUSTOMERID FROM CUSTOMERS A, CUSTOMERS B, "
            "CUSTOMERS C, CUSTOMERS D)", timeout=60.0)
        cursor._context.deadline = clock.monotonic() - 1.0
        with pytest.raises(OperationalError, match="deadline"):
            cursor.fetchall()
        assert connection.stats()["admission"]["active"] == 0
        cursor.execute("SELECT CUSTOMERID FROM CUSTOMERS")  # slot is free
        assert len(cursor.fetchall()) == 6


# -- (d) the subquery corpus, three ways --------------------------------------


@pytest.mark.parametrize("sql", SUBQUERY_CORPUS)
def test_subquery_corpus_three_ways(sql):
    three_ways(translate(sql))


def test_subquery_corpus_is_not_empty():
    assert len(SUBQUERY_CORPUS) >= 15


def test_boolean_members_three_ways():
    """No source stores a BOOLEAN column, so the boolean leg of the
    untyped-member rule is checked on XQuery text: the members are
    constructed (untyped) elements, the needle is an xs:boolean."""
    for call, expected in [
        ("fn-bea:in3(xs:boolean('true'), $m/B)", "bool:True"),
        ("fn-bea:in3(xs:boolean('false'), $m/B)", ""),
        ("fn-bea:any3(xs:boolean('false'), $m/B, 'lt')", "bool:True"),
        ("fn-bea:all3(xs:boolean('true'), $m/B, 'ge')", ""),
    ]:
        query = PROLOG + f"""
let $m := (for $i in t:INNER() return
           <R><B>{{if (fn:data($i/V) gt 4) then xs:boolean('true')
                  else ()}}</B></R>)
return {call}"""
        tables = Tables(INNER=rows(4, 5))
        assert three_ways(query, resolver=tables) == expected, call


# -- EXPLAIN says what was decided --------------------------------------------

NESTED_SQL = (
    "SELECT X.NAME, X.TOTAL FROM (SELECT C.CUSTOMERNAME NAME, "
    "SUM(P.PAYMENT) TOTAL FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P "
    "ON C.CUSTOMERID = P.CUSTID GROUP BY C.CUSTOMERNAME) AS X "
    "WHERE X.TOTAL > (SELECT AVG(PAYMENT) FROM PAYMENTS) "
    "OR X.NAME IN (SELECT CUSTOMERNAME FROM CUSTOMERS "
    "WHERE REGION = 'WEST') ORDER BY X.NAME")


class TestExplain:
    def plan(self):
        # Compiled directly with statistics, so the plan report exists
        # on the REPRO_COST_PLANNING=0 leg too.
        result = TRANSLATOR.translate(NESTED_SQL, format="delimited")
        return result, compile_module(
            parse_xquery(result.xquery), resolver=RUNTIME.call_function,
            statistics=RUNTIME.statistics_for)

    def labels(self, plan):
        return [node["label"] for report in plan.plan_reports
                for node in report["nodes"]]

    def test_memoised_build_and_subqueries_are_labelled(self):
        _result, plan = self.plan()
        labels = self.labels(plan)
        assert any(label.startswith("hash-join $")
                   and label.endswith("(1 keys, built once)")
                   for label in labels), labels
        once = [label for label in labels if "once per execution" in label]
        assert len(once) == 2, labels
        assert any(label.startswith("fn-bea:scalar subquery")
                   for label in once)
        assert any(label.startswith("fn-bea:in3 subquery")
                   for label in once)
        assert all("reads no FLWOR variable" in label for label in once)

    def test_actuals_are_the_single_runs_counts(self):
        result, plan = self.plan()
        actuals: dict = {}
        "".join(plan.stream_chunks(actuals=actuals))
        by_label = {node["label"]: actuals.get(node["id"])
                    for report in plan.plan_reports
                    for node in report["nodes"]}
        once = {label: count for label, count in by_label.items()
                if "once per execution" in label}
        # One <RECORD> from the scalar aggregate; two WEST customers.
        assert sorted(once.values()) == [1, 2]
        # The IN subquery's own pipeline ran once: its scan of
        # CUSTOMERS put out the two WEST rows once, not once per X row.
        inner = [count for label, count in by_label.items()
                 if "$var4FR0" in label]
        assert inner == [2]
        text = explain(result.unit, plan_reports=plan.plan_reports,
                       actuals=actuals)
        assert "built once" in text
        assert "once per execution (reads no FLWOR variable)" in text
