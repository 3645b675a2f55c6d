"""The batched plan's per-execution memo: what cannot change while one
execution runs — an invariant subquery, a hash-join build, a scan — is
evaluated once, lazily, and never outlives or crosses an execution.
Every case is also a differential: the batched plan and the Evaluator
must produce the same text or the same error.
"""

import threading
import time

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import OperationalError, connect
from repro.engine import (
    DSPRuntime,
    FaultProfile,
    RetryPolicy,
    Storage,
    import_tables,
    install_fault,
)
from repro.errors import ReproError
from repro.sql.types import SQLType
from repro.translator import SQLToXQueryTranslator
from repro.translator.explain import explain
from repro.workloads import build_runtime
from repro.xmlmodel import Element, serialize
from repro.xquery import Evaluator, compile_module, parse_xquery
from repro.xquery import parse_xquery_expr
from repro.xquery.compile import _Compiler

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
    except ReproError as exc:
        return f"error {getattr(exc, 'code', type(exc).__name__)}"


def three_ways(xquery: str, variables=None, runtime=RUNTIME) -> str:
    """The query's outcome, asserted identical under the batched plan
    and the Evaluator."""
    module = parse_xquery(xquery)
    plan = compile_module(module, resolver=runtime.call_function,
                          columnar=runtime)
    assert plan.batched, plan.batched_reason

    expected = outcome(lambda: Evaluator(
        module, resolver=runtime.call_function,
        variables=variables).evaluate())
    assert outcome(lambda: plan.evaluate(variables)) == expected
    return expected


def translate(sql: str) -> str:
    return TRANSLATOR.translate(sql, format="delimited").xquery


def tables(outer=(), inner=(), **options) -> DSPRuntime:
    """A runtime over two one-column tables, OUTER and INNER (``V``
    INTEGER), each wrapped in a fault-free fault binding so tests can
    read its call count (``runtime.calls[name]``)."""
    storage = Storage()
    for name, values in (("OUTER", outer), ("INNER", inner)):
        table = storage.create_table(name, [("V", SQLType("INTEGER"))])
        table.insert_many([(value,) for value in values])
    application = Application("MemoApp")
    import_tables(application, "T", storage)
    runtime = DSPRuntime(application, storage,
                         config=RuntimeConfig(**options))
    runtime.calls = {name: install_fault(runtime, name, FaultProfile())
                     for name in ("OUTER", "INNER")}
    return runtime


PROLOG = ('declare namespace o = "ld:T/OUTER";\n'
          'declare namespace i = "ld:T/INNER";\n')


def recordset(body: str) -> str:
    return PROLOG + "<RECORDSET>{" + body + "}</RECORDSET>"


SCALAR = recordset("""
for $o in o:OUTER()
where fn:data($o/V) gt xs:int(fn-bea:scalar(
    (for $i in i:INNER() return <R><V>{fn:data($i/V)}</V></R>)))
return <RECORD><V>{fn:data($o/V)}</V></RECORD>""")


def values(result) -> list:
    return [cell.string_value() for record in result[0].children
            for cell in record.children]


# -- (a) laziness and failures ------------------------------------------------


class TestLazinessAndFailures:
    def test_invariant_subquery_runs_once_per_execution(self):
        runtime = tables(outer=(1, 5, 9), inner=(4,))
        inner = runtime.calls["INNER"]
        module = parse_xquery(SCALAR)
        plan = compile_module(module, resolver=runtime.call_function,
                              columnar=runtime)
        assert values(plan.evaluate()) == ["5", "9"]
        assert inner.calls == 1
        assert values(plan.evaluate()) == ["5", "9"]  # a new memo
        assert inner.calls == 2
        oracle = Evaluator(module, resolver=runtime.call_function)
        assert values(oracle.evaluate()) == ["5", "9"]
        assert inner.calls == 2 + 3  # the Evaluator: once per outer row

    def test_subquery_never_reached_never_runs(self):
        runtime = tables(outer=(), inner=(4, 5))
        plan = compile_module(parse_xquery(SCALAR),
                              resolver=runtime.call_function,
                              columnar=runtime)
        assert values(plan.evaluate()) == []
        assert runtime.calls["INNER"].calls == 0
        assert three_ways(SCALAR, runtime=runtime) == "<RECORDSET/>"

    def test_two_row_scalar_raises_on_every_execution(self):
        runtime = tables(outer=(1, 5), inner=(4, 5))
        plan = compile_module(parse_xquery(SCALAR),
                              resolver=runtime.call_function,
                              columnar=runtime)
        for _ in range(2):
            with pytest.raises(ReproError) as raised:
                plan.evaluate()
            assert raised.value.code == "FOBEA002"
        assert three_ways(SCALAR, runtime=runtime) == "error FOBEA002"

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
        """A subquery whose source fails leaves nothing in the memo: the
        next execution runs it again, and succeeds."""
        runtime = tables(outer=(1, 5, 9), inner=(4,),
                         retry_policy=RetryPolicy(attempts=1))
        runtime.calls["INNER"].profile.fail_times = 1
        plan = compile_module(parse_xquery(SCALAR),
                              resolver=runtime.call_function,
                              columnar=runtime)
        with pytest.raises(ReproError, match="unavailable"):
            plan.evaluate()
        assert values(plan.evaluate()) == ["5", "9"]
        assert values(plan.evaluate()) == ["5", "9"]
        assert runtime.calls["INNER"].calls == 3

    def test_external_rebound_by_a_flwor_is_not_invariant(self):
        """$p is external, but below ``for $p`` it is a FLWOR variable:
        the subquery that reads it there runs per row."""
        query = PROLOG.replace(
            "\n", "\ndeclare variable $p external;\n", 1) + """
<RECORDSET>{
for $p in o:OUTER()
where fn:exists((for $i in i:INNER()
                 where fn:data($i/V) eq fn:data($p/V) return $i))
return <RECORD><V>{fn:data($p/V)}</V></RECORD>}</RECORDSET>"""
        runtime = tables(outer=(1, 4, 5), inner=(4, 5))
        assert three_ways(query, {"p": 0}, runtime=runtime) == (
            "<RECORDSET><RECORD><V>4</V></RECORD>"
            "<RECORD><V>5</V></RECORD></RECORDSET>")

    def test_context_item_from_outside_is_not_invariant(self):
        compiler = _Compiler(parse_xquery("1"), None)
        # (inside its own predicate the context item is the subquery's)
        assert compiler._fixed(parse_xquery_expr(
            "i:INNER()[fn:data(./V) gt 4]"))
        assert not compiler._fixed(parse_xquery_expr(
            "(for $i in i:INNER() where fn:data($i/V) eq fn:data(./V) "
            "return $i)"))


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
        """No hung source: the subquery's own batches (a 6^4-row
        product) notice an expired deadline."""
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
    runtime = tables(outer=(1,), inner=(4, 5))
    members = ("(for $i in i:INNER() return <R><B>{if (fn:data($i/V) "
               "gt 4) then xs:boolean('true') else ()}</B></R>)/B")
    for call, expected in [
        (f"fn-bea:in3(xs:boolean('true'), {members})", "true"),
        (f"fn-bea:in3(xs:boolean('false'), {members})", ""),
        (f"fn-bea:any3(xs:boolean('false'), {members}, 'lt')", "true"),
        (f"fn-bea:all3(xs:boolean('true'), {members}, 'ge')", ""),
    ]:
        query = recordset(
            f"for $o in o:OUTER() return <RECORD><X>{{{call}}}</X>"
            f"</RECORD>")
        text = three_ways(query, runtime=runtime)
        assert text == (f"<RECORDSET><RECORD><X>{expected}</X></RECORD>"
                        f"</RECORDSET>" if expected else
                        "<RECORDSET><RECORD><X/></RECORD></RECORDSET>"), \
            call


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
        # Compiled directly, as a read is: with statistics.
        result = TRANSLATOR.translate(NESTED_SQL, format="delimited")
        return result, compile_module(
            parse_xquery(result.xquery), resolver=RUNTIME.call_function,
            statistics=RUNTIME.statistics_for, columnar=RUNTIME)

    def labels(self, plan):
        return [node["label"] for report in plan.plan_reports
                for node in report["nodes"]]

    def test_memoised_build_and_subqueries_are_labelled(self):
        _result, plan = self.plan()
        labels = self.labels(plan)
        assert plan.batched
        assert any(label.startswith("left outer hash join $")
                   and "(1 keys, built once" in label
                   for label in labels), labels
        # Each subquery is a plan of its own: the scalar one's one-group
        # aggregation, the IN one's constant selection.
        assert "let $var3Partition1" in labels, labels
        assert any(label.startswith("hash-join $var4FR0 (1 keys, built "
                                    "once") for label in labels), labels

    def test_actuals_are_the_single_runs_counts(self):
        result, plan = self.plan()
        actuals: dict = {}
        "".join(plan.stream_chunks(actuals=actuals))
        by_label = {node["label"]: actuals.get(node["id"])
                    for report in plan.plan_reports
                    for node in report["nodes"]}
        # One <RECORD> from the scalar aggregate; two WEST customers:
        # each subquery's own pipeline ran once, not once per X row.
        subqueries = sorted(count for label, count in by_label.items()
                            if "$var3Partition1" in label
                            or "$var4FR0" in label)
        assert subqueries == [1, 2]
        text = explain(result.unit, plan_reports=plan.plan_reports,
                       actuals=actuals)
        assert "built once" in text
