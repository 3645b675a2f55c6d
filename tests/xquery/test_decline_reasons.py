"""Every decline of the vector lowering has a reason code.

One statement per code: the compiled plan carries it
(``CompiledQuery.batched_reason``), EXPLAIN prints it, and the runtime
counts it under ``vector.decline.<code>`` in ``Connection.stats()``. A
code added to ``DECLINE_REASONS`` without a case here fails the last
test.
"""

import pytest

from repro import RuntimeConfig, connect
from repro.translator.explain import explain
from repro.workloads import build_runtime
from repro.xmlmodel import element
from repro.xquery import compile_module, parse_xquery
from repro.xquery.vector import DECLINE_REASONS

_PROLOG = ('import schema namespace ns0 = "ld:TestDataServices/CUSTOMERS" '
           'at "ld:TestDataServices/schemas/CUSTOMERS.xsd";\n')
_CELL = ('(let $cell0 := fn:data($tokenQuery/{name}) return '
         'if (fn:empty($cell0)) then "<" else fn:concat(">", '
         'fn-bea:xml-escape(fn-bea:serialize-atomic($cell0))))')


def _wrapper(source: str, cells=("ID",), prolog: str = "") -> str:
    """A hand-written section-4 wrapper over *source*."""
    return (_PROLOG + prolog + "fn:string-join((for $tokenQuery in "
            + source + " return (" + ", ".join(
                _CELL.format(name=name) for name in cells) + ')), "")')


_SCAN = ("(for $c in ns0:CUSTOMERS() return "
         "<RECORD><ID>{fn:data($c/CUSTOMERID)}</ID></RECORD>)")

#: code -> SQL statement, or hand-written XQuery (starts with "import").
CASES = {
    "not_wrapper": "SELECT DISTINCT REGION FROM CUSTOMERS",
    "window_bounds": _wrapper(
        f"fn:subsequence({_SCAN}, $p1)",
        prolog="declare variable $p1 external;\n"),
    "duplicate_cell_name": _wrapper(_SCAN, cells=("ID", "ID")),
    "record_shape": "SELECT COUNT(*) FROM CUSTOMERS HAVING COUNT(*) > 1",
    "non_scan_source": _wrapper(
        "(for $c in (1, 2) return <RECORD><ID>{$c}</ID></RECORD>)"),
    "unsupported_clause": "SELECT A.CUSTOMERID FROM CUSTOMERS A, PAYMENTS B",
    "unsupported_aggregate": (
        "SELECT REGION, SUM(CREDITLIMIT + (SELECT MAX(PAYMENT) "
        "FROM PAYMENTS)) FROM CUSTOMERS GROUP BY REGION"),
    "outer_join_residual": (
        "SELECT C.CUSTOMERID, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN "
        "PAYMENTS P ON C.CUSTOMERID = P.CUSTID AND C.CREDITLIMIT > 500"),
    "correlated_subquery": (
        "SELECT C.CUSTOMERID FROM CUSTOMERS C WHERE EXISTS "
        "(SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)"),
    "bare_row_var": _wrapper(
        "(for $c in ns0:CUSTOMERS() return <RECORD><ID>{$c}</ID></RECORD>)"),
    "unsupported_expr": "SELECT UPPER(CUSTOMERNAME) FROM CUSTOMERS",
}


@pytest.fixture(scope="module")
def connection():
    # The batch size is pinned: a tuple-only runtime asks nobody.
    runtime = build_runtime(config=RuntimeConfig(batch_size=64))
    yield connect(runtime)
    runtime.close()


def _declines(connection) -> dict:
    counters = connection.stats()["runtime"]["counters"]
    return {name.rsplit(".", 1)[1]: value
            for name, value in counters.items()
            if name.startswith("vector.decline.")}


@pytest.mark.parametrize("code", sorted(CASES))
def test_decline_is_recorded_printed_and_counted(connection, code):
    statement = CASES[code]
    runtime = connection._runtime
    before = _declines(connection).get(code, 0)
    if statement.startswith("import"):
        plan = runtime.prepare(statement)
        report = None
    else:
        translation = connection.translator.translate(
            statement, format="delimited")
        plan = runtime.prepare_module(("delimited", statement),
                                      translation.module)
        report = explain(translation.unit, executor=plan.executor)
    assert not plan.batched and plan.batched_reason == code
    assert plan.executor == f"tuple (decline: {code})"
    if report is not None:
        assert f"\nexecutor: tuple (decline: {code})\n" in report
    assert _declines(connection).get(code, 0) == before + 1
    # Declined, not broken: the tuple pipeline answers (or raises what
    # the statement raises on any executor).
    if code not in ("window_bounds", "duplicate_cell_name"):
        assert plan.evaluate() is not None


def test_a_batched_plan_says_so_and_counts_a_parameter_it_cannot_hold(
        connection):
    sql = "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERNAME = ?"
    translation = connection.translator.translate(sql, format="delimited")
    plan = connection._runtime.prepare_module(("delimited", sql),
                                              translation.module)
    assert plan.batched and plan.batched_reason is None
    assert "\nexecutor: batched\n" in explain(translation.unit,
                                              executor=plan.executor)
    before = _declines(connection).get("param_shape", 0)
    assert plan.evaluate({"p1": ["Sue"]}) == [">23"]
    assert _declines(connection).get("param_shape", 0) == before
    assert plan.evaluate({"p1": [element("X", "Sue")]}) == [">23"]
    assert _declines(connection).get("param_shape", 0) == before + 1


def test_a_tuple_only_compile_asks_nobody(connection):
    runtime = connection._runtime
    plan = compile_module(parse_xquery(_wrapper(_SCAN)),
                          resolver=runtime.call_function, batch_size=0)
    assert plan.batched_reason is None and plan.executor == "tuple"


def test_every_reason_code_has_a_case():
    assert set(CASES) | {"param_shape"} == DECLINE_REASONS
