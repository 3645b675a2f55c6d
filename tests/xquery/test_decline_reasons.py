"""Every decline of the vector lowering has a reason code — and no
translated statement declines.

The compile-time codes are reached by hand-written XQuery only: one
case per code, whose plan carries it (``CompiledQuery.batched_reason``),
prints it on EXPLAIN's ``executor:`` line, and the runtime counts it
under ``vector.decline.<code>`` in ``Connection.stats()``; the
Evaluator then runs the module. A code added to ``DECLINE_REASONS``
without a case here fails :func:`test_every_reason_code_has_a_case`.
Every statement of the golden corpus, on the demo and the fuzz schemas,
in both result formats, compiles batched.
"""

import json

import pytest

from repro import RuntimeConfig, connect
from repro.translator import SQLToXQueryTranslator
from repro.translator.explain import explain
from repro.workloads import build_runtime
from repro.xmlmodel import element
from repro.xquery import compile_module, parse_xquery
from repro.xquery.vector import DECLINE_REASONS

from tests.fuzz.harness import build_runtime as build_fuzz_runtime
from tests.fuzz.sqlgen import generate_schema
from tests.translator.golden.freeze import CORPUS, FORMATS

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


def _rows(clauses: str, cell: str = "{fn:data($c/CUSTOMERID)}") -> str:
    """``(for $c in ns0:CUSTOMERS() <clauses> return <RECORD><ID>cell
    </ID></RECORD>)``."""
    return (f"(for $c in ns0:CUSTOMERS() {clauses} "
            f"return <RECORD><ID>{cell}</ID></RECORD>)")


_SCAN = _rows("")
_MATCHES = ("(for $d in ns0:CUSTOMERS() where fn:data($d/CUSTOMERID) eq "
            "fn:data($c/CUSTOMERID) return $d)")

#: code -> hand-written XQuery whose lowering declines for that code.
CASES = {
    "not_wrapper": (_PROLOG + "fn:string-join((for $tokenQuery in "
                    + _SCAN + ' return "x"), "")'),
    "window_bounds": _wrapper(
        f"fn:subsequence({_SCAN}, $p1)",
        prolog="declare variable $p1 external;\n"),
    "duplicate_cell_name": _wrapper(_SCAN, cells=("ID", "ID")),
    "record_shape": _wrapper(_SCAN.replace("<RECORD>",
                                           '<RECORD kind="x">')),
    "non_scan_source": _wrapper(
        "(for $c in (1, 2) return <RECORD><ID>{$c}</ID></RECORD>)"),
    "unsupported_clause": _wrapper(
        "(let $x := 1 for $c in ns0:CUSTOMERS() "
        "return <RECORD><ID>{fn:data($c/CUSTOMERID)}</ID></RECORD>)"),
    "unsupported_aggregate": _wrapper(
        "(for $c in ns0:CUSTOMERS() group $c as $P by "
        "fn:data($c/REGION) as $r return "
        "<RECORD><ID>{fn:count(fn:reverse($P))}</ID></RECORD>)"),
    "outer_join_residual": _wrapper(
        f"(for $c in ns0:CUSTOMERS() let $m := {_MATCHES} return "
        f"if (fn:empty($m)) then <RECORD><ID>{{1}}</ID></RECORD> else "
        f"for $d in $m return "
        f"<RECORD><ID>{{fn:data($d/CUSTOMERID)}}</ID></RECORD>)"),
    "correlated_subquery": _wrapper(
        _rows(f"where fn:exists({_MATCHES}[1])")),
    "bare_row_var": _wrapper(_rows("", "{$c}")),
    "unsupported_expr": _wrapper(_rows("", "{1 to 2}")),
}


@pytest.fixture(scope="module")
def connection():
    # The batch size is pinned: every case must be asked.
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
    runtime = connection._runtime
    before = _declines(connection).get(code, 0)
    plan = runtime.prepare(CASES[code])
    assert not plan.batched and plan.batched_reason == code
    assert plan.executor == f"evaluator (decline: {code})"
    assert _declines(connection).get(code, 0) == before + 1
    # Declined, not broken: the Evaluator answers (or raises what the
    # module raises on any executor).
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
    """Without a columnar host nothing is lowered, nor asked to be: the
    Evaluator runs the module, with no decline to report."""
    runtime = connection._runtime
    plan = compile_module(parse_xquery(_wrapper(_SCAN)),
                          resolver=runtime.call_function)
    assert plan.batched_reason is None and plan.executor == "evaluator"


def test_every_reason_code_has_a_case():
    assert set(CASES) | {"param_shape"} == DECLINE_REASONS


def test_every_corpus_statement_compiles_batched():
    """The golden corpus — the demo schema's statements and the fuzz
    schemas' — in both result formats: no translated statement
    declines."""
    runtimes: dict = {}
    declined = []
    for entry in json.loads(CORPUS.read_text()):
        schema = entry["schema"]
        if schema not in runtimes:
            runtime = build_runtime(config=RuntimeConfig(batch_size=64)) \
                if schema == "demo" else build_fuzz_runtime(
                    generate_schema(schema), "memory", 64)
            runtimes[schema] = (runtime, SQLToXQueryTranslator(
                runtime.metadata_api()))
        runtime, translator = runtimes[schema]
        for fmt in FORMATS:
            module = translator.translate(entry["sql"], format=fmt).module
            plan = runtime.prepare_module((fmt, entry["sql"]), module)
            if not plan.batched:
                declined.append((entry["id"], fmt, plan.batched_reason))
    assert declined == []
    assert len(runtimes) == 21
