"""Differential testing: compiled+streaming executor vs the interpreter.

The tree-walking ``Evaluator`` is the semantics oracle; the closure
compiler (``repro.xquery.compile``) must produce byte-identical results
for every XQuery the translator can emit. Every query in the translator
corpus (the E7 equivalence battery plus the paper's worked examples
E1-E4) is translated in both result formats and executed three ways —
interpreted, compiled-materialized, and compiled-streaming — and the
serialized results must match exactly. For the delimited wrapper the
chunked text stream must concatenate to the interpreter's single string.
"""

import pytest

from repro.translator import SQLToXQueryTranslator
from repro.workloads import build_runtime
from repro.xmlmodel import Element, serialize
from repro.xquery import Evaluator, compile_module, parse_xquery
from repro.xquery.vector import VSTATS

from tests.integration.test_equivalence import BATTERY, HARD_BATTERY

#: The paper's worked translation examples (sections 3.3-3.6): E1
#: wildcard projection, E2 derived-table/alias nesting, E3 inner join,
#: E4 left outer join with IS NULL filtering.
PAPER_EXAMPLES = [
    "SELECT * FROM CUSTOMERS",
    "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, "
    "CUSTOMERNAME NAME FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10",
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS "
    "INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
    "SELECT CUSTOMERS.CUSTOMERID, CUSTOMERS.CUSTOMERNAME, "
    "PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS "
    "ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID",
]

CORPUS = PAPER_EXAMPLES + BATTERY + HARD_BATTERY

RUNTIME = build_runtime()
TRANSLATOR = SQLToXQueryTranslator(RUNTIME.metadata_api())


def canonical(sequence) -> list[str]:
    """Byte-exact canonical form of a result sequence: elements by
    their serialization, atomics by type and repr."""
    rendered = []
    for item in sequence:
        if isinstance(item, Element):
            rendered.append(serialize(item))
        else:
            rendered.append(f"{type(item).__name__}:{item!r}")
    return rendered


def run_differential(sql: str, fmt: str) -> None:
    xquery = TRANSLATOR.translate(sql, format=fmt).xquery
    module = parse_xquery(xquery)
    interpreted = Evaluator(module, resolver=RUNTIME.call_function,
                            optimize=True).evaluate()
    plan = compile_module(module, resolver=RUNTIME.call_function,
                          optimize=True)
    expected = canonical(interpreted)
    assert canonical(plan.evaluate()) == expected, sql
    assert canonical(list(plan.stream_items())) == expected, sql
    if fmt == "delimited":
        # The wrapper returns one string; the chunk stream must
        # concatenate to it byte-for-byte.
        assert plan.streams_text, sql
        assert len(interpreted) == 1
        assert "".join(plan.stream_chunks()) == interpreted[0], sql


@pytest.mark.parametrize("sql", CORPUS)
def test_compiled_matches_interpreted_delimited(sql):
    run_differential(sql, "delimited")


@pytest.mark.parametrize("sql", CORPUS)
def test_compiled_matches_interpreted_recordset(sql):
    run_differential(sql, "recordset")


@pytest.mark.parametrize("sql", CORPUS)
def test_accepted_vector_plan_is_the_plan_that_runs(sql):
    """Executor choice is the vector compiler's accept/decline and
    nothing else: a runtime plan it accepted is ``batched`` and every
    execution goes through the batch executor (the tuple closure
    remains only as the parameter-shape fallback, which no corpus
    statement takes); a declined plan never touches it."""
    xquery = TRANSLATOR.translate(sql, format="delimited").xquery
    plan = RUNTIME.prepare(xquery)
    assert plan.batched == (plan.vector_plan is not None)
    before = (VSTATS.executions, VSTATS.fallbacks)
    for _chunk in plan.stream_chunks():
        pass
    assert VSTATS.executions - before[0] == int(plan.batched), sql
    assert VSTATS.fallbacks == before[1], sql


def test_unoptimized_plans_also_match():
    """The optimize=False path (no hoisting/fusion/joins) must agree
    with the interpreter too — it is the fallback configuration."""
    for sql in PAPER_EXAMPLES:
        xquery = TRANSLATOR.translate(sql, format="delimited").xquery
        module = parse_xquery(xquery)
        interpreted = Evaluator(module, resolver=RUNTIME.call_function,
                                optimize=False).evaluate()
        plan = compile_module(module, resolver=RUNTIME.call_function,
                              optimize=False)
        assert canonical(plan.evaluate()) == canonical(interpreted), sql
