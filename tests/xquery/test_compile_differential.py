"""Differential testing: the batch executor vs the interpreter.

The tree-walking ``Evaluator`` is the semantics oracle; the batched
plan (``repro.xquery.compile`` / ``vector``) must produce byte-identical
results for every XQuery the translator can emit. Every query in the
translator corpus (the E7 equivalence battery plus the paper's worked
examples E1-E4) is translated in both result formats and executed three
ways — interpreted, batched-materialized, and batched-streaming — and
the serialized results must match exactly: the xml format's RECORDSET
element is built by the batch executor's output stage. For the
delimited wrapper the chunked text stream must concatenate to the
interpreter's single string.
"""

import pytest

from repro.driver import Error, OperationalError, connect
from repro.translator import SQLToXQueryTranslator
from repro.workloads import build_runtime
from repro.xmlmodel import Element, serialize
from repro.xquery import Evaluator, compile_module, parse_xquery
from repro.xquery.vector import VSTATS

from tests.fuzz.harness import evaluator_leg
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
    interpreted = Evaluator(module,
                            resolver=RUNTIME.call_function).evaluate()
    plan = compile_module(module, resolver=RUNTIME.call_function,
                          columnar=RUNTIME)
    assert plan.batched, sql
    expected = canonical(interpreted)
    assert canonical(plan.evaluate()) == expected, sql
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
    nothing else: every translated statement is ``batched`` and every
    execution goes through the batch executor (the Evaluator takes only
    a run whose parameter is a node or a sequence, which no corpus
    statement binds)."""
    xquery = TRANSLATOR.translate(sql, format="delimited").xquery
    plan = RUNTIME.prepare(xquery)
    assert plan.batched and plan.vector_plan is not None, sql
    before = (VSTATS.executions, VSTATS.fallbacks)
    for _chunk in plan.stream_chunks():
        pass
    assert VSTATS.executions - before[0] == 1, sql
    assert VSTATS.fallbacks == before[1], sql


def test_unoptimized_plans_also_match():
    """The Evaluator, which runs the clauses as written (no hoisting,
    fusion or joins), agrees with the batched plan."""
    for sql in PAPER_EXAMPLES:
        xquery = TRANSLATOR.translate(sql, format="delimited").xquery
        module = parse_xquery(xquery)
        interpreted = Evaluator(module,
                                resolver=RUNTIME.call_function).evaluate()
        plan = compile_module(module, resolver=RUNTIME.call_function,
                              columnar=RUNTIME)
        assert canonical(plan.evaluate()) == canonical(interpreted), sql


#: Statements that divide by zero in two operations — ``idiv`` (INTEGER
#: operands) and ``div`` (DECIMAL) — on different rows: which row's
#: error a batch surfaces first is not the Evaluator's row order.
DIVIDING = [
    "SELECT 100 / (CUSTOMERID - 23), 1.5 / (CUSTOMERID - 55) "
    "FROM CUSTOMERS",
    "SELECT 1.5 / (CUSTOMERID - 55) FROM CUSTOMERS "
    "WHERE 100 / (CUSTOMERID - 7) > 0",
]


def failure(connection, sql: str):
    """``(driver exception class, error code)`` of *sql*, or None."""
    cursor = connection.cursor()
    try:
        cursor.execute(sql)
        cursor.fetchall()
    except Error as exc:
        return type(exc), getattr(exc.__cause__, "code", None)
    return None


@pytest.mark.parametrize("fmt", ["delimited", "xml"])
@pytest.mark.parametrize("batch_size", [1, 2, 1024])
@pytest.mark.parametrize("sql", DIVIDING)
def test_which_error_wins(sql, batch_size, fmt):
    """The contract: a batched statement raises if and only if the
    Evaluator raises, with the same error code and driver exception
    class; the message may name another row's operation."""
    batched = connect(build_runtime(batch_size=batch_size), format=fmt)
    oracle = connect(evaluator_leg(build_runtime()), format=fmt)
    expected = failure(oracle, sql)
    assert expected == (OperationalError, "FOAR0001")
    assert failure(batched, sql) == expected


@pytest.mark.parametrize("batch_size", [1, 2, 1024])
def test_a_case_branch_runs_only_on_the_rows_that_take_it(batch_size):
    """A masked select: the ELSE branch never divides by the row the
    WHEN branch takes."""
    sql = ("SELECT CASE WHEN CUSTOMERID = 55 THEN 0 "
           "ELSE 100 / (CUSTOMERID - 55) END FROM CUSTOMERS")
    rows = {}
    for name, runtime in (
            ("batched", build_runtime(batch_size=batch_size)),
            ("evaluator", evaluator_leg(build_runtime()))):
        cursor = connect(runtime).cursor()
        cursor.execute(sql)
        rows[name] = cursor.fetchall()
    assert rows["batched"] == rows["evaluator"]
    assert rows["batched"][0] == (0,) and len(rows["batched"]) == 6
