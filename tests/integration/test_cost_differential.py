"""Differential testing: statistics never change results.

Every SQL query in the translator corpus (the paper's worked examples
plus the full equivalence battery) runs through four runtimes — the
memory and SQLite backends, each with its source reporting statistics
and reporting none — and all four must produce byte-identical
sequences. A source without statistics (``DataSource.statistics``
returns None, the SPI default) gives the planner nothing to reorder
by, so it plans every FLWOR as written: that runtime is the oracle.
This is the acceptance bar for the statistics-driven for reorder: it
may only ever change speed.
"""

import functools

import pytest

from repro import connect
from repro.catalog import Application
from repro.engine import DSPRuntime, import_tables
from repro.sources.spi import DataSource
from repro.sources.sqlite import SQLiteSource
from repro.translator import SQLToXQueryTranslator
from repro.workloads import build_runtime
from repro.workloads.scaling import APPLICATION, PROJECT, build_scaled_storage
from repro.xmlmodel import Element, serialize
from repro.xquery.evaluator import Evaluator

from tests.xquery.test_compile_differential import CORPUS


def without_statistics(runtime):
    """*runtime* with every source answering the SPI's default: no
    statistics."""
    for source in runtime.sources.values():
        source.statistics = functools.partial(DataSource.statistics, source)
    return runtime


RUNTIMES = {
    ("memory", True): build_runtime(backend="memory"),
    ("memory", False): without_statistics(build_runtime(backend="memory")),
    ("sqlite", True): build_runtime(backend="sqlite"),
    ("sqlite", False): without_statistics(build_runtime(backend="sqlite")),
}
TRANSLATOR = SQLToXQueryTranslator(RUNTIMES[("memory", True)]
                                   .metadata_api())


def canonical(sequence) -> list[str]:
    return [serialize(item) if isinstance(item, Element)
            else f"{type(item).__name__}:{item!r}" for item in sequence]


def test_oracle_plans_without_statistics():
    """Guard against the matrix silently comparing statistics to
    statistics: the plans of the runtimes without statistics carry no
    estimate, the others' do."""
    sql = ("SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P "
           "WHERE C.CUSTOMERID = P.CUSTID")
    module = TRANSLATOR.translate(sql, format="recordset").module
    for (backend, with_statistics), runtime in RUNTIMES.items():
        plan = runtime.prepare_module(("recordset", sql), module)
        estimates = [node["estimate"] for report in plan.plan_reports
                     for node in report["nodes"]]
        assert estimates, backend
        assert any(estimate is not None for estimate in estimates) \
            == with_statistics, (backend, with_statistics)


@pytest.mark.parametrize("sql", CORPUS)
def test_cost_planning_parity(sql):
    xquery = TRANSLATOR.translate(sql, format="recordset").xquery
    oracle = canonical(RUNTIMES[("memory", False)].execute(xquery))
    for key, runtime in RUNTIMES.items():
        if key == ("memory", False):
            continue
        assert canonical(runtime.execute(xquery)) == oracle, (sql, key)


#: Run DETAILS-first, as the statistics would have it, the ``/ 0``
#: conjunct sees DETAILS rows; run as written, ``F.ID + 0 <> F.ID + 0``
#: drops every FACTS row before any DETAILS row is read.
RAISES_IF_REORDERED = (
    "SELECT F.NAME, D.QTY FROM FACTS F, DETAILS D WHERE F.ID = D.FACTID "
    "AND F.ID + 0 <> F.ID + 0 AND D.DETAILID < 20 AND D.QTY / 0 > 1")


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_whether_a_statement_raises_does_not_depend_on_statistics(backend):
    storage = build_scaled_storage(200)
    source = SQLiteSource.from_storage(storage) \
        if backend == "sqlite" else storage
    application = Application(APPLICATION)
    import_tables(application, PROJECT, source)
    runtime = DSPRuntime(application, source)
    connection = connect(runtime)
    module = connection.translator.translate(
        RAISES_IF_REORDERED, format="recordset").module
    [oracle] = Evaluator(module, resolver=runtime.call_function).evaluate()
    assert oracle.children == []
    cursor = connection.cursor()
    cursor.execute(RAISES_IF_REORDERED)
    assert cursor.fetchall() == []
    connection.close()
