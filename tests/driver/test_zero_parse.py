"""The generated path never parses: stage three hands the runtime a
tree, so ``xquery.parses`` — incremented on ``DSPRuntime.prepare(text)``
only — stays where it was however many distinct statements the driver
translates, embedded or through the server. Text is still parsed where
text is what the caller has."""

import pytest

from repro import connect
from repro.server import TenantConfig, serve_in_thread
from repro.workloads import build_runtime, generate_query

STATEMENTS = sorted({generate_query(seed) for seed in range(80)})[:50]


def parses(connection) -> int:
    return connection.stats()["runtime"]["counters"]["xquery.parses"]


def run_all(connection) -> None:
    cursor = connection.cursor()
    for sql in STATEMENTS:
        cursor.execute(sql)
        cursor.fetchall()
    stats = connection.stats()
    assert stats["plan_cache"]["misses"] >= len(STATEMENTS)


def test_statements_are_distinct():
    assert len(STATEMENTS) == 50


@pytest.mark.parametrize("fmt", ["delimited", "xml"])
def test_embedded_driver_never_parses(fmt):
    with connect(build_runtime(), format=fmt) as connection:
        run_all(connection)
        assert parses(connection) == 0


def test_remote_driver_never_parses():
    runtime = build_runtime()
    tenant = TenantConfig(name="app", runtime=runtime, token="t")
    with serve_in_thread(tenant) as handle:
        with connect(handle.dsn("app", "TestDataServices",
                                token="t")) as connection:
            run_all(connection)
            assert parses(connection) == 0
    assert runtime.metrics.counter("xquery.parses").value == 0


def test_text_entry_point_parses_once_per_text():
    runtime = build_runtime()
    with connect(runtime) as connection:
        assert runtime.execute("1 + 1") == [2]
        assert parses(connection) == 1
        runtime.execute("1 + 1")            # plan-cache hit
        assert parses(connection) == 1
        # A translation's text is an ordinary text to the runtime, and
        # compiles to a plan of its own.
        translation = connection.translate(STATEMENTS[0])
        runtime.execute(translation.xquery)
        assert parses(connection) == 2


def test_plans_are_shared_by_the_connections_of_a_runtime():
    runtime = build_runtime()
    with connect(runtime) as first, connect(runtime) as second:
        for connection in (first, second):
            cursor = connection.cursor()
            cursor.execute(STATEMENTS[0])
            cursor.fetchall()
        stats = second.stats()
        assert stats["plan_cache"]["misses"] == 1
        assert stats["plan_cache"]["hits"] == 1
        # ... and a plan is keyed with its format: the same SQL under
        # the other format is another module.
        with connect(runtime, format="xml") as third:
            third.cursor().execute(STATEMENTS[0])
            assert third.stats()["plan_cache"]["misses"] == 2
