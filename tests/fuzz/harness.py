"""Four-legged differential harness: batch/Evaluator × memory/SQLite.

Builds one runtime per leg over the same generated storage and runs
each query through the PEP 249 driver on all four, comparing rows,
order, Python types, and the driver's row-accounting invariants. The
batch legs run every statement on the vector plan, with no decline
(``vector.decline.*`` stays 0 but for ``param_shape``); the other legs
run it on the Evaluator, through :func:`evaluator_leg`.
"""

from __future__ import annotations

import random

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import Error, connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sources.sqlite import SQLiteSource
from repro.sql.types import SQLType
from repro.xquery import compile_module, parse_xquery

from .sqlgen import SQL_TYPE_NAME

PROJECT = "FuzzServices"

#: Batch sizes worth fuzzing: tiny ones maximize boundary crossings on
#: 0-45-row tables, the default exercises the single-batch fast path.
BATCH_SIZES = (2, 3, 5, 8, 1024)


def evaluator_leg(runtime: DSPRuntime) -> DSPRuntime:
    """*runtime*, every statement of it run by the Evaluator — the
    differential's other leg. Its compiles get no columnar host, so
    nothing lowers onto the batch executor, and the Evaluator runs the
    clauses as written. Not cached: each execution compiles."""

    def prepare_module(key, module, tracer=None):
        return compile_module(module, resolver=runtime.call_function)

    runtime.prepare_module = prepare_module
    runtime.prepare = lambda text, tracer=None: prepare_module(
        None, parse_xquery(text))
    return runtime


def declines(runtime: DSPRuntime) -> dict:
    """``vector.decline.<code>`` counts of *runtime*, but ``param_shape``
    (the one a translated statement may meet: a bound node)."""
    counters = runtime.metrics.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("vector.decline.")
            and name != "vector.decline.param_shape" and value}


def build_storage(schema) -> Storage:
    storage = Storage()
    for table in schema:
        handle = storage.create_table(
            table.name,
            [(c.name, SQLType(SQL_TYPE_NAME[c.kind]))
             for c in table.columns])
        if table.rows:
            handle.insert_many(list(table.rows))
    return storage


def build_runtime(schema_or_storage, backend: str,
                  batch_size: int, evaluator: bool = False,
                  **options) -> DSPRuntime:
    """One runtime leg; *evaluator* makes it an :func:`evaluator_leg`."""
    storage = (schema_or_storage
               if isinstance(schema_or_storage, Storage)
               else build_storage(schema_or_storage))
    if backend == "sqlite":
        source = SQLiteSource.from_storage(storage, name="sqlite")
    else:
        source = storage
    application = Application("FuzzApp")
    import_tables(application, PROJECT, source)
    config = RuntimeConfig(batch_size=batch_size, **options)
    runtime = DSPRuntime(application, source, config=config)
    return evaluator_leg(runtime) if evaluator else runtime


class Legs:
    """The four driver connections for one generated schema."""

    def __init__(self, schema, batch_size: int):
        storage = build_storage(schema)
        self.batch_size = batch_size
        self.connections = {}
        for backend in ("memory", "sqlite"):
            for mode in ("evaluator", "batch"):
                runtime = build_runtime(storage, backend, batch_size,
                                        evaluator=mode == "evaluator")
                self.connections[(backend, mode)] = connect(runtime)

    def close(self) -> None:
        for connection in self.connections.values():
            connection.close()


def leg_seed_batch_size(schema_seed: int) -> int:
    return random.Random(("bs", schema_seed).__repr__()).choice(
        BATCH_SIZES)


def run_leg(connection, sql: str, params) -> tuple:
    """(\"ok\", rows, rowcount) or (\"error\",) — the differential only
    requires agreement, so error legs must simply all be error legs."""
    cursor = connection.cursor()
    try:
        cursor.execute(sql, params)
        rows = cursor.fetchall()
    except Error:
        return ("error",)
    finally:
        cursor.close()
    return ("ok", rows, cursor.rowcount)


def typed(rows) -> list:
    """Rows with value types made explicit, so 1 vs 1.0 vs Decimal(1)
    or date vs datetime mismatches fail the comparison."""
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def assert_legs_agree(sql: str, params, legs: Legs) -> bool:
    """Run *sql* on all four legs and assert pairwise agreement, and
    that no batch leg declined it. Returns True when the query executed
    (vs. all legs erroring)."""
    results = {key: run_leg(conn, sql, params)
               for key, conn in legs.connections.items()}
    baseline_key = ("memory", "evaluator")
    baseline = results[baseline_key]
    for key, result in results.items():
        if key == baseline_key:
            continue
        assert result[0] == baseline[0], (
            f"{key} {result[0]} vs {baseline_key} {baseline[0]} for: "
            f"{sql!r} params={params!r}")
        if baseline[0] == "ok":
            assert typed(result[1]) == typed(baseline[1]), (
                f"row mismatch {key} vs {baseline_key} for: {sql!r} "
                f"params={params!r} (batch_size={legs.batch_size})\n"
                f"{key}: {result[1]!r}\n{baseline_key}: {baseline[1]!r}")
            assert result[2] == baseline[2], (
                f"rowcount mismatch {key}={result[2]} vs "
                f"{baseline_key}={baseline[2]} for: {sql!r}")
    for (backend, mode), connection in legs.connections.items():
        if mode == "batch":
            assert declines(connection._runtime) == {}, (backend, sql)
    if baseline[0] == "ok":
        # The tree the legs ran is the tree its printed text parses to.
        translation = legs.connections[baseline_key].translate(sql)
        assert parse_xquery(translation.xquery) == translation.module, sql
    return baseline[0] == "ok"
