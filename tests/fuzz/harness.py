"""Four-legged differential harness: batch/tuple × memory/SQLite.

Builds one runtime per leg over the same generated storage and runs
each query through the PEP 249 driver on all four, comparing rows,
order, Python types, and the driver's row-accounting invariants.
"""

from __future__ import annotations

import random

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import Error, connect
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sources.sqlite import SQLiteSource
from repro.sql.types import SQLType
from repro.xquery import parse_xquery

from .sqlgen import SQL_TYPE_NAME

PROJECT = "FuzzServices"

#: Batch sizes worth fuzzing: tiny ones maximize boundary crossings on
#: 0-45-row tables, the default exercises the single-batch fast path.
BATCH_SIZES = (2, 3, 5, 8, 1024)


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
                  batch_size: int, **options) -> DSPRuntime:
    """One runtime leg. ``batch_size=0`` is the tuple executor."""
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
    return DSPRuntime(application, source, config=config)


class Legs:
    """The four driver connections for one generated schema."""

    def __init__(self, schema, batch_size: int):
        storage = build_storage(schema)
        self.batch_size = batch_size
        self.connections = {}
        for backend in ("memory", "sqlite"):
            for mode, size in (("tuple", 0), ("batch", batch_size)):
                runtime = build_runtime(storage, backend, size)
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
    """Run *sql* on all four legs and assert pairwise agreement.
    Returns True when the query executed (vs. all legs erroring)."""
    results = {key: run_leg(conn, sql, params)
               for key, conn in legs.connections.items()}
    baseline_key = ("memory", "tuple")
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
    if baseline[0] == "ok":
        # The tree the legs ran is the tree its printed text parses to.
        translation = legs.connections[baseline_key].translate(sql)
        assert parse_xquery(translation.xquery) == translation.module, sql
    return baseline[0] == "ok"
