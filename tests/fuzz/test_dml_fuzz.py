"""The generative DML differential battery (PR 9's write-path harness).

Each case derives a schema, data, and a DML *script* — interleaved
INSERT/UPDATE/DELETE, read checkpoints, and begin/commit/rollback
points — from one integer seed, then replays the script on two legs
and demands identical per-statement outcomes: same rowcount, same
error class, same checkpoint rows, same final state. ``lastrowid`` is
deliberately outside the differential (backend-defined).

Legs:

* **memory vs SQLite** — the same script through the engine's two
  writable backends (copy-on-write swap vs SAVEPOINT atomicity);
* **embedded vs remote** — the same script over the wire through a
  live ``repro.server``, proving the protocol-v2 transaction verbs
  demarcate exactly like in-process calls;
* **pushdown on vs off** — the same script on one backend (SQLite, and
  memory with every table grown past ``index_min_rows`` so its index
  probe engages) against a runtime whose sources take no pushed
  request (``tests/sources/blind.py``): victim selection through a pushed handle scan must pick exactly the
  victims the full scan picks. Both legs also assert that a version
  token never names two different row-sets.

The memory leg additionally asserts the version-token contract: every
rollback restores each table's token to its pre-transaction value, so
cached plans and statistics keyed on tokens become valid again.

``REPRO_DML_FUZZ_SCRIPTS`` scales the battery (default 10 local
scripts + 4 remote scripts, ≥ 10 DML statements each — comfortably
past the 40-statement corpus floor the acceptance criteria name).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.driver import Error, connect
from repro.server.core import TenantConfig, serve_in_thread
from repro.sources.memory import TableSource

from tests.sources.blind import without_pushdown

from .dmlgen import MutationFuzzer
from .harness import build_runtime, typed
from .sqlgen import FuzzTable, _value, generate_schema

SCRIPTS = int(os.environ.get("REPRO_DML_FUZZ_SCRIPTS", "10"))
REMOTE_SCRIPTS = max(2, SCRIPTS // 3)
SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

_corpus = {"dml": 0, "sqlite_pushed": 0, "memory_index_hits": 0}


def _tokens(connection, schema) -> dict:
    source = connection._runtime._default_source
    return {table.name: source.version(table.name) for table in schema}


def _check_tokens_name_one_rowset(connection, tables, seen: dict) -> None:
    """Record each table's (token, rows) and fail if a token seen
    before now stands for other rows."""
    source = connection._runtime._default_source
    for table in tables:
        rows = list(source.scan(table.name))
        first = seen.setdefault((table.name, source.version(table.name)),
                                rows)
        assert first == rows, f"{table.name}: one token, two row-sets"


def run_script_leg(connection, ops, schema=None, unique_tokens=()) -> list:
    """Replay *ops* on one connection, returning comparable outcomes.

    When *schema* is given (the embedded memory leg), every rollback
    additionally asserts the version-token restore contract; with
    *unique_tokens* (tables), every step asserts that no token is ever
    reused for different rows.
    """
    outcomes = []
    pre_txn_tokens = None
    seen_tokens: dict = {}
    cursor = connection.cursor()
    for op in ops:
        if unique_tokens:
            _check_tokens_name_one_rowset(connection, unique_tokens,
                                          seen_tokens)
        if op[0] == "begin":
            if schema is not None:
                pre_txn_tokens = _tokens(connection, schema)
            connection.begin()
            outcomes.append(("begin",))
        elif op[0] in ("commit", "rollback"):
            getattr(connection, op[0])()
            if op[0] == "rollback" and schema is not None:
                assert _tokens(connection, schema) == pre_txn_tokens, \
                    "rollback must restore every table's version token"
            pre_txn_tokens = None
            outcomes.append((op[0],))
        elif op[0] == "dml":
            try:
                cursor.execute(op[1], op[2])
                outcomes.append(("ok", cursor.rowcount))
            except Error as exc:
                outcomes.append(("error", type(exc).__name__))
        else:  # read checkpoint
            try:
                cursor.execute(op[1])
                rows = cursor.fetchall()
                outcomes.append(("rows", typed(rows), cursor.rowcount))
            except Error as exc:
                outcomes.append(("error", type(exc).__name__))
    cursor.close()
    return outcomes


def assert_outcomes_agree(ops, a_name, a, b_name, b) -> None:
    assert len(a) == len(b)
    for op, left, right in zip(ops, a, b):
        assert left == right, (
            f"{a_name} {left!r} vs {b_name} {right!r} for op {op!r}")


def _grown(schema, seed: int, rows: int) -> tuple:
    """*schema* with every table padded to *rows* rows."""
    rng = random.Random(("grow", seed).__repr__())
    return tuple(
        FuzzTable(table.name, table.columns, table.rows + tuple(
            tuple(_value(rng, column.kind, 0.1)
                  for column in table.columns)
            for _ in range(rows - len(table.rows))))
        for table in schema)


def _script_for(case: int, rows: int = 0):
    schema_seed = SEED_BASE + case
    schema = _grown(generate_schema(schema_seed), schema_seed, rows)
    fuzzer = MutationFuzzer(SEED_BASE * 1_000_003 + case, schema)
    ops = fuzzer.script(min_dml=10)
    _corpus["dml"] += sum(op[0] == "dml" for op in ops)
    return schema, ops


@pytest.mark.parametrize("case", range(SCRIPTS))
def test_dml_memory_vs_sqlite(case):
    schema, ops = _script_for(case)
    memory = connect(build_runtime(schema, "memory", 0))
    sqlite = connect(build_runtime(schema, "sqlite", 0))
    try:
        a = run_script_leg(memory, ops, schema=schema)
        b = run_script_leg(sqlite, ops)
        assert_outcomes_agree(ops, "memory", a, "sqlite", b)
    finally:
        memory.close()
        sqlite.close()


@pytest.mark.parametrize("case", range(REMOTE_SCRIPTS))
def test_dml_embedded_vs_remote(case):
    schema, ops = _script_for(1000 + case)
    embedded = connect(build_runtime(schema, "memory", 0))
    server_runtime = build_runtime(schema, "memory", 0)
    tenant = TenantConfig(name="FuzzApp", runtime=server_runtime,
                          token="fuzz")
    with serve_in_thread(tenant) as handle:
        remote = connect(handle.dsn("FuzzApp", token="fuzz"))
        try:
            a = run_script_leg(embedded, ops, schema=schema)
            b = run_script_leg(remote, ops)
            assert_outcomes_agree(ops, "embedded", a, "remote", b)
        finally:
            remote.close()
            embedded.close()


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
@pytest.mark.parametrize("case", range(SCRIPTS))
def test_dml_pushdown_on_vs_off(case, backend):
    schema, ops = _script_for(2000 + case,
                              rows=TableSource.index_min_rows + 44)
    pushed = connect(build_runtime(schema, backend, 0))
    full = connect(without_pushdown(build_runtime(schema, backend, 0)))
    try:
        a = run_script_leg(pushed, ops, unique_tokens=schema,
                           schema=schema if backend == "memory" else None)
        b = run_script_leg(full, ops, unique_tokens=schema)
        assert_outcomes_agree(ops, "pushdown", a, "full scan", b)
        counters = pushed.stats()["runtime"]["counters"]
        _corpus["sqlite_pushed"] += (
            backend == "sqlite" and counters["sources.rows_pushed"])
        _corpus["memory_index_hits"] += (
            backend == "memory" and counters["sources.index_hits"])
        assert full.stats()["runtime"]["counters"][
            "sources.rows_pushed"] == 0
    finally:
        pushed.close()
        full.close()


def test_rowcount_fetch_pattern_matrix():
    """Embedded and remote cursors must report the same ``rowcount``
    after *identical fetch sequences*, whatever the paging pattern —
    the regression surface behind the protocol's eager-exhaustion
    reporting."""
    schema = generate_schema(SEED_BASE + 7)
    table = max(schema, key=lambda t: len(t.rows))
    sql = (f"SELECT * FROM {table.name} ORDER BY "
           + ", ".join(c.name for c in table.columns))

    embedded = connect(build_runtime(schema, "memory", 0))
    server_runtime = build_runtime(schema, "memory", 0)
    tenant = TenantConfig(name="FuzzApp", runtime=server_runtime,
                          token="fuzz")
    n = len(table.rows)
    with serve_in_thread(tenant) as handle:
        remote = connect(handle.dsn("FuzzApp", token="fuzz"))
        try:
            for label, sizes in (
                    ("fetchall", None),
                    ("fetchone-loop", "ones"),
                    ("fetchmany-3", 3),
                    ("fetchmany-exact", max(1, n)),
                    ("iterate", "iter"),
            ):
                counts = {}
                for name, conn in (("embedded", embedded),
                                   ("remote", remote)):
                    cur = conn.cursor()
                    cur.execute(sql)
                    if sizes is None:
                        rows = cur.fetchall()
                    elif sizes == "ones":
                        rows = []
                        while True:
                            row = cur.fetchone()
                            if row is None:
                                break
                            rows.append(row)
                    elif sizes == "iter":
                        rows = list(cur)
                    else:
                        rows = []
                        while True:
                            chunk = cur.fetchmany(sizes)
                            if not chunk:
                                break
                            rows.extend(chunk)
                    counts[name] = (len(rows), cur.rowcount)
                    cur.close()
                assert counts["embedded"] == counts["remote"], (
                    f"{label}: {counts!r}")
                assert counts["embedded"] == (n, n), (
                    f"{label}: {counts!r}")
        finally:
            remote.close()
            embedded.close()


def test_zz_dml_corpus_size():
    """The acceptance criteria demand a ≥ 40-statement DML corpus; the
    scripts above must clear that floor even at the default scale.
    (Named zz so it runs after the cases.)"""
    assert _corpus["dml"] >= 40, _corpus
    # The on-vs-off leg compared something: both backends pushed.
    assert _corpus["sqlite_pushed"] > 0, _corpus
    assert _corpus["memory_index_hits"] > 0, _corpus
