"""The existing translator corpus, replayed batch-vs-Evaluator.

The equivalence battery (tests/integration/test_equivalence.py) already
proves the driver against the reference SQL engine; here every corpus
query must additionally produce byte-identical rows, types, and
rowcounts under the vectorized batch executor and the tuple-at-a-time
Evaluator — on the in-memory source and on SQLite. Every one of them
runs batched: aggregates, outer joins, set operations and correlated
subqueries included.
"""

from __future__ import annotations

import pytest

from repro.driver import connect
from repro.workloads import build_runtime

from tests.integration.test_equivalence import BATTERY, HARD_BATTERY
from tests.xquery.test_compile_differential import PAPER_EXAMPLES

from .harness import declines, evaluator_leg, typed

CORPUS = PAPER_EXAMPLES + BATTERY + HARD_BATTERY

_connections: dict = {}


def _connection(backend: str, mode: str):
    key = (backend, mode)
    if key not in _connections:
        runtime = build_runtime(backend=backend, batch_size=1024)
        _connections[key] = connect(
            evaluator_leg(runtime) if mode == "evaluator" else runtime)
    return _connections[key]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("sql", CORPUS)
def test_corpus_batch_matches_tuple(backend, sql):
    rows = {}
    counts = {}
    for mode in ("evaluator", "batch"):
        cursor = _connection(backend, mode).cursor()
        cursor.execute(sql)
        rows[mode] = cursor.fetchall()
        counts[mode] = cursor.rowcount
        cursor.close()
    assert typed(rows["batch"]) == typed(rows["evaluator"]), (
        f"batch/Evaluator divergence on {backend} for: {sql!r}")
    assert counts["batch"] == counts["evaluator"]
    assert declines(_connection(backend, "batch")._runtime) == {}, sql
