"""The generative differential fuzz battery (PR 6's headline harness).

Each case derives a schema, data, a batch size, and a query from one
integer seed, then runs the query on four legs — batch executor /
Evaluator × memory/SQLite source — asserting identical rows, order,
value types, and rowcounts everywhere (or that every leg errors), and
that the batch legs ran every statement on the vector plan: no
``vector.decline.*`` but ``param_shape``.

``REPRO_FUZZ_CASES`` scales the battery (default 500; CI's smoke step
runs 100), ``REPRO_FUZZ_SEED`` shifts the seed base so a nightly run can
explore fresh territory without touching the checked-in defaults. Any
failure message carries the seed-derived SQL and parameters, so a case
reproduces from the test id alone.
"""

from __future__ import annotations

import os
import random
from decimal import Decimal

import pytest

from repro.driver import connect
from repro.xquery.vector import VSTATS

from .harness import (
    Legs,
    assert_legs_agree,
    build_runtime,
    build_storage,
    leg_seed_batch_size,
)
from .sqlgen import QueryFuzzer, ShapedFuzzer, generate_schema

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "500"))
SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

#: Queries drawn per generated schema: amortizes the four runtimes per
#: schema while still cycling through many schemas.
QUERIES_PER_SCHEMA = 20

#: The shaped family (outer joins, derived tables, subqueries) runs at
#: the three sizes that matter to a recursive plan: every row its own
#: batch, pairs (a sub-plan boundary inside most groups), one batch.
SHAPED_CASES = max(CASES // 5, 40)
SHAPED_BATCH_SIZES = (1, 2, 1024)

_legs_cache: dict = {}
_engagement = {"vectorized": 0, "executed": 0,
               "shaped_vectorized": 0, "shaped_executed": 0,
               "mixed_generic": 0}


def _legs_for(schema_seed: int, batch_size=None) -> Legs:
    key = (schema_seed, batch_size)
    legs = _legs_cache.get(key)
    if legs is None:
        # One schema's legs at a time: four runtimes per schema would
        # otherwise accumulate across the whole battery.
        for old in _legs_cache.values():
            old.close()
        _legs_cache.clear()
        schema = generate_schema(schema_seed)
        legs = Legs(schema, batch_size or leg_seed_batch_size(schema_seed))
        _legs_cache[key] = legs
    return legs


@pytest.mark.parametrize("case", range(CASES))
def test_fuzz_differential(case):
    schema_seed = SEED_BASE + case // QUERIES_PER_SCHEMA
    legs = _legs_for(schema_seed)
    schema = generate_schema(schema_seed)
    fuzzer = QueryFuzzer(SEED_BASE * 1_000_003 + case, schema)
    sql, params = fuzzer.query()
    before = VSTATS.executions
    ran = assert_legs_agree(sql, params, legs)
    if ran:
        _engagement["executed"] += 1
        if VSTATS.executions > before:
            _engagement["vectorized"] += 1


@pytest.mark.parametrize("case", range(SHAPED_CASES))
@pytest.mark.parametrize("batch_size", SHAPED_BATCH_SIZES)
def test_shaped_differential(case, batch_size):
    schema_seed = SEED_BASE + case // QUERIES_PER_SCHEMA
    legs = _legs_for(schema_seed, batch_size)
    fuzzer = ShapedFuzzer(SEED_BASE * 1_000_003 + case,
                          generate_schema(schema_seed))
    sql, params = fuzzer.shaped_query()
    before = VSTATS.executions
    if assert_legs_agree(sql, params, legs):
        _engagement["shaped_executed"] += 1
        if VSTATS.executions > before:
            _engagement["shaped_vectorized"] += 1


class _MixedKindLegs(Legs):
    """Evaluator and batch legs over one memory storage whose INTEGER
    columns hold, here and there, the same number as a Decimal — a
    source is trusted for its declared types, not checked — so a batch
    column can mix kinds (and a string column XML specials beside plain
    text, as the generated data already does). An integral Decimal
    prints as the integer: the Evaluator, which reads cells back from
    text, is the reference for every row."""

    def __init__(self, schema, batch_size: int, seed: int):
        rng = random.Random(("mixed", seed).__repr__())
        storage = build_storage(schema)
        for table in schema:
            rows = [tuple(Decimal(cell) if type(cell) is int
                          and rng.random() < 0.15 else cell
                          for cell in row) for row in table.rows]
            storage.table(table.name).replace_rows(rows)
        self.batch_size = batch_size
        self.connections = {
            ("memory", mode): connect(build_runtime(
                storage, "memory", batch_size,
                evaluator=mode == "evaluator"))
            for mode in ("evaluator", "batch")}


@pytest.mark.parametrize("case", range(SHAPED_CASES))
@pytest.mark.parametrize("batch_size", SHAPED_BATCH_SIZES)
def test_mixed_kind_differential(case, batch_size):
    """The shaped family (odd cases: the plain one) over mixed-kind
    columns: every typed kernel next to its per-cell fallback. Each
    case gets fresh legs: a join's hash table kept from an earlier
    case over the same rows would spare this one its per-cell build."""
    schema_seed = SEED_BASE + case // QUERIES_PER_SCHEMA
    key = ("mixed", schema_seed, batch_size, case)
    legs = _legs_cache.get(key)
    if legs is None:
        for old in _legs_cache.values():
            old.close()
        _legs_cache.clear()
        legs = _legs_cache[key] = _MixedKindLegs(
            generate_schema(schema_seed), batch_size, schema_seed)
    seed = SEED_BASE * 1_000_003 + case
    schema = generate_schema(schema_seed)
    sql, params = QueryFuzzer(seed, schema).query() if case % 2 \
        else ShapedFuzzer(seed, schema).shaped_query()
    before = VSTATS.generic_columns
    assert_legs_agree(sql, params, legs)
    _engagement["mixed_generic"] += VSTATS.generic_columns > before


def test_zz_fuzz_engagement():
    """The battery must actually exercise the vector executor — if the
    compiler silently declined, the differential above would compare
    the Evaluator with itself. Every statement that ran, ran batched.
    (Named zz so it runs after the cases.)"""
    assert _engagement["executed"] >= CASES * 0.8, _engagement
    assert _engagement["vectorized"] == _engagement["executed"], \
        _engagement
    shaped = SHAPED_CASES * len(SHAPED_BATCH_SIZES)
    assert _engagement["shaped_executed"] >= shaped * 0.7, _engagement
    assert _engagement["shaped_vectorized"] == \
        _engagement["shaped_executed"], _engagement
    # (mixed-kind columns did reach the kernels' per-cell fallback; a
    # batch of one row never mixes)
    assert _engagement["mixed_generic"] >= shaped * 0.1, _engagement
    for legs in _legs_cache.values():
        legs.close()
    _legs_cache.clear()
