"""Retired-parallelism differential: corpus replay plus a fuzz smoke.

Partitioned parallel execution is gone, but a deployment may still set
``REPRO_PARALLELISM`` / ``REPRO_PARALLEL_MIN_ROWS``, and a third-party
source may still carry the partition SPI it was written against — a
``partitions()`` method and a ``partition=`` parameter on its scans.
Both must change nothing. Every corpus query (paper examples +
equivalence batteries) and a seed-derived fuzz smoke are replayed on a
*legacy* leg — the retired variables set, over a subclass of the
backend's source that carries the old SPI — against the default leg,
on both the in-memory and SQLite backends, and must match byte for
byte. An engagement check at the end proves the legacy sources really
served the replay, and that nothing ever asked them to partition,
forked a worker, or published a ``parallel.*`` metric.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os

import pytest

from repro import RuntimeConfig
from repro.catalog import Application
from repro.driver import connect
from repro.engine import DSPRuntime, import_tables
from repro.sources.memory import TableSource
from repro.sources.sqlite import SQLiteSource
from repro.workloads import build_runtime
from repro.workloads.demo import APPLICATION
from repro.workloads.demo import PROJECT as DEMO_PROJECT
from repro.workloads.demo import build_storage as build_demo_storage

from tests.integration.test_equivalence import BATTERY, HARD_BATTERY
from tests.xquery.test_compile_differential import PAPER_EXAMPLES

from .harness import PROJECT as FUZZ_PROJECT
from .harness import build_runtime as build_fuzz_runtime
from .harness import build_storage as build_fuzz_storage
from .harness import leg_seed_batch_size, run_leg, typed
from .sqlgen import QueryFuzzer, generate_schema

CORPUS = PAPER_EXAMPLES + BATTERY + HARD_BATTERY

SMOKE_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "100"))
SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
QUERIES_PER_SCHEMA = 20

#: What the old forced-parallelism legs set; read by nothing now.
RETIRED = {"REPRO_PARALLELISM": "2", "REPRO_PARALLEL_MIN_ROWS": "0"}


@contextlib.contextmanager
def _retired_settings():
    saved = {name: os.environ.get(name) for name in RETIRED}
    os.environ.update(RETIRED)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class _PartitionSPI:
    """The partition hooks of a source written against the removed
    partition SPI. The engine must call neither; scans are counted so
    the engagement checks can tell the legacy source did serve."""

    def partitions(self, table, request=None, target=2):
        self.partition_calls = getattr(self, "partition_calls", 0) + 1
        return None

    def scan(self, table, request=None, context=None, partition=None,
             **options):
        assert partition is None, "the engine passed a partition"
        self.legacy_scans = getattr(self, "legacy_scans", 0) + 1
        return super().scan(table, request, context, **options)


class _LegacyTableSource(_PartitionSPI, TableSource):
    pass


class _LegacySQLiteSource(_PartitionSPI, SQLiteSource):
    pass


def _legacy_runtime(storage, backend: str, application: str,
                    project: str, config: RuntimeConfig) -> DSPRuntime:
    """A runtime over *storage* through a legacy-SPI source, built
    with the retired variables set."""
    if backend == "sqlite":
        source = _LegacySQLiteSource.from_storage(storage, name="sqlite")
    else:
        source = _LegacyTableSource(storage)
    app = Application(application)
    import_tables(app, project, source)
    with _retired_settings():
        return DSPRuntime(app, source, config=config)


def _legacy_source(connection):
    return connection._runtime._default_source


def _assert_never_partitioned(connection) -> None:
    source = _legacy_source(connection)
    assert getattr(source, "partition_calls", 0) == 0
    counters = connection.stats()["runtime"]["counters"]
    assert [n for n in counters if n.startswith("parallel.")] == []
    assert multiprocessing.active_children() == []


def _run(connection, legacy: bool, sql: str, params=()):
    with _retired_settings() if legacy else contextlib.nullcontext():
        return run_leg(connection, sql, params)


_connections: dict = {}


def _connection(backend: str, legacy: bool):
    key = (backend, legacy)
    if key not in _connections:
        runtime = (_legacy_runtime(build_demo_storage(), backend,
                                   APPLICATION, DEMO_PROJECT,
                                   RuntimeConfig())
                   if legacy else build_runtime(backend=backend))
        _connections[key] = connect(runtime)
    return _connections[key]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("sql", CORPUS)
def test_corpus_parallel_matches_serial(backend, sql):
    results = {legacy: _run(_connection(backend, legacy), legacy, sql)
               for legacy in (False, True)}
    assert results[True][0] == results[False][0] == "ok", sql
    assert typed(results[True][1]) == typed(results[False][1]), (
        f"legacy/default divergence on {backend} for: {sql!r}")
    assert results[True][2] == results[False][2]


def test_corpus_parallel_engaged():
    """The corpus replay above must actually have run on the legacy
    sources; otherwise it proved nothing."""
    for backend in ("memory", "sqlite"):
        legacy = _connection(backend, True)
        assert getattr(_legacy_source(legacy), "legacy_scans", 0) > 0, \
            backend
        _assert_never_partitioned(legacy)
    for connection in _connections.values():
        connection.close()
    _connections.clear()


class _ParallelLegs:
    """Default vs legacy legs over one generated schema, both on the
    vectorized executor, on both backends."""

    def __init__(self, schema, batch_size: int):
        storage = build_fuzz_storage(schema)
        self.connections = {}
        for backend in ("memory", "sqlite"):
            self.connections[(backend, "serial")] = connect(
                build_fuzz_runtime(storage, backend, batch_size))
            self.connections[(backend, "parallel")] = connect(
                _legacy_runtime(storage, backend, "FuzzApp",
                                FUZZ_PROJECT,
                                RuntimeConfig(batch_size=batch_size)))

    def close(self) -> None:
        for connection in self.connections.values():
            connection.close()


_legs_cache: dict = {}


def _legs_for(schema_seed: int) -> _ParallelLegs:
    legs = _legs_cache.get(schema_seed)
    if legs is None:
        for old in _legs_cache.values():
            _assert_legs_never_partitioned(old)
            old.close()
        _legs_cache.clear()
        schema = generate_schema(schema_seed)
        legs = _ParallelLegs(schema, leg_seed_batch_size(schema_seed))
        _legs_cache[schema_seed] = legs
    return legs


def _assert_legs_never_partitioned(legs: _ParallelLegs) -> None:
    for backend in ("memory", "sqlite"):
        _assert_never_partitioned(legs.connections[(backend, "parallel")])


#: Legacy scans served across every schema of the smoke, including
#: those whose legs were already closed.
_served: list = []


@pytest.mark.parametrize("case", range(SMOKE_CASES))
def test_fuzz_parallel_smoke(case):
    schema_seed = SEED_BASE + case // QUERIES_PER_SCHEMA
    legs = _legs_for(schema_seed)
    schema = generate_schema(schema_seed)
    fuzzer = QueryFuzzer(SEED_BASE * 1_000_003 + case, schema)
    sql, params = fuzzer.query()
    results = {key: _run(conn, key[1] == "parallel", sql, params)
               for key, conn in legs.connections.items()}
    _served.append(sum(
        getattr(_legacy_source(legs.connections[(b, "parallel")]),
                "legacy_scans", 0) for b in ("memory", "sqlite")))
    baseline = results[("memory", "serial")]
    for key, result in results.items():
        assert result[0] == baseline[0], (
            f"{key} {result[0]} vs serial {baseline[0]} for: {sql!r} "
            f"params={params!r}")
        if baseline[0] == "ok":
            assert typed(result[1]) == typed(baseline[1]), (
                f"row mismatch {key} vs memory/serial for: {sql!r} "
                f"params={params!r}\n{key}: {result[1]!r}\n"
                f"serial: {baseline[1]!r}")
            assert result[2] == baseline[2], (
                f"rowcount mismatch {key}={result[2]} vs "
                f"serial={baseline[2]} for: {sql!r}")


def test_zz_fuzz_parallel_engagement():
    """The legacy legs must have served the smoke, and never been asked
    to partition (named zz so it runs after the cases)."""
    assert _served and max(_served) > 0, \
        "no fuzz case ever scanned a legacy source"
    for legs in _legs_cache.values():
        _assert_legs_never_partitioned(legs)
        legs.close()
    _legs_cache.clear()
