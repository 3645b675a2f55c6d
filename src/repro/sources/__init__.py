"""Pluggable physical data sources (the federation layer's SPI).

The SPI types (:class:`DataSource`, :class:`ScanRequest`, ...) are
imported eagerly — they depend only on ``errors`` and ``sql.types`` so
lower layers (the planner, the compiler) may import them freely. The
concrete backends are exposed lazily through module ``__getattr__``:
they pull in the engine, the XML model, and the XQuery atomics, and an
eager import here would close a cycle (planner -> sources -> engine ->
compile -> planner).
"""

from .spi import (
    MUTATION_KINDS,
    PREDICATE_OPS,
    ColumnStats,
    DataSource,
    Mutation,
    MutationResult,
    Predicate,
    Scan,
    ScanRequest,
    TableStatistics,
    compute_statistics,
)

__all__ = [
    "MUTATION_KINDS",
    "PREDICATE_OPS",
    "ColumnStats",
    "DataSource",
    "Mutation",
    "MutationResult",
    "Predicate",
    "Scan",
    "ScanRequest",
    "TableStatistics",
    "compute_statistics",
    "TableSource",
    "SQLiteSource",
    "XMLFileSource",
]

_LAZY_BACKENDS = {
    "TableSource": "memory",
    "SQLiteSource": "sqlite",
    "XMLFileSource": "xmlfile",
}


def __getattr__(name: str):
    module_name = _LAZY_BACKENDS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
