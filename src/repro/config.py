"""One configuration surface for the runtime and the driver.

Historically ``DSPRuntime(...)`` grew engine knobs (optimizer, plan
cache, admission control, retries) while ``connect(...)`` grew driver
knobs (result format, caches, default timeout) — two overlapping kwarg
lists for one logical thing: how this DSP instance should behave.
:class:`RuntimeConfig` collapses both into a single frozen dataclass
accepted by ``DSPRuntime(config=...)`` and ``connect(config=...)``.

This module is also the only reader of the process environment: the
two ``REPRO_*`` variables the CI legs force are parsed here, by
:func:`with_environment` and :func:`default_demo_backend`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RuntimeConfig:
    """Every tuning knob of the runtime and the driver, in one place.

    Engine side: the plan cache bound, admission control, the
    transient-source retry policy, and the batch executor's batch size.
    Driver side: the result ``format``, the statement/metadata cache
    bounds, and the per-statement default deadline.
    """

    # -- engine ------------------------------------------------------------
    plan_cache_capacity: int = 256
    max_concurrent_queries: int = 32
    admission_queue_timeout: float = 5.0
    max_inflight_rows: Optional[int] = 1_000_000
    retry_policy: Optional[object] = None  # engine.lifecycle.RetryPolicy
    #: Rows per column-oriented batch in the batch executor (a value
    #: below 1 runs as 1). Overridable per process with the
    #: ``REPRO_BATCH_SIZE`` env var.
    batch_size: int = 1024

    # -- driver ------------------------------------------------------------
    format: str = "delimited"
    statement_cache_capacity: int = 256
    metadata_cache_capacity: int = 1024
    default_timeout: Optional[float] = None
    #: Socket connect + handshake deadline (seconds) for ``repro+tcp``
    #: remote connections; also the DSN's ``connect_timeout`` parameter.
    remote_connect_timeout: float = 10.0

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with *changes* applied (unknown names raise)."""
        return dataclasses.replace(self, **changes)


def _env_int(name: str, configured: int) -> int:
    """An int knob: the *name* env var wins over the config when it
    parses as a non-negative int; junk is ignored."""
    raw = os.environ.get(name)
    if raw is None:
        return max(0, int(configured))
    try:
        value = int(raw)
    except ValueError:
        return configured
    return value if value >= 0 else configured


def with_environment(config: RuntimeConfig) -> RuntimeConfig:
    """*config* as one runtime in this process will actually run it:
    ``REPRO_BATCH_SIZE`` overrides its field for A/B runs."""
    return config.replace(
        batch_size=max(1, _env_int("REPRO_BATCH_SIZE", config.batch_size)))


def default_demo_backend() -> str:
    """The demo runtime's source backend when the caller names none:
    ``REPRO_DEFAULT_BACKEND`` (how CI runs the whole suite against
    SQLite), else ``"memory"``."""
    return os.environ.get("REPRO_DEFAULT_BACKEND", "memory")
