"""repro.server — the network-facing DSP (DESIGN.md §13).

An asyncio TCP server exposing the PEP 249 surface over length-prefixed
JSON frames, with bearer-token tenants, a per-tenant admission gate
layered on the runtime's, paged streaming fetches, out-of-band
cancellation, and ``health``/``stats`` verbs.

Quickstart (serving the demo application)::

    python -m repro.server --token dev --port 9944

    # any client, same PEP 249 API as embedded:
    conn = repro.connect("repro+tcp://localhost:9944/RTLApp?token=dev")

Embedding::

    from repro.engine import AdmissionController
    from repro.server import TenantConfig, serve_in_thread

    handle = serve_in_thread(TenantConfig(
        "RTLApp", runtime, token="s3cret",
        quota=AdmissionController(max_concurrent=8, max_timeout=30.0)))
    ... repro.connect(handle.dsn("RTLApp", token="s3cret")) ...
    handle.stop()
"""

from .core import (
    DEFAULT_MAX_PAGE_ROWS,
    DSPServer,
    ServerHandle,
    TenantConfig,
    serve_in_thread,
)
from .protocol import MAX_FRAME, PROTOCOL_VERSION

__all__ = [
    "DEFAULT_MAX_PAGE_ROWS",
    "DSPServer",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ServerHandle",
    "TenantConfig",
    "serve_in_thread",
]
