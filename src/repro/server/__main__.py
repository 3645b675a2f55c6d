"""``python -m repro.server`` — serve a DSP application over TCP.

With no ``--app`` module the demo application (``RTLApp``) is served,
so the README quickstart works out of the box:

    python -m repro.server --token dev --port 9944
    # elsewhere:
    repro.connect("repro+tcp://localhost:9944/RTLApp?token=dev")

``--app`` names a ``module:callable`` returning a ``DSPRuntime`` for
serving a real application.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import sys

from ..engine.lifecycle import AdmissionController
from .core import DSPServer, TenantConfig
from .protocol import PROTOCOL_VERSION


def _build_runtime(spec: str | None):
    if spec is None:
        from ..workloads import APPLICATION, build_runtime
        return APPLICATION, build_runtime()
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise SystemExit(
            f"--app must be module:callable, got {spec!r}")
    factory = getattr(importlib.import_module(module_name), attr)
    runtime = factory()
    return runtime.application.name, runtime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a DSP application over TCP (protocol "
                    f"v{PROTOCOL_VERSION}).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9944,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--token", required=True,
                        help="bearer token clients must present")
    parser.add_argument("--app", default=None, metavar="MODULE:CALLABLE",
                        help="runtime factory; default: the demo "
                             "application RTLApp")
    parser.add_argument("--max-concurrent", type=int, default=None,
                        help="tenant quota: concurrent queries")
    parser.add_argument("--max-inflight-rows", type=int, default=None,
                        help="tenant quota: un-fetched streamed rows")
    parser.add_argument("--max-timeout", type=float, default=None,
                        help="tenant quota: per-execute deadline "
                             "ceiling in seconds")
    args = parser.parse_args(argv)
    for flag in ("max_concurrent", "max_inflight_rows", "max_timeout"):
        value = getattr(args, flag)
        if value is not None and not 0 < value < float("inf"):
            parser.error(f"argument --{flag.replace('_', '-')}: must be "
                         f"a finite number above zero, got {value}")

    name, runtime = _build_runtime(args.app)
    tenant = TenantConfig(
        name, runtime, token=args.token,
        quota=AdmissionController(
            max_concurrent=args.max_concurrent,
            max_inflight_rows=args.max_inflight_rows,
            max_timeout=args.max_timeout))

    async def run() -> None:
        server = DSPServer(tenant, host=args.host, port=args.port)
        await server.start()
        print(f"repro.server: serving application {name!r} on "
              f"{server.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
