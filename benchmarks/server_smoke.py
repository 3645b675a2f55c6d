"""Server smoke harness: a real ``python -m repro.server`` subprocess,
differentially replayed against the embedded driver.

This is the out-of-process complement to tests/server/ (which embeds
the server on a thread): it proves the CLI entry point boots, serves
the corpus over TCP with results identical to the embedded driver,
reports serve latency (the EXPERIMENTS.md E19 numbers), and exits
cleanly on SIGTERM — a failure here means the process would orphan or
the wire path diverged.

A second server over a scaled table then gates the wire by **count**,
not by stopwatch: a paged ``SELECT * FROM FACTS`` may cost the server
at most 1.15 x the bytes of the engine's delimited text plus a fixed
allowance per page frame (a page is a slice of that text — DESIGN.md
§13), and a protocol-v2 ``hello`` must be refused.

Usage::

    python benchmarks/server_smoke.py [--queries N] [--clients N]

Exit status is non-zero on any mismatch, on a server that fails to
come up, or on a server process that outlives its SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.driver import connect  # noqa: E402
from repro.engine.lifecycle import QueryContext  # noqa: E402
from repro.errors import Error  # noqa: E402
from repro.server.protocol import recv_frame, send_frame  # noqa: E402
from repro.workloads import build_runtime  # noqa: E402
from repro.workloads import build_scaled_runtime  # noqa: E402

from tests.xquery.test_compile_differential import CORPUS  # noqa: E402

TOKEN = "smoke-token"
BOOT_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 10.0

#: The wire-count gate: table size, rows per fetch, and what one page
#: may cost beyond its text (length prefix, JSON keys, counts).
SCALED_ROWS = 2_000
PAGE_ROWS = 500
WIRE_SQL = "SELECT * FROM FACTS"
TEXT_FACTOR = 1.15
PAGE_FRAMING = 128


def scaled_runtime():
    """The ``--app`` factory of the count gate's server."""
    return build_scaled_runtime(SCALED_ROWS)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_port(port: int, process: subprocess.Popen,
                  timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(
                f"FAIL: server exited during boot "
                f"(status {process.returncode})")
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=1.0):
                return
        except OSError:
            time.sleep(0.05)
    raise SystemExit(f"FAIL: server did not listen within {timeout}s")


def start_server(port: int, *extra: str) -> subprocess.Popen:
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", "benchmarks", env.get("PYTHONPATH", "")) if p)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", str(port),
         "--token", TOKEN, *extra],
        env=env, cwd=root,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wait_for_port(port, process, BOOT_TIMEOUT)
    return process


def stop_server(process: subprocess.Popen) -> bool:
    """SIGTERM and wait; False if the server had to be killed."""
    process.terminate()
    try:
        process.wait(timeout=SHUTDOWN_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("FAIL: server ignored SIGTERM (orphan risk); killed")
        return False
    return True


def engine_text_bytes() -> int:
    """UTF-8 length of the delimited text the engine writes for
    ``WIRE_SQL`` — what the wire should cost, give or take framing."""
    runtime = scaled_runtime()
    translation = connect(runtime).translate(WIRE_SQL)
    plan = runtime.prepare(translation.xquery)
    return sum(len(chunk.encode("utf-8")) for chunk in plan.stream_chunks(
        translation.parameter_variables(()), context=QueryContext()))


def wire_count_gate(port: int) -> int:
    """Failures of the count gate against the fresh scaled server on
    *port* (this function's connections are its only clients)."""
    failures = 0
    remote = connect(f"repro+tcp://127.0.0.1:{port}/BenchApp/Bench"
                     f"?token={TOKEN}")
    # All the server has sent so far is what this client has received.
    before = remote.metrics.counter("wire.bytes_received").value
    cursor = remote.cursor()
    cursor.execute(WIRE_SQL)
    rows = pages = 0
    while True:
        page = cursor.fetchmany(PAGE_ROWS)
        if not page:
            break
        rows += len(page)
        pages += 1
    # The counter is read before the stats reply itself is sent.
    sent = remote.stats()["server"]["counters"]["bytes_sent"] - before
    remote.close()
    text = engine_text_bytes()
    # The execute reply is one more frame (it carries the description).
    budget = TEXT_FACTOR * text + (pages + 1) * PAGE_FRAMING
    print(f"wire count: {rows} rows in {pages} pages cost the server "
          f"{sent} bytes ({sent / max(rows, 1):.1f}/row); engine text "
          f"{text} bytes; budget {budget:.0f}")
    if rows != SCALED_ROWS or sent > budget:
        failures += 1
        print("FAIL: the wire costs more than the engine's text "
              "(is a page still a slice of it?)")
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        send_frame(sock, {"id": 1, "op": "hello", "protocol": 2,
                          "tenant": "BenchApp", "token": TOKEN})
        reply = recv_frame(sock)
    if reply.get("ok") or reply["error"]["cls"] != "InterfaceError":
        failures += 1
        print(f"FAIL: a protocol-v2 hello was not refused: {reply}")
    else:
        print(f"v2 client refused: {reply['error']['message']}")
    return failures


def run_statement(connection, sql):
    cursor = connection.cursor()
    try:
        cursor.execute(sql)
        return "ok", (cursor.fetchall(), cursor.description,
                      cursor.rowcount)
    except Error as exc:
        return "error", type(exc).__name__


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=len(CORPUS),
                        help="corpus prefix to replay (default: all)")
    parser.add_argument("--clients", type=int, default=2,
                        help="concurrent remote connections")
    args = parser.parse_args()
    corpus = CORPUS[:args.queries]

    port = free_port()
    process = start_server(port)
    failures = 0
    try:
        embedded = connect(build_runtime())
        dsn = (f"repro+tcp://127.0.0.1:{port}/RTLApp/TestDataServices"
               f"?token={TOKEN}")
        remotes = [connect(dsn) for _ in range(args.clients)]
        latencies = []
        for index, sql in enumerate(corpus):
            expected = run_statement(embedded, sql)
            remote = remotes[index % len(remotes)]
            started = time.perf_counter()
            actual = run_statement(remote, sql)
            latencies.append(time.perf_counter() - started)
            if actual != expected:
                failures += 1
                print(f"MISMATCH on {sql!r}:\n  embedded: "
                      f"{expected[0]}\n  remote:   {actual[0]}")
        for remote in remotes:
            remote.close()
        latencies.sort()
        p50 = statistics.median(latencies)
        p95 = latencies[max(0, int(len(latencies) * 0.95) - 1)]
        print(f"replayed {len(corpus)} corpus statements over "
              f"{args.clients} connections: {failures} mismatches")
        print(f"serve latency (execute+fetchall round trips): "
              f"p50={p50 * 1000:.2f}ms p95={p95 * 1000:.2f}ms "
              f"max={latencies[-1] * 1000:.2f}ms")
    finally:
        clean = stop_server(process)
    if not clean:
        return 1
    if failures:
        print(f"FAIL: {failures} remote-vs-embedded mismatches")
        return 1
    port = free_port()
    process = start_server(port, "--app", "server_smoke:scaled_runtime")
    try:
        failures = wire_count_gate(port)
    finally:
        clean = stop_server(process)
    if failures or not clean:
        return 1
    print("OK: remote results identical to embedded; the wire costs "
          "the engine's text; clean shutdown")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
