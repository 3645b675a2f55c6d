"""The ``remote_paged`` server: one ``python -m repro.server`` subprocess.

``runtime_10k`` is the ``--app`` factory the server imports (this
directory is put on its ``PYTHONPATH``); ``ServerProcess`` owns the
child: boot with a deadline, SIGTERM + wait on every way out.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parents[1] / "src"

ROWS = 10_000
TOKEN = "layered-bench"
BOOT_TIMEOUT = 30.0
STOP_TIMEOUT = 10.0


def runtime_10k():
    from repro.workloads import build_scaled_runtime
    return build_scaled_runtime(ROWS)


class ServerProcess:
    """A running server child. ``start`` returns only once the server
    has announced its port; a child that dies or stays silent past
    ``BOOT_TIMEOUT`` is reaped and reported."""

    def __init__(self, process: subprocess.Popen, port: int):
        self.process = process
        self.port = port

    @classmethod
    def start(cls) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join((str(SOURCE_ROOT), str(HERE)))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--token", TOKEN, "--app", "remote:runtime_10k"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        server = cls(process, 0)
        try:
            server.port = server._read_port()
        except BaseException:
            server.stop()
            raise
        return server

    def _read_port(self) -> int:
        """The server prints ``... on <host>:<port>`` once it listens."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"server did not listen within {BOOT_TIMEOUT:.0f} s")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited during boot (status "
                    f"{self.process.wait()})")
            if "serving application" in line:
                return int(line.rsplit(":", 1)[1])

    @property
    def dsn(self) -> str:
        return (f"repro+tcp://127.0.0.1:{self.port}/BenchApp/Bench"
                f"?token={TOKEN}")

    def alive(self) -> bool:
        return self.process.poll() is None

    def cpu_seconds(self) -> float:
        """User+system CPU the child has used so far (Linux /proc; a
        running child is not yet in RUSAGE_CHILDREN)."""
        try:
            fields = Path(f"/proc/{self.process.pid}/stat") \
                .read_text().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL if ignored. Idempotent."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
