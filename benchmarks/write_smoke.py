"""Write-path smoke harness: a mixed 80/20 read-write workload with
correctness gates (the EXPERIMENTS.md E20 numbers).

Drives the embedded PEP 249 driver on both writable backends with a
seeded stream of statements — 80% reads, 20% DML, with periodic
explicit transactions that roll back — and asserts, per backend:

* every rollback restores the pre-transaction reads, and on the
  memory backend restores every table's version token *exactly*;
* after each write, a two-table join whose for order statistics chose
  re-plans exactly once when the version tokens of its tables moved
  since it last ran (and not otherwise), while a single-table read
  keeps its plan and still returns the oracle's rows;
* final row counts match an independently-maintained oracle;
* on SQLite, the point UPDATEs/DELETEs pulled no more rows out of the
  source (``sources.rows_scanned``) than they changed — victim
  selection is a pushed handle scan, and a silent fall-back to full
  scans fails the leg. (The memory demo table is below the index
  threshold and is scanned whole by design; its figure is printed.)

Reports read/write throughput per backend. Exit status is non-zero on
any correctness failure — this is the CI leg for the write path.

Usage::

    python benchmarks/write_smoke.py [--statements N] [--seed N]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.driver import connect  # noqa: E402
from repro.workloads import build_runtime  # noqa: E402

REGIONS = ("APAC", "EMEA", "AMER", "LATAM")
#: A run of two for clauses: statistics choose its order, so its plan
#: keeps the version tokens of both tables.
JOIN = ("SELECT C.CUSTOMERNAME, P.PAYMENT FROM PAYMENTS P, CUSTOMERS C "
        "WHERE P.CUSTID = C.CUSTOMERID AND C.CUSTOMERID = ?")
JOINED = ("CUSTOMERS", "PAYMENTS")
COUNT = "SELECT COUNT(*) FROM CUSTOMERS"


def run_backend(backend: str, statements: int, seed: int) -> dict:
    rng = random.Random(("write-smoke", seed).__repr__())
    runtime = build_runtime(backend=backend)
    conn = connect(runtime)
    cur = conn.cursor()
    source = runtime._default_source

    def tokens(tables=None):
        return {t: source.version(t) for t in tables or source.tables()}

    misses = runtime.metrics.counter("plan_cache.misses")

    def replans(sql: str, parameters=()) -> tuple:
        """(plan-cache misses, rows) of one execution of *sql*."""
        before = misses.value
        cur.execute(sql, parameters)
        rows = cur.fetchall()
        return misses.value - before, rows

    cur.execute(COUNT)
    live = cur.fetchall()[0][0]  # the oracle: expected CUSTOMERS rows
    cur.execute(JOIN, [23])
    cur.fetchall()
    joined = tokens(JOINED)  # the join's tables when it last ran
    next_id = 10_000
    reads = writes = rollbacks = 0
    read_seconds = write_seconds = 0.0
    plan_failures = 0
    rows_scanned = runtime.metrics.counter("sources.rows_scanned")
    point_writes = point_scanned = point_changed = 0

    for step in range(statements):
        if rng.random() < 0.8:
            started = time.perf_counter()
            cur.execute(
                "SELECT COUNT(*), MAX(CUSTOMERID) FROM CUSTOMERS "
                "WHERE REGION = ?", [rng.choice(REGIONS)])
            cur.fetchall()
            read_seconds += time.perf_counter() - started
            reads += 1
            continue
        if rng.random() < 0.2:
            # An explicit transaction that rolls back: reads (and on
            # memory, version tokens) must come back exactly.
            before_tokens = tokens()
            conn.begin()
            cur.execute("DELETE FROM CUSTOMERS WHERE CUSTOMERID >= ?",
                        [10_000])
            cur.execute("SELECT COUNT(*) FROM CUSTOMERS")
            cur.fetchall()
            conn.rollback()
            rollbacks += 1
            cur.execute("SELECT COUNT(*) FROM CUSTOMERS")
            restored = cur.fetchall()[0][0]
            if restored != live:
                raise SystemExit(
                    f"FAIL[{backend}]: rollback did not restore reads "
                    f"({restored} rows, expected {live}) at step {step}")
            if backend == "memory" and tokens() != before_tokens:
                raise SystemExit(
                    f"FAIL[{backend}]: rollback did not restore "
                    f"version tokens at step {step}")
            continue
        started = time.perf_counter()
        roll = rng.random()
        scanned_before = rows_scanned.value
        point = roll >= 0.6 and live >= 5
        if not point:
            cur.execute(
                "INSERT INTO CUSTOMERS (CUSTOMERID, CUSTOMERNAME, "
                "REGION, CREDITLIMIT) VALUES (?, ?, ?, ?)",
                [next_id, f"W{next_id}", rng.choice(REGIONS),
                 rng.randint(1, 999)])
            live += 1
            next_id += 1
        elif roll < 0.85:
            cur.execute(
                "UPDATE CUSTOMERS SET CREDITLIMIT = CREDITLIMIT + 1 "
                "WHERE CUSTOMERID = ?",
                [rng.randrange(10_000, next_id) if next_id > 10_000
                 else 23])
        else:
            cur.execute(
                "DELETE FROM CUSTOMERS WHERE CUSTOMERID = ?",
                [rng.randrange(10_000, next_id) if next_id > 10_000
                 else -1])
            live -= cur.rowcount
        write_seconds += time.perf_counter() - started
        if point:
            point_writes += 1
            point_scanned += rows_scanned.value - scanned_before
            point_changed += cur.rowcount
        writes += 1
        # A plan ordered by statistics re-plans once when its tables
        # moved since it last ran (a write, or a rollback before it), or
        # it would keep an order chosen on dead statistics; a
        # single-table plan read none, so no write re-plans it.
        moved = tokens(JOINED) != joined
        joined = tokens(JOINED)
        if replans(JOIN, [23])[0] != moved \
                or replans(COUNT) != (0, [(live,)]):
            plan_failures += 1

    cur.execute("SELECT COUNT(*) FROM CUSTOMERS")
    final = cur.fetchall()[0][0]
    conn.close()
    if final != live:
        raise SystemExit(
            f"FAIL[{backend}]: final count {final} != oracle {live}")
    if plan_failures:
        raise SystemExit(
            f"FAIL[{backend}]: after {plan_failures} writes the join "
            f"did not re-plan exactly when its tables moved, or the "
            f"single-table count re-planned or missed the oracle")
    if backend == "sqlite" and point_scanned > point_changed:
        raise SystemExit(
            f"FAIL[{backend}]: {point_writes} point writes scanned "
            f"{point_scanned} rows to change {point_changed} — victim "
            f"selection fell back to full scans")
    return {
        "reads": reads, "writes": writes, "rollbacks": rollbacks,
        "read_qps": reads / read_seconds if read_seconds else 0.0,
        "write_qps": writes / write_seconds if write_seconds else 0.0,
        "scanned_per_point_write":
            point_scanned / point_writes if point_writes else 0.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--statements", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for backend in ("memory", "sqlite"):
        report = run_backend(backend, args.statements, args.seed)
        print(f"{backend:7s}: {report['reads']} reads "
              f"({report['read_qps']:.0f}/s), "
              f"{report['writes']} writes "
              f"({report['write_qps']:.0f}/s), "
              f"{report['rollbacks']} rollbacks, "
              f"{report['scanned_per_point_write']:.2f} rows scanned "
              f"per point write — tokens + plans + oracle + scan OK")
    print("PASS")


if __name__ == "__main__":
    main()
