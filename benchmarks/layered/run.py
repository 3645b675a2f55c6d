#!/usr/bin/env python3
"""The layered benchmark: one command, five workloads, every metric.

    python3 benchmarks/layered/run.py --workload report_50k \\
        --seed 11 --seconds 12 --trace 0

runs one workload in this (fresh, ``PYTHONHASHSEED=0``) interpreter: a
closed loop, one client thread, one connection through the public
PEP 249 driver. Every statement's rows are checked against the
plain-Python reference outside the timed interval. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

Without ``--workload`` all five run, one child interpreter each.
``--quick`` runs two cycles per workload (numbers not comparable);
``--cycles N`` fixes the cycle count instead of the run time, so two
runs execute the very same statements. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference
import remote
import workloads
from calibration import REFERENCE_SECONDS, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

DEFAULT_SEED = 11
#: Set-up is repeated (its median is ``setup_s``) at least this often,
#: then until it has taken a second in all, up to the maximum.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 1.0
#: Host-speed kernel timings before each set-up.
SETUP_KERNELS = 3
QUICK_CYCLES = 2
#: Checked, untimed cycles run this long before measuring (at least one
#: cycle per path, and at least the workload's ``warm_statements``):
#: caches fill.
WARMUP_SECONDS = 3.0
#: Cycles between full collections in such a traced run (see ``measure``).
TRACE_COLLECT_EVERY = 10
#: Health round trips behind ``server.roundtrip_floor_ms``.
FLOOR_ROUNDTRIPS = 50
#: Class latencies; a workload without that class fills the metric with
#: its typical statement time, the median cycle time divided by the
#: statements in a cycle (BENCHMARK.json wants every metric from every
#: run).
CLASS_METRICS = ("scan", "filter", "join", "group", "nested", "subq",
                 "point", "write", "reread", "first_row")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- running statements -------------------------------------------------------

class Outcome:
    """One executed statement: rows (or DML rowcount), wall seconds,
    CPU seconds and seconds to the first row — or the error raised."""

    __slots__ = ("result", "wall", "cpu", "first", "error")

    def __init__(self, result=None, wall=0.0, cpu=0.0, first=None,
                 error=None):
        self.result = result
        self.wall = wall
        self.cpu = cpu
        self.first = first
        self.error = error


class DriverRunner:
    """The measured path: one cursor on the workload's connection,
    timed from the ``execute()`` call until the last row is fetched."""

    def __init__(self, connection, paged: bool):
        self.cursor = connection.cursor()
        self.paged = paged

    def run(self, statement) -> Outcome:
        cursor = self.cursor
        cpu = time.process_time()
        started = time.perf_counter()
        cursor.execute(statement.sql, statement.params)
        if statement.write:
            result, first = cursor.rowcount, None
        else:
            result, first_at, _pages = workloads.fetch_rows(
                cursor, self.paged)
            first = first_at - started
        return Outcome(result, time.perf_counter() - started,
                       time.process_time() - cpu, first)


class ReplicaRunner:
    """The traced path; a statement's wall time is its root span."""

    def __init__(self, replica):
        self.replica = replica

    def run(self, statement) -> Outcome:
        return Outcome(*self.replica.run(statement))


class Tally:
    """What one phase (warm-up, driver cycles, replica cycles) did;
    seconds as measured."""

    def __init__(self):
        self.samples = defaultdict(list)   # bucket -> wall seconds
        self.per_statement: list[float] = []  # per cycle: wall / statements
        self.cycles = 0
        self.statements = 0
        self.failed = 0
        self.rows = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.failures: list[str] = []
        self.statement_digest = ""
        self.row_digest = ""


class Checker:
    """Compares results with the reference. Expected rows of every
    listed parameter domain are computed up front for a read-only
    workload (what this process holds, and so ``peak_rss_mb``, must not
    depend on which values a seed happens to draw) and kept until a
    write for the others."""

    def __init__(self, tables: dict, tamper: str | None, classes=()):
        self.tables = tables
        self.tamper = tamper
        self._expected: dict = {
            (cls.name, params): cls.expected(tables, params)
            for cls in classes for params in cls.domain or ()}

    def problem(self, statement, outcome: Outcome) -> str | None:
        """None when the statement did what the reference says."""
        if outcome.error is not None:
            return f"raised {outcome.error}"
        if statement.write:
            statement.apply(self.tables)
            self._expected.clear()
            if outcome.result != 1:
                return f"rowcount {outcome.result}, expected 1"
            return None
        rows = outcome.result
        if self.tamper and rows:
            rows = rows[:-1] if self.tamper == "drop" \
                else rows[:-1] + [(None,) * len(rows[-1])]
            self.tamper = None
        key = (statement.cls.name, statement.params)
        expected = self._expected.get(key)
        if expected is None:
            expected = statement.cls.expected(self.tables, statement.params)
            if statement.cls.domain is not None:
                self._expected[key] = expected
        if not reference.same_rows(rows, expected, statement.cls.ordered):
            return (f"{len(rows)} rows differ from the reference's "
                    f"{len(expected)}")
        return None


def run_cycle(runner, cycle: list, checker: Checker, tally: Tally,
              host: HostSpeed | None, on_write=None,
              collect: bool = True) -> None:
    """Run *cycle* through *runner*, checking each statement after its
    timed interval. Anything a statement raises is a failure of that
    statement, not of the benchmark.

    Before each statement, or each burst of one class, the host-speed
    kernel is timed (calibration.py) and a full collection runs, both
    untimed; the collector stays on. Whether it runs inside a statement
    then depends on that statement's own allocations, not on what its
    predecessors left. Left to its own schedule it strikes a 30 ms
    statement for 15 ms every third time, and a median over ten
    samples flips between the two modes. A warm-up cycle (*host* is
    None) does neither: nothing of it is reported."""
    wall_before = tally.wall
    for statement in cycle:
        if host is not None and not statement.follows:
            host.sample()
            if collect:
                gc.collect()
        try:
            outcome = runner.run(statement)
        except Exception as exc:  # boundary: record and keep going
            outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
        tally.statements += 1
        tally.wall += outcome.wall
        tally.cpu += outcome.cpu
        tally.statement_digest = reference.digest(
            (statement.sql, statement.params), tally.statement_digest)
        tally.row_digest = reference.digest(outcome.result,
                                            tally.row_digest)
        problem = checker.problem(statement, outcome)
        if problem is not None:
            tally.failed += 1
            if len(tally.failures) < 5:
                tally.failures.append(f"{statement.sql[:70]}... {problem}")
            continue
        if statement.write:
            if on_write is not None:
                on_write()
        else:
            tally.rows += len(outcome.result)
        if statement.bucket is not None:
            tally.samples[statement.bucket].append(outcome.wall)
        if statement.bucket == "scan" and outcome.first is not None:
            tally.samples["first_row"].append(outcome.first)
    tally.cycles += 1
    tally.per_statement.append((tally.wall - wall_before) / len(cycle))


# -- counters -----------------------------------------------------------------

_CACHES = ("statement_cache", "metadata_cache", "plan_cache")
_SOURCE_COUNTERS = ("sources.rows_scanned", "sources.rows_pushed")


class CounterDeltas:
    """``Connection.stats()`` counters summed over bracketed intervals."""

    def __init__(self, connection):
        self.connection = connection
        self.totals = defaultdict(int)
        self._before: dict | None = None

    def _read(self) -> dict:
        """The counters now — or, from a connection that no longer
        answers (a dead server; its statements already failed), the
        last reading."""
        try:
            stats = self.connection.stats()
        except Exception:
            return self._before or {}
        flat = {f"{cache}.{key}": stats[cache][key]
                for cache in _CACHES for key in ("hits", "misses")}
        runtime = stats["runtime"]["counters"]
        for name in _SOURCE_COUNTERS:
            flat[name] = runtime.get(name, 0)
        return flat

    def start(self) -> None:
        self._before = self._read()

    def stop(self) -> None:
        for name, value in self._read().items():
            self.totals[name] += value - self._before[name]

    def hit_share(self, cache: str) -> float:
        hits = self.totals[f"{cache}.hits"]
        lookups = hits + self.totals[f"{cache}.misses"]
        return hits / lookups if lookups else 1.0


# -- metrics ------------------------------------------------------------------

def milliseconds(seconds: list) -> dict:
    """Median, and where the sample supports them p95 and max, in ms."""
    ordered = sorted(seconds)
    summary = {"n": len(ordered),
               "p50_ms": statistics.median(ordered) * 1000,
               "max_ms": ordered[-1] * 1000}
    if len(ordered) >= 200:
        summary["p95_ms"] = ordered[int(len(ordered) * 0.95)] * 1000
    return summary


def end_to_end_metrics(tally: Tally, setup_seconds: list, child_cpu: float,
                       setup_correction: float, correction: float) -> tuple:
    """(metrics, per-class summaries, names of the filled metrics).
    The summaries are as measured; the metrics are corrected for the
    host's speed during set-up and during the measured cycles
    (calibration.py)."""
    typical_ms = statistics.median(tally.per_statement) * 1000
    classes = {name: milliseconds(values)
               for name, values in sorted(tally.samples.items())}
    metrics = {"setup_s": statistics.median(setup_seconds)
               * setup_correction}
    filled = []
    for name in CLASS_METRICS:
        if name in classes:
            metrics[f"{name}_p50_ms"] = classes[name]["p50_ms"] * correction
        else:
            metrics[f"{name}_p50_ms"] = typical_ms * correction
            filled.append(f"{name}_p50_ms")
    metrics["stmts_per_s"] = tally.statements / (tally.wall * correction)
    metrics["cpu_ms_per_stmt"] = \
        (tally.cpu + child_cpu) / tally.statements * 1000 * correction
    return metrics, classes, filled


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its (reaped) children."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def layer_metrics(spans: list, driver: Tally, traced: Tally,
                  counters: CounterDeltas, floor_ms: float,
                  correction: float) -> tuple:
    """(per-layer metrics, batched share per class) from the traced
    run: span self times per traced statement, counters per driver
    statement. Spans are as measured; every ``_ms`` value gets the
    run's host-speed *correction* at the end."""
    from replica import REMOTE_ROOT, ROOT, self_seconds
    selfs = self_seconds(spans)
    statements = traced.statements
    roots = [span for span in spans if span["name"] == ROOT]
    queries = [span for span in roots if "batched" in span]
    remote_roots = [span for span in spans if span["name"] == REMOTE_ROOT]
    codecs = [span for span in spans if span["name"] == "server.frame_codec"]

    def duration(group: list) -> float:
        return sum(span["end"] - span["start"] for span in group)

    def per_statement(name: str) -> float:
        return selfs.get(name, 0.0) / statements * 1000

    def mean(group: list, key: str) -> float:
        return sum(span[key] for span in group) / len(group) \
            if group else 0.0

    layer_sum = sum(seconds for name, seconds in selfs.items()
                    if name not in (ROOT, REMOTE_ROOT))
    wire_self = 0.0
    if remote_roots:
        wire_self = duration(remote_roots) - duration(roots) \
            - duration(codecs)
        layer_sum += wire_self
    driver_mean = driver.wall / driver.statements
    remote_rows = sum(span["rows"] for span in remote_roots)
    by_class = defaultdict(list)
    for span in queries:
        by_class[span["cls"]].append(span["batched"])
    metrics = {
        "sql.parse_ms": per_statement("sql.parse"),
        "translator.stage1_ms": per_statement("translator.stage1"),
        "translator.stage2_ms": per_statement("translator.stage2"),
        "translator.stage3_ms": per_statement("translator.stage3"),
        "translator.xquery_chars": mean(queries, "xquery_chars"),
        "catalog.metadata_hit_share": counters.hit_share("metadata_cache"),
        "xquery.parse_ms": per_statement("xquery.parse"),
        "xquery.compile_ms": per_statement("xquery.compile"),
        "xquery.batched_share": mean(queries, "batched"),
        "engine.plan_cache_hit_share": counters.hit_share("plan_cache"),
        "engine.replans":
            counters.totals["plan_cache.misses"] / driver.cycles,
        "engine.evaluate_ms": per_statement("engine.evaluate"),
        "engine.rows_out": mean(queries, "rows"),
        "engine.text_bytes": mean(queries, "text_bytes"),
        "engine.dml_plan_ms": per_statement("engine.dml_plan"),
        "sources.scan_ms": per_statement("sources.scan"),
        "sources.rows_scanned":
            counters.totals["sources.rows_scanned"] / driver.statements,
        "sources.rows_pushed":
            counters.totals["sources.rows_pushed"] / driver.statements,
        "sources.rows_per_result":
            counters.totals["sources.rows_scanned"] / max(driver.rows, 1),
        "sources.apply_ms": per_statement("sources.apply"),
        "sources.stats_ms": per_statement("sources.stats"),
        "driver.decode_ms": per_statement("driver.decode"),
        "driver.rows_decoded": mean(queries, "rows"),
        "driver.stmt_cache_hit_share":
            counters.hit_share("statement_cache"),
        "driver.glue_ms":
            (driver_mean - layer_sum / statements) * 1000,
        "server.roundtrip_floor_ms": floor_ms,
        "server.frame_codec_ms": per_statement("server.frame_codec"),
        "server.wire_bytes_per_row":
            sum(span["wire_bytes"] for span in codecs) / max(remote_rows, 1),
        "server.pages": mean(remote_roots, "pages"),
        "server.wire_self_ms": wire_self / statements * 1000,
        "trace.layer_sum_share": layer_sum / traced.wall,
        "trace.overhead_share":
            traced.wall / statements / driver_mean - 1,
    }
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] *= correction
    batched = {cls: sum(flags) / len(flags)
               for cls, flags in sorted(by_class.items())}
    return metrics, batched


# -- environment --------------------------------------------------------------

def environment(options, cycles: int) -> dict:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source_lines = sum(
        1 for path in (ROOT / "src" / "repro").rglob("*.py")
        for line in path.read_text().splitlines() if line.strip())
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "seed": options.seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "measured_cycles": cycles,
        "src_repro_nonblank_lines": source_lines,
        "quick": options.quick,
    }


# -- one workload -------------------------------------------------------------

def set_up(workload, quick: bool, host: HostSpeed) -> tuple:
    """Open the workload's session, repeatedly; keep the last one.
    Returns (session, seconds per set-up)."""
    seconds: list[float] = []
    while True:
        for _ in range(SETUP_KERNELS):
            host.sample()
        started = time.perf_counter()
        session = workload.open()
        seconds.append(time.perf_counter() - started)
        if quick or len(seconds) >= SETUP_MAX or (
                len(seconds) >= SETUP_MIN
                and sum(seconds) >= SETUP_SECONDS):
            return session, seconds
        session.close()


def roundtrip_floor_ms(connection) -> float:
    samples = []
    for _ in range(FLOOR_ROUNDTRIPS):
        started = time.perf_counter()
        connection.server_health()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000


def share_one_cpu() -> None:
    """Keep this process and the server child it will start on one
    CPU. Client and server take turns anyway (the loop is closed), but
    left on two virtual CPUs each wake-up crosses to a halted one, and
    how long the host takes to run that one again doubles a round trip
    in one run and not in the next: ``point_p50_ms`` read 1.5 ms or
    2.9 ms by chance, against a steady 1.2 ms on a shared CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Measurement:
    """Everything one run of one workload observed."""

    def __init__(self):
        self.setup_seconds: list[float] = []
        self.warm, self.driver, self.traced = Tally(), Tally(), Tally()
        self.counters: CounterDeltas | None = None
        self.spans: list = []
        self.floor_ms = 0.0
        self.server_cpu = 0.0
        #: Host speed during the set-ups and during the measured cycles.
        self.setup_host, self.host = HostSpeed(), HostSpeed()


def measure(workload, options) -> Measurement:
    """Set up, warm up (checked, untimed cycles), then run cycles until
    the time or the cycle count is used up. With ``--trace 1`` cycles
    alternate between the driver and the traced replica, on the same
    runtime and statement stream; counters are read around the
    driver's cycles only."""
    run = Measurement()
    host = run.host
    if workload.remote:
        share_one_cpu()
    session, run.setup_seconds = set_up(workload, options.quick,
                                        run.setup_host)
    local_runtime = None
    try:
        checker = Checker(workloads.reference_tables(workload, session),
                          options.tamper,
                          () if workload.writes else set(workload.classes))
        stream = workloads.cycles(workload, options.seed)
        driver_runner = DriverRunner(session.connection, workload.remote)
        run.counters = counters = CounterDeltas(session.connection)
        paths = [(driver_runner, run.driver)]
        on_write = None
        if options.trace:
            from replica import RemoteReplica, Replica, SpanRecorder
            recorder = SpanRecorder()
            run.spans = recorder.spans
            if workload.remote:
                local_runtime = remote.runtime_10k()
                local = Replica(local_runtime, recorder)
                replica = RemoteReplica(session.connection, local)
                run.floor_ms = roundtrip_floor_ms(session.connection)
            else:
                replica = local = Replica(session.runtime, recorder)
            paths.append((ReplicaRunner(replica), run.traced))
            on_write = local.forget_statistics

        started = time.perf_counter()
        while run.warm.cycles < len(paths) or not (
                options.quick or options.cycles or (
                    time.perf_counter() - started >= WARMUP_SECONDS
                    and run.warm.statements >= workload.warm_statements)):
            run_cycle(paths[run.warm.cycles % len(paths)][0],
                      next(stream), checker, run.warm, None, on_write)
        run.spans.clear()

        limit = options.cycles or (QUICK_CYCLES if options.quick else None)
        # A traced run of a workload that leaves the collector to its own
        # schedule keeps full collections out of the spans: one would
        # land in whichever layer happens to be allocating.
        between_cycles = options.trace and not workload.collect
        if between_cycles:
            gc.set_threshold(*gc.get_threshold()[:2], 10**9)
        server = session.server
        if server:
            run.server_cpu = -server.cpu_seconds()
        started = time.perf_counter()
        while True:
            done = run.driver.cycles + run.traced.cycles
            if done >= (limit or 2) and (
                    limit or time.perf_counter() - started
                    >= options.seconds):
                break
            cycle = next(stream)
            runner, tally = paths[done % len(paths)]
            failed_before = tally.failed
            if between_cycles and done % TRACE_COLLECT_EVERY == 0:
                gc.collect()
            if tally is run.driver:
                counters.start()
            run_cycle(runner, cycle, checker, tally, host, on_write,
                      workload.collect)
            if tally is run.driver:
                counters.stop()
            if tally.failed - failed_before == len(cycle):
                break  # nothing works any more (a dead server)
        if server:
            run.server_cpu += server.cpu_seconds()
    finally:
        session.close()
        if local_runtime is not None:
            local_runtime.close()
    return run


def run_workload(options) -> int:
    spec = load_spec()
    workload = workloads.WORKLOADS[options.workload]
    run = measure(workload, options)
    driver, traced, counters = run.driver, run.traced, run.counters

    attempted = run.warm.statements + driver.statements + traced.statements
    failed = run.warm.failed + driver.failed + traced.failed
    kind = "per_layer" if options.trace else "end_to_end"
    detail = {
        "workload": workload.name,
        "environment": environment(options,
                                   driver.cycles + traced.cycles),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": run.warm.failures + driver.failures + traced.failures,
        "setup_seconds": run.setup_seconds,
        "host_speed": {
            "reference_kernel_ms": REFERENCE_SECONDS * 1000,
            "kernel_p50_ms": run.host.median() * 1000,
            "kernel_timings": len(run.host.timings),
            "correction": run.host.correction(),
            "setup_kernel_p50_ms": run.setup_host.median() * 1000,
            "setup_correction": run.setup_host.correction()},
        "statements_measured": driver.statements + traced.statements,
        "statement_digest": driver.statement_digest,
        "row_digest": driver.row_digest,
        "cache_hit_share": {cache: counters.hit_share(cache)
                            for cache in _CACHES},
    }
    # A run in which a whole path never completed a statement has
    # nothing to divide by; it is a failed run either way.
    if driver.wall > 0 and (traced.wall > 0 or not options.trace):
        metrics, classes, filled = end_to_end_metrics(
            driver, run.setup_seconds, run.server_cpu,
            run.setup_host.correction(), run.host.correction())
        metrics["peak_rss_mb"] = peak_rss_mb()
        detail.update(end_to_end=metrics, classes=classes,
                      filled_with_typical_statement_time=filled)
        if options.trace:
            layers, batched = layer_metrics(
                run.spans, driver, traced, counters, run.floor_ms,
                run.host.correction())
            detail.update(per_layer=layers,
                          batched_share_by_class=batched)
        print_report(detail, spec, kind)
    else:
        detail[kind] = {entry["name"]: 0.0 for entry in spec[kind]}
        print(f"== {workload.name}: no statement completed")
        for failure in detail["failures"]:
            print(f"   FAILED {failure}")

    stem = f"{workload.name}-seed{options.seed}-trace{options.trace}" \
        + ("-quick" if options.quick else "")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if options.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as handle:
            for span in run.spans:
                handle.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {entry["name"]: {"value": detail[kind][entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in spec[kind]}}))
    return 0 if failed == 0 else 1


def print_report(detail: dict, spec: dict, kind: str) -> None:
    env = detail["environment"]
    print(f"== {detail['workload']}  seed {env['seed']}  "
          f"{env['measured_cycles']} cycles, "
          f"{detail['statements_measured']} statements measured, "
          f"{detail['failed']} of {detail['attempted']} failed"
          + ("  [QUICK: not comparable]" if env["quick"] else ""))
    for failure in detail["failures"]:
        print(f"   FAILED {failure}")
    filled = set(detail["filled_with_typical_statement_time"])
    print("   as measured:")
    print("   class        n    p50 ms    p95 ms    max ms")
    for name, summary in detail["classes"].items():
        p95 = f"{summary['p95_ms']:9.3f}" if "p95_ms" in summary \
            else "        -"
        print(f"   {name:<9} {summary['n']:>5} {summary['p50_ms']:9.3f} "
              f"{p95} {summary['max_ms']:9.3f}")
    speed = detail["host_speed"]
    print(f"   host-speed kernel p50 {speed['kernel_p50_ms']:.3f} ms over "
          f"{speed['kernel_timings']} timings (reference "
          f"{speed['reference_kernel_ms']:.1f} ms): times below are as "
          f"measured x {speed['correction']:.4f} (set-up x "
          f"{speed['setup_correction']:.4f})")
    for cls, share in detail.get("batched_share_by_class", {}).items():
        print(f"   xquery.batched_share[{cls}] = {share:.2f}")
    values = detail[kind]
    for entry in spec[kind]:
        name = entry["name"]
        note = "  (class not in this workload: typical statement)" \
            if kind == "end_to_end" and name in filled else ""
        print(f"   {name:<30} {values[name]:>14.4f} {entry['unit']}{note}")


# -- command line -------------------------------------------------------------

def run_all(argv: list) -> int:
    """Every workload, each in its own child interpreter."""
    spec = load_spec()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for entry in spec["workloads"]:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", entry["name"], *argv],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][entry["name"]] = result["metrics"]
    print(json.dumps(summary))
    return status


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured run time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run half the cycles through the traced "
                             "replica and report per-layer metrics")
    parser.add_argument("--cycles", type=int, default=None,
                        help="measure exactly this many cycles")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_CYCLES} cycles, one set-up; smoke "
                             f"test, numbers not comparable")
    parser.add_argument("--tamper", choices=("drop", "alter"), default=None,
                        help=argparse.SUPPRESS)  # self-test: spoil a row
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  env)
    if options.workload is None:
        return run_all(argv)
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if options.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if options.seconds is None:
        options.seconds = spec["run_seconds"]
    # SIGTERM unwinds through the finally blocks that stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_workload(options)


if __name__ == "__main__":
    sys.exit(main())
