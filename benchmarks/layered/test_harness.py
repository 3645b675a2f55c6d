"""Checks of the harness itself (not of the numbers it reports).

    PYTHONPATH=src python -m pytest benchmarks/layered -q
"""

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import calibration
import reference
import remote
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=run.ROOT, script=HERE / "run.py"):
    """Run the command; (exit status, stdout lines)."""
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def detail(workload, seed=run.DEFAULT_SEED, trace=0, quick=True):
    stem = f"{workload}-seed{seed}-trace{trace}" + ("-quick" * quick)
    return json.loads((run.RESULTS / f"{stem}.json").read_text())


def test_benchmark_json_names_and_lists():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert SPEC["paths"] == ["benchmarks/layered"]
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in SPEC["end_to_end"]
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_exactly_the_registered_metrics(trace, kind):
    status, lines = bench("--workload", "adhoc_small", "--quick",
                          "--trace", str(trace))
    assert status == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in SPEC[kind]}
    assert all(isinstance(value["value"], (int, float))
               for value in result["metrics"].values())
    environment = detail("adhoc_small", trace=trace)["environment"]
    assert environment["PYTHONHASHSEED"] == "0"
    assert environment["src_repro_nonblank_lines"] > 10_000
    assert {"git_commit", "python", "nproc", "cpu_model", "seed",
            "measured_cycles"} <= set(environment)


def _texts(workload, seed, count=3):
    return [(statement.sql, statement.params)
            for cycle in islice(
                workloads.cycles(workloads.WORKLOADS[workload], seed), count)
            for statement in cycle]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_determines_the_statement_list(workload):
    assert _texts(workload, 5) == _texts(workload, 5)
    assert _texts(workload, 5) != _texts(workload, 6)


def test_point_runs_as_one_burst_per_turn():
    for cycle in islice(workloads.cycles(
            workloads.WORKLOADS["report_50k"], 5), 3):
        names = [statement.cls.name for statement in cycle]
        at = names.index("point")
        assert names[at:at + workloads.POINT_BURST] \
            == ["point"] * workloads.POINT_BURST
        assert names.count("point") == workloads.POINT_BURST
        assert [statement.follows for statement in cycle] \
            == [name == "point" and index != at
                for index, name in enumerate(names)]


def test_expected_rows_of_listed_domains_are_held_from_the_start():
    """What the process holds must not depend on the seed's draws."""
    classes = set(workloads.WORKLOADS["shapes_200"].classes)
    from repro.workloads import build_scaled_storage
    storage = build_scaled_storage(200)
    tables = {name: list(storage.table(name).rows)
              for name in storage.table_names()}
    checker = run.Checker(tables, None, classes)
    assert len(checker._expected) \
        == sum(len(cls.domain) for cls in classes) == 10


def test_times_are_corrected_by_the_damped_kernel_ratio():
    assert calibration.kernel() == calibration.kernel()
    host = calibration.HostSpeed()
    assert host.correction() == 1.0
    host.sample()
    assert host.median() == host.timings[0] > 0
    host.timings[:] = [0.002, 0.016, 0.032]
    assert host.correction() == pytest.approx(
        (calibration.REFERENCE_SECONDS / 0.016) ** calibration.DAMPING)
    tally = run.Tally()
    tally.samples["scan"] = [0.010, 0.020, 0.030]
    tally.per_statement, tally.statements = [0.020], 3
    tally.wall = tally.cpu = 0.060
    metrics, classes, filled = run.end_to_end_metrics(
        tally, [0.5, 0.7, 0.9], 0.0, 0.5, 0.8)
    assert classes["scan"]["p50_ms"] == pytest.approx(20.0)  # as measured
    assert metrics["scan_p50_ms"] == pytest.approx(16.0)
    assert metrics["join_p50_ms"] == pytest.approx(16.0)
    assert "join_p50_ms" in filled and "scan_p50_ms" not in filled
    assert metrics["stmts_per_s"] == pytest.approx(3 / (0.060 * 0.8))
    assert metrics["cpu_ms_per_stmt"] == pytest.approx(16.0)
    assert metrics["setup_s"] == pytest.approx(0.35)


def test_adhoc_texts_are_all_new():
    texts = [sql for sql, _params in _texts("adhoc_small", 5, count=60)]
    assert len(set(texts)) == len(texts) == 300


def test_same_seed_same_digests_other_seed_other_digests():
    digests = []
    for seed in ("5", "5", "6"):
        assert bench("--workload", "mixed_rw", "--quick",
                     "--seed", seed)[0] == 0
        found = detail("mixed_rw", seed=seed)
        digests.append((found["statement_digest"], found["row_digest"]))
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[2][0]


def test_adhoc_small_misses_both_caches_and_report_50k_hits_them():
    assert bench("--workload", "adhoc_small", "--quick")[0] == 0
    shares = detail("adhoc_small")["cache_hit_share"]
    assert shares["statement_cache"] == 0 and shares["plan_cache"] == 0
    assert shares["metadata_cache"] == 1
    assert bench("--workload", "report_50k", "--quick")[0] == 0
    shares = detail("report_50k")["cache_hit_share"]
    assert shares["statement_cache"] == 1 and shares["plan_cache"] == 1


@pytest.mark.parametrize("how", ["drop", "alter"])
def test_a_wrong_row_fails_the_run(how):
    status, lines = bench("--workload", "adhoc_small", "--quick",
                          "--tamper", how)
    result = json.loads(lines[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] == 1
    assert any("FAILED" in line for line in lines)


def test_same_rows_respects_order_only_where_the_statement_does():
    rows = [(1, None), (2, "x")]
    assert reference.same_rows(rows[::-1], rows, ordered=False)
    assert not reference.same_rows(rows[::-1], rows, ordered=True)
    assert not reference.same_rows(rows[:1], rows, ordered=False)
    assert not reference.same_rows([(1, None), (2, "y")], rows, ordered=False)


def test_a_server_that_dies_fails_statements_not_the_command():
    workload = workloads.WORKLOADS["remote_paged"]
    session = workload.open()
    try:
        runner = run.DriverRunner(session.connection, paged=True)
        checker = run.Checker(workloads.reference_tables(workload, session),
                              None)
        cycle = next(workloads.cycles(workload, 1))
        alive, dead = run.Tally(), run.Tally()
        host = calibration.HostSpeed()
        run.run_cycle(runner, cycle, checker, alive, host)
        assert alive.failed == 0
        session.server.process.kill()
        session.server.process.wait(timeout=10)
        assert not session.server.alive()
        run.run_cycle(runner, cycle, checker, dead, host)
        assert dead.failed == dead.statements == len(cycle)
    finally:
        session.close()
    assert session.server.process.poll() is not None


def test_stop_reaps_the_server_and_is_idempotent():
    server = remote.ServerProcess.start()
    assert server.alive() and server.cpu_seconds() >= 0
    server.stop()
    server.stop()
    assert server.process.poll() is not None


def test_a_server_that_exits_during_boot_is_reported():
    process = subprocess.Popen([sys.executable, "-c", "pass"],
                               stdout=subprocess.PIPE, text=True)
    server = remote.ServerProcess(process, 0)
    with pytest.raises(RuntimeError, match="exited during boot"):
        server._read_port()
    server.stop()


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    status, lines = bench(
        "--workload", "adhoc_small", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
        script=tmp_path / "benchmarks" / "layered" / "run.py")
    assert status != 0
    assert not lines
