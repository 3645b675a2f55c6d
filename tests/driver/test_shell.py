"""Tests for the SQL shell (python -m repro)."""

import io

import pytest

from repro.shell import Shell, format_table, main


@pytest.fixture()
def shell_io():
    lines = []
    shell = Shell(out=lines.append)
    return shell, lines


def output(lines):
    return "\n".join(lines)


class TestFormatTable:
    def test_basic(self):
        text = format_table(["A", "NAME"], [(1, "Joe"), (22, None)])
        assert "A  | NAME" in text
        assert "1  | Joe" in text
        assert "22 | NULL" in text
        assert "(2 rows)" in text

    def test_singular_row_count(self):
        assert "(1 row)" in format_table(["A"], [(1,)])

    def test_widths_follow_content(self):
        text = format_table(["X"], [("longvalue",)])
        assert "X        " in text


class TestShellCommands:
    def test_execute_sql(self, shell_io):
        shell, lines = shell_io
        assert shell.handle("SELECT CUSTOMERNAME FROM CUSTOMERS "
                            "WHERE CUSTOMERID = 23")
        assert "Sue" in output(lines)
        assert "(1 row)" in output(lines)

    def test_sql_error_reported(self, shell_io):
        shell, lines = shell_io
        shell.handle("SELECT NOPE FROM CUSTOMERS")
        assert "error:" in output(lines)

    def test_tables(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\tables")
        assert "TestDataServices/CUSTOMERS.CUSTOMERS" in output(lines)

    def test_schema(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\schema CUSTOMERS")
        assert "CUSTOMERID  INTEGER" in output(lines)

    def test_schema_unknown_table(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\schema NOPE")
        assert "error:" in output(lines)

    def test_translate(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\translate SELECT * FROM CUSTOMERS")
        assert "fn:string-join(" in output(lines)  # delimited by default

    def test_translate_after_format_switch(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\format xml")
        lines.clear()
        shell.handle("\\translate SELECT * FROM CUSTOMERS")
        assert "<RECORDSET>{" in output(lines)

    def test_explain(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\explain SELECT COUNT(*) FROM CUSTOMERS")
        assert "QUERY CONTEXTS" in output(lines)
        assert "table RSN" in output(lines)
        assert "STAGE TIMINGS" in output(lines)

    def test_trace_on_prints_span_tree(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\trace on")
        assert "tracing: on" in output(lines)
        lines.clear()
        shell.handle("SELECT COUNT(*) FROM CUSTOMERS")
        text = output(lines)
        for name in ("execute", "translate", "stage1", "stage2",
                     "stage3", "evaluate", "xquery.compile"):
            assert name in text
        lines.clear()
        shell.handle("\\trace off")
        shell.handle("SELECT COUNT(*) FROM CUSTOMERS")
        assert "stage1" not in output(lines)

    def test_trace_usage(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\trace sideways")
        assert "usage:" in output(lines)

    def test_trace_survives_format_switch(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\trace on")
        shell.handle("\\format xml")
        lines.clear()
        shell.handle("SELECT COUNT(*) FROM CUSTOMERS")
        assert "execute" in output(lines)

    def test_stats(self, shell_io):
        shell, lines = shell_io
        shell.handle("SELECT COUNT(*) FROM CUSTOMERS")
        lines.clear()
        shell.handle("\\stats")
        text = output(lines)
        assert "COUNTERS" in text
        assert "queries.executed = 1" in text
        assert "HISTOGRAMS" in text
        assert "translate.total.seconds" in text
        assert "STATEMENT_CACHE: hits=0 misses=1" in text
        assert "METADATA_CACHE:" in text
        assert "PARALLEL" not in text
        assert "AGGREGATION: queries=" in text
        assert "TYPED ROWS: as_computed_columns=" in text

    def test_format_validation(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\format bogus")
        assert "usage:" in output(lines)

    def test_format_switch_executes(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\format xml")
        lines.clear()
        shell.handle("SELECT COUNT(*) FROM CUSTOMERS")
        assert "6" in output(lines)

    def test_unknown_command(self, shell_io):
        shell, lines = shell_io
        shell.handle("\\bogus")
        assert "unknown command" in output(lines)

    def test_quit_stops(self, shell_io):
        shell, _lines = shell_io
        assert shell.handle("\\quit") is False
        assert shell.handle("\\q") is False

    def test_empty_line_continues(self, shell_io):
        shell, _lines = shell_io
        assert shell.handle("   ")

    def test_interactive_loop(self, shell_io):
        shell, lines = shell_io
        stdin = io.StringIO("SELECT COUNT(*) FROM CUSTOMERS\n\\quit\n")
        shell.run_interactive(stdin=stdin)
        assert "(1 row)" in output(lines)


class TestMainEntry:
    def test_one_shot_sql(self, capsys):
        assert main(["SELECT COUNT(*) FROM CUSTOMERS"]) == 0
        assert "(1 row)" in capsys.readouterr().out

    def test_one_shot_translate(self, capsys):
        assert main(["--translate", "SELECT * FROM CUSTOMERS"]) == 0
        assert "fn:string-join(" in capsys.readouterr().out

    def test_one_shot_explain(self, capsys):
        assert main(["--explain", "SELECT * FROM CUSTOMERS"]) == 0
        assert "RESULTSET NODES" in capsys.readouterr().out
