"""Tests for the SQL→XQuery function map and the wrapper module."""

import pytest

from repro.errors import UnsupportedSQLError
from repro.sql.types import SQLType
from repro.translator import ResultColumn, wrap_delimited
from repro.translator.funcmap import (
    extract_function_for,
    xquery_function_for,
)
from repro.xquery import ast, parse_xquery_expr
from repro.xquery.printer import print_expr, print_module


class TestFunctionMap:
    @pytest.mark.parametrize("sql_name,xquery_name", [
        ("UPPER", "fn-bea:sql-upper"),
        ("lower", "fn-bea:sql-lower"),
        ("CONCAT", "fn-bea:sql-concat"),
        ("SUBSTRING", "fn-bea:sql-substring"),
        ("CHAR_LENGTH", "fn-bea:sql-char-length"),
        ("LENGTH", "fn-bea:sql-char-length"),
        ("POSITION", "fn-bea:sql-position"),
        ("ABS", "fn:abs"),
        ("FLOOR", "fn:floor"),
        ("CEILING", "fn:ceiling"),
        ("SQRT", "fn-bea:sqrt"),
        ("CURRENT_DATE", "fn:current-date"),
    ])
    def test_mapping(self, sql_name, xquery_name):
        assert xquery_function_for(sql_name) == xquery_name

    def test_unknown_function(self):
        with pytest.raises(UnsupportedSQLError):
            xquery_function_for("FROBNICATE")

    @pytest.mark.parametrize("field,kind,expected", [
        ("YEAR", "DATE", "fn:year-from-date"),
        ("MONTH", "DATE", "fn:month-from-date"),
        ("DAY", "TIMESTAMP", "fn:day-from-dateTime"),
        ("HOUR", "TIMESTAMP", "fn:hours-from-dateTime"),
        ("MINUTE", "TIME", "fn:minutes-from-time"),
        ("SECOND", "TIME", "fn:seconds-from-time"),
    ])
    def test_extract_mapping(self, field, kind, expected):
        assert extract_function_for(field, kind) == expected

    def test_extract_invalid_combination(self):
        with pytest.raises(UnsupportedSQLError):
            extract_function_for("HOUR", "DATE")


class TestWrapperGeneration:
    def columns(self):
        return [
            ResultColumn("ID", "ID", SQLType("INTEGER")),
            ResultColumn("NAME", "NAME", SQLType("VARCHAR")),
        ]

    def text(self, body=None):
        """The wrapper around *body* (default: a ``$BODY`` stand-in),
        printed."""
        body = ast.VarRef("BODY") if body is None else body
        return print_expr(wrap_delimited(body, self.columns()))

    def test_structure(self):
        text = print_module(ast.Module(
            (ast.VarDecl("p1"),),
            wrap_delimited(ast.VarRef("BODY"), self.columns())))
        assert text.startswith("declare variable $p1 external;\n")
        assert "let $actualQuery := (\n$BODY\n)" in text
        assert "for $tokenQuery in $actualQuery" in text
        assert text.rstrip().endswith('), "")')

    def test_one_cell_binding_per_column(self):
        text = self.text()
        assert "let $cell0 := fn:data($tokenQuery/ID)" in text
        assert "let $cell1 := fn:data($tokenQuery/NAME)" in text

    def test_null_and_value_marks(self):
        text = self.text()
        assert 'then "<"' in text
        assert 'fn:concat(">", fn-bea:xml-escape(' in text

    def test_body_unmodified(self):
        """Clean separation: the body is embedded as it is."""
        body = parse_xquery_expr("for $x in ns0:T() return <RECORD/>")
        wrapped = wrap_delimited(body, self.columns())
        assert wrapped.args[0].clauses[0].value is body
        assert print_expr(body) in self.text(body)
