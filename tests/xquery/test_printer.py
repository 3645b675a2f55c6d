"""Tests for the XQuery pretty-printer, including the translator-output
round-trip property: parse(print(parse(q))) == parse(q)."""

import dataclasses
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.translator import SQLToXQueryTranslator
from repro.workloads import COMPLEXITY_CLASSES, build_runtime, generate_query
from repro.xquery import ast, parse_xquery, parse_xquery_expr
from repro.xquery.analysis import subexpressions
from repro.xquery.printer import print_expr, print_module

SNIPPETS = [
    "42",
    "4.5",
    '"a string with ""quotes"" and &amp;"',
    "$var1FR0",
    "()",
    "(1, 2, 3)",
    "1 + 2 * 3",
    "-$x",
    "7 idiv 2",
    "7 mod 2",
    "1 to 10",
    '$c/CUSTOMERNAME eq "Sue"',
    "$a > 10 or $b <= 2 and $c != 0",
    "fn:data($x/CUSTOMERID)",
    "xs:integer(10)",
    "fn-bea:if-empty($x, 0)",
    "ns1:PAYMENTS()[($v/CUSTOMERID = CUSTID)]",
    "$t/RECORD[2]/ID",
    "$rows/*",
    "if (fn:empty($t)) then 1 else 2",
    "some $x in (1, 2) satisfies $x eq 2",
    "every $x in $s satisfies $x > 0",
    "for $x in (1, 2, 3) where $x > 1 return $x * 2",
    "let $t := ns0:CUSTOMERS() return fn:count($t)",
    "for $a in $x, $b in $y return ($a, $b)",
    "for $r in $rows group $r as $p by fn:data($r/K) as $k "
    "return fn:count($p)",
    "for $x in $s order by $x descending, fn:data($x/B) return $x",
    "for $x in $s order by $x empty greatest return $x",
    "<RECORD/>",
    "<RECORD><ID>{fn:data($c/CUSTOMERID)}</ID></RECORD>",
    "<A>literal {1} more</A>",
    "<A>{{escaped braces}}</A>",
    '<A x="1" y="b{2}c"/>',
    "<ns0:WRAP>{$x}</ns0:WRAP>",
    "<A>a &amp; b &lt; c</A>",
]


@pytest.mark.parametrize("snippet", SNIPPETS)
def test_expression_roundtrip(snippet):
    parsed = parse_xquery_expr(snippet)
    printed = print_expr(parsed)
    assert parse_xquery_expr(printed) == parsed, printed


MODULES = [
    'import schema namespace ns0 = "ld:T/CUSTOMERS" at "ld:x.xsd";\n'
    "for $c in ns0:CUSTOMERS() return $c",
    'declare namespace p = "uri";\n1',
    "declare variable $p1 as xs:int external;\n$p1 + 1",
]


@pytest.mark.parametrize("text", MODULES)
def test_module_roundtrip(text):
    parsed = parse_xquery(text)
    printed = print_module(parsed)
    assert parse_xquery(printed) == parsed, printed


@pytest.fixture(scope="module")
def translator():
    return SQLToXQueryTranslator(build_runtime().metadata_api())


@pytest.mark.parametrize("klass", sorted(COMPLEXITY_CLASSES))
@pytest.mark.parametrize("fmt", ["recordset", "delimited"])
def test_translator_output_roundtrips(translator, klass, fmt):
    """Everything the translator emits survives print→reparse."""
    xquery = translator.translate(COMPLEXITY_CLASSES[klass],
                                  format=fmt).xquery
    parsed = parse_xquery(xquery)
    assert parse_xquery(print_module(parsed)) == parsed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_random_translator_output_roundtrips(translator, seed):
    xquery = translator.translate(generate_query(seed)).xquery
    parsed = parse_xquery(xquery)
    assert parse_xquery(print_module(parsed)) == parsed


class TestLiterals:
    """Literal spellings that used to print text the parser rejected or
    read as something else."""

    @pytest.mark.parametrize("value", [
        Decimal("1E+2"), Decimal("0E-7"), Decimal("1E-7"),
        Decimal("12.50"), Decimal("7")])
    def test_decimal_prints_in_plain_notation(self, value):
        # str(Decimal) may choose an exponent, which XQuery reads as a
        # double ("1E+2") or not at all ("1E+2.0").
        text = print_expr(ast.XLiteral(value))
        parsed = parse_xquery_expr(text)
        assert "E" not in text and "." in text
        assert parsed == ast.XLiteral(value)
        assert isinstance(parsed.value, Decimal)

    @pytest.mark.parametrize("value,lexical", [
        (math.inf, "INF"), (-math.inf, "-INF"), (math.nan, "NaN")])
    def test_non_finite_double_prints_as_a_cast(self, value, lexical):
        # "infe0" / "nane0" parsed as path steps.
        text = print_expr(ast.XLiteral(value))
        assert text == f'xs:double("{lexical}")'
        result, = build_runtime().execute(text)
        assert result == value or (result != result and value != value)

    @pytest.mark.parametrize("value", [-5, Decimal("-2.50"), -1.5e300])
    def test_negative_number_prints_as_its_normal_form(self, value):
        """Numeric literals are unsigned; the normal form of a negative
        number is unary minus over its magnitude. The printer spells a
        negative literal that way, so print -> parse normalises it."""
        parsed = parse_xquery_expr(print_expr(ast.XLiteral(value)))
        assert parsed == ast.UnaryMinus(ast.XLiteral(-value))
        assert type(parsed.operand.value) is type(value)

    def test_translator_builds_the_normal_form(self, translator):
        module = translator.translate(
            "SELECT -5, -2.5 FROM CUSTOMERS").module
        literals = [node.value for node, _ in subexpressions(module)
                    if isinstance(node, ast.XLiteral)
                    and not isinstance(node.value, str)]
        assert literals == [5, Decimal("2.5")]
        assert "(-xs:int(5))" in print_module(module)

    def test_quote_in_a_string_is_spelled_as_an_entity(self):
        # Stage three's spelling, not the doubled quote.
        literal = ast.XLiteral('say "hi" & go')
        text = print_expr(literal)
        assert text == '"say &quot;hi&quot; &amp; go"'
        assert parse_xquery_expr(text) == literal

    def test_tiny_decimal_stays_a_decimal(self, translator):
        # The text generator wrote xs:decimal(1E-7): a double literal.
        result = translator.translate(
            "SELECT 0.0000001 FROM CUSTOMERS")
        assert "xs:decimal(0.0000001)" in result.xquery
        assert parse_xquery(result.xquery) == result.module


#: One text per node class, between them; each must round-trip.
COVERAGE = [
    'import schema namespace ns0 = "u" at "l";\n'
    'declare namespace p = "v";\n'
    "declare variable $p1 external;\n"
    "for $a in ns0:T()[1]/X[. eq 2] let $b := -$a where $a = 1 or $b "
    "and 2 to 3 group $a as $g by $b + 1 as $k order by $k descending "
    'return <R a="x{$k}"><C>{if ($k) then "s" else 1.5}</C></R>',
    "some $x in (1, 2e0) satisfies $x",
]


def test_every_node_class_prints():
    """A node class the printer cannot print fails here: the texts in
    COVERAGE must between them contain every class of ``ast``."""
    seen = set()
    for text in COVERAGE:
        module = parse_xquery(text)
        assert parse_xquery(print_module(module)) == module
        seen.add(ast.Module)
        seen.update(type(decl) for decl in module.prolog)
        seen.update(type(node) for node, _ in subexpressions(module.body))
    classes = {cls for cls in vars(ast).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert classes - seen == set()
