"""Planner tests: composite-key hash joins and streaming rewrites.

The planner (``repro.xquery.planner``) plans for the batch executor.
Every structural claim here is also checked semantically against the
Evaluator, which runs the clauses as written, and a compiled module
(node-valued externals: the Evaluator runs it too).
"""

import pytest

from repro.errors import XQueryTypeError
from repro.xmlmodel import element
from repro.xquery import ast, compile_module, parse_xquery
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_xquery_expr
from repro.xquery.planner import HashJoinClause, plan_clauses


def run_all(text, variables=None):
    """Interpreted and compiled results for the same module; they must
    always agree."""
    module = parse_xquery(text)
    interpreted = Evaluator(module, variables=variables).evaluate()
    assert compile_module(module).evaluate(variables) == interpreted
    return interpreted


def rows(triples):
    """R elements with two int keys and a string payload."""
    def cell(name, value, annotation):
        if value is None:
            return element(name)
        return element(name, str(value), type_annotation=annotation)

    return [element("R", cell("K1", k1, "int"), cell("K2", k2, "int"),
                    cell("V", v, "string"))
            for k1, k2, v in triples]


MULTI_JOIN = """
for $a in $left
for $b in $right
where fn:data($a/K1) eq fn:data($b/K1)
  and fn:data($a/K2) eq fn:data($b/K2)
return fn:concat(fn:string(fn:data($a/V)), "-",
                 fn:string(fn:data($b/V)))
"""


class TestCompositeKeyPlanning:
    def plan(self, text):
        expr = parse_xquery_expr(text)
        assert isinstance(expr, ast.FLWOR)
        return plan_clauses(expr.clauses, expr.return_expr)

    def test_two_conjuncts_fuse_into_one_join(self):
        planned = self.plan(MULTI_JOIN)
        joins = [c for c in planned if isinstance(c, HashJoinClause)]
        assert len(joins) == 1
        assert len(joins[0].keys) == 2
        # No residual where clauses: both conjuncts became join keys.
        assert not any(isinstance(c, ast.WhereClause) for c in planned)

    def test_guard_conjunct_stops_the_prefix(self):
        planned = self.plan("""
            for $a in $left
            for $b in $right
            where fn:data($a/K1) eq fn:data($b/K1)
              and fn:data($b/K2) gt 0
              and fn:data($a/K2) eq fn:data($b/K2)
            return $b
        """)
        join = next(c for c in planned if isinstance(c, HashJoinClause))
        # Only the leading eq fuses; the guard and the post-guard eq
        # stay behind it as wheres, preserving evaluation order.
        assert len(join.keys) == 1
        wheres = [c for c in planned if isinstance(c, ast.WhereClause)]
        assert len(wheres) == 2

    def test_three_conjuncts_all_fuse(self):
        planned = self.plan("""
            for $a in $left
            for $b in $right
            where fn:data($a/K1) eq fn:data($b/K1)
              and fn:data($a/K2) eq fn:data($b/K2)
              and fn:data($b/V) eq fn:data($a/V)
            return $b
        """)
        join = next(c for c in planned if isinstance(c, HashJoinClause))
        assert len(join.keys) == 3


class TestCompositeKeySemantics:
    def test_matches_require_both_keys(self):
        left = rows([(1, 1, "a"), (1, 2, "b"), (2, 1, "c")])
        right = rows([(1, 1, "x"), (1, 9, "y"), (2, 1, "z")])
        assert run_all(MULTI_JOIN, {"left": left, "right": right}) == \
            ["a-x", "c-z"]

    def test_null_in_any_key_position_never_matches(self):
        left = rows([(1, None, "a"), (None, 2, "b"), (3, 3, "c")])
        right = rows([(1, None, "x"), (None, 2, "y"), (3, 3, "z")])
        assert run_all(MULTI_JOIN, {"left": left, "right": right}) == \
            ["c-z"]

    def test_duplicates_multiply(self):
        left = rows([(1, 1, "a"), (1, 1, "b")])
        right = rows([(1, 1, "x"), (1, 1, "y")])
        assert run_all(MULTI_JOIN, {"left": left, "right": right}) == \
            ["a-x", "a-y", "b-x", "b-y"]

    def test_cross_category_key_raises_like_unoptimized(self):
        # Second key compares an int to a string: eq must raise a type
        # error, interpreted and compiled.
        left = [element("R", element("K1", "1", type_annotation="int"),
                        element("K2", "1", type_annotation="int"),
                        element("V", "a", type_annotation="string"))]
        right = [element("R", element("K1", "1", type_annotation="int"),
                         element("K2", "oops",
                                 type_annotation="string"),
                         element("V", "x", type_annotation="string"))]
        module = parse_xquery(MULTI_JOIN)
        with pytest.raises(XQueryTypeError):
            Evaluator(module, variables={"left": left,
                                         "right": right}).evaluate()
        plan = compile_module(module)
        with pytest.raises(XQueryTypeError):
            plan.evaluate({"left": left, "right": right})


class TestLetForFusion:
    def test_wrapper_shape_fuses(self):
        expr = parse_xquery_expr(
            "let $actual := (for $x in $src return $x) "
            "for $token in $actual return $token")
        planned = plan_clauses(expr.clauses, expr.return_expr)
        assert len(planned) == 1
        assert isinstance(planned[0], ast.ForClause)
        assert planned[0].var == "token"
        assert isinstance(planned[0].source, ast.FLWOR)

    def test_no_fusion_when_let_used_later(self):
        expr = parse_xquery_expr(
            "let $s := (1, 2, 3) for $x in $s "
            "return ($x, fn:count($s))")
        planned = plan_clauses(expr.clauses, expr.return_expr)
        assert isinstance(planned[0], ast.LetClause)

    def test_no_fusion_without_return_expr(self):
        # Without the return expression, liveness cannot be proven, so
        # the legacy plan_clauses(clauses) form never fuses.
        expr = parse_xquery_expr(
            "let $s := (1, 2, 3) for $x in $s return $x")
        planned = plan_clauses(expr.clauses)
        assert isinstance(planned[0], ast.LetClause)

    def test_fused_plan_is_equivalent(self):
        text = ("let $actual := (for $x in (1, 2, 3) return $x + 1) "
                "for $token in $actual return $token * 10")
        assert run_all(text) == [20, 30, 40]
