"""Tests for the XQuery planner's hash equi-join rewrite and the join
semantics it must keep.

The planner's rewrites are checked structurally here (``plan_clauses``);
the semantics cases pin the Evaluator, which runs the clauses as
written, to the rows SQL's equality gives. The batch executor's hash
join is held to the same rows by its own tests and the differentials.
"""

import pytest

from repro.errors import XQueryTypeError
from repro.xmlmodel import element
from repro.xquery import parse_xquery
from repro.xquery.analysis import free_vars
from repro.xquery.evaluator import Evaluator
from repro.xquery.parser import parse_xquery_expr
from repro.xquery.planner import HashJoinClause, plan_clauses


def run(text, variables=None):
    return Evaluator(parse_xquery(text), variables=variables).evaluate()


def rows(pairs, key_type="int"):
    return [element("R",
                    element("K", str(k), type_annotation=key_type)
                    if k is not None else element("K"),
                    element("V", str(v), type_annotation="string"))
            for k, v in pairs]


class TestFreeVars:
    def test_varref(self):
        assert free_vars(parse_xquery_expr("$x")) == {"x"}

    def test_flwor_binds(self):
        expr = parse_xquery_expr("for $x in $src return $x + $y")
        assert free_vars(expr) == {"src", "y"}

    def test_let_binds(self):
        expr = parse_xquery_expr("let $t := $a return $t")
        assert free_vars(expr) == {"a"}

    def test_quantified_binds(self):
        expr = parse_xquery_expr("some $v in $s satisfies $v eq $w")
        assert free_vars(expr) == {"s", "w"}

    def test_group_clause_binds(self):
        expr = parse_xquery_expr(
            "for $r in $src group $r as $p by fn:data($r/K) as $k "
            "return ($k, fn:count($p), $outer)")
        assert free_vars(expr) == {"src", "outer"}

    def test_path_and_predicates(self):
        expr = parse_xquery_expr("$t/RECORD[ID eq $limit]")
        assert free_vars(expr) == {"t", "limit"}

    def test_constructor_content(self):
        expr = parse_xquery_expr("<A x='{$a}'>{$b}</A>")
        assert free_vars(expr) == {"a", "b"}

    def test_no_free_vars_in_literal(self):
        assert free_vars(parse_xquery_expr("1 + 2")) == frozenset()


JOIN = """
for $a in $left
for $b in $right
where fn:data($a/K) eq fn:data($b/K)
return fn:concat(fn:string(fn:data($a/V)), "-",
                 fn:string(fn:data($b/V)))
"""


class TestHashJoinSemantics:
    def test_basic_equi_join(self):
        left = rows([(1, "a"), (2, "b"), (3, "c")])
        right = rows([(2, "x"), (3, "y"), (3, "z"), (9, "w")])
        assert run(JOIN, {"left": left, "right": right}) == \
            ["b-x", "c-y", "c-z"]

    def test_null_keys_never_match(self):
        left = rows([(1, "a"), (None, "n")])
        right = rows([(1, "x"), (None, "m")])
        assert run(JOIN, {"left": left, "right": right}) == ["a-x"]

    def test_cross_numeric_representations_match(self):
        left = rows([(2, "a")], key_type="int")
        right = rows([("2.0", "x")], key_type="decimal") \
            if False else [element(
                "R", element("K", "2.0", type_annotation="decimal"),
                element("V", "x", type_annotation="string"))]
        assert run(JOIN, {"left": left, "right": right}) == ["a-x"]

    def test_string_keys(self):
        left = rows([("p", "a"), ("q", "b")], key_type="string")
        right = rows([("q", "x")], key_type="string")
        assert run(JOIN, {"left": left, "right": right}) == ["b-x"]

    def test_untyped_vs_string_keys(self):
        """Untyped keys follow the eq rule (compare as strings)."""
        left = [element("R", element("K", "q"),
                        element("V", "a", type_annotation="string"))]
        right = rows([("q", "x")], key_type="string")
        assert run(JOIN, {"left": left, "right": right}) == ["a-x"]

    def test_cross_category_raises_like_unoptimized(self):
        left = rows([(1, "a")], key_type="int")
        right = rows([("zz", "x")], key_type="string")
        with pytest.raises(XQueryTypeError):
            run(JOIN, {"left": left, "right": right})

    def test_duplicates_multiply(self):
        left = rows([(1, "a"), (1, "b")])
        right = rows([(1, "x"), (1, "y")])
        assert sorted(run(JOIN, {"left": left, "right": right})) == \
            ["a-x", "a-y", "b-x", "b-y"]

    def test_order_preserved(self):
        """Rows come in nested-loop order, the order a hash join must
        keep."""
        left = rows([(2, "a"), (1, "b"), (2, "c")])
        right = rows([(2, "x"), (1, "y"), (2, "z")])
        assert run(JOIN, {"left": left, "right": right}) == \
            ["a-x", "a-z", "b-y", "c-x", "c-z"]

    def test_empty_sides(self):
        assert run(JOIN, {"left": [], "right": rows([(1, "x")])}) == []
        assert run(JOIN, {"left": rows([(1, "a")]), "right": []}) == []


class TestPlannerScope:
    def plan_of(self, text):
        return plan_clauses(parse_xquery(text).body.clauses)

    def has_hash_join(self, text):
        return any(isinstance(c, HashJoinClause)
                   for c in self.plan_of(text))

    def test_equi_join_planned(self):
        assert self.has_hash_join(
            "for $a in $l for $b in $r "
            "where fn:data($a/K) eq fn:data($b/K) return 1")

    def test_reversed_sides_planned(self):
        assert self.has_hash_join(
            "for $a in $l for $b in $r "
            "where fn:data($b/K) eq fn:data($a/K) return 1")

    def test_general_comparison_not_planned(self):
        assert not self.has_hash_join(
            "for $a in $l for $b in $r "
            "where fn:data($a/K) = fn:data($b/K) return 1")

    def test_non_eq_not_planned(self):
        assert not self.has_hash_join(
            "for $a in $l for $b in $r "
            "where fn:data($a/K) lt fn:data($b/K) return 1")

    def test_same_var_both_sides_not_planned(self):
        assert not self.has_hash_join(
            "for $a in $l for $b in $r "
            "where fn:data($b/K) eq fn:data($b/J) return 1")

    def test_correlated_source_not_planned(self):
        """When the inner source depends on the outer variable, its hash
        table cannot be built once."""
        assert not self.has_hash_join(
            "for $a in $l for $b in $a/KIDS "
            "where fn:data($a/K) eq fn:data($b/K) return 1")

    def test_constant_selection_also_hashed(self):
        # A where comparing the new variable against a constant is
        # planned too: the constant probes the hash table once per
        # tuple, which is a correct (and cheap) selection.
        assert self.has_hash_join(
            "for $a in $l for $b in $r "
            "where fn:data($b/K) eq 5 return 1")

    def test_constant_selection_correct(self):
        left = rows([(1, "a"), (2, "b")])
        right = rows([(5, "x"), (6, "y"), (5, "z")])
        text = ("for $a in $left for $b in $right "
                "where fn:data($b/K) eq 5 "
                "return fn:string(fn:data($b/V))")
        assert run(text, {"left": left, "right": right}) == \
            ["x", "z", "x", "z"]

    def test_filter_against_outer_still_joined(self):
        # Key uses the outer var on one side, inner on the other.
        plan = self.plan_of(
            "for $a in $l for $b in $r "
            "where fn:data($a/K) eq fn:data($b/J) return 1")
        assert any(isinstance(c, HashJoinClause) for c in plan)


class TestFilterHoisting:
    def plan_of(self, text):
        return plan_clauses(parse_xquery(text).body.clauses)

    def test_three_way_join_is_two_hash_joins(self):
        plan = self.plan_of(
            "for $a in $x for $b in $y for $c in $z "
            "where fn-bea:and3((fn:data($a/K) eq fn:data($b/K)), "
            "(fn:data($a/K) eq fn:data($c/K))) return 1")
        assert sum(isinstance(c, HashJoinClause) for c in plan) == 2

    def test_and_operator_also_split(self):
        plan = self.plan_of(
            "for $a in $x for $b in $y "
            "where fn:data($a/K) eq fn:data($b/K) and fn:data($b/V) eq 1 "
            "return 1")
        assert any(isinstance(c, HashJoinClause) for c in plan)

    def test_hoisting_preserves_rows(self):
        """Selection conjuncts that hoist above later fors keep exactly
        the nested-loop semantics."""
        left = rows([(1, "a"), (2, "b"), (3, "c")])
        right = rows([(1, "x"), (2, "y"), (9, "z")])
        text = ("for $a in $left for $b in $right "
                "where fn-bea:and3((fn:data($a/K) eq fn:data($b/K)), "
                "(fn:data($a/K) lt 3)) "
                "return fn:concat(fn:string(fn:data($a/V)), "
                "fn:string(fn:data($b/V)))")
        assert run(text, {"left": left, "right": right}) == ["ax", "by"]

    def test_filters_never_cross_group_boundary(self):
        plan = self.plan_of(
            "for $r in $rows group $r as $p by fn:data($r/K) as $k "
            "where fn:count($p) > 1 return $k")
        kinds = [type(c).__name__ for c in plan]
        assert kinds.index("GroupClause") < kinds.index("WhereClause")

    def test_grouped_query_with_having_correct(self):
        data = rows([(1, "a"), (1, "b"), (2, "c")])
        text = ("for $r in $rows group $r as $p by fn:data($r/K) as $k "
                "where fn:count($p) > 1 return $k")
        assert run(text, {"rows": data}) == [1]

    def test_guard_conjuncts_short_circuit_when_optimized(self):
        """K ne 0 guards a division. fn-bea:and3 is a function call,
        whose arguments a plain call would evaluate eagerly, so the
        division by zero would raise; a where evaluates its conjuncts
        in order and short-circuits instead, on the Evaluator as in the
        batch executor's split where, matching the SQL oracle's AND.
        (SQL-92 leaves AND evaluation order implementation-defined, and
        XQuery 1.0 §2.3.4 explicitly permits rewrites that avoid
        errors — this pins the contract.)"""
        data = [element("R", element("K", "0", type_annotation="int")),
                element("R", element("K", "2", type_annotation="int"))]
        text = ("for $r in $rows "
                "where fn-bea:and3((fn:data($r/K) ne 0), "
                "((10 idiv fn:data($r/K)) eq 5)) "
                "return fn:data($r/K)")
        assert run(text, {"rows": data}) == [2]


class TestTranslatedJoins:
    def test_translated_inner_join_uses_hash_join(self):
        from repro.translator import SQLToXQueryTranslator
        from repro.workloads import build_runtime
        runtime = build_runtime()
        translator = SQLToXQueryTranslator(runtime.metadata_api())
        result = translator.translate(
            "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C "
            "INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID")
        module = parse_xquery(result.xquery)

        def find_flwor(expr):
            from repro.xquery import ast as xast
            if isinstance(expr, xast.FLWOR):
                return expr
            if isinstance(expr, xast.ElementConstructor):
                for part in expr.content:
                    if not isinstance(part, str):
                        found = find_flwor(part)
                        if found is not None:
                            return found
            return None

        flwor = find_flwor(module.body)
        assert flwor is not None
        plan = plan_clauses(flwor.clauses)
        assert any(isinstance(c, HashJoinClause) for c in plan)
