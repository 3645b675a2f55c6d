"""Static analysis over XQuery ASTs: free-variable computation.

Used by the evaluator's hash-join planner to decide whether a where
condition is an equi-join between two for-bound variables (and whether a
join side's source is independent of the tuple stream, so its hash table
can be built once), and by the closure compiler to find expressions
whose value is fixed for a whole execution.
"""

from __future__ import annotations

from typing import Iterator

from . import ast


def free_vars(expr: ast.XExpr) -> frozenset[str]:
    """Names of variables *expr* reads that are not bound inside it."""
    free: set[str] = set()
    _collect(expr, frozenset(), free)
    return frozenset(free)


def _collect(node, bound: frozenset[str], free: set[str]) -> None:
    if isinstance(node, ast.VarRef):
        if node.name not in bound:
            free.add(node.name)
        return
    if isinstance(node, ast.FLWOR):
        inner = bound
        for clause in node.clauses:
            if isinstance(clause, ast.ForClause):
                _collect(clause.source, inner, free)
                inner = inner | {clause.var}
            elif isinstance(clause, ast.LetClause):
                _collect(clause.value, inner, free)
                inner = inner | {clause.var}
            elif isinstance(clause, ast.WhereClause):
                _collect(clause.condition, inner, free)
            elif isinstance(clause, ast.GroupClause):
                for key_expr, _var in clause.keys:
                    _collect(key_expr, inner, free)
                inner = inner | {clause.partition_var} \
                    | {var for _e, var in clause.keys}
            elif isinstance(clause, ast.OrderClause):
                for spec in clause.specs:
                    _collect(spec.key, inner, free)
        _collect(node.return_expr, inner, free)
        return
    if isinstance(node, ast.QuantifiedExpr):
        _collect(node.source, bound, free)
        _collect(node.condition, bound | {node.var}, free)
        return
    if isinstance(node, ast.SequenceExpr):
        for item in node.items:
            _collect(item, bound, free)
        return
    if isinstance(node, ast.IfExpr):
        for child in (node.condition, node.then, node.else_):
            _collect(child, bound, free)
        return
    if isinstance(node, (ast.OrExpr, ast.AndExpr, ast.ValueComparison,
                         ast.GeneralComparison, ast.Arithmetic)):
        _collect(node.left, bound, free)
        _collect(node.right, bound, free)
        return
    if isinstance(node, ast.RangeExpr):
        _collect(node.low, bound, free)
        _collect(node.high, bound, free)
        return
    if isinstance(node, ast.UnaryMinus):
        _collect(node.operand, bound, free)
        return
    if isinstance(node, ast.PathExpr):
        _collect(node.base, bound, free)
        for step in node.steps:
            for predicate in step.predicates:
                _collect(predicate, bound, free)
        return
    if isinstance(node, ast.FilterExpr):
        _collect(node.base, bound, free)
        for predicate in node.predicates:
            _collect(predicate, bound, free)
        return
    if isinstance(node, ast.XFunctionCall):
        for arg in node.args:
            _collect(arg, bound, free)
        return
    if isinstance(node, ast.ElementConstructor):
        for attr in node.attributes:
            for part in attr.parts:
                if not isinstance(part, str):
                    _collect(part, bound, free)
        for part in node.content:
            if not isinstance(part, str):
                _collect(part, bound, free)
        return
    # Literals, ContextItem: nothing to do.


def subexpressions(node, in_predicate: bool = False) \
        -> Iterator[tuple[ast.XNode, bool]]:
    """Every AST node at or under *node*, each with whether it sits
    inside a path-step or filter predicate of *node* — where the context
    item is bound by that predicate, not read from outside. Binding
    scopes of variables are :func:`free_vars`' business, not this
    walk's."""
    if isinstance(node, tuple):
        for member in node:
            yield from subexpressions(member, in_predicate)
    elif isinstance(node, ast.XNode):
        yield node, in_predicate
        for name in node.__dataclass_fields__:
            yield from subexpressions(
                getattr(node, name), in_predicate or name == "predicates")


def bound_vars(expr) -> frozenset[str]:
    """Names bound by any for / let / group clause or quantifier at or
    under *expr*."""
    bound: set[str] = set()
    for node, _in_predicate in subexpressions(expr):
        if isinstance(node, (ast.ForClause, ast.LetClause,
                             ast.QuantifiedExpr)):
            bound.add(node.var)
        elif isinstance(node, ast.GroupClause):
            bound.add(node.partition_var)
            bound.update(var for _key, var in node.keys)
    return frozenset(bound)
