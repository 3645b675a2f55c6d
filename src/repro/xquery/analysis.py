"""Static analysis over XQuery ASTs: free variables, and the child walk
(:func:`children` / :func:`map_children`) read off the nodes' dataclass
fields that the planner's traversals and rewrites are written on.

Used by the hash-join planner to decide whether a where condition is an
equi-join between two for-bound variables (and whether a join side's
source is independent of the tuple stream, so its hash table can be
built once), and by the compiler to find expressions whose value is
fixed for a whole execution.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
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
    # No other node kind binds a variable (literals and the context
    # item have no children).
    for child in children(node):
        _collect(child, bound, free)


#: Per node class, the fields that can hold sub-expressions: all but
#: those annotated as plain text, a flag or a literal's value.
_CHILD_FIELDS = {
    cls: tuple(field.name for field in fields(cls)
               if field.type not in ("str", "bool", "object",
                                     "Optional[str]"))
    for cls in vars(ast).values()
    if isinstance(cls, type) and is_dataclass(cls)}


def children(node: ast.XNode) -> list:
    """The direct sub-expressions of *node*, read off its dataclass
    fields; FLWOR clauses, order specs, path steps and attribute
    constructors are looked through to the expressions they hold."""
    found: list = []
    for name in _CHILD_FIELDS[type(node)]:
        _gather(getattr(node, name), found)
    return found


def _gather(value, found: list) -> None:
    if isinstance(value, ast.XExpr):
        found.append(value)
    elif isinstance(value, tuple):
        for member in value:
            _gather(member, found)
    elif isinstance(value, ast.XNode):
        found.extend(children(value))


def map_children(node, fn):
    """*node* with each direct sub-expression (as :func:`children`
    finds them) replaced by ``fn(child)``; *node* itself when nothing
    changed."""
    changes = {}
    for name in _CHILD_FIELDS[type(node)]:
        old = getattr(node, name)
        new = _mapped(old, fn)
        if new is not old:
            changes[name] = new
    return replace(node, **changes) if changes else node


def _mapped(value, fn):
    if isinstance(value, ast.XExpr):
        return fn(value)
    if isinstance(value, tuple):
        members = tuple(_mapped(member, fn) for member in value)
        unchanged = all(a is b for a, b in zip(members, value))
        return value if unchanged else members
    if isinstance(value, ast.XNode):
        return map_children(value, fn)
    return value


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
        for name in _CHILD_FIELDS[type(node)]:
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
