"""Dynamic evaluation of the XQuery dialect.

A tree-walking evaluator over the AST in ``repro.xquery.ast``. FLWOR
expressions are evaluated as tuple streams (lists of variable
environments), the model the XQuery formal semantics uses, which makes the
BEA ``group`` clause a natural stream transformation.

This interpreter is the engine's semantics oracle — the columnar batch
executor (``repro.xquery.vector``), which runs every translated SQL
statement, is differentially tested against it — and the executor of
whatever is not translated SQL: user XQuery text, logical data-service
bodies, and a run whose parameter is bound to a node or a sequence (see
``repro.xquery.compile``). It shares no code with the planner: FLWOR
clauses run as written, a ``for`` as a nested loop, but a ``where``
stops at its first top-level conjunct that is not true (SQL's AND).

Function calls into non-builtin namespaces (the data service functions,
``ns0:CUSTOMERS()``) are delegated to a *function resolver* supplied by the
host — in this package, the DSP runtime (``repro.engine.dsp``), which also
receives the query's lifecycle context when it declares a ``context``
parameter; every for output tuple ticks that context.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from ..errors import XQueryDynamicError, XQueryStaticError, XQueryTypeError
from ..xmlmodel import Attribute, Document, Element, QName, Text, copy_node
from . import ast
from .atomic import (
    Sequence,
    arithmetic,
    effective_boolean_value,
    general_comparison,
    grouping_key,
    is_node,
    is_numeric_value,
    negate,
    order_key,
    serialize_atomic,
    single_atomic,
    value_comparison,
)
from .functions import (BEA_URI, DEFAULT_NAMESPACES, call_builtin,
                        is_builtin_namespace)

#: Host-supplied resolver for module-level (data service) functions:
#: (namespace_uri, local_name, evaluated_argument_sequences) -> sequence.
#: A resolver declaring a keyword parameter named ``context`` (like
#: ``DSPRuntime.call_function``) additionally receives the executing
#: query's lifecycle context.
FunctionResolver = Callable[[str, str, list], list]

#: Reserved variable-frame key under which the batch executor finds the
#: active ``repro.engine.lifecycle.QueryContext`` in its root frame. The
#: NUL prefix guarantees it can never collide with a real XQuery
#: variable name. ``repro.engine.lifecycle`` re-exports it as the
#: canonical name.
CONTEXT_KEY = "\x00lifecycle"


def accepts_keyword(resolver, name: str) -> bool:
    """True when *resolver* declares a parameter called *name* (the DSP
    runtime's ``context``); plain three-argument resolvers — tests,
    ad-hoc hosts — are called without it."""
    try:
        return name in inspect.signature(resolver).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return False


class StaticContext:
    """Namespaces in scope plus the host function resolver."""

    def __init__(self, resolver: Optional[FunctionResolver] = None):
        self.namespaces: dict[str, str] = dict(DEFAULT_NAMESPACES)
        self.resolver = resolver

    def declare(self, prefix: str, uri: str) -> None:
        self.namespaces[prefix] = uri

    def resolve_prefix(self, prefix: str) -> str:
        try:
            return self.namespaces[prefix]
        except KeyError:
            raise XQueryStaticError(
                f"undeclared namespace prefix {prefix!r}",
                code="XPST0081") from None


class _Frame:
    """A variable environment with optional context item/position."""

    __slots__ = ("variables", "context_item", "context_position")

    def __init__(self, variables: dict[str, Sequence],
                 context_item=None, context_position: int = 0):
        self.variables = variables
        self.context_item = context_item
        self.context_position = context_position

    def bind(self, name: str, value: Sequence) -> "_Frame":
        variables = dict(self.variables)
        variables[name] = value
        return _Frame(variables, self.context_item, self.context_position)

    def with_context(self, item, position: int) -> "_Frame":
        return _Frame(self.variables, item, position)

    def lookup(self, name: str) -> Sequence:
        try:
            return self.variables[name]
        except KeyError:
            raise XQueryStaticError(f"unbound variable ${name}",
                                    code="XPST0008") from None


def _as_sequence(value) -> Sequence:
    """Normalize a host-supplied variable value into a sequence."""
    if value is None:
        return []
    if isinstance(value, list):
        return value
    return [value]


def bind_module_variables(module: ast.Module,
                          variables: Optional[dict[str, object]]) \
        -> dict[str, Sequence]:
    """Check external variable declarations against supplied values and
    build the root variable bindings (shared by both executors)."""
    bindings: dict[str, Sequence] = {}
    supplied = variables or {}
    for decl in module.prolog:
        if isinstance(decl, ast.VarDecl):
            if decl.name not in supplied:
                raise XQueryDynamicError(
                    f"no value supplied for external variable "
                    f"${decl.name}", code="XPDY0002")
            bindings[decl.name] = _as_sequence(supplied[decl.name])
    for name, value in supplied.items():
        bindings.setdefault(name, _as_sequence(value))
    return bindings


class Evaluator:
    """Evaluates one parsed module (or standalone expression)."""

    def __init__(self, module: ast.Module,
                 resolver: Optional[FunctionResolver] = None,
                 variables: Optional[dict[str, object]] = None,
                 context=None):
        self._module = module
        self._static = StaticContext(resolver)
        #: The ``QueryContext`` bounding this evaluation, or None.
        self._context = context
        self._tick = (lambda: None) if context is None else context.tick
        self._resolver_context = resolver is not None \
            and context is not None and accepts_keyword(resolver, "context")
        for decl in module.prolog:
            if isinstance(decl, (ast.SchemaImport, ast.NamespaceDecl)):
                self._static.declare(decl.prefix, decl.uri)
        self._root = _Frame(bind_module_variables(module, variables))

    def evaluate(self) -> Sequence:
        return self._eval(self._module.body, self._root)

    # -- dispatch ---------------------------------------------------------

    def _eval(self, expr: ast.XExpr, frame: _Frame) -> Sequence:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise XQueryStaticError(
                f"cannot evaluate node {type(expr).__name__}")
        return method(self, expr, frame)

    def _eval_literal(self, expr: ast.XLiteral, frame: _Frame) -> Sequence:
        return [expr.value]

    def _eval_varref(self, expr: ast.VarRef, frame: _Frame) -> Sequence:
        return frame.lookup(expr.name)

    def _eval_sequence(self, expr: ast.SequenceExpr,
                       frame: _Frame) -> Sequence:
        result: list = []
        for item in expr.items:
            result.extend(self._eval(item, frame))
        return result

    def _eval_context(self, expr: ast.ContextItem,
                      frame: _Frame) -> Sequence:
        if frame.context_item is None:
            raise XQueryDynamicError("context item is undefined here",
                                     code="XPDY0002")
        return [frame.context_item]

    def _eval_if(self, expr: ast.IfExpr, frame: _Frame) -> Sequence:
        if effective_boolean_value(self._eval(expr.condition, frame)):
            return self._eval(expr.then, frame)
        return self._eval(expr.else_, frame)

    def _eval_or(self, expr: ast.OrExpr, frame: _Frame) -> Sequence:
        if effective_boolean_value(self._eval(expr.left, frame)):
            return [True]
        return [effective_boolean_value(self._eval(expr.right, frame))]

    def _eval_and(self, expr: ast.AndExpr, frame: _Frame) -> Sequence:
        if not effective_boolean_value(self._eval(expr.left, frame)):
            return [False]
        return [effective_boolean_value(self._eval(expr.right, frame))]

    def _eval_value_comparison(self, expr: ast.ValueComparison,
                               frame: _Frame) -> Sequence:
        return value_comparison(expr.op, self._eval(expr.left, frame),
                                self._eval(expr.right, frame))

    def _eval_general_comparison(self, expr: ast.GeneralComparison,
                                 frame: _Frame) -> Sequence:
        return [general_comparison(expr.op, self._eval(expr.left, frame),
                                   self._eval(expr.right, frame))]

    def _eval_range(self, expr: ast.RangeExpr, frame: _Frame) -> Sequence:
        low = single_atomic(self._eval(expr.low, frame), "range start")
        high = single_atomic(self._eval(expr.high, frame), "range end")
        if low is None or high is None:
            return []
        if not isinstance(low, int) or not isinstance(high, int):
            raise XQueryTypeError("range bounds must be integers",
                                  code="XPTY0004")
        return list(range(low, high + 1))

    def _eval_arithmetic(self, expr: ast.Arithmetic,
                         frame: _Frame) -> Sequence:
        return arithmetic(expr.op, self._eval(expr.left, frame),
                          self._eval(expr.right, frame))

    def _eval_unary(self, expr: ast.UnaryMinus, frame: _Frame) -> Sequence:
        return negate(self._eval(expr.operand, frame))

    def _eval_quantified(self, expr: ast.QuantifiedExpr,
                         frame: _Frame) -> Sequence:
        source = self._eval(expr.source, frame)
        for item in source:
            inner = frame.bind(expr.var, [item])
            holds = effective_boolean_value(self._eval(expr.condition, inner))
            if expr.kind == "some" and holds:
                return [True]
            if expr.kind == "every" and not holds:
                return [False]
        return [expr.kind == "every"]

    # -- paths -------------------------------------------------------------

    def _eval_path(self, expr: ast.PathExpr, frame: _Frame) -> Sequence:
        current = self._eval(expr.base, frame)
        for step in expr.steps:
            matched: list = []
            for item in current:
                if isinstance(item, Document):
                    children = [c for c in item.children
                                if isinstance(c, Element)]
                elif isinstance(item, Element):
                    children = list(item.child_elements())
                else:
                    raise XQueryTypeError(
                        "path step applied to a non-node item",
                        code="XPTY0019")
                for child in children:
                    if step.name is None or child.name.local == step.name:
                        matched.append(child)
            current = self._apply_predicates(matched, step.predicates, frame)
        return current

    def _eval_filter(self, expr: ast.FilterExpr, frame: _Frame) -> Sequence:
        base = self._eval(expr.base, frame)
        return self._apply_predicates(base, expr.predicates, frame)

    def _apply_predicates(self, items: Sequence,
                          predicates: tuple[ast.XExpr, ...],
                          frame: _Frame) -> Sequence:
        for predicate in predicates:
            kept: list = []
            for position, item in enumerate(items, start=1):
                inner = frame.with_context(item, position)
                result = self._eval(predicate, inner)
                if (len(result) == 1 and is_numeric_value(result[0])
                        and not isinstance(result[0], bool)):
                    if float(result[0]) == position:
                        kept.append(item)
                elif effective_boolean_value(result):
                    kept.append(item)
            items = kept
        return items

    # -- function calls -------------------------------------------------------

    def _eval_function_call(self, expr: ast.XFunctionCall,
                            frame: _Frame) -> Sequence:
        uri = self._static.resolve_prefix(expr.prefix)
        args = [self._eval(arg, frame) for arg in expr.args]
        if is_builtin_namespace(uri):
            return call_builtin(uri, expr.local, args)
        if self._static.resolver is None:
            raise XQueryStaticError(
                f"no resolver for function {expr.display}", code="XPST0017")
        if self._resolver_context:
            return self._static.resolver(uri, expr.local, args,
                                         context=self._context)
        return self._static.resolver(uri, expr.local, args)

    # -- constructors ------------------------------------------------------------

    def _eval_constructor(self, expr: ast.ElementConstructor,
                          frame: _Frame) -> Sequence:
        if expr.prefix:
            uri = self._static.resolve_prefix(expr.prefix)
        else:
            uri = ""
        element = Element(QName(expr.name, uri, expr.prefix))
        for attr in expr.attributes:
            element.attributes.append(
                Attribute(QName(attr.name),
                          self._attribute_value(attr, frame)))
        for part in expr.content:
            if isinstance(part, str):
                element.append(Text(part))
            else:
                _append_content(element, self._eval(part, frame))
        return [element]

    def _attribute_value(self, attr: ast.AttributeConstructor,
                         frame: _Frame) -> str:
        parts: list[str] = []
        for part in attr.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                values = self._eval(part, frame)
                parts.append(" ".join(
                    serialize_atomic(v) if not is_node(v)
                    else v.string_value() for v in values))
        return "".join(parts)

    # -- FLWOR --------------------------------------------------------------------

    def _eval_flwor(self, expr: ast.FLWOR, frame: _Frame) -> Sequence:
        tuples: list[_Frame] = [frame]
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                tuples = self._apply_for(clause, tuples)
            elif isinstance(clause, ast.LetClause):
                tuples = [t.bind(clause.var, self._eval(clause.value, t))
                          for t in tuples]
            elif isinstance(clause, ast.WhereClause):
                conjuncts = self._conjuncts(clause.condition)
                tuples = [t for t in tuples
                          if all(effective_boolean_value(self._eval(c, t))
                                 for c in conjuncts)]
            elif isinstance(clause, ast.GroupClause):
                tuples = self._apply_group(clause, tuples)
            elif isinstance(clause, ast.OrderClause):
                tuples = self._apply_order(clause, tuples)
            else:  # pragma: no cover - parser prevents this
                raise XQueryStaticError(
                    f"unknown FLWOR clause {type(clause).__name__}")
        result: list = []
        for t in tuples:
            result.extend(self._eval(expr.return_expr, t))
        return result

    def _apply_for(self, clause: ast.ForClause,
                   tuples: list[_Frame]) -> list[_Frame]:
        output = []
        tick = self._tick
        for t in tuples:
            for item in self._eval(clause.source, t):
                tick()
                output.append(t.bind(clause.var, [item]))
        return output

    def _conjuncts(self, condition: ast.XExpr) -> list:
        """A where condition's top-level ``and`` / ``fn-bea:and3``
        operands, left to right. The where keeps a tuple only when every
        one is true, so it stops at the first that is not: SQL's AND,
        as the batch executor's split where runs it."""
        if isinstance(condition, ast.AndExpr):
            return (self._conjuncts(condition.left)
                    + self._conjuncts(condition.right))
        if isinstance(condition, ast.XFunctionCall) \
                and condition.local == "and3" and len(condition.args) == 2 \
                and self._static.namespaces.get(condition.prefix) == BEA_URI:
            return [c for arg in condition.args for c in self._conjuncts(arg)]
        return [condition]

    def _apply_group(self, clause: ast.GroupClause,
                     tuples: list[_Frame]) -> list[_Frame]:
        groups: dict[tuple, dict] = {}
        order: list[tuple] = []
        for t in tuples:
            key_values = []
            for key_expr, _key_var in clause.keys:
                key_values.append(single_atomic(
                    self._eval(key_expr, t), "group key"))
            key = tuple(grouping_key(v) for v in key_values)
            if key not in groups:
                groups[key] = {
                    "first": t,
                    "keys": key_values,
                    "partition": [],
                }
                order.append(key)
            groups[key]["partition"].extend(
                t.variables.get(clause.source_var, []))
        output = []
        for key in order:
            info = groups[key]
            frame = info["first"]
            frame = frame.bind(clause.partition_var, info["partition"])
            for (key_expr, key_var), value in zip(clause.keys, info["keys"]):
                frame = frame.bind(key_var,
                                   [] if value is None else [value])
            output.append(frame)
        return output

    def _apply_order(self, clause: ast.OrderClause,
                     tuples: list[_Frame]) -> list[_Frame]:
        def sort_key(t: _Frame):
            keys = []
            for spec in clause.specs:
                value = single_atomic(self._eval(spec.key, t), "order key")
                key = order_key(value)
                if value is None and not spec.empty_least:
                    key = (2, 0, 0)  # empty greatest
                keys.append(_Directional(key, spec.ascending))
            return keys

        return sorted(tuples, key=sort_key)

    _DISPATCH = {
        ast.XLiteral: _eval_literal,
        ast.VarRef: _eval_varref,
        ast.SequenceExpr: _eval_sequence,
        ast.ContextItem: _eval_context,
        ast.IfExpr: _eval_if,
        ast.OrExpr: _eval_or,
        ast.AndExpr: _eval_and,
        ast.ValueComparison: _eval_value_comparison,
        ast.GeneralComparison: _eval_general_comparison,
        ast.RangeExpr: _eval_range,
        ast.Arithmetic: _eval_arithmetic,
        ast.UnaryMinus: _eval_unary,
        ast.QuantifiedExpr: _eval_quantified,
        ast.PathExpr: _eval_path,
        ast.FilterExpr: _eval_filter,
        ast.XFunctionCall: _eval_function_call,
        ast.ElementConstructor: _eval_constructor,
        ast.FLWOR: _eval_flwor,
    }


def _append_content(element: Element, values: Sequence) -> None:
    """Append an enclosed expression's result: nodes are copied,
    adjacent atomic values are joined with single spaces."""
    pending: list[str] = []

    def flush() -> None:
        if pending:
            element.append(Text(" ".join(pending)))
            pending.clear()

    for value in values:
        if isinstance(value, (Element, Text)):
            flush()
            element.append(copy_node(value))
        elif isinstance(value, Document):
            flush()
            for child in value.children:
                element.append(copy_node(child))
        elif isinstance(value, Attribute):
            raise XQueryTypeError(
                "attribute nodes cannot appear in element content here",
                code="XQTY0024")
        else:
            pending.append(serialize_atomic(value))
    flush()


class _Directional:
    """Wraps a sort key, inverting comparisons for descending specs."""

    __slots__ = ("key", "ascending")

    def __init__(self, key, ascending: bool):
        self.key = key
        self.ascending = ascending

    def __lt__(self, other: "_Directional") -> bool:
        if self.ascending:
            return self.key < other.key
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Directional) and self.key == other.key
