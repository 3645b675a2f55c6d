"""AST nodes for the XQuery dialect the AquaLogic translator emits.

The dialect covers: a prolog with schema imports, namespace declarations
and external variables; FLWOR expressions (with the BEA ``group`` clause
extension the paper uses for SQL GROUP BY); quantified expressions;
conditional expressions; value and general comparisons; arithmetic; child-
axis path expressions with predicates; direct element constructors with
enclosed expressions; literals; variables; and function calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


class XNode:
    """Marker base for XQuery AST nodes."""

    __slots__ = ()


class XExpr(XNode):
    """Marker base for expressions."""

    __slots__ = ()


# -- prolog -----------------------------------------------------------------


@dataclass(frozen=True)
class SchemaImport(XNode):
    """``import schema namespace p = "uri" at "location";``"""

    prefix: str
    uri: str
    location: Optional[str] = None


@dataclass(frozen=True)
class NamespaceDecl(XNode):
    """``declare namespace p = "uri";``"""

    prefix: str
    uri: str


@dataclass(frozen=True)
class VarDecl(XNode):
    """``declare variable $name [as xs:type] external;`` (external only —
    the translator uses these for JDBC prepared-statement parameters)."""

    name: str
    type_name: Optional[str] = None


@dataclass(frozen=True)
class Module(XNode):
    """A complete query: prolog declarations plus the body expression."""

    prolog: tuple[Union[SchemaImport, NamespaceDecl, VarDecl], ...]
    body: XExpr


# -- FLWOR ------------------------------------------------------------------


@dataclass(frozen=True)
class ForClause(XNode):
    """``for $var in expr`` — one binding (multi-binding ``for`` clauses
    are parsed into consecutive ForClause nodes)."""

    var: str
    source: XExpr


@dataclass(frozen=True)
class LetClause(XNode):
    """``let $var := expr``"""

    var: str
    value: XExpr


@dataclass(frozen=True)
class WhereClause(XNode):
    condition: XExpr


@dataclass(frozen=True)
class GroupClause(XNode):
    """BEA group-by extension:

    ``group $source as $partition by keyExpr as $keyVar (, ...)*``

    Partitions the incoming tuple stream by the key expressions. After the
    clause, each tuple binds ``partition`` to the concatenation of the
    ``source`` variable's values across the group and each key variable to
    its (possibly empty, for SQL NULL) key value.
    """

    source_var: str
    partition_var: str
    keys: tuple[tuple[XExpr, str], ...]


@dataclass(frozen=True)
class OrderSpec(XNode):
    key: XExpr
    ascending: bool = True
    empty_least: bool = True


@dataclass(frozen=True)
class OrderClause(XNode):
    specs: tuple[OrderSpec, ...]


FLWORClause = Union[ForClause, LetClause, WhereClause, GroupClause,
                    OrderClause]


@dataclass(frozen=True)
class FLWOR(XExpr):
    clauses: tuple[FLWORClause, ...]
    return_expr: XExpr


# -- other expressions --------------------------------------------------------


@dataclass(frozen=True)
class XLiteral(XExpr):
    """A string, integer, decimal, or double literal."""

    value: object


@dataclass(frozen=True)
class VarRef(XExpr):
    name: str


@dataclass(frozen=True)
class SequenceExpr(XExpr):
    """``(e1, e2, ...)`` — including ``()`` for the empty sequence."""

    items: tuple[XExpr, ...]


@dataclass(frozen=True)
class IfExpr(XExpr):
    condition: XExpr
    then: XExpr
    else_: XExpr


@dataclass(frozen=True)
class QuantifiedExpr(XExpr):
    """``some|every $var in source satisfies condition``"""

    kind: str  # "some" | "every"
    var: str
    source: XExpr
    condition: XExpr


@dataclass(frozen=True)
class OrExpr(XExpr):
    left: XExpr
    right: XExpr


@dataclass(frozen=True)
class AndExpr(XExpr):
    left: XExpr
    right: XExpr


@dataclass(frozen=True)
class ValueComparison(XExpr):
    """eq | ne | lt | le | gt | ge"""

    op: str
    left: XExpr
    right: XExpr


@dataclass(frozen=True)
class GeneralComparison(XExpr):
    """= | != | < | <= | > | >="""

    op: str
    left: XExpr
    right: XExpr


@dataclass(frozen=True)
class RangeExpr(XExpr):
    """``low to high`` — an integer range sequence."""

    low: XExpr
    high: XExpr


@dataclass(frozen=True)
class Arithmetic(XExpr):
    """+ | - | * | div | idiv | mod"""

    op: str
    left: XExpr
    right: XExpr


@dataclass(frozen=True)
class UnaryMinus(XExpr):
    operand: XExpr


@dataclass(frozen=True)
class ContextItem(XExpr):
    """``.`` — or the implicit origin of a relative path inside a
    predicate, e.g. the bare ``CUSTID`` in the paper's
    ``ns1:PAYMENTS()[($c/CUSTOMERID = CUSTID)]``."""


@dataclass(frozen=True)
class PathStep(XNode):
    """A child-axis step: a name test (local name) or the ``*`` wildcard,
    with optional positional/boolean predicates."""

    name: Optional[str]  # None means '*'
    predicates: tuple[XExpr, ...] = ()


@dataclass(frozen=True)
class PathExpr(XExpr):
    """``base/step/step...`` — base may itself carry predicates (via
    FilterExpr)."""

    base: XExpr
    steps: tuple[PathStep, ...]


@dataclass(frozen=True)
class FilterExpr(XExpr):
    """``primary[predicate]...`` — e.g. ``ns1:PAYMENTS()[...]`` (paper
    Example 10)."""

    base: XExpr
    predicates: tuple[XExpr, ...]


@dataclass(frozen=True)
class XFunctionCall(XExpr):
    """A function call by prefixed QName (``fn:data``, ``xs:integer``,
    ``fn-bea:if-empty``, ``ns0:CUSTOMERS``, ...)."""

    prefix: str
    local: str
    args: tuple[XExpr, ...]

    @property
    def display(self) -> str:
        return f"{self.prefix}:{self.local}" if self.prefix else self.local


def call(name: str, *args: XExpr) -> XFunctionCall:
    """``call("fn:data", x)``: a function call by its printed name, for
    code that builds trees (the translator)."""
    prefix, _, local = name.rpartition(":")
    return XFunctionCall(prefix, local, args)


@dataclass(frozen=True)
class AttributeConstructor(XNode):
    """A static attribute in a direct constructor. ``parts`` alternates
    literal strings and enclosed expressions."""

    name: str
    parts: tuple[Union[str, XExpr], ...]


@dataclass(frozen=True)
class ElementConstructor(XExpr):
    """A direct element constructor. ``content`` items are literal text
    runs (str), nested constructors, or enclosed expressions."""

    name: str
    prefix: str = ""
    attributes: tuple[AttributeConstructor, ...] = ()
    content: tuple[Union[str, XExpr], ...] = ()
