"""The SQL-92 type system used for expression datatype computation.

The paper (section 3.5.v): "The datatypes of expressions are computed using
a leaf-to-root, bottom-up approach on the abstract syntax tree ... the
resulting datatype is inferred by applying the SQL rules of promotion and
casting."

We model the SQL-92 predefined types the JDBC driver surfaces, plus BOOLEAN
for predicate results (internal; SQL-92 predicates are not first-class
values but the type computation needs a name for them).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from ..errors import SQLSemanticError


@dataclass(frozen=True)
class SQLType:
    """A SQL datatype: a kind name plus optional precision/scale/length."""

    kind: str
    precision: int | None = None
    scale: int | None = None
    length: int | None = None

    def __str__(self) -> str:
        if self.kind == "DECIMAL" and self.precision is not None:
            if self.scale is not None:
                return f"DECIMAL({self.precision},{self.scale})"
            return f"DECIMAL({self.precision})"
        if self.kind in ("CHAR", "VARCHAR") and self.length is not None:
            return f"{self.kind}({self.length})"
        return self.kind


SMALLINT = SQLType("SMALLINT")
INTEGER = SQLType("INTEGER")
BIGINT = SQLType("BIGINT")
DECIMAL = SQLType("DECIMAL")
REAL = SQLType("REAL")
DOUBLE = SQLType("DOUBLE")
CHAR = SQLType("CHAR")
VARCHAR = SQLType("VARCHAR")
DATE = SQLType("DATE")
TIME = SQLType("TIME")
TIMESTAMP = SQLType("TIMESTAMP")
BOOLEAN = SQLType("BOOLEAN")

#: Numeric kinds ordered by promotion rank (lower promotes to higher).
_NUMERIC_RANK = {
    "SMALLINT": 0,
    "INTEGER": 1,
    "BIGINT": 2,
    "DECIMAL": 3,
    "REAL": 4,
    "DOUBLE": 5,
}

_CHARACTER_KINDS = frozenset({"CHAR", "VARCHAR"})
_DATETIME_KINDS = frozenset({"DATE", "TIME", "TIMESTAMP"})
_EXACT_NUMERIC = frozenset({"SMALLINT", "INTEGER", "BIGINT", "DECIMAL"})


def is_numeric(t: SQLType) -> bool:
    return t.kind in _NUMERIC_RANK


def is_exact_numeric(t: SQLType) -> bool:
    return t.kind in _EXACT_NUMERIC


def is_character(t: SQLType) -> bool:
    return t.kind in _CHARACTER_KINDS


def is_datetime(t: SQLType) -> bool:
    return t.kind in _DATETIME_KINDS


def comparable(a: SQLType, b: SQLType) -> bool:
    """True when values of the two types may be compared in SQL-92."""
    if is_numeric(a) and is_numeric(b):
        return True
    if is_character(a) and is_character(b):
        return True
    if a.kind in _DATETIME_KINDS:
        return a.kind == b.kind
    return a.kind == b.kind


def promote(a: SQLType, b: SQLType) -> SQLType:
    """Result type of a dyadic arithmetic operation per SQL-92 promotion.

    Numeric operands promote to the higher-ranked kind. Non-numeric
    operands raise SQLSemanticError: the validator routes character
    concatenation through ``||`` which has its own rule.
    """
    if not (is_numeric(a) and is_numeric(b)):
        raise SQLSemanticError(
            f"arithmetic requires numeric operands, got {a} and {b}")
    if _NUMERIC_RANK[a.kind] >= _NUMERIC_RANK[b.kind]:
        return SQLType(a.kind)
    return SQLType(b.kind)


def literal_type(value: object) -> SQLType:
    """SQL type of a Python literal value captured by the parser."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, Decimal):
        return DECIMAL
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return VARCHAR
    raise TypeError(f"no SQL type for literal {value!r}")


_TYPE_NAME_ALIASES = {
    "INT": "INTEGER",
    "INTEGER": "INTEGER",
    "SMALLINT": "SMALLINT",
    "BIGINT": "BIGINT",
    "DEC": "DECIMAL",
    "DECIMAL": "DECIMAL",
    "NUMERIC": "DECIMAL",
    "REAL": "REAL",
    "FLOAT": "DOUBLE",
    "DOUBLE": "DOUBLE",
    "CHAR": "CHAR",
    "CHARACTER": "CHAR",
    "VARCHAR": "VARCHAR",
    "DATE": "DATE",
    "TIME": "TIME",
    "TIMESTAMP": "TIMESTAMP",
}


def type_from_name(name: str, precision: int | None = None,
                   scale: int | None = None,
                   length: int | None = None) -> SQLType:
    """Build a SQLType from a (possibly aliased) SQL type name."""
    try:
        kind = _TYPE_NAME_ALIASES[name.upper()]
    except KeyError:
        raise SQLSemanticError(f"unknown SQL type name {name!r}") from None
    if kind == "DECIMAL":
        return SQLType(kind, precision=precision, scale=scale)
    if kind in _CHARACTER_KINDS:
        return SQLType(kind, length=length)
    return SQLType(kind)
