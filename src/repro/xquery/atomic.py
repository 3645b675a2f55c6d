"""Atomic values, atomization, casts, comparisons, and arithmetic.

Items in the XQuery data model are nodes or atomic values. We represent
atomic values as native Python objects:

=================  =========================
xs type            Python representation
=================  =========================
xs:string          str
xs:boolean         bool
xs:integer family  int
xs:decimal         decimal.Decimal
xs:double/float    float
xs:date            datetime.date
xs:time            datetime.time
xs:dateTime        datetime.datetime
xs:untypedAtomic   UntypedAtomic (str subclass)
=================  =========================

Sequences are plain Python lists, always kept flat.

NULL rule (see repro.xmlmodel.model): atomizing an element with no
children yields the empty sequence, so SQL NULL survives round trips
through constructed row elements.
"""

from __future__ import annotations

import datetime
import math
from decimal import Decimal, InvalidOperation

from ..errors import XQueryDynamicError, XQueryTypeError
from ..xmlmodel import Attribute, Document, Element, Text

Sequence = list  # type alias for readability


class UntypedAtomic(str):
    """xs:untypedAtomic — the atomization result of untyped elements."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"UntypedAtomic({str.__repr__(self)})"


def is_node(item: object) -> bool:
    return isinstance(item, (Element, Text, Attribute, Document))


def is_numeric_value(item: object) -> bool:
    return isinstance(item, (int, float, Decimal)) \
        and not isinstance(item, bool)


# ---------------------------------------------------------------------------
# Atomization (fn:data semantics)
# ---------------------------------------------------------------------------

_CAST_BY_ANNOTATION = {
    "string": lambda s: s,
    "boolean": lambda s: _parse_boolean(s),
    "short": int,
    "int": int,
    "integer": int,
    "long": int,
    "decimal": Decimal,
    "float": float,
    "double": float,
    "date": datetime.date.fromisoformat,
    "time": datetime.time.fromisoformat,
    "dateTime": lambda s: datetime.datetime.fromisoformat(s),
}


def parse_lexical(xs_type: str, text: str) -> object:
    """Parse a lexical value for an xs: simple type (schema validation
    for externally sourced data, e.g. CSV-backed data services)."""
    cast = _CAST_BY_ANNOTATION.get(xs_type)
    if cast is None:
        raise XQueryTypeError(f"unknown simple type xs:{xs_type}",
                              code="XPTY0004")
    try:
        return cast(text.strip() if xs_type != "string" else text)
    except (ValueError, InvalidOperation) as exc:
        raise XQueryDynamicError(
            f"cannot interpret {text!r} as xs:{xs_type}",
            code="FORG0001") from exc


def atomize_item(item: object) -> Sequence:
    """Atomize one item, returning a (possibly empty) sequence."""
    if isinstance(item, Element):
        if item.is_empty():
            return []  # the SQL NULL encoding
        value = item.string_value()
        if item.type_annotation is not None:
            cast = _CAST_BY_ANNOTATION.get(item.type_annotation)
            if cast is None:
                raise XQueryTypeError(
                    f"unknown type annotation {item.type_annotation}",
                    code="XPTY0004")
            try:
                return [cast(value.strip()
                             if item.type_annotation != "string" else value)]
            except (ValueError, InvalidOperation) as exc:
                raise XQueryDynamicError(
                    f"cannot interpret {value!r} as "
                    f"xs:{item.type_annotation}", code="FORG0001") from exc
        return [UntypedAtomic(value)]
    if isinstance(item, (Text, Attribute)):
        return [UntypedAtomic(item.string_value())]
    if isinstance(item, Document):
        return [UntypedAtomic(item.string_value())]
    return [item]


def atomize(sequence: Sequence) -> Sequence:
    """fn:data over a sequence."""
    result: list = []
    for item in sequence:
        result.extend(atomize_item(item))
    return result


def single_atomic(sequence: Sequence, context: str) -> object | None:
    """Atomize and require at most one value; None for empty."""
    values = atomize(sequence)
    if not values:
        return None
    if len(values) > 1:
        raise XQueryTypeError(
            f"{context}: expected a single atomic value, got a sequence "
            f"of {len(values)}", code="XPTY0004")
    return values[0]


# ---------------------------------------------------------------------------
# String values and boolean parsing
# ---------------------------------------------------------------------------


def _parse_boolean(text: str) -> bool:
    text = text.strip()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise ValueError(f"invalid xs:boolean literal {text!r}")


def string_value(item: object) -> str:
    """fn:string of a single item."""
    if is_node(item):
        return item.string_value()
    return serialize_atomic(item)


def _float_text(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: Exact type -> lexical form: the one definition both
#: :func:`serialize_atomic` (per value) and the batch encoder (resolved
#: once per column) read. ``str`` on a ``str`` is the identity.
SERIALIZERS = {
    str: str,
    UntypedAtomic: str,
    int: str,
    bool: lambda value: "true" if value else "false",
    float: _float_text,
    Decimal: lambda value: format(value, "f"),
    datetime.datetime: datetime.datetime.isoformat,
    datetime.date: datetime.date.isoformat,
    datetime.time: datetime.time.isoformat,
}


def base_entry(table: dict, kind: type, default=None):
    """What a per-kind *table* holds for the nearest base class of
    *kind* it lists (a ``date`` subclass reads ``date``'s entry)."""
    return next((table[base] for base in kind.__mro__ if base in table),
                default)


def serialize_atomic(value: object) -> str:
    """Lexical form of an atomic value, SQL-result-friendly.

    This implements ``fn-bea:serialize-atomic``. Deviation from canonical
    XML Schema lexical forms, on purpose: integral doubles print without
    an exponent ("12", not "1.2E1") because the driver's text codec parses
    these strings back by SQL column type.
    """
    kind = type(value)
    return (SERIALIZERS.get(kind)
            or base_entry(SERIALIZERS, kind, str))(value)


# Column guards over cells of one exact kind: True when every cell's
# lexical form (SERIALIZERS) reads back as the cell itself, in value,
# type and repr. The vector casts and the driver's typed rows share them.

def plain_decimals(col: list) -> bool:
    """No cell prints with an exponent or is special: ``Decimal('1E+2')``
    prints as ``100``, read as ``Decimal('100')``. ``str`` writes a
    positive exponent, and only that, with a ``+`` (``E+`` / ``e+``);
    ``NaN`` and ``Infinity`` hold an ``N`` or an ``I``."""
    text = "".join([str(v) for v in col if v is not None])
    return "+" not in text and "N" not in text and "I" not in text


def no_negative_zero(col: list) -> bool:
    """``-0.0`` prints as ``0``, read back as ``0.0``."""
    return 0.0 not in col or not any(
        v == 0 and math.copysign(1.0, v) < 0 for v in col if v is not None)


def naive(col: list) -> bool:
    """A lexical form keeps an offset, but no tzinfo object nor fold."""
    return all(v.tzinfo is None and not v.fold for v in col if v is not None)


#: Exact cell kind -> its column guard (True: any column). A guard is a
#: for-all over cells: it passes on every subset of a column it passes.
REGULAR_KINDS = {
    **dict.fromkeys((int, str, datetime.date), True),
    Decimal: plain_decimals,
    float: no_negative_zero,
    datetime.time: naive,
    datetime.datetime: naive,
}


# ---------------------------------------------------------------------------
# Effective boolean value
# ---------------------------------------------------------------------------


def effective_boolean_value(sequence: Sequence) -> bool:
    """EBV per XQuery 1.0 section 2.4.3."""
    if not sequence:
        return False
    first = sequence[0]
    if is_node(first):
        return True
    if len(sequence) > 1:
        raise XQueryTypeError(
            "effective boolean value of a multi-item atomic sequence",
            code="FORG0006")
    if isinstance(first, bool):
        return first
    if isinstance(first, str):  # includes UntypedAtomic
        return len(first) > 0
    if is_numeric_value(first):
        if isinstance(first, float) and math.isnan(first):
            return False
        return first != 0
    raise XQueryTypeError(
        f"no effective boolean value for {type(first).__name__}",
        code="FORG0006")


# ---------------------------------------------------------------------------
# Numeric promotion, arithmetic
# ---------------------------------------------------------------------------


def _to_numeric(value: object, context: str) -> int | Decimal | float:
    if isinstance(value, UntypedAtomic):
        try:
            return float(value)
        except ValueError as exc:
            raise XQueryDynamicError(
                f"{context}: cannot cast {str(value)!r} to xs:double",
                code="FORG0001") from exc
    if is_numeric_value(value):
        return value
    raise XQueryTypeError(
        f"{context}: operand is not numeric ({type(value).__name__})",
        code="XPTY0004")


def _promote_pair(a, b):
    """Promote two numerics to a common representation."""
    if isinstance(a, float) or isinstance(b, float):
        return float(a), float(b)
    if isinstance(a, Decimal) or isinstance(b, Decimal):
        return (a if isinstance(a, Decimal) else Decimal(a),
                b if isinstance(b, Decimal) else Decimal(b))
    return a, b


def arithmetic(op: str, left: Sequence, right: Sequence) -> Sequence:
    """Evaluate ``left op right`` with XQuery empty-sequence propagation."""
    lv = single_atomic(left, f"left operand of {op}")
    rv = single_atomic(right, f"right operand of {op}")
    if lv is None or rv is None:
        return []
    a = _to_numeric(lv, f"left operand of {op}")
    b = _to_numeric(rv, f"right operand of {op}")
    a, b = _promote_pair(a, b)
    try:
        if op == "+":
            return [a + b]
        if op == "-":
            return [a - b]
        if op == "*":
            return [a * b]
        if op == "div":
            if isinstance(a, int) and isinstance(b, int):
                # integer div integer is xs:decimal per F&O 6.2.4
                return [Decimal(a) / Decimal(b)]
            return [a / b]
        if op == "idiv":
            if isinstance(a, int) and isinstance(b, int):
                quotient = Decimal(a) / Decimal(b)
            else:
                quotient = a / b
            return [int(quotient)]  # truncates toward zero
        if op == "mod":
            # XQuery mod truncates (result takes the dividend's sign).
            if isinstance(a, float):
                return [math.fmod(a, b)]
            if isinstance(a, int) and isinstance(b, int):
                return [a - b * int(Decimal(a) / Decimal(b))]
            return [a - b * int(a / b)]
    except (ZeroDivisionError, InvalidOperation):
        if op == "div" and isinstance(a, float):
            if a == 0:
                return [float("nan")]
            return [math.copysign(math.inf, a) * math.copysign(1.0, b)]
        raise XQueryDynamicError(f"division by zero in {op}",
                                 code="FOAR0001") from None
    raise XQueryTypeError(f"unknown arithmetic operator {op}")


def negate(operand: Sequence) -> Sequence:
    value = single_atomic(operand, "unary minus")
    if value is None:
        return []
    number = _to_numeric(value, "unary minus")
    return [-number]


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

_OP_NAMES = {"eq": "eq", "ne": "ne", "lt": "lt", "le": "le",
             "gt": "gt", "ge": "ge",
             "=": "eq", "!=": "ne", "<": "lt", "<=": "le",
             ">": "gt", ">=": "ge"}


def _coerce_for_value_comparison(a, b):
    """Cast untyped operands per the value-comparison rules."""
    if isinstance(a, UntypedAtomic):
        a = str(a)
    if isinstance(b, UntypedAtomic):
        b = str(b)
    return a, b


def _coerce_for_general_comparison(a, b):
    """General comparisons cast untyped to the *other* operand's type."""
    if isinstance(a, UntypedAtomic) and not isinstance(b, UntypedAtomic):
        a = cast_untyped_to_type_of(a, b)
    elif isinstance(b, UntypedAtomic) and not isinstance(a, UntypedAtomic):
        b = cast_untyped_to_type_of(b, a)
    else:
        a, b = _coerce_for_value_comparison(a, b)
    return a, b


def cast_untyped_to_type_of(untyped: UntypedAtomic, other: object):
    text = str(untyped)
    try:
        if is_numeric_value(other):
            return float(text)
        if isinstance(other, bool):
            return _parse_boolean(text)
        if isinstance(other, datetime.datetime):
            return datetime.datetime.fromisoformat(text.strip())
        if isinstance(other, datetime.date):
            return datetime.date.fromisoformat(text.strip())
        if isinstance(other, datetime.time):
            return datetime.time.fromisoformat(text.strip())
    except ValueError as exc:
        raise XQueryDynamicError(
            f"cannot cast {text!r} for comparison with "
            f"{type(other).__name__}", code="FORG0001") from exc
    return text


def _comparison_category(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if is_numeric_value(value):
        return "numeric"
    if isinstance(value, str):
        return "string"
    if isinstance(value, datetime.datetime):
        return "dateTime"
    if isinstance(value, datetime.date):
        return "date"
    if isinstance(value, datetime.time):
        return "time"
    return type(value).__name__


def compare_values(op: str, a: object, b: object) -> bool:
    """Compare two (already coerced) atomic values."""
    name = _OP_NAMES[op]
    cat_a, cat_b = _comparison_category(a), _comparison_category(b)
    if cat_a != cat_b:
        raise XQueryTypeError(
            f"cannot compare {cat_a} with {cat_b}", code="XPTY0004")
    if cat_a == "numeric":
        a, b = _promote_pair(a, b)
    if name == "eq":
        return a == b
    if name == "ne":
        return a != b
    try:
        if name == "lt":
            return a < b
        if name == "le":
            return a <= b
        if name == "gt":
            return a > b
        return a >= b
    except TypeError as exc:
        raise XQueryTypeError(
            f"values of type {type(a).__name__} are not ordered",
            code="XPTY0004") from exc


def value_comparison(op: str, left: Sequence, right: Sequence) -> Sequence:
    """eq/ne/lt/le/gt/ge: empty operand yields the empty sequence."""
    lv = single_atomic(left, f"left operand of {op}")
    rv = single_atomic(right, f"right operand of {op}")
    if lv is None or rv is None:
        return []
    a, b = _coerce_for_value_comparison(lv, rv)
    return [compare_values(op, a, b)]


def general_comparison(op: str, left: Sequence, right: Sequence) -> bool:
    """= != < <= > >=: existentially quantified over both sequences."""
    lvs = atomize(left)
    rvs = atomize(right)
    for lv in lvs:
        for rv in rvs:
            a, b = _coerce_for_general_comparison(lv, rv)
            if compare_values(op, a, b):
                return True
    return False


def order_key(value: object | None):
    """Sort key for ORDER BY: empty (None) sorts least; values sort within
    their comparable class."""
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 0, value)
    if is_numeric_value(value):
        return (1, 1, float(value))
    if isinstance(value, str):
        return (1, 2, str(value))
    if isinstance(value, datetime.datetime):
        return (1, 3, value.isoformat())
    if isinstance(value, datetime.date):
        return (1, 4, value.isoformat())
    if isinstance(value, datetime.time):
        return (1, 5, value.isoformat())
    raise XQueryTypeError(
        f"cannot order values of type {type(value).__name__}",
        code="XPTY0004")


#: Exact type -> ``(eq category, value -> canonical key)``: the one
#: definition :func:`join_key` and :func:`grouping_key` read per value
#: and the batch executor resolves once per key column. No function
#: means the key is ``(category, value)`` itself. Categories mirror
#: ``compare_values``: values eq refuses to compare differ in category,
#: values eq holds equal get keys that are equal and hash alike
#: (Python's numeric hash makes ``5``, ``Decimal("5.0")`` and the
#: ``Decimal("5.0")`` of float ``5.0`` one key; an untyped atomic is its
#: string). A NaN equals nothing: its key is None.
KEY_KINDS = {
    bool: ("b", None),
    int: ("n", None),
    Decimal: ("n", lambda value: ("n", value) if value == value else None),
    float: ("n", lambda value: ("n", Decimal(repr(value)))
            if value == value else None),
    str: ("s", None),
    UntypedAtomic: ("s", lambda value: ("s", str(value))),
    datetime.datetime: ("dt", None),
    datetime.date: ("d", None),
    datetime.time: ("t", None),
}


def join_key(value) -> tuple[str | None, object]:
    """(comparison category, canonical hash key) of an eq join key per
    :data:`KEY_KINDS`: ``(category, None)`` for a NaN — like a NULL key
    it is neither stored nor probed — and ``(None, None)`` for a type
    with no canonical form (the caller compares pairwise)."""
    kind = type(value)
    entry = KEY_KINDS.get(kind) or base_entry(KEY_KINDS, kind)
    if entry is None:
        return None, None
    category, canon = entry
    return category, (category, value) if canon is None else canon(value)


def grouping_key(value) -> tuple:
    """Canonical hashable form of a group-by key value: its eq key.
    NULL (None) forms its own group, as SQL GROUP BY requires; so does
    every NaN (a fresh NaN key equals no other)."""
    if value is None:
        return ("null",)
    category, canon = join_key(value)
    if category is None:
        raise XQueryTypeError(
            f"cannot group by values of type {type(value).__name__}",
            code="XPTY0004")
    return canon or ("n", Decimal("NaN"))


# ---------------------------------------------------------------------------
# Constructor-function casts (xs:TYPE(value))
# ---------------------------------------------------------------------------


def cast_to(type_local: str, sequence: Sequence) -> Sequence:
    """Apply an xs: constructor function; empty input yields empty."""
    value = single_atomic(sequence, f"xs:{type_local} cast")
    if value is None:
        return []
    try:
        return [_cast_value(type_local, value)]
    except (ValueError, InvalidOperation, OverflowError) as exc:
        raise XQueryDynamicError(
            f"cannot cast {serialize_atomic(value)!r} to xs:{type_local}",
            code="FORG0001") from exc


def _cast_value(type_local: str, value: object):
    if type_local == "string":
        return serialize_atomic(value)
    if type_local == "untypedAtomic":
        return UntypedAtomic(serialize_atomic(value))
    if type_local == "boolean":
        if isinstance(value, bool):
            return value
        if is_numeric_value(value):
            return value != 0
        return _parse_boolean(str(value))
    if type_local in ("integer", "int", "long", "short"):
        if isinstance(value, str):
            return int(str(value).strip())
        if isinstance(value, bool):
            return int(value)
        if is_numeric_value(value):
            return int(value)
        raise ValueError(f"bad source type for xs:{type_local}")
    if type_local == "decimal":
        if isinstance(value, bool):
            return Decimal(int(value))
        if isinstance(value, float):
            return Decimal(repr(value))
        if isinstance(value, (int, Decimal)):
            return Decimal(value)
        return Decimal(str(value).strip())
    if type_local in ("double", "float"):
        if isinstance(value, bool):
            return float(value)
        if is_numeric_value(value):
            return float(value)
        text = str(value).strip()
        if text == "INF":
            return math.inf
        if text == "-INF":
            return -math.inf
        return float(text)
    if type_local == "date":
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        return datetime.date.fromisoformat(str(value).strip())
    if type_local == "time":
        if isinstance(value, datetime.datetime):
            return value.time()
        if isinstance(value, datetime.time):
            return value
        return datetime.time.fromisoformat(str(value).strip())
    if type_local == "dateTime":
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime.combine(value, datetime.time())
        return datetime.datetime.fromisoformat(str(value).strip())
    raise XQueryTypeError(f"unknown cast target xs:{type_local}",
                          code="XPST0051")
