"""Built-in function library: fn:, xs: constructors, and fn-bea: extensions.

The fn-bea: namespace reproduces the BEA extension functions the paper's
generated queries rely on (``fn-bea:if-empty``, ``fn-bea:xml-escape``,
``fn-bea:serialize-atomic``) plus the SQL-semantics helpers our translator
emits for faithful three-valued logic and set operations (``and3``/``or3``/
``not3``/``in3``/``sql-like``/``distinct-records``/...). Each helper is
documented where defined; DESIGN.md section 5 explains why they exist.

Every builtin has signature ``(args: list[Sequence]) -> Sequence`` where a
Sequence is a flat Python list of items. Arity is validated by the
dispatcher in the evaluator.
"""

from __future__ import annotations

import math
import re
from decimal import ROUND_HALF_UP, Decimal

from ..errors import XQueryDynamicError, XQueryStaticError, XQueryTypeError
from ..xmlmodel import Element, deep_equal, serialize
from ..xmlmodel.escape import escape_text
from .atomic import (
    UntypedAtomic,
    _comparison_category,
    atomize,
    cast_to,
    cast_untyped_to_type_of,
    compare_values,
    effective_boolean_value,
    is_node,
    is_numeric_value,
    serialize_atomic,
    single_atomic,
    string_value,
)

FN_URI = "http://www.w3.org/2005/xpath-functions"
XS_URI = "http://www.w3.org/2001/XMLSchema"
BEA_URI = "http://www.bea.com/xquery/xquery-functions"

#: Prefixes every module can use without declaring them.
DEFAULT_NAMESPACES = {
    "fn": FN_URI,
    "xs": XS_URI,
    "fn-bea": BEA_URI,
    "": FN_URI,
}

_XS_CONSTRUCTOR_TYPES = frozenset({
    "string", "boolean", "integer", "int", "long", "short", "decimal",
    "double", "float", "date", "time", "dateTime", "untypedAtomic",
})


def _single(args, index, name):
    return single_atomic(args[index], f"argument {index + 1} of {name}")


def _string_arg(args, index, name) -> str | None:
    value = _single(args, index, name)
    if value is None:
        return None
    return string_value(value)


def _numeric_arg(args, index, name):
    value = _single(args, index, name)
    if value is None:
        return None
    if isinstance(value, UntypedAtomic):
        value = float(value)
    if not is_numeric_value(value):
        raise XQueryTypeError(
            f"argument {index + 1} of {name} must be numeric",
            code="XPTY0004")
    return value


# ---------------------------------------------------------------------------
# fn: library
# ---------------------------------------------------------------------------


def fn_data(args):
    return atomize(args[0])


def fn_string(args):
    value = _single(args, 0, "fn:string")
    if not args[0]:
        return [""]
    return [string_value(args[0][0]) if is_node(args[0][0])
            else serialize_atomic(value)]


def fn_concat(args):
    parts = []
    for arg in args:
        value = single_atomic(arg, "fn:concat argument")
        parts.append("" if value is None else string_value(value))
    return ["".join(parts)]


def fn_string_join(args):
    separator = _string_arg(args, 1, "fn:string-join") or ""
    parts = [string_value(item) for item in atomize(args[0])]
    return [separator.join(parts)]


def fn_count(args):
    return [len(args[0])]


def fn_empty(args):
    return [not args[0]]


def fn_exists(args):
    return [bool(args[0])]


def fn_not(args):
    return [not effective_boolean_value(args[0])]


def fn_boolean(args):
    return [effective_boolean_value(args[0])]


def fn_true(args):
    return [True]


def fn_false(args):
    return [False]


def _aggregate_values(seq, name):
    values = []
    for value in atomize(seq):
        if isinstance(value, UntypedAtomic):
            value = float(value)
        values.append(value)
    return values


def fn_sum(args):
    values = _aggregate_values(args[0], "fn:sum")
    if not values:
        if len(args) == 2:
            return list(args[1])
        return [0]
    total = values[0]
    for value in values[1:]:
        total = total + value
    return [total]


def fn_avg(args):
    values = _aggregate_values(args[0], "fn:avg")
    if not values:
        return []
    total = values[0]
    for value in values[1:]:
        total = total + value
    count = len(values)
    if isinstance(total, int):
        return [Decimal(total) / Decimal(count)]
    if isinstance(total, Decimal):
        return [total / Decimal(count)]
    return [total / count]


def _min_max(args, op, name):
    values = _aggregate_values(args[0], name)
    if not values:
        return []
    best = values[0]
    for value in values[1:]:
        if compare_values(op, value, best):
            best = value
    return [best]


def fn_min(args):
    return _min_max(args, "lt", "fn:min")


def fn_max(args):
    return _min_max(args, "gt", "fn:max")


def fn_distinct_values(args):
    seen = []
    result = []
    for value in atomize(args[0]):
        if isinstance(value, UntypedAtomic):
            value = str(value)
        duplicate = False
        for prior in seen:
            try:
                if compare_values("eq", prior, value):
                    duplicate = True
                    break
            except XQueryTypeError:
                continue
        if not duplicate:
            seen.append(value)
            result.append(value)
    return result


def fn_subsequence(args):
    start = _numeric_arg(args, 1, "fn:subsequence")
    if start is None:
        return []
    begin = int(round(float(start)))
    if len(args) == 3:
        length = _numeric_arg(args, 2, "fn:subsequence")
        end = begin + int(round(float(length)))
        return [item for pos, item in enumerate(args[0], start=1)
                if begin <= pos < end]
    return [item for pos, item in enumerate(args[0], start=1)
            if pos >= begin]


def fn_reverse(args):
    return list(reversed(args[0]))


def fn_upper_case(args):
    text = _string_arg(args, 0, "fn:upper-case")
    return [""] if text is None else [text.upper()]


def fn_lower_case(args):
    text = _string_arg(args, 0, "fn:lower-case")
    return [""] if text is None else [text.lower()]


def fn_string_length(args):
    text = _string_arg(args, 0, "fn:string-length")
    return [0] if text is None else [len(text)]


def fn_substring(args):
    text = _string_arg(args, 0, "fn:substring")
    if text is None:
        return [""]
    start = _numeric_arg(args, 1, "fn:substring")
    if start is None:
        return [""]
    begin = int(round(float(start)))
    if len(args) == 3:
        length = _numeric_arg(args, 2, "fn:substring")
        if length is None:
            return [""]
        end = begin + int(round(float(length)))
    else:
        end = len(text) + 1
    chars = [ch for pos, ch in enumerate(text, start=1)
             if begin <= pos < end]
    return ["".join(chars)]


def fn_contains(args):
    hay = _string_arg(args, 0, "fn:contains") or ""
    needle = _string_arg(args, 1, "fn:contains") or ""
    return [needle in hay]


def fn_starts_with(args):
    hay = _string_arg(args, 0, "fn:starts-with") or ""
    needle = _string_arg(args, 1, "fn:starts-with") or ""
    return [hay.startswith(needle)]


def fn_ends_with(args):
    hay = _string_arg(args, 0, "fn:ends-with") or ""
    needle = _string_arg(args, 1, "fn:ends-with") or ""
    return [hay.endswith(needle)]


def fn_normalize_space(args):
    text = _string_arg(args, 0, "fn:normalize-space") or ""
    return [" ".join(text.split())]


def fn_abs(args):
    value = _numeric_arg(args, 0, "fn:abs")
    return [] if value is None else [abs(value)]


def fn_round(args):
    value = _numeric_arg(args, 0, "fn:round")
    if value is None:
        return []
    if isinstance(value, int):
        return [value]
    if isinstance(value, Decimal):
        return [value.quantize(Decimal(1), rounding=ROUND_HALF_UP)]
    return [float(math.floor(value + 0.5))]


def fn_floor(args):
    value = _numeric_arg(args, 0, "fn:floor")
    if value is None:
        return []
    if isinstance(value, int):
        return [value]
    if isinstance(value, Decimal):
        return [Decimal(math.floor(value))]
    return [float(math.floor(value))]


def fn_ceiling(args):
    value = _numeric_arg(args, 0, "fn:ceiling")
    if value is None:
        return []
    if isinstance(value, int):
        return [value]
    if isinstance(value, Decimal):
        return [Decimal(math.ceil(value))]
    return [float(math.ceil(value))]


def fn_number(args):
    value = _single(args, 0, "fn:number")
    if value is None:
        return [float("nan")]
    try:
        return [float(value)]
    except (TypeError, ValueError):
        return [float("nan")]


def fn_deep_equal(args):
    left, right = args[0], args[1]
    if len(left) != len(right):
        return [False]
    for a, b in zip(left, right):
        if is_node(a) and is_node(b):
            if not deep_equal(a, b):
                return [False]
        elif is_node(a) or is_node(b):
            return [False]
        else:
            try:
                if not compare_values("eq", a, b):
                    return [False]
            except XQueryTypeError:
                return [False]
    return [True]


def _datetime_component(args, name, extract):
    value = _single(args, 0, name)
    if value is None:
        return []
    return [extract(value)]


def fn_year_from_date(args):
    return _datetime_component(args, "fn:year-from-date", lambda d: d.year)


def fn_month_from_date(args):
    return _datetime_component(args, "fn:month-from-date", lambda d: d.month)


def fn_day_from_date(args):
    return _datetime_component(args, "fn:day-from-date", lambda d: d.day)


def fn_year_from_datetime(args):
    return _datetime_component(args, "fn:year-from-dateTime",
                               lambda d: d.year)


def fn_month_from_datetime(args):
    return _datetime_component(args, "fn:month-from-dateTime",
                               lambda d: d.month)


def fn_day_from_datetime(args):
    return _datetime_component(args, "fn:day-from-dateTime", lambda d: d.day)


def fn_hours_from_time(args):
    return _datetime_component(args, "fn:hours-from-time", lambda t: t.hour)


def fn_minutes_from_time(args):
    return _datetime_component(args, "fn:minutes-from-time",
                               lambda t: t.minute)


def fn_seconds_from_time(args):
    return _datetime_component(args, "fn:seconds-from-time",
                               lambda t: Decimal(t.second))


def fn_hours_from_datetime(args):
    return _datetime_component(args, "fn:hours-from-dateTime",
                               lambda t: t.hour)


def fn_minutes_from_datetime(args):
    return _datetime_component(args, "fn:minutes-from-dateTime",
                               lambda t: t.minute)


def fn_seconds_from_datetime(args):
    return _datetime_component(args, "fn:seconds-from-dateTime",
                               lambda t: Decimal(t.second))


# ---------------------------------------------------------------------------
# fn-bea: extensions
# ---------------------------------------------------------------------------


def bea_if_empty(args):
    """fn-bea:if-empty($value, $default): the paper's NULL-to-default hook
    used by the text result wrapper."""
    if args[0]:
        return list(args[0])
    return list(args[1])


def bea_xml_escape(args):
    text = _string_arg(args, 0, "fn-bea:xml-escape")
    return [""] if text is None else [escape_text(text)]


def bea_serialize_atomic(args):
    value = _single(args, 0, "fn-bea:serialize-atomic")
    return [] if value is None else [serialize_atomic(value)]


def bea_trim(args):
    text = _string_arg(args, 0, "fn-bea:trim")
    return [] if text is None else [text.strip()]


def bea_trim_left(args):
    text = _string_arg(args, 0, "fn-bea:trim-left")
    return [] if text is None else [text.lstrip()]


def bea_trim_right(args):
    text = _string_arg(args, 0, "fn-bea:trim-right")
    return [] if text is None else [text.rstrip()]


# -- three-valued logic helpers.
#
# SQL's WHERE evaluates under 3VL: UNKNOWN (NULL) is neither true nor
# false, and NOT UNKNOWN is UNKNOWN. XQuery's fn:not(()) is true() (EBV),
# which would wrongly keep rows under NOT. The translator therefore emits
# these helpers, which model UNKNOWN as the empty sequence.


def bea_not3(args):
    value = single_atomic(args[0], "fn-bea:not3")
    if value is None:
        return []
    return [not bool(value)]


def bea_and3(args):
    left = single_atomic(args[0], "fn-bea:and3")
    right = single_atomic(args[1], "fn-bea:and3")
    if left is False or right is False:
        return [False]
    if left is None or right is None:
        return []
    return [bool(left) and bool(right)]


def bea_or3(args):
    left = single_atomic(args[0], "fn-bea:or3")
    right = single_atomic(args[1], "fn-bea:or3")
    if left is True or right is True:
        return [True]
    if left is None or right is None:
        return []
    return [bool(left) or bool(right)]


def _cast_member(value, needle):
    """The one member-coercion rule of in3 / any3 / all3 and the prepared
    IN table: a subquery's members are constructed elements, so they
    atomize to xs:untypedAtomic and compare as the needle's type (the
    general-comparison cast — double for a numeric needle, date for a
    date, ...). Raises :class:`XQueryDynamicError` for a member that
    does not cast; callers count that as a non-match / unknown."""
    if isinstance(value, UntypedAtomic):
        return cast_untyped_to_type_of(value, needle)
    return value


def bea_in3(args):
    """3VL IN over a sequence of *elements* (so NULLs are observable as
    empty elements): true if any member equals $x; unknown (empty) if $x
    is NULL or no member matched but a NULL member exists; else false."""
    needle = single_atomic(args[0], "fn-bea:in3 left operand")
    if needle is None:
        return []
    saw_null = False
    for item in args[1]:
        values = atomize([item])
        if not values:
            saw_null = True
            continue
        for value in values:
            try:
                if compare_values("eq", needle, _cast_member(value, needle)):
                    return [True]
            except (XQueryTypeError, XQueryDynamicError):
                continue
    if saw_null:
        return []
    return [False]


#: Needle categories whose ``eq`` is Python ``==`` on hashable values of
#: one type family, so a set of cast members answers it.
_HASHED_CATEGORIES = frozenset(
    {"boolean", "numeric", "string", "dateTime", "date", "time"})


class PreparedIn3:
    """``fn-bea:in3`` against a member sequence that is fixed for a
    whole execution: one hash set per needle category of the members
    cast by :func:`_cast_member`, so a probe costs O(1) instead of
    O(members). Covers what stage 3 emits — every non-NULL member
    untyped; typed members, unhashed needle categories and needles
    outside the double range run :func:`bea_in3` over the same
    sequence."""

    __slots__ = ("_members", "_texts", "_miss", "_tables")

    def __init__(self, members):
        self._members = members
        values = [atomize([item]) for item in members]
        texts = [value for found in values for value in found]
        self._texts = texts if all(
            isinstance(text, UntypedAtomic) for text in texts) else None
        # No match: unknown when a NULL member exists, else false.
        self._miss = [False] if all(values) else []
        self._tables: dict[str, set] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __call__(self, needle_seq):
        needle = single_atomic(needle_seq, "fn-bea:in3 left operand")
        if needle is None:
            return []
        category = _comparison_category(needle)
        key = needle
        if category == "numeric":
            try:
                # A numeric needle compares with untyped members as
                # doubles, whatever its own type.
                key = float(needle)
            except OverflowError:
                category = None
        if self._texts is None or category not in _HASHED_CATEGORIES:
            return bea_in3([[needle], self._members])
        table = self._tables.get(category)
        if table is None:
            table = set()
            for text in self._texts:
                try:
                    member = _cast_member(text, needle)
                except XQueryDynamicError:
                    continue
                if member == member:  # NaN never matches
                    table.add(member)
            self._tables[category] = table
        return [True] if key in table else list(self._miss)


def _quantified3(args, kind):
    """Shared logic of fn-bea:any3 / fn-bea:all3: a 3VL quantified
    comparison of $x against a sequence of row-column *elements* (empty
    elements are SQL NULLs, i.e. UNKNOWN comparisons)."""
    op = _string_arg(args, 2, f"fn-bea:{kind}3")
    needle = single_atomic(args[0], f"fn-bea:{kind}3 left operand")
    if needle is None:
        return [] if args[1] else [kind == "all"]
    saw_unknown = False
    for item in args[1]:
        values = atomize([item])
        if not values:
            saw_unknown = True
            continue
        for value in values:
            try:
                holds = compare_values(op, needle,
                                       _cast_member(value, needle))
            except (XQueryTypeError, XQueryDynamicError):
                saw_unknown = True
                continue
            if kind == "any" and holds:
                return [True]
            if kind == "all" and not holds:
                return [False]
    if saw_unknown:
        return []
    return [kind == "all"]


def bea_any3(args):
    """``x op ANY (subquery)`` under SQL 3VL."""
    return _quantified3(args, "any")


def bea_all3(args):
    """``x op ALL (subquery)`` under SQL 3VL."""
    return _quantified3(args, "all")


# -- NULL-propagating SQL scalar functions.
#
# SQL scalar functions return NULL when any argument is NULL, while the
# XQuery F&O string functions treat the empty sequence as "". The
# translator maps SQL functions onto these fn-bea:sql-* variants so NULL
# survives (this mirrors the null-tolerant function library the real BEA
# engine shipped).


def bea_sql_concat(args):
    left = _string_arg(args, 0, "fn-bea:sql-concat")
    right = _string_arg(args, 1, "fn-bea:sql-concat")
    if left is None or right is None:
        return []
    return [left + right]


def bea_sql_upper(args):
    text = _string_arg(args, 0, "fn-bea:sql-upper")
    return [] if text is None else [text.upper()]


def bea_sql_lower(args):
    text = _string_arg(args, 0, "fn-bea:sql-lower")
    return [] if text is None else [text.lower()]


def bea_sql_char_length(args):
    text = _string_arg(args, 0, "fn-bea:sql-char-length")
    return [] if text is None else [len(text)]


def bea_sql_substring(args):
    text = _string_arg(args, 0, "fn-bea:sql-substring")
    if text is None:
        return []
    start = _numeric_arg(args, 1, "fn-bea:sql-substring")
    if start is None:
        return []
    begin = int(start)
    if len(args) == 3:
        length = _numeric_arg(args, 2, "fn-bea:sql-substring")
        if length is None:
            return []
        if length < 0:
            raise XQueryDynamicError(
                "negative length in SUBSTRING", code="FOBEA003")
        end = begin + int(length)
    else:
        end = len(text) + 1
    chars = [ch for pos, ch in enumerate(text, start=1)
             if begin <= pos < end]
    return ["".join(chars)]


def bea_sql_position(args):
    """SQL POSITION: 1-based index of needle in haystack, 0 if absent,
    1 for the empty needle."""
    needle = _string_arg(args, 0, "fn-bea:sql-position")
    hay = _string_arg(args, 1, "fn-bea:sql-position")
    if needle is None or hay is None:
        return []
    if not needle:
        return [1]
    return [hay.find(needle) + 1]


def bea_sql_trim(args):
    """SQL TRIM: mode is LEADING/TRAILING/BOTH; second argument is the
    single trim character (pass " " for the default)."""
    mode = _string_arg(args, 0, "fn-bea:sql-trim")
    chars = _string_arg(args, 1, "fn-bea:sql-trim")
    text = _string_arg(args, 2, "fn-bea:sql-trim")
    if chars is None or text is None:
        return []
    if len(chars) != 1:
        raise XQueryDynamicError(
            f"TRIM character must be a single character, got {chars!r}",
            code="FOBEA003")
    if mode == "LEADING":
        return [text.lstrip(chars)]
    if mode == "TRAILING":
        return [text.rstrip(chars)]
    return [text.strip(chars)]


def bea_sql_round(args):
    """SQL ROUND(x, d): round to d decimal places (d may be negative)."""
    value = _numeric_arg(args, 0, "fn-bea:sql-round")
    if value is None:
        return []
    digits = _numeric_arg(args, 1, "fn-bea:sql-round")
    if digits is None:
        return []
    places = int(digits)
    if isinstance(value, float):
        factor = 10.0 ** places
        return [math.floor(value * factor + 0.5) / factor]
    as_decimal = value if isinstance(value, Decimal) else Decimal(value)
    quantum = Decimal(1).scaleb(-places)
    rounded = as_decimal.quantize(quantum, rounding=ROUND_HALF_UP)
    if isinstance(value, int):
        return [int(rounded)]
    return [rounded]


def bea_sqrt(args):
    value = _numeric_arg(args, 0, "fn-bea:sqrt")
    if value is None:
        return []
    if value < 0:
        raise XQueryDynamicError("square root of a negative number",
                                 code="FOBEA003")
    return [math.sqrt(value)]


_LIKE_CACHE: dict[tuple[str, str | None], re.Pattern[str]] = {}


def _like_regex(pattern: str, escape: str | None) -> re.Pattern[str]:
    key = (pattern, escape)
    cached = _LIKE_CACHE.get(key)
    if cached is not None:
        return cached
    if escape is not None and len(escape) != 1:
        raise XQueryDynamicError(
            f"LIKE escape must be a single character, got {escape!r}",
            code="FOBEA001")
    parts = ["^"]
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= len(pattern):
                raise XQueryDynamicError(
                    "LIKE pattern ends with a dangling escape character",
                    code="FOBEA001")
            parts.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
        i += 1
    parts.append(r"\Z")  # ("$" would also match before a final newline)
    compiled = re.compile("".join(parts), re.DOTALL)
    _LIKE_CACHE[key] = compiled
    return compiled


def fn_current_date(args):
    from .. import clock
    return [clock.today()]


def fn_current_time(args):
    from .. import clock
    return [clock.current_time()]


def fn_current_datetime(args):
    from .. import clock
    return [clock.now()]


def bea_sql_like(args):
    """SQL LIKE with optional ESCAPE, 3VL (empty operand → empty)."""
    value = _string_arg(args, 0, "fn-bea:sql-like")
    if value is None:
        return []
    pattern = _string_arg(args, 1, "fn-bea:sql-like")
    if pattern is None:
        return []
    escape = None
    if len(args) == 3:
        escape = _string_arg(args, 2, "fn-bea:sql-like")
    return [bool(_like_regex(pattern, escape).match(value))]


# -- record-set helpers for SQL DISTINCT and set operations.


def _record_key(item) -> str:
    if isinstance(item, Element):
        return serialize(item)
    return f"atomic:{serialize_atomic(item)}"


def bea_distinct_records(args):
    """Multiset DISTINCT over a sequence of row elements (deep equality)."""
    seen = set()
    result = []
    for item in args[0]:
        key = _record_key(item)
        if key not in seen:
            seen.add(key)
            result.append(item)
    return result


def _record_bag(seq) -> dict[str, int]:
    bag: dict[str, int] = {}
    for item in seq:
        key = _record_key(item)
        bag[key] = bag.get(key, 0) + 1
    return bag


def bea_intersect_records(args):
    """SQL INTERSECT [ALL] over row elements. Third argument: all flag."""
    all_flag = effective_boolean_value(args[2])
    right_bag = _record_bag(args[1])
    result = []
    emitted: dict[str, int] = {}
    for item in args[0]:
        key = _record_key(item)
        available = right_bag.get(key, 0)
        used = emitted.get(key, 0)
        if available == 0:
            continue
        if all_flag:
            if used < available:
                emitted[key] = used + 1
                result.append(item)
        else:
            if used == 0:
                emitted[key] = 1
                result.append(item)
    return result


def bea_except_records(args):
    """SQL EXCEPT [ALL] over row elements."""
    all_flag = effective_boolean_value(args[2])
    right_bag = _record_bag(args[1])
    result = []
    removed: dict[str, int] = {}
    emitted = set()
    for item in args[0]:
        key = _record_key(item)
        if all_flag:
            if removed.get(key, 0) < right_bag.get(key, 0):
                removed[key] = removed.get(key, 0) + 1
                continue
            result.append(item)
        else:
            if key in right_bag or key in emitted:
                continue
            emitted.add(key)
            result.append(item)
    return result


def bea_scalar(args):
    """Value of a scalar subquery: () for no rows, error for >1 row,
    else the atomized single column of the single row."""
    records = args[0]
    if not records:
        return []
    if len(records) > 1:
        raise XQueryDynamicError(
            f"scalar subquery returned {len(records)} rows",
            code="FOBEA002")
    record = records[0]
    if not isinstance(record, Element):
        return atomize([record])
    children = list(record.child_elements())
    if len(children) != 1:
        raise XQueryDynamicError(
            f"scalar subquery returned {len(children)} columns",
            code="FOBEA002")
    return atomize([children[0]])


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------

#: (uri, local) -> (callable, min_args, max_args)
BUILTINS = {
    (FN_URI, "data"): (fn_data, 1, 1),
    (FN_URI, "string"): (fn_string, 1, 1),
    (FN_URI, "concat"): (fn_concat, 2, 64),
    (FN_URI, "string-join"): (fn_string_join, 2, 2),
    (FN_URI, "count"): (fn_count, 1, 1),
    (FN_URI, "empty"): (fn_empty, 1, 1),
    (FN_URI, "exists"): (fn_exists, 1, 1),
    (FN_URI, "not"): (fn_not, 1, 1),
    (FN_URI, "boolean"): (fn_boolean, 1, 1),
    (FN_URI, "true"): (fn_true, 0, 0),
    (FN_URI, "false"): (fn_false, 0, 0),
    (FN_URI, "sum"): (fn_sum, 1, 2),
    (FN_URI, "avg"): (fn_avg, 1, 1),
    (FN_URI, "min"): (fn_min, 1, 1),
    (FN_URI, "max"): (fn_max, 1, 1),
    (FN_URI, "distinct-values"): (fn_distinct_values, 1, 1),
    (FN_URI, "subsequence"): (fn_subsequence, 2, 3),
    (FN_URI, "reverse"): (fn_reverse, 1, 1),
    (FN_URI, "upper-case"): (fn_upper_case, 1, 1),
    (FN_URI, "lower-case"): (fn_lower_case, 1, 1),
    (FN_URI, "string-length"): (fn_string_length, 1, 1),
    (FN_URI, "substring"): (fn_substring, 2, 3),
    (FN_URI, "contains"): (fn_contains, 2, 2),
    (FN_URI, "starts-with"): (fn_starts_with, 2, 2),
    (FN_URI, "ends-with"): (fn_ends_with, 2, 2),
    (FN_URI, "normalize-space"): (fn_normalize_space, 1, 1),
    (FN_URI, "abs"): (fn_abs, 1, 1),
    (FN_URI, "round"): (fn_round, 1, 1),
    (FN_URI, "floor"): (fn_floor, 1, 1),
    (FN_URI, "ceiling"): (fn_ceiling, 1, 1),
    (FN_URI, "number"): (fn_number, 1, 1),
    (FN_URI, "deep-equal"): (fn_deep_equal, 2, 2),
    (FN_URI, "current-date"): (fn_current_date, 0, 0),
    (FN_URI, "current-time"): (fn_current_time, 0, 0),
    (FN_URI, "current-dateTime"): (fn_current_datetime, 0, 0),
    (FN_URI, "year-from-date"): (fn_year_from_date, 1, 1),
    (FN_URI, "month-from-date"): (fn_month_from_date, 1, 1),
    (FN_URI, "day-from-date"): (fn_day_from_date, 1, 1),
    (FN_URI, "year-from-dateTime"): (fn_year_from_datetime, 1, 1),
    (FN_URI, "month-from-dateTime"): (fn_month_from_datetime, 1, 1),
    (FN_URI, "day-from-dateTime"): (fn_day_from_datetime, 1, 1),
    (FN_URI, "hours-from-time"): (fn_hours_from_time, 1, 1),
    (FN_URI, "minutes-from-time"): (fn_minutes_from_time, 1, 1),
    (FN_URI, "seconds-from-time"): (fn_seconds_from_time, 1, 1),
    (FN_URI, "hours-from-dateTime"): (fn_hours_from_datetime, 1, 1),
    (FN_URI, "minutes-from-dateTime"): (fn_minutes_from_datetime, 1, 1),
    (FN_URI, "seconds-from-dateTime"): (fn_seconds_from_datetime, 1, 1),
    (BEA_URI, "if-empty"): (bea_if_empty, 2, 2),
    (BEA_URI, "xml-escape"): (bea_xml_escape, 1, 1),
    (BEA_URI, "serialize-atomic"): (bea_serialize_atomic, 1, 1),
    (BEA_URI, "trim"): (bea_trim, 1, 1),
    (BEA_URI, "trim-left"): (bea_trim_left, 1, 1),
    (BEA_URI, "trim-right"): (bea_trim_right, 1, 1),
    (BEA_URI, "not3"): (bea_not3, 1, 1),
    (BEA_URI, "and3"): (bea_and3, 2, 2),
    (BEA_URI, "or3"): (bea_or3, 2, 2),
    (BEA_URI, "in3"): (bea_in3, 2, 2),
    (BEA_URI, "any3"): (bea_any3, 3, 3),
    (BEA_URI, "all3"): (bea_all3, 3, 3),
    (BEA_URI, "sql-concat"): (bea_sql_concat, 2, 2),
    (BEA_URI, "sql-upper"): (bea_sql_upper, 1, 1),
    (BEA_URI, "sql-lower"): (bea_sql_lower, 1, 1),
    (BEA_URI, "sql-char-length"): (bea_sql_char_length, 1, 1),
    (BEA_URI, "sql-substring"): (bea_sql_substring, 2, 3),
    (BEA_URI, "sql-position"): (bea_sql_position, 2, 2),
    (BEA_URI, "sql-trim"): (bea_sql_trim, 3, 3),
    (BEA_URI, "sql-round"): (bea_sql_round, 2, 2),
    (BEA_URI, "sqrt"): (bea_sqrt, 1, 1),
    (BEA_URI, "sql-like"): (bea_sql_like, 2, 3),
    (BEA_URI, "distinct-records"): (bea_distinct_records, 1, 1),
    (BEA_URI, "intersect-records"): (bea_intersect_records, 3, 3),
    (BEA_URI, "except-records"): (bea_except_records, 3, 3),
    (BEA_URI, "scalar"): (bea_scalar, 1, 1),
}


def call_builtin(uri: str, local: str, args: list) -> list:
    """Dispatch a builtin; xs: names are constructor-function casts."""
    if uri == XS_URI:
        if local not in _XS_CONSTRUCTOR_TYPES:
            raise XQueryStaticError(f"unknown type constructor xs:{local}",
                                    code="XPST0017")
        if len(args) != 1:
            raise XQueryStaticError(
                f"xs:{local} expects exactly one argument",
                code="XPST0017")
        return cast_to(local, args[0])
    try:
        func, min_args, max_args = BUILTINS[(uri, local)]
    except KeyError:
        raise XQueryStaticError(
            f"unknown function {{{uri}}}{local}", code="XPST0017") from None
    if not (min_args <= len(args) <= max_args):
        raise XQueryStaticError(
            f"function {local} expects {min_args}..{max_args} arguments, "
            f"got {len(args)}", code="XPST0017")
    return func(args)


def is_builtin_namespace(uri: str) -> bool:
    return uri in (FN_URI, XS_URI, BEA_URI)
