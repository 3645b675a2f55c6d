"""The oracle's LIKE matcher against the product's.

The oracle (``tests/engine/sqlexec.py``) matches LIKE patterns with its
own position-set walk; the product translates a pattern to a regular
expression (``fn-bea:sql-like``). Generated patterns mix ``%``, ``_``,
an ESCAPE character and the characters a regular expression gives a
meaning to; both matchers must agree on every one, and raise on the
same malformed patterns.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLSemanticError, XQueryDynamicError
from repro.xquery.functions import bea_sql_like

from tests.engine.sqlexec import like_match

#: Wildcards, candidate escapes, regex metacharacters, a newline, and
#: plain letters, so that patterns and values overlap often.
ALPHABET = "%_!\\.*+?()[]{}^$|-\nab"

texts = st.text(alphabet=ALPHABET, max_size=8)


def product(value, pattern, escape):
    args = [[value], [pattern]] + ([[escape]] if escape is not None else [])
    matched, = bea_sql_like(args)
    return matched


def outcome(match, value, pattern, escape):
    try:
        return match(value, pattern, escape)
    except (SQLSemanticError, XQueryDynamicError):
        return "error"


@settings(max_examples=400, deadline=None)
@given(value=texts, pattern=texts,
       escape=st.one_of(st.none(), st.sampled_from("!\\%_.a"),
                        st.text(alphabet="!\\", min_size=2, max_size=2)))
def test_matchers_agree(value, pattern, escape):
    assert outcome(like_match, value, pattern, escape) \
        == outcome(product, value, pattern, escape)


@settings(max_examples=200, deadline=None)
@given(pattern=texts)
def test_a_value_matches_its_own_escaped_pattern(pattern):
    """Escaping every character makes a pattern match exactly itself."""
    escaped = "".join("!" + char for char in pattern)
    assert like_match(pattern, escaped, "!") is True
    assert product(pattern, escaped, "!") is True
    assert like_match(pattern + "x", escaped, "!") is False


@pytest.mark.parametrize("value, pattern, escape, expected", [
    ("abc", "a%", None, True),
    ("abc", "a_c", None, True),
    ("a\nc", "a_c", None, True),
    ("a.c", "a.c", None, True),
    ("abc", "a.c", None, False),
    ("50%", "50!%", "!", True),
    ("500", "50!%", "!", False),
    ("", "%", None, True),
    ("", "_", None, False),
    ("a", "a!", "!", "error"),
    ("a", "a", "!!", "error"),
])
def test_known_cases(value, pattern, escape, expected):
    assert outcome(like_match, value, pattern, escape) == expected
    assert outcome(product, value, pattern, escape) == expected
