"""fn-bea:in3 / any3 / all3: the untyped-member rule, and the prepared
IN table the compiled executor probes instead of looping.

A subquery's members are constructed ``<COL>{...}</COL>`` elements, so
they atomize to xs:untypedAtomic and must compare as the *needle's* type
(double for a numeric needle, date for a date, ...). The prepared table
(:class:`repro.xquery.functions.PreparedIn3`) has to give, for every
needle, exactly the answer the plain function gives over the same
members — including where that answer is debatable (ints beyond 2**53
compare as doubles against untyped members).
"""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlmodel import element
from repro.xquery.functions import (
    PreparedIn3,
    bea_all3,
    bea_any3,
    bea_in3,
)

DATE = datetime.date(2005, 1, 10)
TIME = datetime.time(8, 30)
STAMP = datetime.datetime(2005, 1, 10, 8, 30)


def untyped(*texts, null=False):
    members = [element("C", text) for text in texts]
    if null:
        members.append(element("C"))
    return members


class TestUntypedMemberRule:
    """Members cast to the needle's type; the hand-rolled rule compared
    every non-numeric needle with a string and never matched."""

    @pytest.mark.parametrize("needle, hit, miss", [
        (DATE, "2005-01-10", "2005-01-11"),
        (TIME, "08:30:00", "09:30:00"),
        (STAMP, "2005-01-10T08:30:00", "2005-01-11T08:30:00"),
        (True, "true", "false"),
        (False, "0", "1"),
        (7, "7.0", "8"),
        ("a", "a", "b"),
    ])
    def test_in3_matches_by_needle_type(self, needle, hit, miss):
        assert bea_in3([[needle], untyped(miss, hit)]) == [True]
        assert bea_in3([[needle], untyped(miss)]) == [False]
        assert bea_in3([[needle], untyped(miss, null=True)]) == []
        assert bea_in3([[needle], untyped(hit, null=True)]) == [True]

    def test_uncastable_member_is_a_non_match(self):
        assert bea_in3([[DATE], untyped("soon", "2005-01-10")]) == [True]
        assert bea_in3([[DATE], untyped("soon")]) == [False]
        assert bea_in3([[7], untyped("seven")]) == [False]

    def test_any3_orders_dates(self):
        members = untyped("2005-01-01", "2005-01-05")
        assert bea_any3([[DATE], members, ["le"]]) == [False]
        assert bea_any3([[datetime.date(2005, 1, 3)], members,
                         ["le"]]) == [True]
        assert bea_any3([[DATE], untyped("2005-01-01", null=True),
                         ["le"]]) == []

    def test_all3_orders_times_and_booleans(self):
        assert bea_all3([[TIME], untyped("07:00:00", "08:00:00"),
                         ["gt"]]) == [True]
        assert bea_all3([[TIME], untyped("07:00:00", "09:00:00"),
                         ["gt"]]) == [False]
        assert bea_all3([[True], untyped("false", "0"), ["gt"]]) == [True]

    def test_uncastable_member_is_unknown_for_quantifiers(self):
        assert bea_any3([[DATE], untyped("soon"), ["eq"]]) == []
        assert bea_all3([[DATE], untyped("soon", "2005-01-01"),
                         ["gt"]]) == []
        assert bea_all3([[DATE], untyped("soon", "2005-02-01"),
                         ["gt"]]) == [False]


# -- prepared IN ≡ bea_in3 ---------------------------------------------------

_BIG = 2 ** 53
NEEDLES = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.sampled_from([_BIG, _BIG + 1, _BIG + 2, -_BIG - 1, 10 ** 400]),
    st.sampled_from([Decimal("1"), Decimal("1.0"), Decimal("2.5"),
                     Decimal(_BIG + 1)]),
    st.sampled_from([float("nan"), 0.0, -0.0, 1.0, 2.5, float("inf"),
                     float(_BIG)]),
    st.sampled_from(["", "1", "a", " 1", "true", "2005-01-10"]),
    st.sampled_from([DATE, DATE + datetime.timedelta(days=1)]),
    st.sampled_from([STAMP, TIME]),
    st.booleans(),
)

_TEXTS = ["1", "1.0", " 1 ", "01", "2.5", "-0", "0", "a", "", "true",
          "false", "NaN", "INF", "1e0", "seven", str(_BIG), str(_BIG + 1),
          "2005-01-10", "2005-01-11", " 2005-01-10", "08:30:00",
          "2005-01-10T08:30:00"]

MEMBERS = st.lists(st.one_of(
    st.sampled_from(_TEXTS).map(lambda text: element("C", text)),
    st.just(None).map(lambda _n: element("C")),            # NULL member
    st.sampled_from([("1", "int"), ("2.5", "decimal"), ("1.0", "double"),
                     ("NaN", "double"), ("a", "string"),
                     ("2005-01-10", "date"), ("true", "boolean"),
                     (str(_BIG), "long")]).map(
        lambda pair: element("C", pair[0], type_annotation=pair[1])),
    st.sampled_from([1, "a", Decimal("2.5"), DATE]),       # bare atomics
), max_size=6)


def outcome(call):
    """true / false / unknown, or the error the call raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__


@settings(max_examples=600, deadline=None)
@given(needles=st.lists(NEEDLES, min_size=1, max_size=4), members=MEMBERS)
def test_prepared_probe_equals_plain_function(needles, members):
    prepared = PreparedIn3(members)
    assert len(prepared) == len(members)
    for needle in needles:
        needle_seq = [] if needle is None else [needle]
        expected = outcome(lambda: bea_in3([needle_seq, members]))
        # Probe twice: the second probe of a category reads a built table.
        assert outcome(lambda: prepared(needle_seq)) == expected
        assert outcome(lambda: prepared(needle_seq)) == expected


def test_large_ints_agree_with_the_double_rule():
    """int eq untyped compares as doubles today: 2**53 + 1 'equals' the
    member "9007199254740992". Whatever is decided about that, the
    table and the function must agree."""
    members = untyped(str(_BIG))
    assert bea_in3([[_BIG + 1], members]) == [True]
    assert PreparedIn3(members)([_BIG + 1]) == [True]
    assert PreparedIn3(members)([_BIG + 2]) == bea_in3(
        [[_BIG + 2], members])


def test_nan_never_matches_and_null_stays_unknown():
    members = untyped("NaN", "1", null=True)
    prepared = PreparedIn3(members)
    assert prepared([float("nan")]) == []
    assert prepared([1]) == [True]
    assert prepared([2]) == []
    assert prepared([]) == []
    assert PreparedIn3(untyped("NaN"))([float("nan")]) == [False]


def test_miss_answers_are_not_shared_between_probes():
    prepared = PreparedIn3(untyped("1"))
    first = prepared([2])
    first.append("mutated")
    assert prepared([2]) == [False]
