"""Expected rows, computed in plain Python over the generated tables.

Nothing here imports a ``repro`` executor: every function restates one
statement class as loops, comprehensions and dicts over row tuples, so
an error shared by the translator and every engine path still shows as
a mismatch. *tables* maps a table name to its list of row tuples;
*params* are the statement's ``?`` values in order.

Scaled schema (``repro.workloads.scaling``):
    FACTS(ID, NAME, REGION, AMOUNT)   DETAILS(DETAILID, FACTID, QTY, SHIPDATE)
Demo schema (``repro.workloads.demo``):
    CUSTOMERS(CUSTOMERID, CUSTOMERNAME, REGION, CREDITLIMIT)
    PAYMENTS(PAYMENTID, CUSTID, PAYMENT, PAYDATE)
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from fractions import Fraction


# -- comparison ---------------------------------------------------------------

def _sort_key(row: tuple) -> tuple:
    return tuple((value is not None, value) for value in row)


def same_rows(got: list, expected: list, ordered: bool) -> bool:
    """True when *got* is the expected result: the same list for a
    statement with a total ORDER BY, the same multiset otherwise."""
    if got == expected:
        return True
    if ordered or len(got) != len(expected):
        return False
    return sorted(got, key=_sort_key) == sorted(expected, key=_sort_key)


def digest(value: object, previous: str = "") -> str:
    """Chain *value*'s repr onto a running sha256 hex digest."""
    return hashlib.sha256((previous + repr(value)).encode()).hexdigest()


# -- helpers ------------------------------------------------------------------

def _sum(values):
    """SQL SUM: NULLs are skipped; no non-NULL input gives NULL."""
    present = [value for value in values if value is not None]
    return sum(present) if present else None


def _average(values) -> Fraction:
    """SQL AVG as an exact fraction (only ever compared, never
    returned, so the engine's decimal precision does not matter)."""
    present = [Fraction(value) for value in values if value is not None]
    return sum(present) / len(present)


def _details_by_fact(tables: dict) -> dict:
    by_fact = defaultdict(list)
    for detail in tables["DETAILS"]:
        by_fact[detail[1]].append(detail)
    return by_fact


# -- scaled tables: report_50k, remote_paged, mixed_rw ------------------------

def scaled_scan(tables: dict, params: tuple) -> list:
    return list(tables["FACTS"])


def scaled_filter(tables: dict, params: tuple) -> list:
    region, floor = params
    return [(row_id, name, amount)
            for row_id, name, row_region, amount in tables["FACTS"]
            if row_region == region and amount is not None
            and amount > floor]


def scaled_join(tables: dict, params: tuple) -> list:
    (region,) = params
    by_fact = _details_by_fact(tables)
    return [(fact[0], fact[1], detail[0], detail[2])
            for fact in tables["FACTS"] if fact[2] == region
            for detail in by_fact[fact[0]]]


def scaled_group(tables: dict, params: tuple) -> list:
    (region,) = params
    amounts = defaultdict(list)
    for _row_id, name, row_region, amount in tables["FACTS"]:
        if row_region is not None and row_region != region:
            amounts[name].append(amount)
    return [(name, len(values), _sum(values))
            for name, values in amounts.items()]


def scaled_point(tables: dict, params: tuple) -> list:
    (row_id,) = params
    return [row for row in tables["FACTS"] if row[0] == row_id]


# -- shapes_200 ---------------------------------------------------------------

def shapes_group(tables: dict, params: tuple) -> list:
    (floor,) = params
    region_of = {fact[0]: fact[2] for fact in tables["FACTS"]}
    quantities = defaultdict(list)
    for detail in tables["DETAILS"]:
        if detail[1] in region_of:
            quantities[region_of[detail[1]]].append(detail[2])
    return sorted((region, len(values), _sum(values))
                  for region, values in quantities.items()
                  if len(values) > floor)


def shapes_nested(tables: dict, params: tuple) -> list:
    (region,) = params
    by_fact = _details_by_fact(tables)
    average = _average(detail[2] for detail in tables["DETAILS"])
    in_region = {fact[0] for fact in tables["FACTS"] if fact[2] == region}
    rows = []
    for fact in tables["FACTS"]:
        total = _sum(detail[2] for detail in by_fact[fact[0]])
        if (total is not None and total > average) \
                or fact[0] in in_region:
            rows.append((fact[0], total))
    return sorted(rows)


def shapes_subq(tables: dict, params: tuple) -> list:
    (quantity,) = params
    average = _average(fact[3] for fact in tables["FACTS"])
    with_quantity = {detail[1] for detail in tables["DETAILS"]
                     if detail[2] == quantity}
    return sorted((fact[0], fact[1]) for fact in tables["FACTS"]
                  if (fact[3] is not None and fact[3] > average)
                  or fact[0] in with_quantity)


# -- demo tables: adhoc_small (the C1..C5 templates) --------------------------

def demo_scan(tables: dict, params: tuple) -> list:
    return list(tables["CUSTOMERS"])


def demo_filter(tables: dict, params: tuple) -> list:
    return [(customer_id, name)
            for customer_id, name, region, limit in tables["CUSTOMERS"]
            if region == "WEST" and limit is not None and limit > 500]


def _customer_payments(tables: dict):
    """Inner join CUSTOMERS x PAYMENTS on CUSTOMERID = CUSTID."""
    return [(customer, payment)
            for customer in tables["CUSTOMERS"]
            for payment in tables["PAYMENTS"]
            if customer[0] == payment[1]]


def demo_join(tables: dict, params: tuple) -> list:
    rows = [(customer[1], payment[2])
            for customer, payment in _customer_payments(tables)
            if payment[2] is not None and payment[2] > 50]
    return sorted(rows, key=lambda row: row[1], reverse=True)


def demo_group(tables: dict, params: tuple) -> list:
    payments = defaultdict(list)
    for customer, payment in _customer_payments(tables):
        payments[customer[2]].append(payment[2])
    rows = [(region, len(values), _sum(values))
            for region, values in payments.items() if len(values) > 1]
    return sorted(rows, key=lambda row: row[1], reverse=True)


def demo_nested(tables: dict, params: tuple) -> list:
    average = _average(payment[2] for payment in tables["PAYMENTS"])
    west = {customer[1] for customer in tables["CUSTOMERS"]
            if customer[2] == "WEST"}
    totals = defaultdict(list)
    for customer in tables["CUSTOMERS"]:
        totals[customer[1]].extend(
            payment[2] for payment in tables["PAYMENTS"]
            if payment[1] == customer[0])
    rows = []
    for name, values in totals.items():
        total = _sum(values)
        if (total is not None and total > average) or name in west:
            rows.append((name, total))
    return sorted(rows)
