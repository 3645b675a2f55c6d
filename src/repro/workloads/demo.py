"""The demo application used throughout tests and examples.

Mirrors the paper's running examples: a ``TestDataServices`` project with
CUSTOMERS and PAYMENTS data services (Examples 1-10) plus PO_CUSTOMERS
(Example 11) and an ORDERS table for richer reporting queries. Data is
deterministic and includes NULLs so three-valued-logic paths are always
exercised.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

from ..catalog import Application
from ..engine import DSPRuntime, Storage, import_tables
from ..sql.types import SQLType

PROJECT = "TestDataServices"
APPLICATION = "RTLApp"


def build_storage() -> Storage:
    """Create and populate the demo tables."""
    storage = Storage()

    customers = storage.create_table("CUSTOMERS", [
        ("CUSTOMERID", SQLType("INTEGER")),
        ("CUSTOMERNAME", SQLType("VARCHAR")),
        ("REGION", SQLType("VARCHAR")),
        ("CREDITLIMIT", SQLType("DECIMAL")),
    ])
    customers.insert_many([
        (55, "Joe", "WEST", Decimal("1000.00")),
        (23, "Sue", "EAST", Decimal("2500.50")),
        (7, "Ann", "WEST", None),
        (12, "Bob", "NORTH", Decimal("500.00")),
        (31, "Eve", "EAST", Decimal("1000.00")),
        (44, "Dan", None, Decimal("750.25")),
    ])

    payments = storage.create_table("PAYMENTS", [
        ("PAYMENTID", SQLType("INTEGER")),
        ("CUSTID", SQLType("INTEGER")),
        ("PAYMENT", SQLType("DECIMAL")),
        ("PAYDATE", SQLType("DATE")),
    ])
    payments.insert_many([
        (1, 55, Decimal("100.00"), datetime.date(2005, 1, 10)),
        (2, 23, Decimal("250.00"), datetime.date(2005, 1, 12)),
        (3, 55, Decimal("75.50"), datetime.date(2005, 2, 1)),
        (4, 31, Decimal("10.00"), datetime.date(2005, 2, 14)),
        (5, 99, Decimal("33.00"), datetime.date(2005, 3, 1)),  # orphan
        (6, 23, None, datetime.date(2005, 3, 2)),              # NULL amount
    ])

    po_customers = storage.create_table("PO_CUSTOMERS", [
        ("ORDERID", SQLType("INTEGER")),
        ("CUSTOMERID", SQLType("INTEGER")),
    ])
    po_customers.insert_many([
        (1001, 55), (1002, 55), (1003, 23), (1004, 7), (1005, 55),
        (1006, 31), (1007, 23),
    ])

    orders = storage.create_table("ORDERS", [
        ("ORDERID", SQLType("INTEGER")),
        ("CUSTID", SQLType("INTEGER")),
        ("AMOUNT", SQLType("DECIMAL")),
        ("STATUS", SQLType("VARCHAR")),
        ("ORDERDATE", SQLType("DATE")),
    ])
    orders.insert_many([
        (1001, 55, Decimal("120.00"), "SHIPPED", datetime.date(2005, 1, 5)),
        (1002, 55, Decimal("80.00"), "OPEN", datetime.date(2005, 1, 20)),
        (1003, 23, Decimal("300.00"), "SHIPPED", datetime.date(2005, 2, 2)),
        (1004, 7, Decimal("45.99"), "CANCELLED",
         datetime.date(2005, 2, 10)),
        (1005, 55, Decimal("9.99"), "OPEN", datetime.date(2005, 3, 1)),
        (1006, 31, None, "OPEN", datetime.date(2005, 3, 15)),
        (1007, 23, Decimal("300.00"), "SHIPPED",
         datetime.date(2005, 3, 20)),
    ])

    return storage


def build_runtime(config=None, backend: str | None = None,
                  **runtime_options) -> DSPRuntime:
    """Demo application with one project importing every demo table.

    *backend* picks the physical source the demo tables live in:
    ``"memory"`` (the default) keeps the in-memory :class:`Storage`,
    ``"sqlite"`` copies it into an in-memory SQLite database served
    through :class:`repro.SQLiteSource` (predicate/projection pushdown).
    When omitted, the ``REPRO_DEFAULT_BACKEND`` environment variable
    decides — that is how the CI matrix runs the whole suite against
    the SQLite source. Engine tuning passes via *config* (a
    :class:`repro.RuntimeConfig`); plain keyword options (e.g.
    ``max_concurrent_queries``, ``retry_policy``) are folded in on top.
    """
    from ..config import RuntimeConfig, default_demo_backend

    if backend is None:
        backend = default_demo_backend()
    storage = build_storage()
    if backend == "sqlite":
        from ..sources.sqlite import SQLiteSource

        source = SQLiteSource.from_storage(storage, name="sqlite")
    elif backend == "memory":
        source = storage
    else:
        raise ValueError(
            f"unknown demo backend {backend!r}; expected 'memory' or "
            f"'sqlite'")
    if runtime_options:
        config = (config or RuntimeConfig()).replace(**runtime_options)
    application = Application(APPLICATION)
    import_tables(application, PROJECT, source)
    return DSPRuntime(application, source, config=config)
