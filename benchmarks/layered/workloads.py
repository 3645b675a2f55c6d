"""The five workloads: data, statement classes, seeded statement stream.

A workload is a set-up function (timed as ``setup_s``), a tuple of
statement classes and a cycle shape. ``cycles(workload, seed)`` is the
whole input: the same seed yields the same SQL texts and parameters in
the same order; the program under test sees nothing else.

``repro`` is imported inside the set-up functions: ``run.py`` puts
``src/`` on the path only after checking that it is there.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterator, Optional

import reference
from remote import ROWS as REMOTE_ROWS, ServerProcess

REGIONS = ("WEST", "EAST", "NORTH", "SOUTH")
#: Every 10th FACTS row has a NULL AMOUNT, and only even IDs can be such
#: rows: WEST and NORTH (even IDs) hold equally many, EAST and SOUTH
#: none. Statements that read AMOUNT draw their region from this pair,
#: so that each value is the same amount of work.
EVEN_REGIONS = ("WEST", "NORTH")
MIXED_ROWS = 5_000


@dataclass(frozen=True)
class StatementClass:
    """One kind of statement. *sql* may hold ``{a}`` ``{b}`` ``{k}``
    (fresh aliases and a never-matching literal, ``adhoc_small``);
    *domain* lists every tuple of ``?`` values the seed may pick (None:
    *draw* picks from a domain too large to list); *expected* is the
    plain-Python reference; *tables* are the tables the statement
    reads; the class runs *burst* times back to back when its turn
    comes in a cycle."""

    name: str
    sql: str
    expected: Callable[[dict, tuple], list]
    domain: Optional[tuple] = ((),)
    draw: Optional[Callable[[random.Random], tuple]] = None
    ordered: bool = False
    tables: tuple = ("FACTS",)
    burst: int = 1

    def parameters(self, rng: random.Random) -> tuple:
        if self.domain is None:
            return self.draw(rng)
        return rng.choice(self.domain)


@dataclass
class Statement:
    """One statement of the stream. *bucket* names the latency metric
    its time lands in (None: counted in the totals only). A write
    carries *apply*, which makes the same change to the reference row
    model, and expects ``rowcount == 1``. *follows* marks the second
    and later statements of a burst."""

    cls: StatementClass
    sql: str
    params: tuple
    bucket: Optional[str]
    apply: Optional[Callable[[dict], None]] = None
    follows: bool = False

    @property
    def write(self) -> bool:
        return self.apply is not None


class Session:
    """What set-up produces: an open connection, plus the runtime behind
    it (embedded), the server child (remote) and the Storage whose rows
    the reference reads (None: rebuild from the workload's scale)."""

    def __init__(self, connection, runtime=None, server=None, storage=None):
        self.connection = connection
        self.runtime = runtime
        self.server = server
        self.storage = storage

    def close(self) -> None:
        try:
            self.connection.close()
        finally:
            if self.runtime is not None:
                self.runtime.close()
            if self.server is not None:
                self.server.stop()


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    open: Callable[[], Session]
    #: Scale of the FACTS table (None: the demo application).
    rows: Optional[int] = None
    #: Rows are pulled page by page over the wire.
    remote: bool = False
    #: Each cycle starts with one DML statement.
    writes: bool = False
    #: The warm-up runs at least this many statements.
    warm_statements: int = 0
    #: A full collection runs before each statement (``run_cycle``).
    collect: bool = True


# -- statement classes --------------------------------------------------------

#: ``point`` takes under a millisecond: a burst of it costs nothing
#: beside statements of tens or hundreds, gives its median as many
#: samples as the busier classes have, and lets all but the first run
#: on the processor caches a client issuing lookups would find, not on
#: the ones the collection before each turn (see ``run_cycle``) has
#: just emptied.
POINT_BURST = 8


def _scaled_classes(rows: int) -> dict:
    """The scan/filter/join/group/point classes over FACTS/DETAILS.
    Parameter domains are small and chosen so every value selects
    (nearly) the same number of rows: a seed changes which rows come
    back, not how much work a statement is."""
    return {cls.name: cls for cls in (
        StatementClass("scan", "SELECT * FROM FACTS",
                       reference.scaled_scan),
        StatementClass(
            "filter",
            "SELECT ID, NAME, AMOUNT FROM FACTS "
            "WHERE REGION = ? AND AMOUNT > ?",
            reference.scaled_filter,
            tuple((region, floor) for region in EVEN_REGIONS
                  for floor in (49, 50, 51))),
        StatementClass(
            "join",
            "SELECT F.ID, F.NAME, D.DETAILID, D.QTY FROM FACTS F "
            "INNER JOIN DETAILS D ON F.ID = D.FACTID WHERE F.REGION = ?",
            reference.scaled_join,
            tuple((region,) for region in REGIONS),
            tables=("FACTS", "DETAILS")),
        StatementClass(
            "group",
            "SELECT NAME, COUNT(*), SUM(AMOUNT) FROM FACTS "
            "WHERE REGION <> ? GROUP BY NAME",
            reference.scaled_group,
            tuple((region,) for region in EVEN_REGIONS)),
        StatementClass(
            "point",
            "SELECT ID, NAME, REGION, AMOUNT FROM FACTS WHERE ID = ?",
            reference.scaled_point,
            domain=None, draw=lambda rng: (rng.randrange(rows),),
            burst=POINT_BURST),
    )}


def _report_classes(rows: int) -> tuple:
    classes = _scaled_classes(rows)
    return tuple(classes[name]
                 for name in ("scan", "filter", "join", "group", "point"))


_SHAPES_CLASSES = (
    StatementClass(
        "group",
        "SELECT F.REGION, COUNT(*), SUM(D.QTY) FROM FACTS F "
        "INNER JOIN DETAILS D ON F.ID = D.FACTID GROUP BY F.REGION "
        "HAVING COUNT(*) > ? ORDER BY 1",
        reference.shapes_group, ((10,), (20,), (30,)),
        ordered=True, tables=("FACTS", "DETAILS")),
    StatementClass(
        "nested",
        "SELECT INFO.ID, INFO.TOTAL FROM (SELECT F.ID ID, SUM(D.QTY) TOTAL "
        "FROM FACTS F LEFT OUTER JOIN DETAILS D ON F.ID = D.FACTID "
        "GROUP BY F.ID) AS INFO "
        "WHERE INFO.TOTAL > (SELECT AVG(QTY) FROM DETAILS) "
        "OR INFO.ID IN (SELECT ID FROM FACTS WHERE REGION = ?) "
        "ORDER BY INFO.ID",
        reference.shapes_nested,
        tuple((region,) for region in REGIONS),
        ordered=True, tables=("FACTS", "DETAILS")),
    StatementClass(
        "subq",
        "SELECT F.ID, F.NAME FROM FACTS F "
        "WHERE F.AMOUNT > (SELECT AVG(AMOUNT) FROM FACTS) "
        "OR F.ID IN (SELECT FACTID FROM DETAILS WHERE QTY = ?) "
        "ORDER BY F.ID",
        reference.shapes_subq, ((3,), (4,), (5,)),
        ordered=True, tables=("FACTS", "DETAILS")),
)

#: repro.workloads.COMPLEXITY_CLASSES C1..C5 with fresh aliases and one
#: conjunct no row fails, so every text is new to both caches while the
#: result stays the class's fixed row set.
_ADHOC_CLASSES = (
    StatementClass(
        "scan", "SELECT * FROM CUSTOMERS {a} WHERE {a}.CUSTOMERID <> {k}",
        reference.demo_scan, tables=("CUSTOMERS",)),
    StatementClass(
        "filter",
        "SELECT {a}.CUSTOMERID, {a}.CUSTOMERNAME FROM CUSTOMERS {a} "
        "WHERE {a}.REGION = 'WEST' AND {a}.CREDITLIMIT > 500 "
        "AND {a}.CUSTOMERID <> {k}",
        reference.demo_filter, tables=("CUSTOMERS",)),
    StatementClass(
        "join",
        "SELECT {a}.CUSTOMERNAME, {b}.PAYMENT FROM CUSTOMERS {a} "
        "INNER JOIN PAYMENTS {b} ON {a}.CUSTOMERID = {b}.CUSTID "
        "WHERE {b}.PAYMENT > 50 AND {a}.CUSTOMERID <> {k} "
        "ORDER BY {b}.PAYMENT DESC",
        reference.demo_join, ordered=True,
        tables=("CUSTOMERS", "PAYMENTS")),
    StatementClass(
        "group",
        "SELECT {a}.REGION, COUNT(*), SUM({b}.PAYMENT) FROM CUSTOMERS {a} "
        "INNER JOIN PAYMENTS {b} ON {a}.CUSTOMERID = {b}.CUSTID "
        "WHERE {a}.CUSTOMERID <> {k} "
        "GROUP BY {a}.REGION HAVING COUNT(*) > 1 ORDER BY 2 DESC",
        reference.demo_group, ordered=True,
        tables=("CUSTOMERS", "PAYMENTS")),
    StatementClass(
        "nested",
        "SELECT {a}.NAME, {a}.TOTAL FROM "
        "(SELECT C.CUSTOMERNAME NAME, SUM(P.PAYMENT) TOTAL "
        "FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P "
        "ON C.CUSTOMERID = P.CUSTID WHERE C.CUSTOMERID <> {k} "
        "GROUP BY C.CUSTOMERNAME) AS {a} "
        "WHERE {a}.TOTAL > (SELECT AVG(PAYMENT) FROM PAYMENTS) "
        "OR {a}.NAME IN (SELECT CUSTOMERNAME FROM CUSTOMERS "
        "WHERE REGION = 'WEST') ORDER BY {a}.NAME",
        reference.demo_nested, ordered=True,
        tables=("CUSTOMERS", "PAYMENTS")),
)


# -- set-up -------------------------------------------------------------------

def _open_adhoc() -> Session:
    from repro import connect
    from repro.workloads import build_runtime
    runtime = build_runtime(backend="memory")
    return Session(connect(runtime), runtime, storage=runtime.storage)


def _open_scaled(rows: int) -> Callable[[], Session]:
    def open_() -> Session:
        from repro import connect
        from repro.workloads import build_scaled_runtime
        runtime = build_scaled_runtime(rows)
        return Session(connect(runtime), runtime, storage=runtime.storage)
    return open_


def _open_mixed() -> Session:
    from repro import connect
    from repro.catalog import Application
    from repro.engine import DSPRuntime, import_tables
    from repro.sources.sqlite import SQLiteSource
    from repro.workloads import build_scaled_storage
    from repro.workloads.scaling import APPLICATION, PROJECT
    storage = build_scaled_storage(MIXED_ROWS)
    source = SQLiteSource.from_storage(storage)
    application = Application(APPLICATION)
    import_tables(application, PROJECT, source)
    runtime = DSPRuntime(application, source)
    return Session(connect(runtime), runtime, storage=storage)


def _open_remote() -> Session:
    from repro import connect
    server = ServerProcess.start()
    try:
        return Session(connect(server.dsn), server=server)
    except BaseException:
        server.stop()
        raise


WORKLOADS = {workload.name: workload for workload in (
    # 300 new texts fill the 256-entry statement and plan caches: the
    # workload is about caches that miss *and evict*, and what they hold
    # (150 MB) must not depend on how many statements a run gets to.
    Workload("adhoc_small", _ADHOC_CLASSES, _open_adhoc,
             warm_statements=300, collect=False),
    Workload("report_50k", _report_classes(50_000), _open_scaled(50_000),
             rows=50_000),
    Workload("shapes_200", _SHAPES_CLASSES, _open_scaled(200), rows=200),
    Workload("remote_paged", _report_classes(REMOTE_ROWS), _open_remote,
             rows=REMOTE_ROWS, remote=True),
    Workload("mixed_rw",
             tuple(_scaled_classes(MIXED_ROWS)[name]
                   for name in ("filter", "point", "group")),
             _open_mixed, rows=MIXED_ROWS, writes=True),
)}


def reference_tables(workload: Workload, session: Session) -> dict:
    """Copies of the generated tables' row lists for the reference (and,
    for ``mixed_rw``, the row model the writes are replayed on)."""
    storage = session.storage
    if storage is None:
        from repro.workloads import build_scaled_storage
        storage = build_scaled_storage(workload.rows)
    return {name: list(storage.table(name).rows)
            for name in storage.table_names()}


# -- fetching -----------------------------------------------------------------

PAGE_ROWS = 1000


def fetch_rows(cursor, paged: bool) -> tuple:
    """Drain *cursor*: ``fetchone()``, then ``fetchall()`` (embedded) or
    ``fetchmany(1000)`` pages until empty (remote). Returns (rows,
    ``perf_counter()`` at the first row, pages as received)."""
    head = cursor.fetchone()
    first_at = time.perf_counter()
    if head is None:
        return [], first_at, []
    pages = [[head]]
    if paged:
        while True:
            page = cursor.fetchmany(PAGE_ROWS)
            if not page:
                break
            pages.append(page)
    else:
        pages.append(cursor.fetchall())
    return [row for page in pages for row in page], first_at, pages


# -- the statement stream -----------------------------------------------------

_WRITE = StatementClass("write", "", lambda tables, params: [])


def _write_statement(rng: random.Random, index: int, rows: int) -> Statement:
    """Cycle *index*'s DML: INSERT one row, UPDATE one original row,
    DELETE the row inserted two cycles earlier — the table stays at
    *rows* or *rows* + 1."""
    amount = Decimal(rng.randrange(10_000)) / 100
    kind = index % 3
    if kind == 0:
        row = (1_000_000 + index, "Inserted", rng.choice(REGIONS), amount)

        def apply(tables: dict) -> None:
            tables["FACTS"].append(row)
        return Statement(
            _WRITE, "INSERT INTO FACTS (ID, NAME, REGION, AMOUNT) "
            "VALUES (?, ?, ?, ?)", row, "write", apply)
    if kind == 1:
        target = rng.randrange(rows)

        def apply(tables: dict) -> None:
            facts = tables["FACTS"]
            at = next(i for i, fact in enumerate(facts)
                      if fact[0] == target)
            facts[at] = facts[at][:3] + (amount,)
        return Statement(
            _WRITE, "UPDATE FACTS SET AMOUNT = ? WHERE ID = ?",
            (amount, target), "write", apply)
    victim = 1_000_000 + index - 2

    def apply(tables: dict) -> None:
        facts = tables["FACTS"]
        del facts[next(i for i, fact in enumerate(facts)
                       if fact[0] == victim)]
    return Statement(_WRITE, "DELETE FROM FACTS WHERE ID = ?",
                     (victim,), "write", apply)


def cycles(workload: Workload, seed: int) -> Iterator[list]:
    """The endless, seed-determined stream of cycles. A read-only cycle
    runs the workload's classes (``point`` as a burst of eight) in
    shuffled order. A ``writes`` cycle is one DML statement then three
    shuffled passes over the classes; the first pass re-plans and
    re-scans after the write, so it opens with ``filter`` (the
    ``reread`` sample) and its other statements stay out of the warm
    class medians."""
    rng = random.Random(f"{workload.name}/{seed}")
    serial = itertools.count(1000)

    def burst(cls: StatementClass, bucket: Optional[str]) -> list:
        statements = []
        for position in range(cls.burst):
            sql = cls.sql.format(a=f"A{rng.randrange(10**6)}",
                                 b=f"B{rng.randrange(10**6)}",
                                 k=next(serial))
            statements.append(Statement(cls, sql, cls.parameters(rng),
                                        bucket, follows=position > 0))
        return statements

    for index in itertools.count():
        if not workload.writes:
            order = list(workload.classes)
            rng.shuffle(order)
            yield [statement for cls in order
                   for statement in burst(cls, cls.name)]
            continue
        statements = [_write_statement(rng, index, workload.rows)]
        for pass_ in range(3):
            order = list(workload.classes)
            rng.shuffle(order)
            if pass_ == 0:
                order.sort(key=lambda cls: cls.name != "filter")
            for cls in order:
                if pass_:
                    bucket = cls.name
                else:
                    bucket = "reread" if cls.name == "filter" else None
                statements.extend(burst(cls, bucket))
        yield statements
