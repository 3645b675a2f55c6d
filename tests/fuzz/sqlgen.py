"""Seeded generative SQL fuzzer for the batch-executor differential.

Unlike the workload generator (``repro.workloads.generator``), which
targets the translator's full SQL-92 surface over the fixed demo schema,
this fuzzer generates the *schemas and data too* — random tables with
random column types and NULL-heavy rows — and aims its query grammar at
the vectorized executor's decision surface: projections, sargable and
residual predicates, equi-joins, IN lists, IS [NOT] NULL, parameters,
ORDER BY (ASC/DESC over nullable keys), and LIMIT/OFFSET windows that
straddle batch boundaries. Everything is derived from one integer seed,
so any failing case reproduces from its seed alone.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from decimal import Decimal

KINDS = ("int", "string", "decimal", "date")

SQL_TYPE_NAME = {"int": "INTEGER", "string": "VARCHAR",
                 "decimal": "DECIMAL", "date": "DATE"}

#: Small value pools keep join/predicate hit rates high and include the
#: codec's interesting shapes: empty strings, XML specials, negative and
#: trailing-zero decimals.
_STRINGS = ("alpha", "beta", "gamma", "", "a<b", "x&y", 'q"z',
            "it's", "  pad  ", "ZZ")
_DECIMALS = (Decimal("0"), Decimal("1.50"), Decimal("-3.25"),
             Decimal("10.00"), Decimal("99.99"), Decimal("0.01"))
_DATES = (datetime.date(2005, 1, 10), datetime.date(2005, 2, 14),
          datetime.date(2005, 6, 1), datetime.date(2006, 12, 31))


@dataclass(frozen=True)
class FuzzColumn:
    name: str
    kind: str


@dataclass(frozen=True)
class FuzzTable:
    name: str
    columns: tuple
    rows: tuple


def _value(rng: random.Random, kind: str, null_rate: float):
    if rng.random() < null_rate:
        return None
    if kind == "int":
        return rng.randint(0, 15)
    if kind == "string":
        return rng.choice(_STRINGS)
    if kind == "decimal":
        return rng.choice(_DECIMALS)
    return rng.choice(_DATES)


def generate_schema(seed: int) -> tuple:
    """A deterministic random schema: 2-3 tables, each with an integer
    key/reference column ``K0`` (shared value range, so equi-joins hit)
    plus 1-4 typed payload columns, populated with NULL-heavy rows.
    Table sizes deliberately cover empty, single-row, and multi-batch
    extents."""
    rng = random.Random(("schema", seed).__repr__())
    tables = []
    for t in range(rng.randint(2, 3)):
        columns = [FuzzColumn("K0", "int")]
        for i in range(rng.randint(1, 4)):
            columns.append(FuzzColumn(f"C{i}", rng.choice(KINDS)))
        if t == 0:
            n_rows = rng.randint(5, 45)
        else:
            n_rows = rng.choice((0, 1, rng.randint(2, 12),
                                 rng.randint(13, 45)))
        null_rate = rng.choice((0.1, 0.25, 0.4))
        rows = tuple(
            tuple(_value(rng, c.kind, null_rate) for c in columns)
            for _ in range(n_rows))
        tables.append(FuzzTable(f"F{t}", tuple(columns), rows))
    return tuple(tables)


class QueryFuzzer:
    """Generates queries (sql, params) over a generated schema."""

    def __init__(self, seed: int, schema: tuple):
        self._rng = random.Random(("query", seed).__repr__())
        self._schema = schema

    # -- literals ---------------------------------------------------------

    def _literal(self, kind: str) -> tuple:
        """(sql_text, python_value) for a literal of *kind*."""
        value = _value(self._rng, kind, 0.0)
        if kind == "int":
            return str(value), value
        if kind == "string":
            return "'" + value.replace("'", "''") + "'", value
        if kind == "decimal":
            text = str(value)
            if "." not in text:
                text += ".0"
            return text, value
        return f"DATE '{value.isoformat()}'", value

    def _operand(self, kind: str, params: list) -> str:
        """A literal or a ``?`` parameter of *kind*."""
        text, value = self._literal(kind)
        if self._rng.random() < 0.2:
            params.append(value)
            return "?"
        return text

    # -- predicates -------------------------------------------------------

    def _comparison(self, scope: list, params: list) -> str:
        rng = self._rng
        alias, table = rng.choice(scope)
        column = rng.choice(table.columns)
        op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
        roll = rng.random()
        if roll < 0.2:
            # column-vs-column, same kind (possibly across tables:
            # a residual the planner cannot push or hash).
            others = [(a, t, c) for a, t in scope for c in t.columns
                      if c.kind == column.kind]
            o_alias, _o_table, o_column = rng.choice(others)
            if o_alias == alias and o_column.name == column.name:
                return f"{alias}.{column.name} {op} {alias}.{column.name}"
            return (f"{alias}.{column.name} {op} "
                    f"{o_alias}.{o_column.name}")
        return (f"{alias}.{column.name} {op} "
                f"{self._operand(column.kind, params)}")

    def _predicate(self, scope: list, params: list) -> str:
        rng = self._rng
        roll = rng.random()
        alias, table = rng.choice(scope)
        column = rng.choice(table.columns)
        if roll < 0.12:
            return (f"{alias}.{column.name} IS "
                    f"{'NOT ' if rng.random() < 0.5 else ''}NULL")
        if roll < 0.24:
            members = ", ".join(
                self._literal(column.kind)[0]
                for _ in range(rng.randint(1, 3)))
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{alias}.{column.name} {negated}IN ({members})"
        if roll < 0.36:
            left = self._comparison(scope, params)
            right = self._comparison(scope, params)
            return f"({left} OR {right})"
        if roll < 0.42:
            return f"NOT ({self._comparison(scope, params)})"
        return self._comparison(scope, params)

    # -- aggregates -------------------------------------------------------

    def _aggregate(self, alias: str, table) -> str:
        """One aggregate call: COUNT(*) vs COUNT(col), DISTINCT forms,
        Decimal/int SUM/AVG, and MIN/MAX over every column kind."""
        rng = self._rng
        roll = rng.random()
        if roll < 0.2:
            return "COUNT(*)"
        column = rng.choice(table.columns)
        distinct = "DISTINCT " if rng.random() < 0.25 else ""
        if roll < 0.45:
            return f"COUNT({distinct}{alias}.{column.name})"
        if roll < 0.75:
            numeric = [c for c in table.columns
                       if c.kind in ("int", "decimal")]
            if numeric:
                column = rng.choice(numeric)
                func = rng.choice(("SUM", "AVG"))
                return f"{func}({distinct}{alias}.{column.name})"
            return f"COUNT({alias}.{column.name})"
        func = rng.choice(("MIN", "MAX"))
        return f"{func}({distinct}{alias}.{column.name})"

    def _grouped_query(self) -> tuple:
        """One grouped/aggregate (sql, params) pair. Single-table groups
        exercise the vectorized hash-aggregation stage directly, joined
        groups through a record-set sub-plan, implicit (no GROUP BY)
        aggregates its keyless form.
        NULL-heavy group keys, empty inputs (COUNT=0 vs SUM=NULL),
        HAVING, aggregate/ordinal ORDER BY, and LIMIT windows over the
        group stream are all in the mix."""
        rng = self._rng
        params: list = []
        tables = list(self._schema)
        first = rng.choice(tables)
        scope = [("A", first)]
        from_parts = [f"{first.name} A"]
        where_parts = []
        if len(tables) >= 2 and rng.random() < 0.15:
            # Joined group: outside the vector subset by design.
            second = rng.choice([t for t in tables if t is not first]
                                or tables)
            scope.append(("B", second))
            from_parts.append(f"{second.name} B")
            where_parts.append("A.K0 = B.K0")
        if rng.random() < 0.5:
            where_parts.append(self._predicate(scope, params))

        aggregates = [self._aggregate(*rng.choice(scope))
                      for _ in range(rng.randint(1, 3))]

        group_keys: list = []
        if rng.random() < 0.15:
            # Implicit aggregation: one row over the whole (possibly
            # empty) input.
            projection = aggregates
        else:
            alias, table = rng.choice(scope)
            columns = list(table.columns)
            rng.shuffle(columns)
            group_keys = [f"{alias}.{column.name}"
                          for column in columns[:rng.randint(1, 2)]]
            shown = [key for key in group_keys if rng.random() < 0.8] \
                or [group_keys[0]]
            projection = shown + aggregates
            rng.shuffle(projection)

        sql = [f"SELECT {', '.join(projection)}",
               f"FROM {', '.join(from_parts)}"]
        if where_parts:
            sql.append("WHERE " + " AND ".join(where_parts))
        if group_keys:
            sql.append("GROUP BY " + ", ".join(group_keys))
            if rng.random() < 0.3:
                op = rng.choice((">", ">=", "<", "="))
                sql.append(f"HAVING COUNT(*) {op} {rng.randint(0, 4)}")
            if rng.random() < 0.6:
                order_keys = []
                for _ in range(rng.randint(1, 2)):
                    roll = rng.random()
                    if roll < 0.4:
                        target = rng.choice(projection)
                        order_keys.append(
                            str(projection.index(target) + 1))
                    elif roll < 0.7:
                        order_keys.append(rng.choice(group_keys))
                    else:
                        order_keys.append(
                            self._aggregate(*rng.choice(scope)))
                sql.append("ORDER BY " + ", ".join(
                    key + (" DESC" if rng.random() < 0.4 else "")
                    for key in order_keys))
        if rng.random() < 0.3:
            total = sum(len(t.rows) for _a, t in scope) + 2
            sql.append(f"LIMIT {rng.randint(0, total)}")
            if rng.random() < 0.5:
                sql.append(f"OFFSET {rng.randint(0, total)}")
        return " ".join(sql), tuple(params)

    # -- queries ----------------------------------------------------------

    def query(self) -> tuple:
        """One (sql, params) pair. Grouped/aggregate queries appear
        ~30% of the time; otherwise equi-joins on the shared ``K0``
        columns appear ~40% of the time, with predicates, ORDER BY, and
        LIMIT/OFFSET layered on independently."""
        rng = self._rng
        if rng.random() < 0.3:
            return self._grouped_query()
        params: list = []
        tables = list(self._schema)
        first = rng.choice(tables)
        scope = [("A", first)]
        from_parts = [f"{first.name} A"]
        where_parts = []
        if len(tables) >= 2 and rng.random() < 0.4:
            second = rng.choice([t for t in tables if t is not first]
                                or tables)
            scope.append(("B", second))
            from_parts.append(f"{second.name} B")
            where_parts.append("A.K0 = B.K0")

        columns = [f"{alias}.{column.name}"
                   for alias, table in scope
                   for column in table.columns]
        rng.shuffle(columns)
        projection = columns[:rng.randint(1, min(4, len(columns)))]

        for _ in range(rng.randint(0, 2)):
            where_parts.append(self._predicate(scope, params))

        sql = [f"SELECT {', '.join(projection)}",
               f"FROM {', '.join(from_parts)}"]
        if where_parts:
            sql.append("WHERE " + " AND ".join(where_parts))

        if rng.random() < 0.6:
            keys = []
            for _ in range(rng.randint(1, 2)):
                alias, table = rng.choice(scope)
                column = rng.choice(table.columns)
                direction = " DESC" if rng.random() < 0.4 else ""
                keys.append(f"{alias}.{column.name}{direction}")
            sql.append("ORDER BY " + ", ".join(keys))

        if rng.random() < 0.4:
            total = sum(len(t.rows) for _a, t in scope) + 2
            sql.append(f"LIMIT {rng.randint(0, total)}")
            if rng.random() < 0.5:
                sql.append(f"OFFSET {rng.randint(0, total)}")

        return " ".join(sql), tuple(params)


class ShapedFuzzer(QueryFuzzer):
    """The paper's C4/C5 shapes over the same generated schemas, on a
    seed space of its own (``query()`` of the base class keeps returning
    the same text for every seed — the golden corpus pins 200 of them):
    LEFT / RIGHT / FULL OUTER JOIN on the NULL-heavy, duplicate-rich
    ``K0`` (a side may be empty), derived tables over a join + GROUP BY,
    plain derived tables whose cells cross a RECORD boundary as text
    (``1.50``, ``''`` beside NULL, dates), and uncorrelated scalar / IN
    subqueries under OR."""

    def __init__(self, seed: int, schema: tuple):
        super().__init__(seed, schema)
        self._rng = random.Random(("shaped", seed).__repr__())

    def _two_tables(self) -> tuple:
        tables = list(self._schema)
        first = self._rng.choice(tables)
        second = self._rng.choice([t for t in tables if t is not first])
        return first, second

    def _numeric(self, table):
        columns = [c for c in table.columns
                   if c.kind in ("int", "decimal")]
        return self._rng.choice(columns)

    def _order_limit(self, sql: list, keys: list, rows: int) -> None:
        rng = self._rng
        if rng.random() < 0.7:
            rng.shuffle(keys)
            sql.append("ORDER BY " + ", ".join(
                key + (" DESC" if rng.random() < 0.3 else "")
                for key in keys[:rng.randint(1, 2)]))
        if rng.random() < 0.25:
            sql.append(f"LIMIT {rng.randint(0, rows + 2)}")

    def _outer_join(self) -> tuple:
        rng = self._rng
        params: list = []
        first, second = self._two_tables()
        scope = [("A", first), ("B", second)]
        kind = rng.choice(("LEFT", "LEFT", "LEFT", "RIGHT", "FULL"))
        on = ["A.K0 = B.K0"]
        if rng.random() < 0.3:
            # A second key, or a build-side-only conjunct.
            shared = [c for c in first.columns[1:]
                      if any(c == o for o in second.columns[1:])]
            if shared and rng.random() < 0.5:
                name = rng.choice(shared).name
                on.append(f"A.{name} = B.{name}")
            else:
                on.append(self._comparison([scope[1]], params))
        columns = [f"{alias}.{column.name}" for alias, table in scope
                   for column in table.columns]
        rng.shuffle(columns)
        projection = columns[:rng.randint(2, min(5, len(columns)))]
        sql = [f"SELECT {', '.join(projection)}",
               f"FROM {first.name} A {kind} OUTER JOIN {second.name} B "
               f"ON {' AND '.join(on)}"]
        if rng.random() < 0.4:
            sql.append("WHERE " + self._predicate(scope, params))
        self._order_limit(sql, list(projection),
                          len(first.rows) + len(second.rows))
        return " ".join(sql), tuple(params)

    def _derived_group(self) -> tuple:
        rng = self._rng
        params: list = []
        first, second = self._two_tables()
        scope = [("A", first), ("B", second)]
        key = rng.choice(first.columns)
        join = rng.choice(("INNER JOIN", "LEFT OUTER JOIN"))
        aggregates = ["COUNT(*) N"]
        value = self._numeric(second)
        aggregates.append(
            f"{rng.choice(('SUM', 'MIN', 'MAX', 'AVG', 'COUNT'))}"
            f"(B.{value.name}) V")
        inner = [f"SELECT A.{key.name} G, {', '.join(aggregates)}",
                 f"FROM {first.name} A {join} {second.name} B "
                 f"ON A.K0 = B.K0"]
        if rng.random() < 0.3:
            inner.append("WHERE " + self._predicate(scope, params))
        inner.append(f"GROUP BY A.{key.name}")
        sql = ["SELECT T.G, T.N, T.V", f"FROM ({' '.join(inner)}) AS T"]
        if rng.random() < 0.5:
            sql.append(f"WHERE T.N {rng.choice(('>', '>=', '<', '='))} "
                       f"{rng.randint(0, 3)}")
        self._order_limit(sql, ["T.G", "T.N", "T.V"], len(first.rows))
        return " ".join(sql), tuple(params)

    def _derived_plain(self) -> tuple:
        """Every column kind through a RECORD boundary, then compared
        and printed on the far side."""
        rng = self._rng
        params: list = []
        table = rng.choice(self._schema)
        columns = list(table.columns)
        rng.shuffle(columns)
        columns = columns[:rng.randint(1, len(columns))]
        inner = (f"SELECT {', '.join(f'A.{c.name} {c.name}X' for c in columns)}"
                 f" FROM {table.name} A")
        if rng.random() < 0.4:
            inner += " WHERE " + self._predicate([("A", table)], params)
        sql = [f"SELECT {', '.join(f'T.{c.name}X' for c in columns)}",
               f"FROM ({inner}) AS T"]
        if rng.random() < 0.7:
            column = rng.choice(columns)
            if rng.random() < 0.3:
                sql.append(f"WHERE T.{column.name}X IS "
                           f"{'NOT ' if rng.random() < 0.5 else ''}NULL")
            else:
                op = rng.choice(("=", "<>", "<", ">="))
                sql.append(f"WHERE T.{column.name}X {op} "
                           f"{self._operand(column.kind, params)}")
        self._order_limit(sql, [f"T.{c.name}X" for c in columns],
                          len(table.rows))
        return " ".join(sql), tuple(params)

    def _subqueries(self) -> tuple:
        rng = self._rng
        params: list = []
        first, second = self._two_tables()
        probe = self._numeric(first)
        measured = self._numeric(second)
        func = rng.choice(("AVG", "MAX", "MIN", "SUM"))
        scalar = (f"A.{probe.name} {rng.choice(('>', '<=', '='))} "
                  f"(SELECT {func}({measured.name}) FROM {second.name})")
        if rng.random() < 0.1:
            # Not a scalar at all once the table has two rows: every
            # leg must raise.
            scalar = (f"A.{probe.name} > "
                      f"(SELECT {measured.name} FROM {second.name})")
        member = rng.choice([c for c in second.columns
                             if c.kind == probe.kind] or [second.columns[0]])
        needle = probe if member.kind == probe.kind else first.columns[0]
        members = f"SELECT {member.name} FROM {second.name}"
        if rng.random() < 0.5:
            members += " WHERE " + self._predicate([(second.name, second)],
                                                   params)
        negated = "NOT " if rng.random() < 0.25 else ""
        listed = f"A.{needle.name} {negated}IN ({members})"
        glue = rng.choice(("OR", "OR", "AND"))
        columns = [f"A.{c.name}" for c in first.columns]
        sql = [f"SELECT {', '.join(columns)}", f"FROM {first.name} A",
               f"WHERE {scalar} {glue} {listed}"]
        self._order_limit(sql, columns, len(first.rows))
        return " ".join(sql), tuple(params)

    def shaped_query(self) -> tuple:
        """One (sql, params) pair of one of the four shapes."""
        return self._rng.choice((self._outer_join, self._derived_group,
                                 self._derived_plain, self._subqueries))()
