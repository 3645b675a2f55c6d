"""Seeded generative DML fuzzer for the write-path differential.

Builds on the read fuzzer's generated schemas (``sqlgen.generate_schema``
— random tables, typed columns, NULL-heavy rows) and derives *scripts*
from one integer seed: interleaved INSERT/UPDATE/DELETE statements,
full-table read checkpoints, and transaction demarcation points
(``begin`` ... ``commit``/``rollback``). The differential harness runs a
script statement-by-statement on two legs and demands identical
rowcounts, identical error classes, identical checkpoint rows, and an
identical final state — ``lastrowid`` is deliberately excluded (it is
backend-defined).

The generator aims at the write path's decision surface: column-list vs
positional INSERTs, multi-row VALUES, parameter markers, NULLs,
expression-valued SET items (including column references), WHERE shapes
the planner evaluates row-by-row (comparisons, IS NULL, IN, OR, NOT),
multi-conjunct ``AND`` chains of the shapes victim selection pushes to
the source (``col op value`` either way round, ``IS [NOT] NULL``,
``IN``), whole-table UPDATE/DELETE, and deliberately ill-typed values
that must fail with the same error class on every leg.

Pushdown narrows the rows a conjunct is evaluated on (DESIGN §14), so
an ill-typed conjunct may raise with pushdown off and not with it on
when only excluded rows would trip it. The generator therefore puts an
ill-typed conjunct only *after* a selective prefix that is never
UNKNOWN (``col IS NOT NULL AND col = v AND <ill-typed>``): both ways
evaluate it on exactly the rows where ``col = v``, so the legs agree
statement by statement and scripts stay in lockstep. The divergent
order is pinned by a hand-written test instead
(``tests/engine/test_dml_victims.py``).
"""

from __future__ import annotations

import random

from .sqlgen import FuzzTable, _value

#: Weights for one script step.
_STEP_KINDS = ("insert", "insert", "update", "update", "delete", "read")


class MutationFuzzer:
    """Generates one DML script (a list of ops) over a generated schema.

    Ops:

    * ``("dml", sql, params)`` — one INSERT/UPDATE/DELETE
    * ``("read", sql)`` — a full-table ordered checkpoint SELECT
    * ``("begin",)`` / ``("commit",)`` / ``("rollback",)``
    """

    def __init__(self, seed: int, schema: tuple):
        self._rng = random.Random(("dml", seed).__repr__())
        self._schema = schema

    # -- values -------------------------------------------------------------

    def _literal(self, kind: str) -> tuple:
        value = _value(self._rng, kind, 0.15)
        if value is None:
            return "NULL", None
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

    def _operand(self, kind: str, params: list,
                 wrong_rate: float = 0.06) -> str:
        """A literal, a ``?`` parameter, or (rarely) a wrong-kind value
        that must fail type coercion identically on every leg."""
        rng = self._rng
        if rng.random() < wrong_rate:
            wrong = rng.choice([k for k in ("int", "string", "decimal",
                                            "date") if k != kind])
            text, value = self._literal(wrong)
            if value is None:  # NULL is well-typed everywhere; retry
                return self._operand(kind, params, wrong_rate)
            if rng.random() < 0.5:
                params.append(value)
                return "?"
            return text
        text, value = self._literal(kind)
        if rng.random() < 0.25:
            params.append(value)
            return "?"
        return text

    # -- predicates ---------------------------------------------------------

    def _sargable(self, table: FuzzTable, params: list) -> str:
        """One well-typed conjunct of a shape the sources accept."""
        rng = self._rng
        column = rng.choice(table.columns)
        roll = rng.random()
        if roll < 0.2:
            negated = "NOT " if rng.random() < 0.5 else ""
            return f"{column.name} IS {negated}NULL"
        if roll < 0.4:
            members = ", ".join(self._literal(column.kind)[0]
                                for _ in range(rng.randint(1, 3)))
            return f"{column.name} IN ({members})"
        op = rng.choice(("=", "=", "<>", "<", "<=", ">", ">="))
        value = self._operand(column.kind, params, wrong_rate=0.0)
        if rng.random() < 0.3:
            return f"{value} {op} {column.name}"
        return f"{column.name} {op} {value}"

    def _conjunction(self, table: FuzzTable, params: list) -> str:
        """A top-level AND chain; a third of them end in an ill-typed
        conjunct behind a never-UNKNOWN selective prefix (see the
        module docstring for why that order and no other)."""
        rng = self._rng
        if rng.random() < 0.33:
            column = rng.choice(table.columns)
            value = self._operand(column.kind, params, wrong_rate=0.0)
            other = rng.choice(table.columns)
            bad = self._operand(other.kind, params, wrong_rate=1.0)
            return (f"{column.name} IS NOT NULL AND {column.name} = "
                    f"{value} AND {other.name} = {bad}")
        return " AND ".join(self._sargable(table, params)
                            for _ in range(rng.randint(2, 3)))

    def _where(self, table: FuzzTable, params: list) -> str:
        rng = self._rng
        if rng.random() < 0.3:
            return self._conjunction(table, params)
        column = rng.choice(table.columns)
        roll = rng.random()
        if roll < 0.15:
            negated = "NOT " if rng.random() < 0.5 else ""
            return f"{column.name} IS {negated}NULL"
        if roll < 0.3:
            members = ", ".join(self._literal(column.kind)[0]
                                for _ in range(rng.randint(1, 3)))
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{column.name} {negated}IN ({members})"
        op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
        base = f"{column.name} {op} {self._operand(column.kind, params)}"
        if roll < 0.42:
            other = rng.choice(table.columns)
            extra = (f"{other.name} = "
                     f"{self._operand(other.kind, params)}")
            return f"({base} OR {extra})"
        if roll < 0.5:
            return f"NOT ({base})"
        return base

    # -- statements ---------------------------------------------------------

    def _insert(self, table: FuzzTable) -> tuple:
        rng = self._rng
        params: list = []
        if rng.random() < 0.5:
            columns = list(table.columns)
            rng.shuffle(columns)
            columns = columns[:rng.randint(1, len(columns))]
            column_list = f" ({', '.join(c.name for c in columns)})"
        else:
            columns = list(table.columns)
            column_list = ""
        n_rows = rng.choice((1, 1, 1, 2, 3))
        rows = []
        for _ in range(n_rows):
            rows.append("(" + ", ".join(
                self._operand(c.kind, params) for c in columns) + ")")
        sql = (f"INSERT INTO {table.name}{column_list} "
               f"VALUES {', '.join(rows)}")
        return "dml", sql, tuple(params)

    def _update(self, table: FuzzTable) -> tuple:
        rng = self._rng
        params: list = []
        targets = list(table.columns)
        rng.shuffle(targets)
        assignments = []
        for column in targets[:rng.randint(1, min(2, len(targets)))]:
            if rng.random() < 0.2:
                source = rng.choice([c for c in table.columns
                                     if c.kind == column.kind])
                assignments.append(f"{column.name} = {source.name}")
            else:
                assignments.append(
                    f"{column.name} = "
                    f"{self._operand(column.kind, params)}")
        sql = f"UPDATE {table.name} SET {', '.join(assignments)}"
        if rng.random() < 0.85:
            sql += f" WHERE {self._where(table, params)}"
        return "dml", sql, tuple(params)

    def _delete(self, table: FuzzTable) -> tuple:
        rng = self._rng
        params: list = []
        sql = f"DELETE FROM {table.name}"
        if rng.random() < 0.85:
            sql += f" WHERE {self._where(table, params)}"
        return "dml", sql, tuple(params)

    def _read(self, table: FuzzTable) -> tuple:
        # ORDER BY every column keeps the checkpoint deterministic on
        # both legs regardless of physical row order (memory keeps
        # arrival order, SQLite scans in rowid order).
        order = ", ".join(c.name for c in table.columns)
        return ("read",
                f"SELECT * FROM {table.name} ORDER BY {order}")

    # -- scripts ------------------------------------------------------------

    def statement(self) -> tuple:
        """One weighted random op over a random table."""
        table = self._rng.choice(self._schema)
        kind = self._rng.choice(_STEP_KINDS)
        if kind == "insert":
            return self._insert(table)
        if kind == "update":
            return self._update(table)
        if kind == "delete":
            return self._delete(table)
        return self._read(table)

    def script(self, min_dml: int = 10) -> list:
        """A full script: autocommit stretches interleaved with explicit
        transaction blocks (roughly half of which roll back), read
        checkpoints sprinkled throughout, and a final checkpoint of
        every table. At least *min_dml* DML statements."""
        rng = self._rng
        ops: list = []
        dml = 0
        while dml < min_dml:
            if rng.random() < 0.4:
                ops.append(("begin",))
                for _ in range(rng.randint(1, 4)):
                    op = self.statement()
                    ops.append(op)
                    dml += op[0] == "dml"
                ops.append(("rollback",) if rng.random() < 0.5
                           else ("commit",))
                # A checkpoint right after the block proves rollback
                # restored (or commit kept) the pre-block state.
                ops.append(self._read(rng.choice(self._schema)))
            else:
                for _ in range(rng.randint(1, 3)):
                    op = self.statement()
                    ops.append(op)
                    dml += op[0] == "dml"
        for table in self._schema:
            ops.append(self._read(table))
        return ops
