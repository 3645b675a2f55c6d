"""Stage one: SQL recognition, AST construction, and context capture.

Paper section 3.4.1: "The first stage performs the SQL recognition and
builds an abstract syntax tree of nodes representing the SQL query ... At
this stage, all of the context information useful for further processing
is captured."

The AST itself comes from ``repro.sql.parser``; this module adds the
*query contexts* of section 3.4.3: one context per query block (the
outermost scope is the CTX0 marker), each holding identification, parent
links, and the per-query information later stages consult (aggregate
presence, select items, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sql import ast, parse_statement


@dataclass
class QueryContext:
    """Per-query-block context (paper Figure 4).

    ``id`` 0 is the marker context for the outermost scope; real query
    blocks are numbered from 1 in discovery (depth-first) order.
    """

    id: int
    parent: Optional["QueryContext"] = None
    select: Optional[ast.Select] = None
    query: Optional[ast.Query] = None
    has_aggregates: bool = False
    is_grouped: bool = False
    correlatable: bool = True  # False for derived tables (SQL-92 7.11)
    children: list["QueryContext"] = field(default_factory=list)

    def describe(self) -> str:
        kind = "marker" if self.select is None and self.id == 0 else "query"
        return f"CTX{self.id} ({kind})"


@dataclass
class Stage1Result:
    """Output of stage one: the AST plus its captured contexts."""

    query: ast.Query
    root_context: QueryContext           # the CTX0 marker
    contexts: list[QueryContext]         # all contexts, by id
    select_context: dict[int, QueryContext]  # id(Select node) -> context

    def context_of(self, select: ast.Select) -> QueryContext:
        return self.select_context[id(select)]


class _ContextBuilder:
    def __init__(self):
        self.contexts: list[QueryContext] = []
        self.select_context: dict[int, QueryContext] = {}

    def build(self, query: ast.Query) -> Stage1Result:
        marker = QueryContext(id=0)
        self.contexts.append(marker)
        self._visit_query(query, marker, correlatable=True)
        return Stage1Result(query=query, root_context=marker,
                            contexts=self.contexts,
                            select_context=self.select_context)

    def _new_context(self, parent: QueryContext,
                     correlatable: bool) -> QueryContext:
        context = QueryContext(id=len(self.contexts), parent=parent,
                               correlatable=correlatable)
        parent.children.append(context)
        self.contexts.append(context)
        return context

    def _visit_query(self, query: ast.Query, parent: QueryContext,
                     correlatable: bool) -> None:
        self._visit_body(query.body, parent, correlatable, query)

    def _visit_body(self, body: ast.QueryBody, parent: QueryContext,
                    correlatable: bool,
                    query: ast.Query | None) -> None:
        if isinstance(body, ast.SetOp):
            self._visit_body(body.left, parent, correlatable, None)
            self._visit_body(body.right, parent, correlatable, None)
            return
        assert isinstance(body, ast.Select)
        context = self._new_context(parent, correlatable)
        context.select = body
        context.query = query
        context.has_aggregates = self._detect_aggregates(body)
        context.is_grouped = bool(body.group_by) or context.has_aggregates
        self.select_context[id(body)] = context
        for table in body.from_clause:
            self._visit_table(table, context)
        for expr in self._expressions_of(body):
            self._visit_expr(expr, context)

    def _expressions_of(self, select: ast.Select):
        for item in select.items:
            if isinstance(item, ast.SelectItem):
                yield item.expr
        if select.where is not None:
            yield select.where
        yield from select.group_by
        if select.having is not None:
            yield select.having

    def _visit_table(self, table: ast.TableExpr,
                     context: QueryContext) -> None:
        if isinstance(table, ast.DerivedTable):
            # Derived tables open a fresh, non-correlatable scope.
            self._visit_query(table.query, context, correlatable=False)
        elif isinstance(table, ast.Join):
            self._visit_table(table.left, context)
            self._visit_table(table.right, context)
            if table.condition is not None:
                self._visit_expr(table.condition, context)

    def _visit_expr(self, expr: ast.Expr, context: QueryContext) -> None:
        for node in ast.walk(expr):
            for subquery in ast.subqueries_of(node):
                self._visit_query(subquery, context, correlatable=True)

    def _detect_aggregates(self, select: ast.Select) -> bool:
        for item in select.items:
            if isinstance(item, ast.SelectItem) and \
                    ast.contains_aggregate(item.expr):
                return True
        if select.having is not None:
            return True
        return False


def run_stage1(sql: str | ast.Query) -> Stage1Result:
    """Parse *sql* (rejecting syntactically invalid input immediately),
    or take a query the engine built (a DML statement's read), and
    capture query contexts."""
    query = parse_statement(sql) if isinstance(sql, str) else sql
    return _ContextBuilder().build(query)
