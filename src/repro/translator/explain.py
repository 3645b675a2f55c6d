"""EXPLAIN: human-readable views of the translation pipeline.

Renders the artifacts the paper draws as figures — the query-context tree
(Figure 4) and the mapping of resultset nodes to SQL views (Figure 3) —
plus the computed result schema, so translations can be inspected without
reading generated XQuery.
"""

from __future__ import annotations

from io import StringIO

from .rsn import DerivedRSN, JoinRSN, RSN, TableRSN
from .stage1 import QueryContext
from .stage2 import BoundQuery, BoundSelect, BoundSetOp, TranslationUnit


def explain(unit: TranslationUnit,
            stage_timings: dict[str, float] | None = None,
            plan_reports: list | None = None,
            actuals: dict | None = None,
            executor: str | None = None) -> str:
    """A full report: contexts, RSN tree, result schema, parameters,
    and — when *stage_timings* (``TranslationResult.stage_timings``) is
    given — the per-stage wall time of the translation.

    *plan_reports* (``CompiledQuery.plan_reports``) adds the cost-based
    execution plan: one line per pipeline node with its estimated
    output rows, and under a FLWOR whose RECORDs are read, how each
    cell read crosses that boundary (``record cells:``, typed or as a
    view, and by which consumer); *actuals* (the dict filled by an
    execution) adds the observed counts next to the estimates; *executor*
    (``CompiledQuery.executor``) says which executor runs the plan and,
    for the Evaluator, why the batched one declined."""
    out = StringIO()
    out.write("QUERY CONTEXTS (stage 1)\n")
    _write_context(unit.stage1.root_context, out, indent=0)
    out.write("\nRESULTSET NODES (stage 2)\n")
    _write_query(unit.bound, out, indent=0)
    out.write("\nRESULT SCHEMA\n")
    for position, column in enumerate(unit.bound.result_columns, start=1):
        nullable = "NULL" if column.nullable else "NOT NULL"
        out.write(f"  {position}. {column.label} {column.sql_type} "
                  f"{nullable}  (element <{column.element}>)\n")
    if unit.param_types:
        out.write("\nPARAMETERS\n")
        for index in sorted(unit.param_types):
            out.write(f"  ?{index} -> $p{index} "
                      f"({unit.param_types[index]})\n")
    if executor:
        out.write(f"\nexecutor: {executor}\n")
    if plan_reports:
        out.write("\nEXECUTION PLAN (cost-based)\n")
        for report in plan_reports:
            for node in report["nodes"]:
                estimate = node["estimate"]
                est = "?" if estimate is None else f"{estimate:.1f}"
                fid, index = node["id"]
                line = (f"  [{fid}.{index}] {node['label']}"
                        f"  est={est} rows")
                if actuals is not None:
                    line += f"  actual={actuals.get(node['id'], 0)}"
                out.write(line + "\n")
            if report.get("boundary"):
                out.write("      record cells: " + ", ".join(
                    f"{cell} {mode} ({consumer})"
                    for cell, mode, consumer in report["boundary"]) + "\n")
    if stage_timings:
        out.write("\nSTAGE TIMINGS\n")
        # "compile" (the XQuery compile time) is present
        # once the statement has been executed; translate-only results
        # carry the three translation stages plus the total.
        for stage in ("stage1", "stage2", "stage3", "compile", "total"):
            if stage in stage_timings:
                out.write(f"  {stage}: "
                          f"{stage_timings[stage] * 1000:.3f} ms\n")
    return out.getvalue()


def _write_context(context: QueryContext, out: StringIO,
                   indent: int) -> None:
    pad = "  " * indent
    flags = []
    if context.has_aggregates:
        flags.append("aggregates")
    if context.is_grouped:
        flags.append("grouped")
    if not context.correlatable:
        flags.append("no-correlation")
    suffix = f" [{', '.join(flags)}]" if flags else ""
    out.write(f"{pad}{context.describe()}{suffix}\n")
    for child in context.children:
        _write_context(child, out, indent + 1)


def _write_query(bound: BoundQuery, out: StringIO, indent: int) -> None:
    _write_body(bound.body, out, indent)
    if bound.order_by:
        pad = "  " * indent
        keys = []
        for sort in bound.order_by:
            direction = "" if sort.ascending else " DESC"
            if sort.item_index is not None:
                keys.append(f"#{sort.item_index + 1}{direction}")
            else:
                keys.append(f"<expr>{direction}")
        out.write(f"{pad}order by: {', '.join(keys)}\n")


def _write_body(body, out: StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(body, BoundSetOp):
        all_flag = " ALL" if body.all else ""
        out.write(f"{pad}set-op RSN: {body.op}{all_flag}\n")
        _write_body(body.left, out, indent + 1)
        _write_body(body.right, out, indent + 1)
        return
    assert isinstance(body, BoundSelect)
    flags = []
    if body.distinct:
        flags.append("DISTINCT")
    if body.is_grouped:
        flags.append(f"grouped({len(body.group_by)} key(s))")
    suffix = f" [{', '.join(flags)}]" if flags else ""
    out.write(f"{pad}query RSN (CTX{body.context.id}){suffix}: "
              f"{len(body.items)} column(s)\n")
    for rsn in body.scope.rsns:
        _write_rsn(rsn, out, indent + 1)


def _write_rsn(rsn: RSN, out: StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(rsn, TableRSN):
        meta = rsn.metadata
        alias = f" AS {rsn.alias}" if rsn.alias else ""
        out.write(f"{pad}table RSN: {meta.schema}.{meta.table}{alias} "
                  f"-> {meta.function_name}() "
                  f"[{len(meta.columns)} column(s)]\n")
        return
    if isinstance(rsn, DerivedRSN):
        out.write(f"{pad}subquery RSN: AS {rsn.alias}\n")
        _write_query(rsn.bound_query, out, indent + 1)
        return
    assert isinstance(rsn, JoinRSN)
    out.write(f"{pad}join RSN: {rsn.kind}\n")
    _write_rsn(rsn.left, out, indent + 1)
    _write_rsn(rsn.right, out, indent + 1)
