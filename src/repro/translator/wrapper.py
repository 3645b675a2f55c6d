"""The section-4 result-handling wrapper query.

Rather than shipping XML to the client and parsing it there, the paper
wraps the translated query in a second query that emits delimiter-
separated text: "the original query is wrapped with another query that
returns string data interspersed with column and row delimiters ...
Creating a wrapper query around the original query allows us to maintain
a clean separation between JDBC result handling logic and the more
complex SQL to XQuery translation logic."

Encoding (documented in DESIGN.md; the paper's published fragment leaves
the exact delimiters ambiguous, so we pin them down): every cell is
emitted as

* ``>`` + xml-escaped serialized value   — for a non-NULL value, or
* ``<``                                  — for SQL NULL.

Because cell content is XML-escaped, the characters ``<`` and ``>`` can
never appear inside it, which makes the stream self-delimiting; no row
separator is needed since the decoder knows the column count from the
computed result schema. The decoder lives in ``repro.driver.codec``.
"""

from __future__ import annotations

from ..xquery import ast as xq
from .rsn import ResultColumn

#: Cell prefix for a present value.
VALUE_MARK = ">"
#: Cell marker for SQL NULL.
NULL_MARK = "<"


def wrap_delimited(body: xq.XExpr,
                   columns: list[ResultColumn]) -> xq.XExpr:
    """Build the wrapper query around a translated RECORD-stream body.

    The RECORD stream is let-bound directly (not re-wrapped in a
    ``<RECORDSET>`` constructor, which would deep-copy every row), and
    each cell's value is bound once before the NULL test — both
    generation-side efficiencies with no semantic effect.
    """
    cells = []
    for index, column in enumerate(columns):
        name = f"cell{index}"
        data = xq.call("fn:data", xq.PathExpr(
            xq.VarRef("tokenQuery"), (xq.PathStep(column.element),)))
        cells.append(xq.FLWOR(
            (xq.LetClause(name, data),),
            xq.IfExpr(
                xq.call("fn:empty", xq.VarRef(name)),
                xq.XLiteral(NULL_MARK),
                xq.call("fn:concat", xq.XLiteral(VALUE_MARK),
                        xq.call("fn-bea:xml-escape",
                                xq.call("fn-bea:serialize-atomic",
                                        xq.VarRef(name)))))))
    rows = xq.FLWOR(
        (xq.LetClause("actualQuery", body),
         xq.ForClause("tokenQuery", xq.VarRef("actualQuery"))),
        cells[0] if len(cells) == 1 else xq.SequenceExpr(tuple(cells)))
    return xq.call("fn:string-join", rows, xq.XLiteral(""))
