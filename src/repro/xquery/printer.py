"""Render XQuery ASTs as query text, in the translator's house style.

Stage three of the translator builds AST nodes; this module is the one
place that knows what the generated text looks like. ``TranslationResult.
xquery``, ``\\translate`` and EXPLAIN print through it. The layout
(docs/XQUERY_DIALECT.md, "House style") is keyed on node shape only,
never on who built the node:

* one FLWOR clause per line, ``return`` on its own line before a
  constructor or a multi-line conditional; a single ``for`` with a
  one-line result stays on one line (the aggregate argument);
* an element constructor is laid out as a block: one child element per
  line, or its enclosed expression on lines of its own;
* comparisons, arithmetic, unary minus and one-line conditionals carry
  their own parentheses;
* a *record stream* (a FLWOR, a set operation, a sequence of those) is
  parenthesized wherever it is an operand;
* the section-4 delimited wrapper has a layout of its own.

Any tree prints: a shape the style has no opinion on falls back to a
compact form. The contract is ``parse_xquery(print_module(m)) == m`` for
every module the parser or the translator can produce; the exceptions
are literals XQuery has no literal syntax for (negative numbers, which
print as their normal form ``-n``; ``INF``/``NaN``, which print as
``xs:double("...")`` casts; booleans, which print as ``fn:true()``).
"""

from __future__ import annotations

import math
from decimal import Decimal

from . import ast


def print_module(module: ast.Module) -> str:
    lines = [_declaration(decl) for decl in module.prolog]
    lines.append(_expr(module.body))
    return "\n".join(lines)


def print_expr(expr: ast.XExpr) -> str:
    return _expr(expr)


def _declaration(decl) -> str:
    if isinstance(decl, ast.SchemaImport):
        line = f'import schema namespace {decl.prefix} = "{decl.uri}"'
        if decl.location:
            line += f' at "{decl.location}"'
        return line + ";"
    if isinstance(decl, ast.NamespaceDecl):
        return f'declare namespace {decl.prefix} = "{decl.uri}";'
    assert isinstance(decl, ast.VarDecl)
    type_part = f" as xs:{decl.type_name}" if decl.type_name else ""
    return f"declare variable ${decl.name}{type_part} external;"


def _literal(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("&", "&amp;").replace('"', "&quot;")
        return f'"{escaped}"'
    if isinstance(value, bool):
        return "fn:true()" if value else "fn:false()"
    if isinstance(value, float):
        if not math.isfinite(value):
            lexical = "NaN" if value != value else \
                "INF" if value > 0 else "-INF"
            return f'xs:double("{lexical}")'
        text = repr(value)
        if "e" not in text:
            text += "e0"
    elif isinstance(value, Decimal):
        if not value.is_finite():
            raise ValueError(f"no xs:decimal literal for {value}")
        # Plain notation: str() may choose an exponent ("1E+2"), which
        # XQuery reads as a double.
        text = format(value, "f")
        if "." not in text:
            text += ".0"
    else:
        text = str(value)
    # Numeric literals have no sign: a negative value is spelled as its
    # normal form, unary minus over the magnitude.
    return f"(-{text[1:]})" if text.startswith("-") else text


# -- shape tests the layout is keyed on -------------------------------------

_SET_FUNCTIONS = frozenset({"distinct-records", "intersect-records",
                            "except-records"})

#: Functions taking a value and a *sequence* to test it against: that
#: argument is always written in parentheses, one item or many.
_SEQUENCE_ARGUMENT = {("fn-bea", "in3"): 1, ("fn-bea", "any3"): 1,
                      ("fn-bea", "all3"): 1}


def _is_stream(expr) -> bool:
    """A record stream: a FLWOR, a set operation over streams, or a
    sequence of streams (UNION ALL, FULL OUTER JOIN)."""
    if isinstance(expr, ast.FLWOR):
        return True
    if isinstance(expr, ast.XFunctionCall):
        return expr.prefix == "fn-bea" and expr.local in _SET_FUNCTIONS
    if isinstance(expr, ast.SequenceExpr):
        return bool(expr.items) and all(map(_is_stream, expr.items))
    return False


def _is_inline_flwor(expr: ast.FLWOR) -> bool:
    return len(expr.clauses) == 1 \
        and isinstance(expr.clauses[0], ast.ForClause) \
        and not _is_block(expr.return_expr)


def _is_block(expr) -> bool:
    """Does *expr* print on lines of its own?"""
    if isinstance(expr, ast.ElementConstructor):
        return True
    if isinstance(expr, ast.IfExpr):
        return _is_block(expr.then) or _is_block(expr.else_)
    if isinstance(expr, ast.FLWOR):
        return not _is_inline_flwor(expr)
    return False


#: Nodes whose text needs no parentheses as an operator's operand: the
#: primaries, and the nodes that print their own.
_DELIMITED = (ast.XLiteral, ast.VarRef, ast.SequenceExpr, ast.XFunctionCall,
              ast.ElementConstructor, ast.PathExpr, ast.FilterExpr,
              ast.ContextItem, ast.ValueComparison, ast.GeneralComparison,
              ast.Arithmetic, ast.UnaryMinus)


def _paren(expr: ast.XExpr) -> str:
    """*expr* as the operand of an operator, path or predicate."""
    text = _expr(expr)
    if isinstance(expr, _DELIMITED) or \
            (isinstance(expr, ast.IfExpr) and not _is_block(expr)):
        return text
    return f"({text})"


def _operand(expr: ast.XExpr) -> str:
    """*expr* where the grammar wants one expression (an argument, a
    clause's expression): only a record stream is parenthesized."""
    text = _expr(expr)
    if _is_stream(expr) and not isinstance(expr, ast.SequenceExpr):
        return f"({text})"
    return text


# -- expressions -------------------------------------------------------------


def _expr(expr: ast.XExpr) -> str:  # noqa: C901 - exhaustive dispatch
    if isinstance(expr, ast.XLiteral):
        return _literal(expr.value)
    if isinstance(expr, ast.VarRef):
        return f"${expr.name}"
    if isinstance(expr, ast.ContextItem):
        return "."
    if isinstance(expr, ast.SequenceExpr):
        separator = ",\n" if _is_stream(expr) else ", "
        return "(" + separator.join(map(_expr, expr.items)) + ")"
    if isinstance(expr, ast.IfExpr):
        return _if(expr)
    if isinstance(expr, ast.QuantifiedExpr):
        return (f"{expr.kind} ${expr.var} in {_paren(expr.source)} "
                f"satisfies {_paren(expr.condition)}")
    if isinstance(expr, ast.OrExpr):
        return f"{_paren(expr.left)} or {_paren(expr.right)}"
    if isinstance(expr, ast.AndExpr):
        return f"{_paren(expr.left)} and {_paren(expr.right)}"
    if isinstance(expr, (ast.ValueComparison, ast.GeneralComparison,
                         ast.Arithmetic)):
        return f"({_paren(expr.left)} {expr.op} {_paren(expr.right)})"
    if isinstance(expr, ast.RangeExpr):
        return f"{_paren(expr.low)} to {_paren(expr.high)}"
    if isinstance(expr, ast.UnaryMinus):
        return f"(-{_paren(expr.operand)})"
    if isinstance(expr, ast.PathExpr):
        return _path(expr)
    if isinstance(expr, ast.FilterExpr):
        return _paren(expr.base) + _predicates(expr.predicates)
    if isinstance(expr, ast.XFunctionCall):
        return _call(expr)
    if isinstance(expr, ast.ElementConstructor):
        return _element(expr)
    if isinstance(expr, ast.FLWOR):
        return _flwor(expr)
    raise TypeError(f"cannot print {type(expr).__name__}")


def _if(expr: ast.IfExpr) -> str:
    head = f"if ({_expr(expr.condition)}) then"
    if not _is_block(expr):
        return f"({head} {_expr(expr.then)} else {_expr(expr.else_)})"
    # The outer-join / HAVING shape: each block branch on its own lines.
    gap = "\n" if _is_block(expr.else_) else " "
    return f"{head}\n{_expr(expr.then)}\nelse{gap}{_expr(expr.else_)}"


def _predicates(predicates) -> str:
    return "".join(f"[{_expr(predicate)}]" for predicate in predicates)


def _path(expr: ast.PathExpr) -> str:
    steps = "/".join(("*" if step.name is None else step.name)
                     + _predicates(step.predicates)
                     for step in expr.steps)
    if isinstance(expr.base, ast.ContextItem):
        # A bare relative path (valid inside predicates).
        return steps or "."
    base = _operand(expr.base) if _is_stream(expr.base) \
        else _paren(expr.base)
    return f"{base}/{steps}"


def _call(expr: ast.XFunctionCall) -> str:
    wrapper = _delimited_wrapper(expr)
    if wrapper is not None:
        return wrapper
    key = (expr.prefix, expr.local)
    sequence_argument = _SEQUENCE_ARGUMENT.get(key)
    parts = []
    for index, arg in enumerate(expr.args):
        stream = _is_stream(arg)
        if index:
            parts.append(",\n" if stream else ", ")
        if stream and key == ("fn", "subsequence"):
            # LIMIT/OFFSET frames the whole query body.
            parts.append(f"(\n{_expr(arg)}\n)")
        elif index == sequence_argument \
                and not isinstance(arg, ast.SequenceExpr):
            parts.append(f"({_expr(arg)})")
        else:
            parts.append(_operand(arg))
    return f"{expr.display}({''.join(parts)})"


def _flwor(expr: ast.FLWOR) -> str:
    if _is_inline_flwor(expr):
        clause = expr.clauses[0]
        return (f"for ${clause.var} in {_operand(clause.source)} "
                f"return {_expr(expr.return_expr)}")
    lines = []
    for clause in expr.clauses:
        if isinstance(clause, ast.ForClause):
            lines.append(f"for ${clause.var} in {_operand(clause.source)}")
        elif isinstance(clause, ast.LetClause):
            value = clause.value
            gap = "\n" if _is_block(value) and not _is_stream(value) \
                else " "
            lines.append(f"let ${clause.var} :={gap}{_operand(value)}")
        elif isinstance(clause, ast.WhereClause):
            lines.append(f"where {_operand(clause.condition)}")
        elif isinstance(clause, ast.GroupClause):
            keys = ", ".join(f"{_operand(key)} as ${var}"
                             for key, var in clause.keys)
            lines.append(f"group ${clause.source_var} as "
                         f"${clause.partition_var} by {keys}")
        else:
            assert isinstance(clause, ast.OrderClause)
            specs = []
            for spec in clause.specs:
                text = _operand(spec.key)
                if not spec.ascending:
                    text += " descending"
                if not spec.empty_least:
                    text += " empty greatest"
                specs.append(text)
            lines.append("order by " + ", ".join(specs))
    gap = "\n" if _is_block(expr.return_expr) else " "
    lines.append(f"return{gap}{_expr(expr.return_expr)}")
    return "\n".join(lines)


# -- constructors -------------------------------------------------------------


def _element(expr: ast.ElementConstructor, nested: bool = False) -> str:
    name = f"{expr.prefix}:{expr.name}" if expr.prefix else expr.name
    attrs = []
    for attr in expr.attributes:
        parts = []
        for part in attr.parts:
            if isinstance(part, str):
                parts.append(part.replace("&", "&amp;")
                             .replace('"', "&quot;")
                             .replace("{", "{{").replace("}", "}}"))
            else:
                parts.append("{" + _expr(part) + "}")
        attrs.append(f' {attr.name}="{"".join(parts)}"')
    open_tag = f"<{name}{''.join(attrs)}"
    content = expr.content
    if not content:
        return open_tag + "/>"
    if not nested:
        if all(isinstance(part, ast.ElementConstructor)
               for part in content):
            # <RECORD>: one cell per line.
            cells = "".join(f"\n  {_element(part, nested=True)}"
                            for part in content)
            return f"{open_tag}>{cells}\n</{name}>"
        if len(content) == 1 and not isinstance(content[0], str):
            # <RECORDSET>{ ... }: the enclosed query on its own lines.
            return f"{open_tag}>{{\n{_expr(content[0])}\n}}</{name}>"
    chunks = [open_tag + ">"]
    for part in content:
        if isinstance(part, str):
            chunks.append(part.replace("&", "&amp;").replace("<", "&lt;")
                          .replace("{", "{{").replace("}", "}}"))
        elif isinstance(part, ast.ElementConstructor):
            chunks.append(_element(part, nested=True))
        else:
            chunks.append("{" + _expr(part) + "}")
    chunks.append(f"</{name}>")
    return "".join(chunks)


# -- the section-4 delimited wrapper -----------------------------------------


def _delimited_wrapper(call: ast.XFunctionCall):
    """The layout of ``translator.wrapper.wrap_delimited``'s tree, or
    None when *call* is not that shape: ``fn:string-join`` over a FLWOR
    that let-binds the query body, iterates it, and returns one
    ``let $cell := ... return if ... then ... else ...`` per column."""
    if (call.prefix, call.local) != ("fn", "string-join") \
            or len(call.args) != 2 \
            or not isinstance(call.args[0], ast.FLWOR):
        return None
    rows, separator = call.args
    if len(rows.clauses) != 2:
        return None
    bind, iterate = rows.clauses
    result = rows.return_expr
    cells = result.items if isinstance(result, ast.SequenceExpr) \
        else (result,)
    if not isinstance(bind, ast.LetClause) \
            or not isinstance(iterate, ast.ForClause) or not cells \
            or not all(_is_cell(cell) for cell in cells):
        return None
    cell_text = ",\n    ".join(
        f"(let ${cell.clauses[0].var} := {_operand(cell.clauses[0].value)}"
        f" return\n"
        f"    if ({_expr(cell.return_expr.condition)}) then "
        f"{_operand(cell.return_expr.then)} else\n"
        f"    {_operand(cell.return_expr.else_)})"
        for cell in cells)
    return (f"{call.display}(\n"
            f"(let ${bind.var} := (\n{_expr(bind.value)}\n)\n"
            f"for ${iterate.var} in {_operand(iterate.source)}\n"
            f"return\n"
            f"   ({cell_text})\n"
            f"), {_operand(separator)})")


def _is_cell(expr) -> bool:
    return isinstance(expr, ast.FLWOR) and len(expr.clauses) == 1 \
        and isinstance(expr.clauses[0], ast.LetClause) \
        and isinstance(expr.return_expr, ast.IfExpr) \
        and not _is_block(expr.return_expr)
