"""Client-side result decoding: the two result paths of section 4.

``decode_delimited`` parses the text stream produced by the wrapper query
(see repro.translator.wrapper for the encoding), converting each cell by
its column's SQL type. This is the fast path the paper adopted after
"initial prototyping" showed XML materialization was slow.

The server side of that path lives here too, because it is the same
format: :class:`PageCutter` cuts the engine's stream into pages on row
boundaries without converting a cell (the remote driver decodes them
with ``decode_delimited``), and ``encode_delimited`` writes rows that
were materialized some other way as the same text.

In one process there is no text to cut or decode: :func:`iter_rows`
turns the batch executor's typed cells into the rows the decoder would
have produced from their text, by the same result schema, a list per
batch.

``decode_xml`` is the baseline path the paper measured against: the
server's ``<RECORDSET>`` tree is serialized to text (the wire format),
re-parsed client-side, and converted row by row. Benchmarks compare the
two (experiment E6 in DESIGN.md).
"""

from __future__ import annotations

import datetime
import re
from decimal import Decimal, InvalidOperation
from itertools import repeat

from ..errors import DataError
from ..sql.types import SQLType
from ..translator import NULL_MARK, VALUE_MARK, ResultColumn
from ..xmlmodel import Element, escape_text, parse_document, unescape
from ..xquery.atomic import REGULAR_KINDS, SERIALIZERS, serialize_atomic


#: The one SQL type kind -> converter mapping: ``convert_cell`` looks a
#: cell's converter up here, and the delimited decoder resolves it once
#: per stream into a per-column table.
_CONVERTERS = {
    "SMALLINT": int,
    "INTEGER": int,
    "BIGINT": int,
    "DECIMAL": Decimal,
    "REAL": float,
    "DOUBLE": float,
    "CHAR": str,
    "VARCHAR": str,
    "DATE": datetime.date.fromisoformat,
    "TIME": datetime.time.fromisoformat,
    "TIMESTAMP": datetime.datetime.fromisoformat,
}


def convert_cell(text: str, sql_type: SQLType) -> object:
    """Convert one serialized cell to its Python value by SQL type."""
    convert = _CONVERTERS.get(sql_type.kind)
    if convert is None:
        raise DataError(f"unsupported result column type {sql_type}")
    try:
        return convert(text)
    except (ValueError, InvalidOperation) as exc:
        raise DataError(
            f"cannot convert cell {text!r} to {sql_type}") from exc


#: (exact cell kind, SQL kind) -> column guard (True: any column): the
#: pairs :func:`iter_rows` hands over as computed, because on a column
#: the guard passes each cell's lexical form (``serialize_atomic``)
#: converts back to the cell itself — value, type and repr;
#: tests/driver/test_codec.py proves each against the decoder. The
#: guard is the kind's ``REGULAR_KINDS`` one, as in a version's facts.
_AS_COMPUTED = {
    (kind, sql_kind): REGULAR_KINDS[kind] for kind, sql_kind in (
        (int, "SMALLINT"), (int, "INTEGER"), (int, "BIGINT"),
        (str, "CHAR"), (str, "VARCHAR"), (datetime.date, "DATE"),
        (Decimal, "DECIMAL"), (float, "REAL"), (float, "DOUBLE"),
        (datetime.time, "TIME"), (datetime.datetime, "TIMESTAMP"))}


def _unsupported(text: str):
    """Per-column table entry for a kind ``_CONVERTERS`` lacks: fails
    the block, so the cell loop's ``convert_cell`` reports it — and
    only if a non-NULL cell of that column is ever converted."""
    raise ValueError(text)


#: Where a value cell ends: the next cell marker of either kind.
_CELL_END = re.compile(f"[{re.escape(NULL_MARK + VALUE_MARK)}]")


def _decode_cells(text: str, base: int, row: list,
                  columns: list[ResultColumn], context,
                  one_row: bool = False, final: bool = False):
    """The cell loop — the decoder's one slow path (first row, end of
    stream, error replay). Decodes *text* cell by cell into *row*,
    yielding each completed row; stops at a value cell whose end is not
    in *text* (unless *final*: end of stream ends it) or, with
    *one_row*, after the first row. Returns ``(position reached,
    whether a row was yielded)``; *base* is the absolute offset of
    ``text[0]``, for error messages."""
    column_count = len(columns)
    length = len(text)
    pos = 0
    yielded = False
    while pos < length:
        mark = text[pos]
        if mark == NULL_MARK:
            row.append(None)
            pos += 1
        elif mark == VALUE_MARK:
            match = _CELL_END.search(text, pos + 1)
            if match is not None:
                end = match.start()
            elif final:
                end = length
            else:
                break  # the value may continue in the next chunk
            raw = text[pos + 1:end]
            if "&" in raw:
                raw = unescape(raw)
            row.append(convert_cell(raw, columns[len(row)].sql_type))
            pos = end
        else:
            raise DataError(
                f"malformed delimited stream at offset {base + pos}: "
                f"expected a cell marker, got {mark!r}")
        if len(row) == column_count:
            if context is not None:
                context.tick()
                context.rows_emitted += 1
            yield tuple(row)
            row.clear()
            yielded = True
            if one_row:
                break
    return pos, yielded


def _decode_block(text: str, converters: list) -> tuple:
    """Decode every whole row of *text* (which starts at a row
    boundary) in C-level passes: ``(rows, characters consumed)``. The
    last cell is held back unless it is NULL — a value may continue in
    the next chunk. Raises on anything the cell loop would reject; the
    caller replays the block through it for the exact error."""
    # A NULL cell becomes a value cell holding a bare NULL mark, which
    # no escaped value can equal, so one split tokenises the block:
    # cells[0] is what precedes the first marker, cells[1:] the cells.
    nulls = text.count(NULL_MARK)
    cells = (text.replace(NULL_MARK, VALUE_MARK + NULL_MARK) if nulls
             else text).split(VALUE_MARK)
    if cells[0] or (nulls and cells.count(NULL_MARK) != nulls):
        raise ValueError("text where a cell marker should be")
    column_count = len(converters)
    complete = len(cells) - 1
    if complete and cells[-1] != NULL_MARK:
        complete -= 1
    stop = 1 + complete - complete % column_count
    if stop == 1:
        return (), 0
    consumed = len(text) - sum(
        1 if cell == NULL_MARK else 1 + len(cell) for cell in cells[stop:])
    entities = "&" in text
    table = []
    for index, convert in enumerate(converters):
        column = cells[1 + index:stop:column_count]
        if entities or (nulls and NULL_MARK in column):
            column = [None if cell == NULL_MARK else
                      convert(unescape(cell) if "&" in cell else cell)
                      for cell in column]
        elif convert is not str:
            column = list(map(convert, column))
        table.append(column)
    return zip(*table), consumed


#: Most characters decoded as one block: past a few thousand cells the
#: token and column lists outgrow the processor caches and a cell costs
#: twice as much, so a one-shot stream is decoded in windows this long.
_BLOCK_CHARS = 1 << 16


def _windows(chunks, size: int = _BLOCK_CHARS):
    """*chunks* without the empty pieces, the long ones cut to at most
    *size* characters."""
    for chunk in chunks:
        for start in range(0, len(chunk), size):
            yield chunk[start:start + size]


def iter_decode_delimited(chunks,
                          columns: list[ResultColumn],
                          context=None):
    """Incrementally parse a delimited result stream into typed rows.

    Each cell is ``>`` + xml-escaped value, or ``<`` for NULL; the column
    count comes from the result schema, so rows need no separator.

    *chunks* is any iterable of text pieces (the streaming executor
    yields one piece per wrapper cell, the batched one a piece per
    batch); rows are yielded as soon as their last cell's end is known,
    so a lazily-consumed cursor decodes only what it fetches. A value
    cell ends at the next cell marker — or at end of stream, which is
    only known once *chunks* is exhausted, so the final value cell is
    held back until then. Error offsets are absolute positions in the
    concatenated stream, identical to what a whole-string parse reports.

    The first row is decoded cell by cell (a first fetch pays for one
    row, not for a chunk); after it, each buffered chunk is decoded as a
    block, column by column through a converter table resolved once
    here. A block that fails is replayed through the cell loop, which
    yields the rows before the bad cell and raises the error.

    *context* is an optional ``repro.engine.lifecycle.QueryContext``;
    the decoder ticks it once per decoded row, so cancellation and
    deadlines abort a fetch loop even when the upstream pipeline is
    between check points.
    """
    if not columns:
        raise DataError("result schema has no columns")
    converters = [_CONVERTERS.get(column.sql_type.kind, _unsupported)
                  for column in columns]
    row: list[object] = []
    tail = ""  # unconsumed text, starting at absolute offset `base`
    base = 0
    started = False  # the first row has been delivered
    for chunk in _windows(chunks):
        tail = tail + chunk if tail else chunk
        if not started:
            pos, started = yield from _decode_cells(
                tail, base, row, columns, context, one_row=True)
            base += pos
            tail = tail[pos:]
            if not started:
                continue
        try:
            rows, consumed = _decode_block(tail, converters)
        except Exception:
            yield from _decode_cells(tail, base, row, columns, context)
            raise  # not reached: the cell loop raises at the bad cell
        for decoded in rows:
            if context is not None:
                context.tick()
                context.rows_emitted += 1
            yield decoded
        base += consumed
        tail = tail[consumed:]
    # What is left is a partial row and the held-back cell; end of
    # stream terminates that cell.
    yield from _decode_cells(tail, base, row, columns, context, final=True)
    if row:
        raise DataError(
            f"truncated delimited stream: {len(row)} trailing cell(s)")


def decode_delimited(stream: str,
                     columns: list[ResultColumn]) -> list[tuple]:
    """Parse a complete delimited result stream into typed rows (the
    one-shot form of :func:`iter_decode_delimited`)."""
    return list(iter_decode_delimited((stream,), columns))


_NONE = type(None)


def _typed_column(col: list, sql_kind: str, per_cell=None) -> list:
    """One batch column as the decoder would hand it over, observed:
    itself for a pair of :data:`_AS_COMPUTED` its guard passes, else
    each cell's lexical form converted — one serialiser for cells of
    one kind, else cell by cell (then *per_cell* is called)."""
    kinds = set(map(type, col))
    nulls = _NONE in kinds
    kinds.discard(_NONE)
    if not kinds:
        return col
    text = serialize_atomic  # (mixed kinds: cell by cell)
    if len(kinds) == 1:
        kind = kinds.pop()
        guard = _AS_COMPUTED.get((kind, sql_kind))
        if guard is True or (guard is not None and guard(col)):
            return col
        text = SERIALIZERS.get(kind, text)
    elif per_cell is not None:
        per_cell()
    convert = _CONVERTERS.get(sql_kind, _unsupported)
    if nulls:
        return [None if v is None else convert(text(v)) for v in col]
    return list(map(convert, map(text, col)))


def iter_rows(batches, columns: list[ResultColumn], context=None,
              per_cell=None, as_computed=None):
    """Typed rows of the engine's output batches — per batch, one list
    per result column of the values the plan computed — without text,
    as one list of row tuples per batch: the rows, of the same types
    and ``repr``, that :func:`iter_decode_delimited` yields from the
    batches' delimited text, and on a cell it rejects the same
    ``DataError``, after the same rows.

    A column whose table version's fact (``batch.facts()``, see
    ``repro.xquery.vector.OutputColumns``) and SQL kind are a pair of
    :data:`_AS_COMPUTED` is handed over unobserved (*as_computed* is
    called with their number per batch), any other is observed
    (:func:`_typed_column`). *context*, as in the decoder, counts the
    rows handed over."""
    if not columns:
        raise DataError("result schema has no columns")
    kinds = [column.sql_type.kind for column in columns]
    for cols in batches:
        facts = cols.facts() if hasattr(cols, "facts") else repeat(None)
        vouched = [fact is _NONE or (fact, kind) in _AS_COMPUTED
                   for fact, kind in zip(facts, kinds)]
        try:
            rows = list(zip(*[col if handed
                              else _typed_column(col, kind, per_cell)
                              for col, kind, handed
                              in zip(cols, kinds, vouched)]))
        except (ValueError, InvalidOperation):
            # Replay the batch a row at a time, as the decoder reads it:
            # the rows before the first bad cell, then its error.
            replayed = []
            try:
                for row in zip(*cols):
                    replayed.append(tuple(
                        None if v is None
                        else convert_cell(serialize_atomic(v),
                                          column.sql_type)
                        for v, column in zip(row, columns)))
            except DataError:
                yield replayed
                raise
            raise  # not reached: convert_cell raised at the bad cell
        if as_computed is not None and any(vouched):
            as_computed(sum(vouched))
        if context is not None:
            context.rows_emitted += len(rows)
        yield rows


#: Text the page cutter looks at in one step: a page far smaller than
#: the engine's chunk (a ``fetchone`` over a 1 024-row batch) costs one
#: such window, not the chunk.
_CUT_CHARS = 1 << 12


class PageCutter:
    """Cuts a delimited result stream into pages that end on row
    boundaries, converting nothing: rows are *counted* — cell marks
    divided by the column count — with ``str.count`` on every window
    and one ``str.split`` on the window that straddles the page limit.

    A page ends where the first cell of the next row begins (or at end
    of stream): like the decoder, the cutter cannot know a value cell
    is over until it sees what follows it. The concatenated pages are
    the stream, and each page is a complete stream of its own.
    """

    def __init__(self, chunks, column_count: int):
        if column_count < 1:
            raise DataError("result schema has no columns")
        self._windows = _windows(chunks, _CUT_CHARS)
        self._width = column_count
        self._carry = ""  # text already read that follows the last page
        #: True once the stream has ended and every row was handed out.
        self.exhausted = False

    def take(self, limit=None) -> tuple:
        """The next *limit* rows (fewer at end of stream; all that
        remain when None) as ``(text, row count)``."""
        if limit is not None and limit < 1:
            return "", 0
        want = None if limit is None else limit * self._width
        pieces, cells = [], 0
        piece = self._carry
        while piece is not None:
            marks = piece.count(VALUE_MARK) + piece.count(NULL_MARK)
            if want is not None and cells + marks > want:
                # The mark that opens the row after the page is in this
                # piece: the page ends right before it.
                rest = piece.replace(NULL_MARK, VALUE_MARK).split(
                    VALUE_MARK, want - cells + 1)[-1]
                cut = len(piece) - len(rest) - 1
                pieces.append(piece[:cut])
                self._carry = piece[cut:]
                return "".join(pieces), limit
            pieces.append(piece)
            cells += marks
            piece = next(self._windows, None)
        self._carry = ""
        self.exhausted = True
        rows, trailing = divmod(cells, self._width)
        if trailing:
            raise DataError(
                f"truncated delimited stream: {trailing} trailing cell(s)")
        return "".join(pieces), rows


def encode_delimited(rows) -> str:
    """Decoded *rows* written back as delimited text — the inverse of
    :func:`decode_delimited`. ``str`` is the lexical inverse of every
    ``_CONVERTERS`` entry (``float`` and the ``fromisoformat`` family
    included), so the text decodes to equal values of the same types."""
    return "".join(
        NULL_MARK if cell is None else VALUE_MARK + escape_text(str(cell))
        for row in rows for cell in row)


def decode_xml(document_text: str,
               columns: list[ResultColumn]) -> list[tuple]:
    """Parse a serialized ``<RECORDSET>`` document into typed rows.

    RECORD children are read positionally (element names were uniquified
    by the translator, values decode by schema position); an empty child
    element is SQL NULL.
    """
    document = parse_document(document_text)
    root = document.root()
    if root.name.local != "RECORDSET":
        raise DataError(
            f"expected a RECORDSET document, got <{root.name.local}>")
    rows: list[tuple] = []
    for record in root.child_elements("RECORD"):
        cells = [child for child in record.child_elements()]
        if len(cells) != len(columns):
            raise DataError(
                f"RECORD has {len(cells)} columns, schema has "
                f"{len(columns)}")
        row = []
        for cell, column in zip(cells, columns):
            assert isinstance(cell, Element)
            if cell.is_empty():
                row.append(None)
            else:
                row.append(convert_cell(cell.string_value(),
                                        column.sql_type))
        rows.append(tuple(row))
    return rows
