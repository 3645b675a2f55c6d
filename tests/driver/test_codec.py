"""Experiment E5: the delimited text encoding and both decode paths."""

import datetime
import time
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.driver import convert_cell, decode_delimited, decode_xml
from repro.driver.codec import (
    _AS_COMPUTED,
    _CONVERTERS,
    _CUT_CHARS,
    PageCutter,
    encode_delimited,
    iter_decode_delimited,
    iter_rows,
)
from repro.errors import DataError
from repro.sql.types import SQLType
from repro.translator import ResultColumn
from repro.xmlmodel import escape_text
from repro.xquery.atomic import UntypedAtomic
from repro.xquery.vector import encode_columns


def cols(*kinds):
    return [ResultColumn(label=f"C{i}", element=f"C{i}",
                         sql_type=SQLType(kind))
            for i, kind in enumerate(kinds)]


class TestConvertCell:
    @pytest.mark.parametrize("text,kind,expected", [
        ("42", "INTEGER", 42),
        ("-7", "SMALLINT", -7),
        ("4.50", "DECIMAL", Decimal("4.50")),
        ("1.5", "DOUBLE", 1.5),
        ("x", "VARCHAR", "x"),
        ("2020-01-31", "DATE", datetime.date(2020, 1, 31)),
        ("10:30:00", "TIME", datetime.time(10, 30)),
        ("2020-01-31T10:30:00", "TIMESTAMP",
         datetime.datetime(2020, 1, 31, 10, 30)),
    ])
    def test_conversions(self, text, kind, expected):
        assert convert_cell(text, SQLType(kind)) == expected

    def test_bad_value(self):
        with pytest.raises(DataError):
            convert_cell("xyz", SQLType("INTEGER"))

    def test_unsupported_kind(self):
        with pytest.raises(DataError):
            convert_cell("x", SQLType("BLOB"))


class TestDecodeDelimited:
    def test_simple_rows(self):
        stream = ">55>Joe>23>Sue"
        rows = decode_delimited(stream, cols("INTEGER", "VARCHAR"))
        assert rows == [(55, "Joe"), (23, "Sue")]

    def test_null_cells(self):
        stream = ">55<>23>EAST"
        rows = decode_delimited(stream, cols("INTEGER", "VARCHAR"))
        assert rows == [(55, None), (23, "EAST")]

    def test_all_null_row(self):
        rows = decode_delimited("<<", cols("INTEGER", "VARCHAR"))
        assert rows == [(None, None)]

    def test_empty_stream_is_zero_rows(self):
        assert decode_delimited("", cols("INTEGER")) == []

    def test_empty_string_cell_distinct_from_null(self):
        rows = decode_delimited(">>x", cols("VARCHAR", "VARCHAR"))
        assert rows == [("", "x")]

    def test_escaped_content(self):
        value = "a<b>&c"
        stream = ">" + escape_text(value)
        rows = decode_delimited(stream, cols("VARCHAR"))
        assert rows == [(value,)]

    def test_truncated_stream_rejected(self):
        with pytest.raises(DataError):
            decode_delimited(">55", cols("INTEGER", "VARCHAR"))

    def test_garbage_marker_rejected(self):
        with pytest.raises(DataError):
            decode_delimited("x55", cols("INTEGER"))

    @given(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(-10**9, 10**9)),
        st.one_of(st.none(), st.text(max_size=30))), max_size=8))
    def test_roundtrip_property(self, rows):
        """Encoding then decoding arbitrary (int, text) rows is lossless
        — including the NULL/empty-string distinction."""
        parts = []
        for number, text in rows:
            parts.append("<" if number is None else f">{number}")
            parts.append("<" if text is None else ">" + escape_text(text))
        decoded = decode_delimited("".join(parts),
                                   cols("INTEGER", "VARCHAR"))
        assert decoded == [tuple(r) for r in rows]


class TestDecodeXML:
    def test_simple_document(self):
        text = ("<RECORDSET><RECORD><C0>55</C0><C1>Joe</C1></RECORD>"
                "<RECORD><C0>23</C0><C1>Sue</C1></RECORD></RECORDSET>")
        rows = decode_xml(text, cols("INTEGER", "VARCHAR"))
        assert rows == [(55, "Joe"), (23, "Sue")]

    def test_empty_element_is_null(self):
        text = "<RECORDSET><RECORD><C0/><C1>x</C1></RECORD></RECORDSET>"
        rows = decode_xml(text, cols("INTEGER", "VARCHAR"))
        assert rows == [(None, "x")]

    def test_positional_decode_ignores_names(self):
        text = ("<RECORDSET><RECORD><INFO.ID>5</INFO.ID>"
                "<INFO.NAME>x</INFO.NAME></RECORD></RECORDSET>")
        rows = decode_xml(text, cols("INTEGER", "VARCHAR"))
        assert rows == [(5, "x")]

    def test_wrong_root_rejected(self):
        with pytest.raises(DataError):
            decode_xml("<WRONG/>", cols("INTEGER"))

    def test_column_count_mismatch_rejected(self):
        text = "<RECORDSET><RECORD><C0>5</C0></RECORD></RECORDSET>"
        with pytest.raises(DataError):
            decode_xml(text, cols("INTEGER", "VARCHAR"))

    def test_zero_rows(self):
        assert decode_xml("<RECORDSET/>", cols("INTEGER")) == []


# -- the incremental decoder, as properties ---------------------------------

MIXED = ("INTEGER", "VARCHAR", "DECIMAL", "DATE")

mixed_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-10**9, 10**9)),
    st.one_of(st.none(), st.text(alphabet="ab<>&;'\" \n", max_size=6)),
    st.one_of(st.none(), st.decimals(allow_nan=False, allow_infinity=False,
                                     places=2, min_value=-10**6,
                                     max_value=10**6)),
    st.one_of(st.none(), st.dates())), max_size=12)


def encode(rows):
    """The wrapper query's encoding of *rows*: one piece per cell."""
    return ["<" if value is None else ">" + escape_text(str(value))
            for row in rows for value in row]


def cut(text, positions):
    edges = [0, *sorted(positions), len(text)]
    return [text[start:end] for start, end in zip(edges, edges[1:])]


def pull(chunks, columns):
    """Rows pulled one ``next()`` at a time, and the error that ended
    the stream (None if it just ended)."""
    rows = []
    decoder = iter_decode_delimited(iter(chunks), columns)
    try:
        while True:
            rows.append(next(decoder))
    except StopIteration:
        return rows, None
    except DataError as exc:
        return rows, str(exc)


class TestChunkSplitInvariance:
    @given(mixed_rows, st.data())
    def test_any_cut_decodes_like_the_one_shot_form(self, rows, data):
        """Cuts land anywhere — inside an entity, between a marker and
        its value, on every character — and never show in the rows."""
        text = "".join(encode(rows))
        expected = decode_delimited(text, cols(*MIXED))
        assert expected == rows
        cuts = data.draw(st.lists(st.integers(0, len(text)), max_size=8))
        for chunks in (cut(text, cuts), list(text), encode(rows)):
            assert pull(chunks, cols(*MIXED)) == (expected, None)

    def test_cut_inside_an_entity(self):
        text = ">1>a&lt;b>2>&amp;"
        for position in range(len(text) + 1):
            assert pull(cut(text, [position]),
                        cols("INTEGER", "VARCHAR")) == \
                ([(1, "a<b"), (2, "&")], None)


class TestErrorIdentity:
    def test_garbage_offset_is_absolute_across_chunks(self):
        rows, error = pull([">1>a", ">2<", "x>3>c"],
                           cols("INTEGER", "VARCHAR"))
        assert rows == [(1, "a"), (2, None)]
        assert error == ("malformed delimited stream at offset 7: "
                         "expected a cell marker, got 'x'")
        assert pull([">1>a>2<x>3>c"], cols("INTEGER", "VARCHAR")) == \
            (rows, error)

    def test_garbage_first_character(self):
        assert pull(["x55"], cols("INTEGER")) == (
            [], "malformed delimited stream at offset 0: "
                "expected a cell marker, got 'x'")

    @pytest.mark.parametrize("chunks", [
        [">1>a>2"], [">1>a", ">2"], list(">1>a>2")])
    def test_truncated_stream(self, chunks):
        assert pull(chunks, cols("INTEGER", "VARCHAR")) == (
            [(1, "a")], "truncated delimited stream: 1 trailing cell(s)")

    def test_bad_cell_in_row_k_of_one_large_chunk(self):
        """Rows 0..k-1 come out first, then the cell-by-cell error."""
        k, total = 1500, 3000
        cells = [f">{i}>n{i}" for i in range(total)]
        cells[k] = ">oops>n"
        expected_rows = [(i, f"n{i}") for i in range(k)]
        expected_error = "cannot convert cell 'oops' to INTEGER"
        columns = cols("INTEGER", "VARCHAR")
        assert pull(["".join(cells)], columns) == \
            (expected_rows, expected_error)
        # ... which is what a decode fed one cell at a time reports.
        assert pull([piece for cell in cells
                     for piece in cell.partition(">n")], columns) == \
            (expected_rows, expected_error)

    def test_unsupported_kind_fails_only_on_a_value(self):
        columns = cols("INTEGER", "BLOB")
        assert pull([">1<>2<>3<"], columns) == \
            ([(1, None), (2, None), (3, None)], None)
        assert pull([">1<>2<>3>x>4<"], columns) == \
            ([(1, None), (2, None)],
             "unsupported result column type BLOB")


class TestLinearity:
    def test_one_chunk_costs_what_many_chunks_cost(self):
        """No stopwatch threshold: the same NULL-free stream as one
        chunk and as 32 chunks. A search that runs past the cell to the
        end of the chunk makes the single chunk several times slower."""
        columns = cols("INTEGER", "VARCHAR", "DECIMAL")
        lines = [f">{i}>name{i}>{i}.50" for i in range(32_000)]
        pieces = ["".join(lines[start:start + 1000])
                  for start in range(0, len(lines), 1000)]
        whole = "".join(pieces)

        def best_of_five(chunks):
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                count = sum(1 for _ in iter_decode_delimited(chunks,
                                                             columns))
                best = min(best, time.perf_counter() - started)
                assert count == len(lines)
            return best

        assert best_of_five([whole]) <= 1.5 * best_of_five(pieces)


class TestLaziness:
    COLUMNS = ("INTEGER", "VARCHAR")

    def chunks(self, consumed, closed):
        try:
            for chunk in range(3):
                consumed.append(chunk)
                yield "".join(f">{chunk * 1024 + i}>v"
                              for i in range(1024))
        finally:
            closed.append(True)

    def test_first_row_consumes_one_chunk_and_close_propagates(self):
        consumed, closed = [], []
        decoder = iter_decode_delimited(self.chunks(consumed, closed),
                                        cols(*self.COLUMNS))
        assert next(decoder) == (0, "v")
        assert consumed == [0]
        assert next(decoder) == (1, "v")
        assert consumed == [0]
        decoder.close()
        assert closed == [True]

    def test_full_drain(self):
        consumed, closed = [], []
        rows = list(iter_decode_delimited(self.chunks(consumed, closed),
                                          cols(*self.COLUMNS)))
        assert rows == [(i, "v") for i in range(3 * 1024)]
        assert consumed == [0, 1, 2] and closed == [True]


# -- the server's page cutter and the inverse encoder -----------------------

def pages_of(chunks, width, sizes):
    """Every page a cutter hands out for the page-size sequence *sizes*
    (the last size repeats until the stream is over)."""
    cutter = PageCutter(iter(chunks), width)
    sizes = iter(sizes)
    size = next(sizes)
    pages = []
    while not cutter.exhausted:
        pages.append((cutter.take(size), size))
        size = next(sizes, size)
    assert cutter.take(size) == ("", 0)  # over stays over
    return pages


class TestPageCutter:
    @given(mixed_rows, st.data())
    def test_pages_decode_to_the_stream_and_end_on_row_boundaries(
            self, rows, data):
        """For any result text — NULLs, entities, empty strings — any
        chunking (arbitrary cuts, per character, per cell, one batch)
        and any page-size sequence: each page is a whole number of rows
        that decodes on its own, no page but the last is short, and the
        pages in order are the stream."""
        columns = cols(*MIXED)
        text = "".join(encode(rows))
        cuts = data.draw(st.lists(st.integers(0, len(text)), max_size=8))
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1,
                                   max_size=6))
        for chunks in (cut(text, cuts), list(text), encode(rows), [text]):
            pages = pages_of(chunks, len(columns), sizes)
            assert "".join(page for (page, _n), _size in pages) == text
            decoded = []
            for index, ((page, count), size) in enumerate(pages):
                page_rows = decode_delimited(page, columns)
                assert len(page_rows) == count <= size
                assert count == size or index == len(pages) - 1
                decoded += page_rows
            assert decoded == rows

    @given(st.lists(st.one_of(st.none(),
                              st.text(alphabet="a<>&", max_size=4)),
                    max_size=12),
           st.integers(1, 4))
    def test_one_column_table(self, values, size):
        text = "".join(encode([(value,) for value in values]))
        for chunks in (list(text), [text]):
            pages = pages_of(chunks, 1, [size])
            assert [row for (page, _n), _s in pages
                    for row in decode_delimited(page, cols("VARCHAR"))] \
                == [(value,) for value in values]

    def test_take_all_and_zero(self):
        text = ">1>a>2<>3>c"
        cutter = PageCutter(iter([text]), 2)
        assert cutter.take(0) == ("", 0) and not cutter.exhausted
        assert cutter.take(1) == (">1>a", 1)
        assert cutter.take(None) == (">2<>3>c", 2)
        assert cutter.exhausted

    def test_exact_last_rows_report_exhaustion_with_them(self):
        """The row before the end is only known to be complete once the
        stream has ended, so the last full page already knows."""
        cutter = PageCutter(iter([">1>a", ">2>b"]), 2)
        assert cutter.take(1) == (">1>a", 1) and not cutter.exhausted
        assert cutter.take(1) == (">2>b", 1) and cutter.exhausted

    def test_truncated_stream_is_the_decoder_s_error(self):
        cutter = PageCutter(iter([">1>a>2"]), 2)
        with pytest.raises(DataError, match="truncated delimited stream: "
                                            "1 trailing"):
            cutter.take(5)

    def test_no_columns(self):
        with pytest.raises(DataError, match="no columns"):
            PageCutter(iter([]), 0)

    def test_a_small_page_reads_a_window_not_the_chunk(self):
        """``fetchone`` pages over one big engine chunk: the chunk is
        pulled once and each page costs one window of it."""
        consumed, closed = [], []
        chunks = TestLaziness().chunks(consumed, closed)
        cutter = PageCutter(chunks, 2)
        assert cutter.take(1) == (">0>v", 1)
        assert consumed == [0]
        for index in range(1, 1024):
            assert cutter.take(1) == (f">{index}>v", 1)
            assert len(cutter._carry) <= _CUT_CHARS
        assert consumed == [0, 1]  # row 1023 ends where chunk 1 begins


SAMPLES = {
    "SMALLINT": [0, -7], "INTEGER": [42, -2**31], "BIGINT": [2**63, -1],
    "DECIMAL": [Decimal("12000.00"), Decimal("-0.010"), Decimal("1E+3")],
    "REAL": [1.5, -0.0], "DOUBLE": [0.1, 1e22, float("inf"), 5e-324],
    "CHAR": ["", "x "], "VARCHAR": ["a<b>&c;", "&amp;", "'\"\n"],
    "DATE": [datetime.date(2003, 1, 9)],
    "TIME": [datetime.time(23, 59, 59, 999999), datetime.time(1, 2)],
    "TIMESTAMP": [datetime.datetime(2003, 1, 9, 12, 30, 45, 1),
                  datetime.datetime(2003, 1, 9)],
}


class TestEncodeDelimited:
    def test_samples_cover_every_converter(self):
        assert set(SAMPLES) == set(_CONVERTERS)

    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_round_trip_is_type_identical(self, kind):
        rows = [(value, None, value) for value in SAMPLES[kind]]
        decoded = decode_delimited(encode_delimited(rows),
                                   cols(kind, kind, kind))
        assert decoded == rows
        assert [[type(cell) for cell in row] for row in decoded] == \
            [[type(cell) for cell in row] for row in rows]
        assert [repr(row) for row in decoded] == \
            [repr(row) for row in rows]  # -0.0, Decimal exponents

    @given(mixed_rows)
    def test_inverse_of_the_decoder(self, rows):
        assert decode_delimited(encode_delimited(rows), cols(*MIXED)) \
            == rows
        assert encode_delimited(rows) == "".join(encode(rows))

    def test_no_rows(self):
        assert encode_delimited([]) == ""


# -- typed rows: the conversion table against the decoder --------------------

UTC_PLUS_2 = datetime.timezone(datetime.timedelta(hours=2))

#: One strategy per cell kind the executor can put out.
CELLS = {
    "none": st.none(),
    "int": st.integers(),
    "bool": st.booleans(),
    "float": st.floats() | st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e15, 1e22]),
    "decimal": st.decimals() | st.sampled_from([
        Decimal("1E+2"), Decimal("0E+3"), Decimal("-0"), Decimal("-0.00"),
        Decimal("1.5E+3"), Decimal("1E-7"), Decimal("NaN"),
        Decimal("-Infinity"), Decimal("12000.00")]),
    "str": st.text(alphabet="ab1.-:<>&;#x \n", max_size=8) | st.text(),
    "untyped": st.text(alphabet="ab1<>&", max_size=6).map(UntypedAtomic),
    "date": st.dates(),
    "time": st.times() | st.times(timezones=st.just(UTC_PLUS_2))
    | st.just(datetime.time(1, 2, fold=1)),
    "datetime": st.datetimes() | st.datetimes(
        timezones=st.just(datetime.timezone.utc))
    | st.just(datetime.datetime(2003, 1, 9, 1, 30, fold=1)),
}

mixed_cells = st.one_of(*CELLS.values())


def pull_typed(batches, columns):
    """:func:`pull` for :func:`iter_rows` over typed batches."""
    rows = []
    try:
        for batch in iter_rows(iter(batches), columns):
            rows.extend(batch)
    except DataError as exc:
        return rows, str(exc)
    return rows, None


def same_as_decoded(batches, kinds):
    """The typed rows of *batches* are the decoder's rows of their
    engine encoding — value, type and repr — or end at the same row
    with the same error."""
    columns = cols(*kinds)
    typed, typed_error = pull_typed(batches, columns)
    decoded, decoded_error = pull(
        [encode_columns(batch) for batch in batches], columns)
    assert typed_error == decoded_error
    assert [repr(row) for row in typed] == [repr(row) for row in decoded]
    assert [list(map(type, row)) for row in typed] == \
        [list(map(type, row)) for row in decoded]


def batches_of(columns, cut_at):
    """Column lists cut into two batches after row *cut_at*."""
    rows = len(columns[0])
    cut_at = min(cut_at, rows)
    return [[col[lo:hi] for col in columns]
            for lo, hi in ((0, cut_at), (cut_at, rows)) if hi > lo]


class TestTypedRows:
    def test_table_covers_every_converter(self):
        assert {kind for _, kind in _AS_COMPUTED} == set(_CONVERTERS)

    @pytest.mark.parametrize("sql_kind", sorted(_CONVERTERS))
    @pytest.mark.parametrize("cell", sorted(CELLS))
    @given(data=st.data())
    def test_one_kind_column_is_the_decoded_column(self, sql_kind, cell,
                                                    data):
        values = data.draw(st.lists(st.none() | CELLS[cell], min_size=1,
                                    max_size=6))
        other = data.draw(st.lists(st.none() | CELLS[cell],
                                   min_size=len(values),
                                   max_size=len(values)))
        cut_at = data.draw(st.integers(1, len(values)))
        same_as_decoded(batches_of([values, other], cut_at),
                        (sql_kind, sql_kind))

    @given(data=st.data())
    def test_mixed_kind_columns_are_the_decoded_columns(self, data):
        kinds = data.draw(st.lists(st.sampled_from(sorted(_CONVERTERS)),
                                   min_size=1, max_size=4))
        rows = data.draw(st.integers(1, 6))
        columns = [data.draw(st.lists(mixed_cells, min_size=rows,
                                      max_size=rows)) for _ in kinds]
        same_as_decoded(batches_of(columns, data.draw(st.integers(1, rows))),
                        kinds)

    @pytest.mark.parametrize("value, kind, expected", [
        (Decimal("1E+2"), "DECIMAL", Decimal("100")),
        (-0.0, "DOUBLE", 0.0),
        (UntypedAtomic("x"), "VARCHAR", "x"),
        (7, "DECIMAL", Decimal("7")),
    ])
    def test_the_cases_that_convert(self, value, kind, expected):
        [[(cell,)]] = iter_rows([[[value]]], cols(kind))
        assert repr(cell) == repr(expected) and type(cell) is type(expected)

    def test_a_bool_in_an_integer_column_is_the_decoder_s_error(self):
        rows, error = pull_typed([[[1, 2]], [[3, True, 4]]], cols("INTEGER"))
        assert rows == [(1,), (2,), (3,)]
        assert error == "cannot convert cell 'true' to INTEGER"

    def test_identity_pairs_hand_over_the_cells_themselves(self):
        values = [10**30, -5, None]
        [[(cell,), _, _]] = iter_rows([[values]], cols("BIGINT"))
        assert cell is values[0]
