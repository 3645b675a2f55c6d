"""Experiment E6 (headline, paper section 4): result-path comparison.

The paper: "performance could be measurably improved if we replaced XML
as the return type for translated XQuery expressions with a more compact
format" parsed "using computed result schema information".

Series R1: end-to-end query latency through the driver for the result
paths — ``wire`` (wrapper query + text codec: the delimited pages a
server ships, ``Cursor.fetch_text``, decoded by ``decode_delimited``)
vs ``xml`` (materialize ``<RECORDSET>``, serialize, re-parse
client-side) — swept over row count and row width. The paper's claim
holds if the text codec wins throughout and the gap grows with result
volume. ``delimited`` is the embedded cursor, which prints no text: it
converts the executor's typed cells by the same result schema.

Series R1b isolates the client-side cost: decoding a prematerialized
result through each codec.
"""

import pytest

from repro.driver import connect, decode_delimited, decode_xml
from repro.workloads import build_scaled_runtime

ROWS = [100, 1000, 4000]
SQL = "SELECT * FROM FACTS"
FORMATS = ["delimited", "wire", "xml"]
PAGE_ROWS = 1000


def _connection(rows, fmt, extra_columns=0):
    runtime = build_scaled_runtime(rows, extra_columns=extra_columns)
    return connect(runtime, format="delimited" if fmt == "wire" else fmt)


def _fetch(cursor, fmt):
    """All rows: ``fetchall``, or for ``wire`` the text pages a server
    would ship, each decoded as a remote cursor decodes it."""
    if fmt != "wire":
        return cursor.fetchall()
    rows = []
    while True:
        text, _count, last = cursor.fetch_text(PAGE_ROWS)
        rows.extend(decode_delimited(text, cursor.columns))
        if last:
            return rows


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.benchmark(group="E6-result-paths-by-rows")
def test_result_path_by_rows(benchmark, rows, fmt):
    cursor = _connection(rows, fmt).cursor()
    cursor.execute(SQL)  # warm translation/statement cache

    def run():
        cursor.execute(SQL)
        return _fetch(cursor, fmt)

    result = benchmark(run)
    assert len(result) == rows


@pytest.mark.parametrize("extra_columns", [0, 8])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.benchmark(group="E6-result-paths-by-width")
def test_result_path_by_width(benchmark, extra_columns, fmt):
    cursor = _connection(1000, fmt, extra_columns=extra_columns).cursor()
    cursor.execute(SQL)

    def run():
        cursor.execute(SQL)
        return _fetch(cursor, fmt)

    result = benchmark(run)
    assert len(result) == 1000
    assert len(result[0]) == 4 + extra_columns


@pytest.mark.parametrize("fmt", ["delimited", "xml"])
@pytest.mark.benchmark(group="E6b-client-decode-only")
def test_client_decode_only(benchmark, fmt):
    """Client-side cost in isolation: same 2000 rows, prematerialized in
    each wire format, decoded repeatedly."""
    runtime = build_scaled_runtime(2000)
    connection = connect(runtime, format=fmt)
    translation = connection.translate(SQL)
    payload = runtime.execute(translation.xquery)
    if fmt == "delimited":
        stream = "".join(str(item) for item in payload)
        run = lambda: decode_delimited(stream, translation.columns)  # noqa: E731
    else:
        from repro.xmlmodel import serialize
        text = serialize(payload[0])
        run = lambda: decode_xml(text, translation.columns)  # noqa: E731

    rows = benchmark(run)
    assert len(rows) == 2000
