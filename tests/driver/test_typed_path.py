"""The embedded cursor's two row sources keep one lifecycle.

A statement the vector plan runs reaches ``fetchone`` / ``fetchmany`` /
``fetchall`` as typed column batches converted to rows (``iter_rows``);
one the Evaluator runs — here a batched plan whose parameter is bound to
a node (``param_shape``) — as text through the decoder. Every case runs
with both: cancellation and deadlines between fetches inside one batch,
the admission slot's row charges, closing or re-executing mid-stream,
mixing ``fetch_text`` with the row fetches on one result, and a ``for``
loop over the cursor, which pulls a page of rows at a time.
"""

from __future__ import annotations

import pytest

from repro import clock, connect
from repro.driver.dbapi import DEFAULT_FETCH_PAGE, Cursor
from repro.errors import OperationalError, ProgrammingError
from repro.workloads.scaling import build_scaled_runtime
from repro.xmlmodel import element
from repro.xquery import vector

ROWS = 3_000
SQL = "SELECT ID, NAME, AMOUNT FROM FACTS WHERE REGION <> ?"


@pytest.fixture(autouse=True)
def _default_batch_size(monkeypatch):
    """Admission charges whole batches: the figures below are for the
    default batch size, which the CI legs' override must not reshape."""
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)


@pytest.fixture(params=["batched", "evaluator"])
def run(request):
    """``(kind, runtime, connection, parameter)``: a scalar parameter
    lets the vector plan run the statement, a node parameter hands the
    run to the Evaluator."""
    runtime = build_scaled_runtime(ROWS)
    parameter = "X" if request.param == "batched" else element("P", "X")
    return request.param, runtime, connect(runtime), parameter


def _counter(connection, name):
    return connection.stats()["runtime"]["counters"].get(name, 0)


def _open(run):
    kind, runtime, connection, parameter = run
    cursor = connection.cursor()
    declined = _counter(connection, "vector.decline.param_shape")
    cursor.execute(SQL, [parameter])
    assert _counter(connection, "vector.decline.param_shape") - declined \
        == (kind == "evaluator")
    return cursor


def _released(runtime):
    stats = runtime.admission.stats()
    return stats["active"] == 0 and stats["inflight_rows"] == 0


def test_the_row_sources_are_typed_and_decoded(run):
    kind, _runtime, connection, _parameter = run
    cursor = _open(run)
    assert (cursor._typed is not None) == (kind == "batched")
    assert len(cursor.fetchall()) == ROWS
    # No text is printed for typed rows; the Evaluator's is one string.
    assert _counter(connection, "vector.text_chunks") == 0


def test_cancel_between_fetches_inside_a_batch(run):
    _kind, runtime, _connection, _parameter = run
    cursor = _open(run)
    assert len(cursor.fetchmany(5)) == 5
    cursor.cancel()
    with pytest.raises(OperationalError, match="cancel"):
        cursor.fetchmany(5)
    assert cursor._stream is None and _released(runtime)


def test_deadline_between_fetches_inside_a_batch(run):
    _kind, runtime, connection, parameter = run
    now = [0.0]
    clock.set_monotonic(lambda: now[0])
    try:
        cursor = connection.cursor()
        cursor.execute(SQL, [parameter], timeout=10.0)
        assert len(cursor.fetchmany(5)) == 5
        now[0] = 11.0
        with pytest.raises(OperationalError, match="deadline"):
            cursor.fetchmany(5)
    finally:
        clock.set_monotonic(None)
    assert cursor._stream is None and _released(runtime)


def test_admission_charges_buffered_or_fetched_rows(run):
    """The slot is charged ``max(rows buffered, rows fetched)``: whole
    1 024-row batches when batched, fetched rows from the Evaluator's
    text (which buffers nothing) — as before typed rows."""
    kind, runtime, _connection, _parameter = run
    cursor = _open(run)
    charged = []
    for size in (1, 5, 1_500, 10):
        cursor.fetchmany(size)
        charged.append(runtime.admission.stats()["inflight_rows"])
    expected = [1_024, 1_024, 2_048, 2_048] if kind == "batched" \
        else [1, 6, 1_506, 1_516]
    assert charged == expected
    assert len(cursor.fetchall()) == ROWS - 1_516
    assert _released(runtime)


@pytest.mark.parametrize("how", ["close", "re-execute"])
def test_leaving_mid_stream_closes_the_stages(run, how, monkeypatch):
    kind, runtime, _connection, _parameter = run
    events = []
    real_scan = vector._Scan.rows

    def scan(self, state):
        events.append(("open", self))
        try:
            yield from real_scan(self, state)
        finally:
            events.append(("closed", self))

    monkeypatch.setattr(vector._Scan, "rows", scan)
    cursor = _open(run)
    assert cursor.fetchone() is not None
    reader = cursor._stream
    if how == "close":
        cursor.close()
    else:
        cursor.execute("SELECT COUNT(*) FROM FACTS")
    assert list(reader) == []
    if kind == "batched":  # (the Evaluator's scan is no stage)
        assert [event for event, _info in events[:2]] == ["open", "closed"]
        assert events[0][1] is events[1][1]
    if how == "re-execute":
        assert cursor.fetchall() == [(ROWS,)]
    assert _released(runtime)


@pytest.mark.parametrize("first", ["rows", "text"])
def test_mixing_fetch_modes_is_a_programming_error(run, first):
    _kind, runtime, _connection, _parameter = run
    cursor = _open(run)
    if first == "rows":
        assert cursor.fetchone() is not None
        with pytest.raises(ProgrammingError, match="fetch_text"):
            cursor.fetch_text(10)
    else:
        assert cursor.fetch_text(10)[1] == 10
        with pytest.raises(ProgrammingError, match="fetch_text"):
            cursor.fetchone()
    assert cursor._stream is None and _released(runtime)
    # The cursor is usable again.
    cursor.execute("SELECT COUNT(*) FROM FACTS")
    assert cursor.fetchall() == [(ROWS,)]


ITERATED = 5_000


@pytest.fixture
def iterated(run, monkeypatch):
    """``(runtime, cursor, pulls)``: *run*'s statement over a
    ``ITERATED``-row table, executed; *pulls* lists each fetch step's
    row limit."""
    kind, _runtime, _connection, parameter = run
    pulls = []
    pull = Cursor._pull

    def counted(self, limit, rows=None):
        pulls.append(limit)
        return pull(self, limit, rows)

    monkeypatch.setattr(Cursor, "_pull", counted)
    runtime = build_scaled_runtime(ITERATED)
    cursor = connect(runtime).cursor()
    cursor.execute(SQL, [parameter])
    return runtime, cursor, pulls


def test_iteration_pulls_a_page_at_a_time(iterated):
    runtime, cursor, pulls = iterated
    assert [row[0] for row in cursor] == list(range(ITERATED))
    assert len(pulls) <= -(-ITERATED // DEFAULT_FETCH_PAGE) + 1
    assert cursor.rowcount == ITERATED and _released(runtime)


def test_rows_the_loop_did_not_reach_stay_fetchable(iterated):
    _runtime, cursor, _pulls = iterated
    seen = []
    for row in cursor:
        seen.append(row)
        if len(seen) == 10:
            break
    seen.append(cursor.fetchone())
    seen += cursor.fetchmany(5)
    seen += cursor.fetchall()
    assert [row[0] for row in seen] == list(range(ITERATED))


def test_cancel_during_iteration_raises_at_the_next_pull(iterated):
    runtime, cursor, _pulls = iterated
    seen = 0
    with pytest.raises(OperationalError, match="cancel"):
        for seen, _row in enumerate(cursor, 1):
            if seen == 10:
                cursor.cancel()
    assert seen <= DEFAULT_FETCH_PAGE
    assert cursor._stream is None and _released(runtime)
