"""End-to-end tracing acceptance tests (ISSUE 1 criteria).

A traced SELECT with a two-table join must yield a span tree
containing ``stage1``, ``stage2``, ``stage3``, and exactly one
``metadata.fetch`` span per distinct table, all with nonzero
durations, and ``Connection.stats()`` must report matching counters.
"""

import pytest

from repro.driver import connect
from repro.translator import explain
from repro.workloads import build_runtime

JOIN_SQL = ("SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C "
            "INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID")


@pytest.fixture
def traced_connection():
    connection = connect(build_runtime())
    connection.tracer.enable()
    yield connection
    connection.close()


class TestTracedJoin:
    def test_span_tree_shape(self, traced_connection):
        cursor = traced_connection.cursor()
        cursor.execute(JOIN_SQL)
        root = traced_connection.tracer.last_root()
        assert root.name == "execute"
        # Streaming delimited result: no materialize span — rows are
        # decoded lazily at fetch time, outside the execute() call.
        assert [child.name for child in root.children] == \
            ["translate", "evaluate"]
        evaluate = root.children[1]
        # Cold plan: the evaluate span shows the closure-compile — and
        # no parse, the translator hands the runtime a tree.
        assert [child.name for child in evaluate.children] == \
            ["xquery.compile"]
        translate = root.children[0]
        stage_names = [child.name for child in translate.children]
        assert stage_names == ["stage1", "stage2", "stage3"]

        fetches = root.find("metadata.fetch")
        assert sorted(span.attributes["name"] for span in fetches) == \
            ["CUSTOMERS", "PAYMENTS"]
        # The fetches happen during stage two, nested under it.
        stage2 = translate.children[1]
        assert stage2.find("metadata.fetch") == fetches

        for span in root.find("stage1") + root.find("stage2") + \
                root.find("stage3") + fetches + [root]:
            assert span.end is not None
            assert span.duration > 0

    def test_counters_match_span_tree(self, traced_connection):
        cursor = traced_connection.cursor()
        cursor.execute(JOIN_SQL)
        fetched = len(cursor.fetchall())
        root = traced_connection.tracer.last_root()
        counters = traced_connection.stats()["counters"]
        assert counters["metadata.fetches"] == \
            len(root.find("metadata.fetch")) == 2
        assert counters["metadata.cache.misses"] == 2
        assert counters["queries.translated"] == 1
        assert counters["queries.executed"] == 1
        assert counters["statement.cache.misses"] == 1
        assert counters["rows.streamed"] == fetched == cursor.rowcount
        assert counters["rows.materialized"] == 0

    def test_repeat_execution_hits_caches_and_skips_fetches(
            self, traced_connection):
        cursor = traced_connection.cursor()
        cursor.execute(JOIN_SQL)
        cursor.execute(JOIN_SQL)
        root = traced_connection.tracer.last_root()
        # Cached translation: no translate span, no metadata fetches;
        # cached plan: no xquery.parse / xquery.compile either.
        assert [child.name for child in root.children] == ["evaluate"]
        assert root.children[0].children == []
        counters = traced_connection.stats()["counters"]
        assert counters["statement.cache.hits"] == 1
        assert counters["metadata.fetches"] == 2
        assert counters["queries.executed"] == 2
        plan_stats = traced_connection.stats()["plan_cache"]
        assert plan_stats["hits"] == 1 and plan_stats["misses"] == 1

    def test_stage_timings_and_histograms(self, traced_connection):
        result = traced_connection.translate(JOIN_SQL)
        timings = result.stage_timings
        assert set(timings) == {"stage1", "stage2", "stage3", "total"}
        assert all(value > 0 for value in timings.values())
        assert timings["total"] >= (timings["stage1"] + timings["stage2"]
                                    + timings["stage3"]) * 0.99
        histograms = traced_connection.stats()["histograms"]
        for stage in ("stage1", "stage2", "stage3", "total"):
            assert histograms[f"translate.{stage}.seconds"]["count"] == 1

    def test_explain_renders_stage_timings(self, traced_connection):
        # EXPLAIN reads the stage-1/2 unit, which a statement-cache entry
        # does not keep: translate afresh, as the shell does.
        result = traced_connection.translator.translate(JOIN_SQL)
        assert traced_connection.translate(JOIN_SQL).unit is None
        report = explain(result.unit, stage_timings=result.stage_timings)
        assert "STAGE TIMINGS" in report
        assert "stage2" in report
        assert "ms" in report

    def test_tracing_off_records_nothing(self):
        connection = connect(build_runtime())
        cursor = connection.cursor()
        cursor.execute(JOIN_SQL)
        assert connection.tracer.roots() == []
        # Metrics still accumulate with tracing off.
        assert connection.stats()["counters"]["queries.executed"] == 1
        connection.close()

    def test_close_releases_cached_state(self):
        connection = connect(build_runtime())
        connection.translate(JOIN_SQL)
        assert len(connection._statement_cache) == 1
        connection.close()
        assert len(connection._statement_cache) == 0
        assert connection._metadata_cache.stats_dict()["size"] == 0


GROUP_SQL = ("SELECT REGION, COUNT(*), SUM(CREDITLIMIT) FROM CUSTOMERS "
             "GROUP BY REGION")


@pytest.mark.parametrize("sql", [JOIN_SQL, GROUP_SQL],
                         ids=["join", "group"])
@pytest.mark.parametrize("fmt", ["xml", "delimited"])
def test_operator_times_fall_within_the_execute_span(sql, fmt):
    """Each ``plan.node`` event names its operator and the milliseconds
    it spent producing its rows. The xml result is built inside the
    execute span, so every operator's time is at most the span's
    duration; a delimited result streams, its operators run as the
    cursor fetches, and the events land on the span when the stream
    drains — at an offset from its start that bounds every operator's
    time."""
    connection = connect(build_runtime(), format=fmt)
    connection.tracer.enable()
    cursor = connection.cursor()
    cursor.execute(sql)
    assert cursor.fetchall()
    root = connection.tracer.last_root()
    spans = [root]
    for span in spans:
        spans.extend(span.children)
    # (offsets are from the start of the span the event is on)
    events = [(offset, attributes) for span in spans
              for name, offset, attributes in span.events
              if name == "plan.node"]
    assert events
    ops = {attributes["op"] for _offset, attributes in events}
    assert ("hash_join" if sql == JOIN_SQL else "group") in ops
    for offset, attributes in events:
        ms = float(attributes["ms"])
        assert 0 <= ms <= offset * 1000
        if fmt == "xml":
            assert ms <= root.duration * 1000
    connection.close()
