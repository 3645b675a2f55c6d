"""Regenerate ``corpus.json``, the frozen XQuery text of the translator,
or (``--explain``) ``explain.json``, the frozen EXPLAIN plans of it.

    PYTHONPATH=src python tests/translator/golden/freeze.py [--explain]

The corpus holds, for both result formats, the text generated for

* ``COMPLEXITY_CLASSES`` C1-C5;
* every SQL statement ``tests/translator/test_paper_examples.py`` and
  ``test_generation_shapes.py`` translate (gathered by running those two
  modules with ``SQLToXQueryTranslator.translate`` recording its input);
* 200 ``tests/fuzz/sqlgen.py`` statements: schema seeds 0-19, ten
  statements each, fuzzer seed ``1000 * schema_seed + n``;
* beyond what the freeze asked for, the 130-statement equivalence
  battery of ``tests/integration/test_equivalence.py`` and the ``EXTRA``
  statements below, which between them reach the stage-three branches
  the groups above do not (set operations, FULL/RIGHT/nested outer
  joins, quantified and EXISTS subqueries, implicit-group HAVING, every
  literal kind, an operand the generator writes out twice).

``test_golden.py`` beside this file asserts byte equality against it, so
run this only for a change to the generated text that is meant, and
review the diff: each text is stored as a list of lines for that. An
entry whose text changes keeps what was first frozen for it under
``"parent"``; the test holds such an entry to "parses equal, differs in
whitespace and parentheses only" and to a list of the ids allowed one.

``explain.json`` holds, per corpus entry and format, the ``executor:``
line and the ``EXECUTION PLAN`` section of EXPLAIN after one evaluation
(so with ``actual=`` counts): on the memory backend, in batches of
:data:`EXPLAIN_BATCH_SIZE` rows, every ``?`` parameter bound to ``1``.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[2]
CORPUS = HERE / "corpus.json"
EXPLAIN = HERE / "explain.json"
EXPLAIN_BATCH_SIZE = 64
FORMATS = ("recordset", "delimited")
FUZZ_SCHEMAS = range(20)
FUZZ_PER_SCHEMA = 10
#: One statement per generation branch the other groups leave out.
EXTRA = (
    "SELECT 1E2, 12345678901, 5., TIME '10:00:00', "
    "TIMESTAMP '2020-01-02 03:04:05', DATE '2020-01-02', "
    "'a\"b&c''d<e' FROM CUSTOMERS",
    "SELECT ROUND(CREDITLIMIT), ROUND(CREDITLIMIT, 1), "
    "MOD(CUSTOMERID, 3), NULLIF(REGION, 'WEST'), -CUSTOMERID, "
    "+CUSTOMERID FROM CUSTOMERS",
    "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS "
    "ORDER BY 1 DESC LIMIT 3 OFFSET 1",
    "SELECT CUSTOMERID FROM CUSTOMERS UNION ALL SELECT CUSTID FROM "
    "PAYMENTS UNION ALL SELECT CUSTID FROM PAYMENTS ORDER BY 1 OFFSET 2",
    "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT ALL SELECT CUSTID FROM "
    "PAYMENTS EXCEPT SELECT CUSTOMERID FROM CUSTOMERS WHERE "
    "REGION = 'WEST'",
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C FULL OUTER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID LIMIT 4",
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C RIGHT OUTER JOIN "
    "PAYMENTS P ON C.CUSTOMERID = P.CUSTID WHERE P.PAYMENT > ?",
    "SELECT C.CUSTOMERNAME, P.PAYMENT, Q.PAYMENT FROM (CUSTOMERS C LEFT "
    "OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID) LEFT OUTER JOIN "
    "PAYMENTS Q ON Q.CUSTID = C.CUSTOMERID",
    "SELECT C.CUSTOMERNAME, D.TOTAL FROM CUSTOMERS C LEFT OUTER JOIN "
    "(SELECT CUSTID, SUM(PAYMENT) TOTAL FROM PAYMENTS GROUP BY CUSTID) D "
    "ON C.CUSTOMERID = D.CUSTID",
    "SELECT COUNT(*), MAX(CREDITLIMIT) FROM CUSTOMERS WHERE "
    "REGION = 'WEST' HAVING COUNT(*) > 1",
    "SELECT REGION, SUM(CREDITLIMIT) FROM CUSTOMERS GROUP BY REGION "
    "HAVING SUM(CREDITLIMIT) BETWEEN 1 AND 100000 AND "
    "COUNT(DISTINCT CUSTOMERID) IN (1, 2, COUNT(*))",
    "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS (SELECT DISTINCT "
    "CUSTID FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID) AND "
    "CUSTOMERID IN (23) AND CUSTOMERID NOT IN (CUSTOMERID, 1) AND "
    "CUSTOMERID < ANY (SELECT CUSTID FROM PAYMENTS)",
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT "
    "CUSTID FROM PAYMENTS UNION ALL SELECT CUSTOMERID FROM CUSTOMERS) "
    "AND EXISTS (SELECT CUSTID FROM PAYMENTS UNION ALL SELECT "
    "CUSTOMERID FROM CUSTOMERS)",
    "SELECT CASE REGION WHEN 'WEST' THEN 1 WHEN 'EAST' THEN 2 END, "
    "CASE WHEN CREDITLIMIT > 500 THEN 'hi' ELSE 'lo' END, "
    "COALESCE(REGION, CUSTOMERNAME, 'x') FROM CUSTOMERS",
    "SELECT (SELECT MAX(PAYMENT) FROM PAYMENTS P WHERE "
    "P.CUSTID = C.CUSTOMERID) FROM CUSTOMERS C WHERE "
    "(SELECT COUNT(*) FROM PAYMENTS) BETWEEN 1 AND 100",
    "SELECT DISTINCT REGION FROM CUSTOMERS ORDER BY REGION LIMIT 2",
    "SELECT CUSTOMERID / 2, CREDITLIMIT / 2, CUSTOMERID * 2 - 1 FROM "
    "CUSTOMERS WHERE NOT (REGION LIKE 'W%' OR REGION IS NOT NULL)",
)
_SHAPE_MODULES = ("tests/translator/test_paper_examples.py",
                  "tests/translator/test_generation_shapes.py")


def demo_translator():
    from repro.translator import SQLToXQueryTranslator
    from repro.workloads import build_runtime
    return SQLToXQueryTranslator(build_runtime().metadata_api())


def fuzz_schema(seed: int):
    from tests.fuzz.sqlgen import generate_schema
    return generate_schema(seed)


def fuzz_translator(seed: int):
    from repro.translator import SQLToXQueryTranslator
    from tests.fuzz.harness import build_runtime
    runtime = build_runtime(fuzz_schema(seed), "memory", 0)
    return SQLToXQueryTranslator(runtime.metadata_api())


def render(translator, sql: str) -> dict:
    """The corpus fields for one statement: each format's text, as
    lines."""
    return {fmt: translator.translate(sql, format=fmt).xquery.split("\n")
            for fmt in FORMATS}


def explain_runtime(schema):
    """The runtime an entry of *schema* is explained on: the memory
    backend, batches of :data:`EXPLAIN_BATCH_SIZE` rows."""
    from repro import RuntimeConfig
    if schema == "demo":
        from repro.workloads import build_runtime
        return build_runtime(RuntimeConfig(batch_size=EXPLAIN_BATCH_SIZE),
                             backend="memory")
    from tests.fuzz.harness import build_runtime
    return build_runtime(fuzz_schema(schema), "memory", EXPLAIN_BATCH_SIZE)


def explain_plan(runtime, translator, sql: str, fmt: str) -> list[str]:
    """The ``executor:`` line and ``EXECUTION PLAN`` section of EXPLAIN
    after one evaluation of *sql* in *fmt*, each parameter bound to 1,
    as lines. An evaluation that raises (a parameter of another type)
    is listed with the rows counted up to the error."""
    from repro.errors import ReproError
    from repro.translator import explain
    result = translator.translate(sql, format=fmt)
    plan = runtime.prepare_module((fmt, sql), result.module)
    actuals: dict = {}
    try:
        plan.evaluate(result.parameter_variables(
            [1] * len(result.parameter_types)), actuals=actuals)
    except ReproError:
        pass
    lines = explain(result.unit, plan_reports=plan.plan_reports,
                    actuals=actuals, executor=plan.executor).splitlines()
    return lines[lines.index(f"executor: {plan.executor}"):]


def build_explain(entries: list[dict]) -> dict:
    """``{entry id: {format: EXPLAIN lines}}`` of every corpus entry."""
    from repro.translator import SQLToXQueryTranslator
    plans: dict = {}
    runtimes: dict = {}
    for entry in entries:
        schema = entry["schema"]
        if schema not in runtimes:
            runtime = explain_runtime(schema)
            runtimes[schema] = (runtime, SQLToXQueryTranslator(
                runtime.metadata_api()))
        runtime, translator = runtimes[schema]
        plans[entry["id"]] = {
            fmt: explain_plan(runtime, translator, entry["sql"], fmt)
            for fmt in FORMATS}
    for runtime, _translator in runtimes.values():
        runtime.close()
    return plans


def _shape_statements() -> list[str]:
    """Every SQL text the two shape-test modules translate, in first-use
    order."""
    import pytest
    from repro.translator import SQLToXQueryTranslator

    seen: dict[str, None] = {}
    original = SQLToXQueryTranslator.translate

    def recording(self, sql, format="recordset"):
        seen.setdefault(sql)
        return original(self, sql, format=format)

    SQLToXQueryTranslator.translate = recording
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(str(ROOT / m) for m in _SHAPE_MODULES)])
    finally:
        SQLToXQueryTranslator.translate = original
    if status != 0:
        raise SystemExit("the shape tests must pass before freezing")
    return list(seen)


def build() -> list[dict]:
    from repro.workloads.generator import COMPLEXITY_CLASSES
    from tests.fuzz.sqlgen import QueryFuzzer
    from tests.integration.test_equivalence import BATTERY, HARD_BATTERY

    entries = []
    demo = demo_translator()
    for name, sql in COMPLEXITY_CLASSES.items():
        entries.append({"id": name, "schema": "demo", "sql": sql,
                        **render(demo, sql)})
    for group, statements in (("shape", _shape_statements()),
                              ("battery", BATTERY + HARD_BATTERY),
                              ("extra", EXTRA)):
        for index, sql in enumerate(statements):
            entries.append({"id": f"{group}-{index:03d}",
                            "schema": "demo", "sql": sql,
                            **render(demo, sql)})
    for seed in FUZZ_SCHEMAS:
        translator = fuzz_translator(seed)
        schema = fuzz_schema(seed)
        for n in range(FUZZ_PER_SCHEMA):
            sql, _params = QueryFuzzer(1000 * seed + n, schema).query()
            entries.append({"id": f"fuzz-{seed:02d}-{n}", "schema": seed,
                            "sql": sql, **render(translator, sql)})
    return entries


def keep_parents(entries: list[dict], frozen: list[dict]) -> None:
    """Carry the first-frozen text of every entry that now differs."""
    before = {entry["id"]: entry for entry in frozen}
    for entry in entries:
        old = before.get(entry["id"])
        if old is None or old["sql"] != entry["sql"]:
            continue
        parent = old.get("parent") or {fmt: old[fmt] for fmt in FORMATS}
        if any(parent[fmt] != entry[fmt] for fmt in FORMATS):
            entry["parent"] = parent


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if "--explain" in sys.argv[1:]:
        EXPLAIN.write_text(json.dumps(
            build_explain(json.loads(CORPUS.read_text())), indent=1) + "\n")
        print(f"wrote {EXPLAIN}")
        raise SystemExit
    entries = build()
    if CORPUS.exists():
        keep_parents(entries, json.loads(CORPUS.read_text()))
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {CORPUS}")
