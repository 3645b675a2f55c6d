"""Property tests: FLWOR ``order by`` is a stable sort.

SQL result determinism depends on it: when a multi-key ``order by``
leaves ties, rows must keep their source order, and the batch executor
must order exactly like the list-based interpreter (including
empty-least/greatest handling and descending inversion via
``_Directional``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Application
from repro.engine import DSPRuntime, Storage, import_tables
from repro.sql.types import SQLType
from repro.xmlmodel import element
from repro.xquery import compile_module, parse_xquery
from repro.xquery.evaluator import Evaluator

ORDERED = """
for $r in $src
order by fn:data($r/K1) ascending empty least,
         fn:data($r/K2) descending empty greatest
return fn:data($r/V)
"""


def rows(pairs):
    """One R element per (k1, k2); V is the unique source position."""
    out = []
    for position, (k1, k2) in enumerate(pairs):
        def cell(name, value):
            if value is None:
                return element(name)
            return element(name, str(value), type_annotation="int")

        out.append(element("R", cell("K1", k1), cell("K2", k2),
                           element("V", str(position),
                                   type_annotation="int")))
    return out


#: Tiny key domains force heavy duplication, the stability-relevant case.
KEY = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
PAIRS = st.lists(st.tuples(KEY, KEY), min_size=0, max_size=24)


def reference_order(pairs):
    """Stable reference: Python's sorted with the clause's semantics
    (K1 ascending empty-least, K2 descending empty-greatest)."""
    def key(indexed):
        _position, (k1, k2) = indexed
        first = (0,) if k1 is None else (1, k1)
        # descending with empty greatest: empty sorts first when
        # descending is expressed by negating the comparison, i.e.
        # greatest-first becomes least-last under the inversion.
        second = (0,) if k2 is None else (1, -k2)
        return (first, second)

    indexed = list(enumerate(pairs))
    return [position for position, _pair in sorted(indexed, key=key)]


@given(PAIRS)
@settings(max_examples=200, deadline=None)
def test_order_by_is_stable_and_matches_reference(pairs):
    module = parse_xquery(ORDERED)
    variables = {"src": rows(pairs)}
    interpreted = Evaluator(module, variables=variables).evaluate()
    assert interpreted == reference_order(pairs)


#: :data:`ORDERED` over a table, as translated SQL writes it.
ORDERED_RECORDS = """
declare namespace t = "ld:T/ROWS";
<RECORDSET>{
for $r in t:ROWS()
order by fn:data($r/K1) ascending empty least,
         fn:data($r/K2) descending empty greatest
return <RECORD><V>{fn:data($r/V)}</V></RECORD>
}</RECORDSET>
"""


def runtime_over(pairs) -> DSPRuntime:
    """ROWS (K1, K2, V): one row per pair, V its position."""
    storage = Storage()
    table = storage.create_table("ROWS", [(name, SQLType("INTEGER"))
                                          for name in ("K1", "K2", "V")])
    table.insert_many([(k1, k2, position)
                       for position, (k1, k2) in enumerate(pairs)])
    application = Application("OrderApp")
    import_tables(application, "T", storage)
    return DSPRuntime(application, storage)


@given(PAIRS)
@settings(max_examples=200, deadline=None)
def test_compiled_order_matches_interpreter_exactly(pairs):
    runtime = runtime_over(pairs)
    module = parse_xquery(ORDERED_RECORDS)
    interpreted = Evaluator(module,
                            resolver=runtime.call_function).evaluate()
    # Three-row batches: ties straddle batch edges.
    plan = compile_module(module, resolver=runtime.call_function,
                          batch_size=3, columnar=runtime)
    assert plan.batched
    assert plan.evaluate() == interpreted
    assert [int(record.string_value())
            for record in interpreted[0].children] == reference_order(pairs)


@given(PAIRS)
@settings(max_examples=100, deadline=None)
def test_ties_keep_source_order(pairs):
    """Explicit stability: among rows with identical keys, source
    positions appear in increasing order."""
    module = parse_xquery(ORDERED)
    result = Evaluator(module, variables={"src": rows(pairs)}).evaluate()
    last_seen: dict = {}
    for position in result:
        key = pairs[position]
        if key in last_seen:
            assert last_seen[key] < position
        last_seen[key] = position
