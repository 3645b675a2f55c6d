"""Partitioned scatter/gather execution across a process pool.

ROADMAP item 3's "scale-out inside one box": the GIL makes threads a
dead end for CPU-bound XQuery evaluation, so eligible vectorized scans
are split into source partitions (``DataSource.partitions``) and
evaluated by forked worker processes, each running the existing batch
pipeline over its slice. This mirrors the PRiSM "Tout-XML" mediator
shape — one mediator fans subplans out to wrapper sites and recomposes
the result — with fork-pool workers standing in for the remote sites.

Worker protocol
---------------
The pool uses the ``fork`` start method, so the (unpicklable) runtime
rides into workers as initializer state via copy-on-write memory; each
worker calls ``DSPRuntime.reset_after_fork`` once to rebuild every
lock-bearing structure. Per task, only small picklable values cross
the pipe: a :class:`PartitionTask` in (query text, partition spec,
scalar parameters), and a status tuple out —

* ``("ok", payload)`` — the partition's result,
* ``("stale",)`` — the worker's data snapshot no longer matches the
  parent's version token (parent restarts the pool once, re-forking
  over current data, then retries),
* ``("incompatible",)`` — the worker compiled a structurally different
  plan for the same text (should not happen; serial fallback),
* ``("error", type_name, message)`` — any worker-side failure. Custom
  exception types may not unpickle, so errors travel as strings.

Fallback rule: the serial executor is the answer to every parallel
problem. Any error, staleness that survives one pool restart, a
missing fork platform, or a source that cannot partition simply runs
the query on the ordinary in-process path — byte-identical by
construction, since workers run the same compiled plan over the same
snapshot the serial path would scan.

Which plans scatter: only those whose gather is small next to the scan
(``_VectorPlan.parallel_ready``). A plan with no pipeline breaker and no
window runs whole in the workers and ships encoded text ("encode"
mode); an aggregate-led plan whose every aggregate decomposes into an
associative partial state, and whose NDV estimate predicts real
compression, ships O(groups) partial-state tables ("partial_agg" mode).
Ordered, windowed and non-decomposable plans run serially by plan
shape: they would ship O(rows) columns to a parent that still has the
whole sort to do.

Order restoration: partitions are gathered in partition-index order
only after *all* workers finish (a full barrier — no output escapes
before every partition succeeded, which is what makes the wholesale
fallback possible). In "encode" mode concatenating the per-partition
chunk texts in index order *is* the serial byte order, because every
worker-side stage (scan, where, hash join probe) preserves its input
row order. In "partial_agg" mode workers run scan→filter→partial-
aggregate; the parent merges the tables in partition-index order
(which reproduces the serial first-seen group order, since partitions
are contiguous slices of the scan), finalizes, and runs the
having/order/window/encode suffix — see ``_VectorPlan.gather_partial``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
import weakref
from dataclasses import dataclass
from typing import Optional

from ..errors import QueryCancelledError, QueryTimeoutError
from ..xquery.planner import bind_scan_request
from .lifecycle import QueryContext

#: Poll interval while waiting on worker results: bounds the latency of
#: noticing a parent-side cancellation at ~this many seconds.
_POLL_SECONDS = 0.05

#: Sentinel: at least one worker saw a different data version.
_STALE = object()

#: The forked runtime, installed once per worker by :func:`_init_worker`.
_WORKER_RUNTIME = None


def _init_worker(runtime) -> None:
    global _WORKER_RUNTIME
    # Any Pool object that rode into this fork (another runtime's pool
    # in the same process, say a serial/parallel differential pair) is
    # a ghost here: its worker processes belong to the parent. Its
    # __del__ would try to signal them over dead pipe fds at exit, so
    # silence it process-wide before anything else runs.
    multiprocessing.pool.Pool.__del__ = lambda self: None
    runtime.reset_after_fork()
    _WORKER_RUNTIME = runtime


@dataclass(frozen=True)
class PartitionTask:
    """Everything a worker needs to run one partition; must pickle."""

    xquery_text: str
    uri: str
    local: str
    spec: object  # sources.PartitionSpec
    params: dict  # external variable name -> scalar or None
    version: object  # parent's source version token at scatter time
    timeout: Optional[float]  # parent deadline remaining at scatter
    signature: tuple  # parent plan's structural signature


def _run_partition(task: PartitionTask) -> tuple:
    """Worker-side task body (module-level so the pool can address it)."""
    runtime = _WORKER_RUNTIME
    try:
        plan = runtime.prepare(task.xquery_text)
        vplan = plan.vector_plan
        if vplan is None or vplan.signature != task.signature:
            return ("incompatible",)
        target = runtime._columnar_target(task.uri, task.local)
        if target is None:
            return ("incompatible",)
        _function, _faulty, source, table = target
        if source.version(table) != task.version:
            return ("stale",)
        from ..xquery.evaluator import CONTEXT_KEY, _Frame

        bindings = {name: ([] if value is None else [value])
                    for name, value in task.params.items()}
        bindings[CONTEXT_KEY] = QueryContext(timeout=task.timeout)
        payload = vplan.run_partition(_Frame(bindings), task.spec)
        return ("ok", payload)
    except Exception as exc:  # noqa: BLE001 - protocol boundary
        return ("error", type(exc).__name__, str(exc))


def _ensure_pool(runtime):
    if runtime._pool is None:
        context = multiprocessing.get_context("fork")
        pool = context.Pool(
            processes=runtime.parallelism,
            initializer=_init_worker, initargs=(runtime,))
        # Terminate when the runtime is collected or the interpreter
        # exits (finalize hooks atexit): a pool leaked in RUN state
        # would otherwise fire its __del__ during teardown, racing the
        # GC over its already-closed queue fds. terminate() is
        # idempotent, so this composes with shutdown_pool().
        weakref.finalize(runtime, pool.terminate)
        runtime._pool = pool
    return runtime._pool


def _collect(async_results, ctx) -> list:
    """Await every partition result (full-gather barrier), polling the
    parent's lifecycle context so cancellation/deadline aborts the wait
    within :data:`_POLL_SECONDS` (workers hit their own shipped
    deadline and exit on their side)."""
    results = []
    for pending in async_results:
        while True:
            try:
                results.append(pending.get(timeout=_POLL_SECONDS))
                break
            except multiprocessing.TimeoutError:
                if ctx is not None:
                    ctx.check()
    return results


def execute(runtime, vplan, state) -> Optional[object]:
    """Scatter *vplan* (an eligible ``_VectorPlan``) across the pool
    and gather the result; None means "run serially instead"."""
    info = vplan.stages[0][1]
    target = runtime._columnar_target(info.uri, info.local)
    if target is None:
        return None
    _function, _faulty, source, table = target
    if runtime.parallel_min_rows > 0:
        try:
            stats = runtime.statistics_for(info.uri, info.local)
        except Exception:
            stats = None
        if stats is None or stats.row_count < runtime.parallel_min_rows:
            # Below the scatter threshold (or size unknown): the pool
            # tax exceeds the win. Not counted as a fallback — this is
            # the planner declining, not parallel execution failing.
            return None
    try:
        request = bind_scan_request(info.request, state.frame.lookup)
        specs = source.partitions(table, request, runtime.parallelism)
        version = source.version(table)
    except Exception:
        specs = None
        version = None
    if not specs or len(specs) < 2:
        return None

    timeout = state.ctx.remaining() if state.ctx is not None else None
    text = vplan.xquery_text()
    tasks = [PartitionTask(
        xquery_text=text, uri=info.uri, local=info.local,
        spec=spec, params=dict(state.params), version=version,
        timeout=timeout, signature=vplan.signature)
        for spec in specs]

    started = time.perf_counter()
    # Two rounds: a stale snapshot (data changed since the workers
    # forked) restarts the pool once — re-forking captures the current
    # data — before giving up to the serial path.
    for round_index in range(2):
        try:
            pool = _ensure_pool(runtime)
            pending = [pool.apply_async(_run_partition, (task,))
                       for task in tasks]
            raw = _collect(pending, state.ctx)
        except (QueryCancelledError, QueryTimeoutError):
            raise
        except Exception:
            runtime._parallel_fallbacks.increment()
            return None
        payloads = []
        stale = False
        failed = False
        for result in raw:
            kind = result[0]
            if kind == "ok":
                payloads.append(result[1])
            elif kind == "stale":
                stale = True
            else:  # error / incompatible
                failed = True
        if failed:
            runtime._parallel_fallbacks.increment()
            return None
        if stale:
            runtime.shutdown_pool()
            continue
        runtime._gather_seconds.observe(time.perf_counter() - started)
        runtime._parallel_queries.increment()
        runtime._parallel_partitions.add(len(payloads))
        runtime._parallel_workers.add(
            min(runtime.parallelism, len(payloads)))
        return _merge(vplan, state, payloads)
    runtime._parallel_fallbacks.increment()
    return None


def _merge(vplan, state, payloads):
    """Stitch fully-gathered partition payloads back into the chunk
    stream the caller expects, charging the parent lifecycle context
    for the merged rows (admission accounts in-flight rows here — the
    workers charged only their own, now-dead contexts)."""
    if vplan.parallel_mode == "encode":
        from ..xquery.vector import VSTATS

        def emit():
            for text, out_rows in payloads:
                if state.ctx is not None:
                    state.ctx.rows_buffered += out_rows
                    state.ctx.tick_rows(out_rows)
                if text:
                    VSTATS.batches += 1
                    VSTATS.rows += out_rows
                    yield text

        return emit()
    scanned_total = sum(scanned for _table, scanned in payloads)
    if state.ctx is not None:
        state.ctx.tick_rows(scanned_total)
        # Aggregation buffers whole-input state worker-side, so
        # admission charges the pre-aggregation scanned volume —
        # the same charge the serial aggregation stage makes.
        state.ctx.rows_buffered += scanned_total
    counter = getattr(vplan.columnar, "_partial_aggs", None)
    if counter is not None:
        counter.increment()
    return vplan.gather_partial(state, payloads)
