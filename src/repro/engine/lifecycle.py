"""Query lifecycle control: deadlines, cancellation, admission, retries.

The paper's driver fronts heterogeneous enterprise sources; at serving
scale the mediator — not the client — must absorb slow and flaky
backends. This module provides the control plane every execution now
carries:

* :class:`QueryContext` — one per query: an absolute deadline, a
  :class:`CancellationToken`, and row accounting. The compiled FLWOR
  pipeline and the streaming codec call :meth:`QueryContext.tick` at
  tuple granularity (the check itself fires once per batch), so a
  ``Cursor.cancel()`` from another thread or an expired deadline aborts
  an in-flight stream within one batch.
* :class:`AdmissionController` — one admission gate: bounds
  concurrent queries (queueing up to a timeout, or failing fast at 0),
  total in-flight streamed rows across the queries it admitted, and
  each query's deadline. The runtime keeps one (a runaway join cannot
  hold its memory hostage); the server keeps one per tenant above it.
* :class:`RetryPolicy` — exponential backoff with jitter for
  ``TransientSourceError`` from physical sources, capped by the query's
  remaining deadline.

Everything is standard library and thread-safe; cancellation is a flag
read by the executing thread at its next check point, never a forced
interrupt.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from .. import clock
from ..errors import (
    AdmissionRejectedError,
    QueryCancelledError,
    QueryTimeoutError,
)

#: Reserved variable-frame key under which the active QueryContext rides
#: in the batch executor's root frame. Defined next to ``_Frame``
#: (repro.xquery.evaluator) so the executor needs no import from the
#: engine layer; re-exported here as the canonical name.
from ..xquery.evaluator import CONTEXT_KEY  # noqa: F401

#: How many ticks (frames/rows) pass between deadline/cancel checks.
DEFAULT_CHECK_INTERVAL = 64


class CancellationToken:
    """A thread-safe one-way flag: once cancelled, forever cancelled.

    ``cancel()`` is safe from any thread; the executing thread observes
    the flag at its next tuple-batch check point.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self):
        self._cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        # A plain attribute store is atomic in CPython; no lock needed
        # for a monotonic bool.
        self.reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class QueryContext:
    """Per-query lifecycle state carried through the execution layers.

    Built once per ``Cursor.execute`` (or handed to ``DSPRuntime``
    methods directly); travels to the batch executor inside the root
    variable frame under :data:`CONTEXT_KEY`, to the Evaluator as its
    ``context`` argument, and to physical sources via
    ``DSPRuntime.call_function(..., context=...)``.
    """

    __slots__ = ("deadline", "timeout", "token", "rows_emitted",
                 "source_calls", "rows_buffered", "_ticks", "_mask")

    def __init__(self, timeout: Optional[float] = None,
                 token: Optional[CancellationToken] = None,
                 check_interval: int = DEFAULT_CHECK_INTERVAL):
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        #: Absolute monotonic deadline (None = no deadline). Computed at
        #: construction, so queue wait and translation count against it.
        self.timeout = timeout
        self.deadline = (None if timeout is None
                         else clock.monotonic() + timeout)
        self.token = CancellationToken() if token is None else token
        self.rows_emitted = 0
        self.source_calls = 0
        #: Rows materialized inside the executor ahead of the client's
        #: fetch position (whole batches buffered by the vectorized
        #: pipeline). Admission charges max(buffered, fetched).
        self.rows_buffered = 0
        self._ticks = 0
        # Round the interval down to a power of two so the batch test is
        # a single mask.
        self._mask = (1 << (check_interval.bit_length() - 1)) - 1

    @property
    def check_interval(self) -> int:
        """Tuples per full check, as :meth:`tick` runs it (the
        constructor's interval rounded down to a power of two)."""
        return self._mask + 1

    # -- checks (hot path) -------------------------------------------------

    def tick(self) -> None:
        """Count one tuple/frame; every batch, run the full check."""
        self._ticks += 1
        if (self._ticks & self._mask) == 0:
            self.check()

    def tick_rows(self, count: int) -> None:
        """Count *count* tuples at once (one columnar batch) and run the
        full check — batch granularity is the vectorized executor's tick
        granularity, so cancellation latency is bounded by one batch."""
        self._ticks += count
        self.check()

    def check(self) -> None:
        """Raise if the query has been cancelled or timed out."""
        if self.token._cancelled:
            reason = self.token.reason
            raise QueryCancelledError(
                "query cancelled" + (f": {reason}" if reason else ""))
        if self.deadline is not None and clock.monotonic() > self.deadline:
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout:.3f}s deadline")

    # -- bookkeeping -------------------------------------------------------

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (None when unbounded); never
        negative."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - clock.monotonic())

    def cancel(self, reason: Optional[str] = None) -> None:
        self.token.cancel(reason)

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled


class AdmissionSlot:
    """One admitted query's hold on its gate; released exactly once
    (idempotent), returning its concurrency slot and row budget.
    Idempotency is arbitrated by the gate's lock, keeping the slot
    itself allocation-light (one per query on the hot path)."""

    __slots__ = ("_controller", "rows", "released")

    def __init__(self, controller: "AdmissionController"):
        self._controller = controller
        self.rows = 0
        self.released = False

    def note_rows(self, count: int) -> None:
        """Charge *count* freshly streamed rows against the gate's
        in-flight budget; raises ``AdmissionRejectedError`` when the
        budget is exhausted."""
        self.rows += count
        self._controller._charge_rows(count)

    def release(self) -> None:
        self._controller._release(self)


class AdmissionController:
    """An admission gate: bounds concurrent queries and their in-flight
    streamed rows, and caps each query's deadline.

    The runtime keeps one in front of every top-level query; the server
    keeps one per tenant above it, so tenants cannot starve each other.
    Four settings, each optional:

    * ``max_concurrent`` — queries live at once (a streamed result
      counts until exhausted or closed); None is unbounded;
    * ``queue_timeout`` — how long :meth:`acquire` waits for a slot
      before it rejects, bounded again by the query's remaining
      deadline. The runtime queues (``admission_queue_timeout``), so a
      short burst waits its turn; 0 fails fast, as a tenant's gate
      does, so a tenant at its cap cannot camp on the shared queue;
    * ``max_inflight_rows`` — rows streamed and not yet released by
      cursor exhaustion/close;
    * ``max_timeout`` — ceiling on any per-execute deadline
      (:meth:`clamp_timeout`).

    Every rejection is an ``AdmissionRejectedError``.
    """

    def __init__(self, max_concurrent: Optional[int] = None,
                 queue_timeout: float = 0.0,
                 max_inflight_rows: Optional[int] = None,
                 max_timeout: Optional[float] = None):
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.max_concurrent = max_concurrent
        self.queue_timeout = queue_timeout
        self.max_inflight_rows = max_inflight_rows
        self.max_timeout = max_timeout
        self._lock = threading.Lock()
        self._available = (None if max_concurrent is None
                           else threading.Semaphore(max_concurrent))
        self._active = 0
        self._queued = 0
        self._admitted_total = 0
        self._rejected_total = 0
        self._inflight_rows = 0

    def clamp_timeout(self, timeout: Optional[float]) -> Optional[float]:
        """The effective per-execute deadline under this gate."""
        if self.max_timeout is None:
            return timeout
        if timeout is None:
            return self.max_timeout
        return min(timeout, self.max_timeout)

    def acquire(self, context: Optional[QueryContext] = None) \
            -> AdmissionSlot:
        """Claim a concurrency slot, queueing for one when the gate is
        saturated; reject when none frees in time."""
        # Fast path: a free slot needs no queue bookkeeping (the common
        # case — only a saturated gate pays for the wait).
        available = self._available
        if available is not None and not available.acquire(blocking=False):
            self._wait(available, context)
        with self._lock:
            self._active += 1
            self._admitted_total += 1
        return AdmissionSlot(self)

    def _wait(self, available: threading.Semaphore,
              context: Optional[QueryContext]) -> None:
        """Queue for a slot. The wait is bounded by *queue_timeout* and
        by the query's remaining deadline — a query must never spend
        its whole deadline queueing and then start work with nothing
        left."""
        timeout = self.queue_timeout
        if context is not None:
            remaining = context.remaining()
            if remaining is not None:
                timeout = min(timeout, remaining)
        admitted = False
        if timeout > 0:
            with self._lock:
                self._queued += 1
            try:
                admitted = available.acquire(timeout=timeout)
            finally:
                with self._lock:
                    self._queued -= 1
        if not admitted:
            with self._lock:
                self._rejected_total += 1
            raise AdmissionRejectedError(
                f"admission rejected: {self.max_concurrent} queries "
                f"already running"
                + (f" after {timeout:.3f}s in the queue" if timeout > 0
                   else ""))

    def _charge_rows(self, count: int) -> None:
        with self._lock:
            self._inflight_rows += count
            over = (self.max_inflight_rows is not None
                    and self._inflight_rows > self.max_inflight_rows)
        if over:
            raise AdmissionRejectedError(
                f"in-flight streamed rows exceeded the "
                f"{self.max_inflight_rows}-row budget")

    def _release(self, slot: AdmissionSlot) -> None:
        with self._lock:
            if slot.released:  # idempotent: double release frees nothing
                return
            slot.released = True
            self._active -= 1
            self._inflight_rows -= slot.rows
        if self._available is not None:
            self._available.release()

    def stats(self) -> dict:
        """A consistent snapshot: ``Connection.stats()``'s
        ``admission`` section, the server's ``tenant`` section."""
        with self._lock:
            return {
                "active": self._active,
                "queued": self._queued,
                "admitted": self._admitted_total,
                "rejected": self._rejected_total,
                "inflight_rows": self._inflight_rows,
                "max_concurrent": self.max_concurrent,
                "queue_timeout": self.queue_timeout,
                "max_inflight_rows": self.max_inflight_rows,
                "max_timeout": self.max_timeout,
            }


class RetryPolicy:
    """Exponential backoff with full jitter for transient source faults.

    ``attempts`` is the total number of tries (1 = no retries). Delays
    are ``base * 2**n`` capped at ``max_backoff``, multiplied by a
    uniform jitter factor in ``[1 - jitter, 1]`` so a thundering herd of
    retries decorrelates. Sleeps are additionally capped by the query's
    remaining deadline: a retry never outlives the query.
    """

    def __init__(self, attempts: int = 3, base: float = 0.05,
                 max_backoff: float = 2.0, jitter: float = 0.5,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None):
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.attempts = attempts
        self.base = base
        self.max_backoff = max_backoff
        self.jitter = jitter
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    def backoff(self, attempt: int) -> float:
        """The jittered delay before retry number *attempt* (0-based)."""
        delay = min(self.max_backoff, self.base * (2 ** attempt))
        if self.jitter:
            delay *= 1.0 - self.jitter * self._rng.random()
        return delay

    def sleep_before_retry(self, attempt: int,
                           context: Optional[QueryContext] = None) -> None:
        """Back off before retry *attempt*, respecting the deadline.

        Raises ``QueryTimeoutError`` (via ``context.check()``) rather
        than sleeping when the deadline has already passed.
        """
        delay = self.backoff(attempt)
        if context is not None:
            context.check()
            remaining = context.remaining()
            if remaining is not None:
                delay = min(delay, remaining)
        if delay > 0:
            self._sleep(delay)
