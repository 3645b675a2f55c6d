"""The connection-level transaction manager (DESIGN.md §14).

One :class:`TransactionManager` lives inside each PEP 249
``Connection`` and mediates every mutation plan on its way to the
sources:

* **Autocommit** (the driver default): each statement plans and
  applies under the runtime's single-writer lock and is durable
  immediately; per-source statement atomicity (memory copy-on-write
  swap, SQLite ``SAVEPOINT``) makes it all-or-nothing.
* **Explicit transactions**: :meth:`begin` opens one; the write lock
  is acquired at the first write and held until :meth:`commit` or
  :meth:`rollback`, and each source is enlisted (``begin_txn``) the
  first time the transaction writes through it. Commit/rollback fan
  out to every enlisted source in enlistment order — best-effort
  sequential, not two-phase; with one writable source per statement
  corpus (the shipped backends) that is exact.

Reads are never blocked: they see consistent snapshots through source
version tokens (memory scans hold the copy-on-write row list they
started on; a transaction's own connection naturally reads its writes).
Statement planning happens *inside* the lock window, so the version
token a plan carries cannot go stale between victim selection and
apply — the token check in ``apply_mutations`` is the belt to this
lock's suspenders.

A transaction is a per-connection, single-threaded affair: interleaving
``begin``/``commit`` calls on one connection from multiple threads is
undefined (PEP 249 threadsafety level 2 shares connections, but
transaction demarcation remains the caller's job to serialize).
"""

from __future__ import annotations

from typing import Callable

from ..errors import ProgrammingError
from ..sources.spi import DataSource, MutationResult
from .dml import MutationPlan

__all__ = ["TransactionManager"]


class TransactionManager:
    """Transaction demarcation and write serialization for one
    connection over one :class:`DSPRuntime`."""

    def __init__(self, runtime):
        self._runtime = runtime
        self._active = False
        self._lock_held = False
        #: Sources the open transaction has written through, in first-
        #: write order (commit/rollback fan out in this order).
        self._enlisted: list[DataSource] = []
        # Lifetime counters for Connection.stats()'s transactions.*.
        self.begun = 0
        self.committed = 0
        self.rolled_back = 0
        self.autocommits = 0
        self.statements = 0
        self.rows_written = 0

    # -- state -------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True between :meth:`begin` and the closing commit/rollback."""
        return self._active

    def _acquire_lock(self) -> None:
        if not self._lock_held:
            self._runtime.write_lock.acquire()
            self._lock_held = True

    def _release_lock(self) -> None:
        if self._lock_held:
            self._lock_held = False
            self._runtime.write_lock.release()

    # -- demarcation -------------------------------------------------------

    def begin(self) -> None:
        """Open an explicit transaction (autocommit suspends until the
        closing commit/rollback)."""
        if self._active:
            raise ProgrammingError("transaction already in progress")
        self._active = True
        self.begun += 1

    def commit(self) -> None:
        """Commit the open transaction; a no-op without one (PEP 249
        allows commit on a fresh connection)."""
        if not self._active:
            return
        enlisted, self._enlisted = self._enlisted, []
        try:
            for source in enlisted:
                source.commit_txn()
        finally:
            self._active = False
            self._release_lock()
        if enlisted:
            self._runtime.note_write()
        self.committed += 1

    def rollback(self) -> None:
        """Undo the open transaction on every enlisted source; a no-op
        without one."""
        if not self._active:
            return
        enlisted, self._enlisted = self._enlisted, []
        try:
            for source in enlisted:
                source.rollback_txn()
        finally:
            self._active = False
            self._release_lock()
        if enlisted:
            self._runtime.note_write()
        self.rolled_back += 1

    # -- statement execution -----------------------------------------------

    def run(self, plan_factory: Callable[[], MutationPlan]
            ) -> MutationResult:
        """Execute one DML statement.

        *plan_factory* performs victim selection/expression evaluation
        (``repro.engine.dml.plan_mutation``); it is invoked inside the
        write-lock window so the plan's version token stays current
        through apply. In autocommit mode the statement is its own
        lock scope and durable on return; inside a transaction the
        lock persists and the source is enlisted.
        """
        if self._active:
            self._acquire_lock()
            return self._apply_enlisted(plan_factory())
        with self._runtime.write_lock:
            plan = plan_factory()
            result = plan.source.apply_mutations(
                plan.mutations, expected_version=plan.version)
        self.autocommits += 1
        self.statements += 1
        self.rows_written += result.rowcount
        self._runtime.note_write()
        return result

    def run_batch(self, plan_factories) -> list[MutationResult]:
        """Execute a batch of DML statements (``executemany``).

        Inside a transaction the batch simply accumulates into it. In
        autocommit mode the whole batch is one implicit transaction —
        all parameter rows apply or none do — matching the common
        driver expectation that ``executemany`` is not torn by a
        mid-batch failure.
        """
        if self._active:
            self._acquire_lock()
            return [self._apply_enlisted(factory())
                    for factory in plan_factories]
        self.begin()
        try:
            # Same lock discipline as a lone statement: the whole batch
            # is one write window (commit/rollback releases it).
            self._acquire_lock()
            results = [self._apply_enlisted(factory())
                       for factory in plan_factories]
        except BaseException:
            self.rollback()
            raise
        self.commit()
        self.autocommits += 1
        return results

    def _apply_enlisted(self, plan: MutationPlan) -> MutationResult:
        source = plan.source
        if source not in self._enlisted:
            source.begin_txn()
            self._enlisted.append(source)
        result = source.apply_mutations(plan.mutations,
                                        expected_version=plan.version)
        self.statements += 1
        self.rows_written += result.rowcount
        return result

    # -- teardown / reporting ----------------------------------------------

    def close(self) -> None:
        """Connection teardown: roll back any open transaction (PEP 249:
        closing with a pending transaction discards it)."""
        if self._active:
            self.rollback()

    def stats(self) -> dict:
        """The ``transactions`` section of ``Connection.stats()``."""
        return {
            "active": self._active,
            "begun": self.begun,
            "committed": self.committed,
            "rolled_back": self.rolled_back,
            "autocommits": self.autocommits,
            "statements": self.statements,
            "rows_written": self.rows_written,
        }
