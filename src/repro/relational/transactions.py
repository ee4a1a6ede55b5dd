"""Minimal transaction support: undo-log based rollback, redo-log durability.

The paper notes that entity-level updates may touch several physical tables
(e.g. inserting a Person under mapping M1 writes the person table plus one row
per phone number).  The CRUD templates wrap such multi-table updates in a
transaction so that a constraint violation midway leaves the database
unchanged.

The implementation is a classic undo log: every mutation records the inverse
operation; rollback replays the log backwards.  Batch DML records *one* undo
record per batch (the inverse deletes every row id of the batch in reverse),
so a 50k-row bulk insert costs one log entry, not 50k.

Concurrency follows a **single-writer / many-readers** protocol:

* :meth:`TransactionManager.begin` acquires the database's writer lock
  (``Database.write_lock``, reentrant) and holds it until the transaction
  commits or rolls back, so at most one write transaction is ever open.
  A second thread calling ``begin`` blocks until the current writer
  finishes; a second ``begin`` on the *owning* thread still raises
  :class:`~repro.errors.TransactionError` (API misuse, not contention).
* Because the WAL append in :meth:`TransactionManager.commit` happens while
  the writer lock is held, **WAL commit order always equals in-memory commit
  order** — recovery replays transactions exactly as they serialized.
* Readers never take the writer lock: snapshot-isolation sessions pin a
  :class:`~repro.relational.mvcc.ReadView` and read retained snapshots (see
  :mod:`repro.relational.mvcc`), so an open writer transaction never blocks
  a reader.
* A transaction begun by a snapshot session carries
  :attr:`Transaction.snapshot_watermarks`; the engine consults them for
  first-committer-wins conflict detection
  (:meth:`Database._check_write_conflict`) and raises
  :class:`~repro.errors.SerializationError` when the transaction would
  overwrite a row committed after its snapshot.

When a :class:`~repro.durability.DurabilityManager` is attached to the
database (``db.durability``), every undo entry may carry *redo* records —
JSON-ready write-ahead-log payloads describing the same mutation forwards.
Redo records ride the undo log so the two stay aligned: a partial rollback
(:meth:`Transaction.rollback_to`) that pops undo entries drops their redo
records with them, and a full rollback discards all of them (writing only an
``abort`` marker).  The redo stream reaches the log **at commit**: the
transaction manager hands the surviving records to the durability manager,
which appends them as one framed begin/commit group and fsyncs according to
its policy.  With durability off (the default) no redo record is ever built
and commit behaves exactly as before.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Database

#: Redo payload accepted by ``record``: one WAL record dict or several.
RedoArg = Union[None, Dict[str, Any], Sequence[Dict[str, Any]]]


@dataclass
class UndoRecord:
    """One inverse action; ``apply`` undoes the original mutation.

    ``redo`` carries the forward WAL payload(s) for the same mutation (empty
    when durability is off).
    """

    description: str
    apply: Callable[[], None]
    redo: Tuple[Dict[str, Any], ...] = ()


def _normalize_redo(redo: RedoArg) -> Tuple[Dict[str, Any], ...]:
    if redo is None:
        return ()
    if isinstance(redo, dict):
        return (redo,)
    return tuple(redo)


class Transaction:
    """A single open transaction with an undo log.

    ``snapshot_watermarks`` is set (by snapshot-isolation sessions) to the
    per-table data versions of the read view the transaction began under;
    the engine then runs first-committer-wins conflict detection on every
    update/delete.  ``written_rows`` tracks the ``(table, row_id)`` slots this
    transaction already wrote, so a transaction never conflicts with itself.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._undo: List[UndoRecord] = []
        self.active = True
        self.snapshot_watermarks: Optional[Dict[str, int]] = None
        self.written_rows: set = set()

    def record(self, description: str, undo: Callable[[], None], redo: RedoArg = None) -> None:
        if not self.active:
            raise TransactionError("cannot record undo action on a closed transaction")
        self._undo.append(UndoRecord(description, undo, _normalize_redo(redo)))

    def savepoint(self) -> int:
        """A marker for :meth:`rollback_to` (the current undo-log length)."""

        return len(self._undo)

    def rollback_to(self, savepoint: int) -> None:
        """Undo every mutation recorded after ``savepoint``, keeping the rest.

        The partial-rollback primitive behind joined transaction scopes: a
        failing statement inside an open transaction undoes only its own
        writes, preserving statement-level atomicity without closing the
        surrounding transaction.  The popped entries' redo records are
        dropped with them, so the WAL never sees the undone writes.
        """

        if not self.active:
            raise TransactionError("transaction is not active")
        if savepoint < 0 or savepoint > len(self._undo):
            raise TransactionError(f"invalid savepoint {savepoint}")
        with self._db.storage_latch:
            while len(self._undo) > savepoint:
                record = self._undo.pop()
                record.apply()

    def redo_records(self) -> List[Dict[str, Any]]:
        """The surviving redo payloads, in original mutation order."""

        return [payload for record in self._undo for payload in record.redo]

    def commit(self) -> None:
        if not self.active:
            raise TransactionError("transaction is not active")
        self._undo.clear()
        self.active = False

    def rollback(self) -> None:
        if not self.active:
            raise TransactionError("transaction is not active")
        # undo application mutates tables: hold the storage latch so readers
        # never pin a view in the middle of a rollback
        with self._db.storage_latch:
            while self._undo:
                record = self._undo.pop()
                record.apply()
        self.active = False

    def __len__(self) -> int:
        return len(self._undo)


class TransactionManager:
    """Owns the (single) current write transaction of a database.

    Writer mutual exclusion lives here: ``begin`` acquires the database's
    (reentrant) writer lock and the matching ``commit`` / ``rollback``
    releases it, so write transactions from different threads serialize and
    the WAL sees commits in exactly their in-memory order.  The lock is held
    across the WAL append at commit; if the append fails, the transaction —
    and the lock — stay held so the owner can roll back.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._current: Optional[Transaction] = None
        self._owner: Optional[int] = None

    @property
    def current(self) -> Optional[Transaction]:
        return self._current

    def in_transaction(self) -> bool:
        return self._current is not None and self._current.active

    def owned_by_current_thread(self) -> bool:
        """Whether the open transaction (if any) belongs to this thread.

        Joined scopes (:class:`transaction`) must only ever join a
        transaction their own thread opened — another thread's open
        transaction is a signal to *wait* for the writer lock, not to
        append to a foreign undo log.
        """

        return self.in_transaction() and self._owner == threading.get_ident()

    def begin(self, snapshot_watermarks: Optional[Dict[str, int]] = None) -> Transaction:
        """Open the single write transaction, blocking on the writer lock.

        A concurrent thread's ``begin`` waits for the open transaction to
        finish; a nested ``begin`` on the owning thread raises (the lock is
        reentrant, so only the misuse check distinguishes the two).
        ``snapshot_watermarks`` attaches first-committer-wins conflict state
        for transactions upgraded from a snapshot read view.  A database an
        online migration's flip retired refuses with the retryable
        :class:`~repro.errors.SerializationError` (a ``TransactionError``).
        """

        self._db.write_lock.acquire()
        try:
            if self.in_transaction():
                raise TransactionError("a transaction is already active")
            self._db._check_not_retired()
        except TransactionError:
            self._db.write_lock.release()
            raise
        self._current = Transaction(self._db)
        self._owner = threading.get_ident()
        self._current.snapshot_watermarks = (
            dict(snapshot_watermarks) if snapshot_watermarks is not None else None
        )
        return self._current

    def commit(self) -> None:
        if not self.in_transaction():
            raise TransactionError("no active transaction to commit")
        assert self._current is not None
        obs = self._db.observability
        tracer = obs.tracer if obs is not None and obs.enabled else None
        trace = tracer.start("commit", "transaction.commit") if tracer is not None else None
        try:
            durability = self._db.durability
            if durability is not None:
                records = self._current.redo_records()
                if records:
                    # WAL append (and fsync, per policy) happens *before* the
                    # in-memory commit point; if the disk write raises, the
                    # transaction stays active (still holding the writer lock)
                    # and the caller can roll back.
                    durability.log_commit(records)
            with self._db.storage_latch:
                # the commit point and the pre-image release publish atomically
                # with respect to reader pins: a view sees the whole transaction
                # or none of it
                self._current.commit()
                self._current = None
                self._owner = None
                self._db._release_preimages()
            self._db.write_lock.release()
        except BaseException as exc:
            if trace is not None:
                tracer.finish(trace, error=exc)
            raise
        if trace is not None:
            tracer.finish(trace)

    def rollback(self) -> None:
        if not self.in_transaction():
            raise TransactionError("no active transaction to roll back")
        assert self._current is not None
        had_redo = bool(self._current.redo_records())
        try:
            with self._db.storage_latch:
                self._current.rollback()
                self._current = None
                self._owner = None
                self._db._release_preimages()
            durability = self._db.durability
            if durability is not None and had_redo:
                # still under the writer lock: the abort marker lands in the
                # WAL before any later writer's records
                durability.log_abort()
        finally:
            if self._current is None:
                self._db.write_lock.release()

    def record(self, description: str, undo: Callable[[], None], redo: RedoArg = None) -> None:
        """Record an undo action (plus optional redo payloads).

        Inside a transaction both ride the undo log until commit.  Outside
        one — the autocommit path — there is nothing to undo, but the redo
        payloads still must reach the WAL: they are appended immediately as
        a single-statement transaction.
        """

        if self.in_transaction():
            assert self._current is not None
            self._current.record(description, undo, redo)
            return
        durability = self._db.durability
        if durability is not None:
            records = _normalize_redo(redo)
            if records:
                try:
                    durability.log_commit(records)
                except BaseException:
                    # the mutation is already applied in memory; if its log
                    # append fails, undo it so memory and WAL never diverge
                    # (the transaction path gets the same guarantee by
                    # appending before the in-memory commit point)
                    undo()
                    raise


class transaction:
    """Context manager: ``with transaction(db): ...`` commits or rolls back.

    Scopes *join* an already-open transaction instead of failing: when a
    session (or an outer ``with transaction(db)``) holds the transaction, an
    inner scope — the CRUD templates wrap every multi-table operation in one —
    records its undo actions on the outer transaction and leaves the final
    commit / rollback to the outermost owner.  A joined scope takes a
    savepoint on entry; if it exits with an exception it rolls back *its own*
    writes (statement-level atomicity, exactly what the scope guaranteed when
    it owned a one-shot transaction) and lets the exception propagate, so the
    outer transaction never commits a half-applied statement even when the
    caller catches the error.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._joined = False
        self._savepoint = 0

    def __enter__(self) -> Transaction:
        manager = self._db.transactions
        if manager.owned_by_current_thread():
            # join only a transaction THIS thread opened; another thread's
            # open transaction means "wait your turn" — manager.begin below
            # blocks on the writer lock until it finishes
            self._joined = True
            assert manager.current is not None
            self._savepoint = manager.current.savepoint()
            return manager.current
        self._joined = False
        return manager.begin()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._joined:
            if exc_type is not None:
                current = self._db.transactions.current
                if current is not None and current.active:
                    current.rollback_to(self._savepoint)
            return False
        if exc_type is None:
            try:
                self._db.transactions.commit()
            except BaseException:
                # the WAL append failed and commit left the transaction
                # active for its owner to roll back — and for a one-shot
                # scope that owner is this __exit__: undo the in-memory
                # writes so the caller's error means "nothing happened"
                if self._db.transactions.in_transaction():
                    self._db.transactions.rollback()
                raise
        else:
            self._db.transactions.rollback()
        return False
