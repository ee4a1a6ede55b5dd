"""The :class:`Database` facade: DDL, DML with constraint enforcement,
transactions and plan execution.

This is the stand-in for PostgreSQL in the paper's prototype (see DESIGN.md).
The mapping layer creates physical tables through :meth:`Database.create_table`
and the ERQL planner executes :class:`~repro.relational.plan.PlanNode` trees
through :meth:`Database.execute`.
"""

from __future__ import annotations

import threading

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import (
    CatalogError,
    ConstraintViolation,
    ForeignKeyViolation,
    ReadOnlyError,
    SerializationError,
    TransactionError,
)
from .catalog import Catalog
from .mvcc import ReadView, SnapshotRegistry, TableSnapshot, TableView, current_read_view
from .constraints import (
    CheckConstraint,
    Constraint,
    ForeignKeyConstraint,
    NotNullConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from .cost import AUTO_ROW_MAX_COST, AUTO_ROW_MAX_ROWS, CostEstimate, CostModel
from .expressions import parameter_scope
from .indexes import IndexDefinition
from .plan import PlanNode, QueryResult
from .statistics import StatisticsManager
from .table import Table
from .transactions import TransactionManager, transaction
from .types import Column, TableSchema


#: Executor modes accepted by :meth:`Database.execute`.
EXECUTORS = ("auto", "batch", "row")


class Database:
    """An embedded, in-memory relational database.

    ``executor`` selects the default plan execution strategy: ``"auto"``
    (cost-based — the default: tiny plans run row-at-a-time, everything else
    vectorized), ``"batch"`` (always vectorized, column-at-a-time) or
    ``"row"`` (always the original dict-per-row iterator model).  Individual
    ``execute`` calls can override it; both executors run the same plan trees
    and return the same results (see
    ``tests/relational/test_vectorized_parity.py``).
    """

    def __init__(self, name: str = "erbium", executor: str = "auto") -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
        self.name = name
        self.executor = executor
        #: Writer mutual exclusion (single writer / many readers): held by an
        #: open write transaction from begin to commit/rollback, and for the
        #: span of each autocommit DML statement.  Reentrant, so statements
        #: inside an owned transaction nest without deadlocking.  Readers
        #: never take it — snapshot reads go through :meth:`begin_read_view`.
        self.write_lock = threading.RLock()
        #: Short-lived storage latch: serializes read-view pinning against
        #: the writer's *publication points* — pre-image capture, the commit
        #: point's pre-image release, and rollback's undo replay.  Every
        #: critical section is tiny (the latch is never held across a
        #: statement body), so readers pin views essentially wait-free even
        #: against a continuously-writing transaction.
        self.storage_latch = threading.RLock()
        self.catalog = Catalog()
        self.statistics = StatisticsManager()
        self.transactions = TransactionManager(self)
        self.cost_model = CostModel(self)
        #: Retained multi-version snapshots backing open read views.
        self.snapshots = SnapshotRegistry()
        # Committed pre-images of tables the in-flight write (transaction or
        # autocommit statement) has mutated, keyed by table name.  Undo-log
        # writes apply in place, so live storage holds *unpublished* data
        # while a write is in flight; read views pin these retained
        # snapshots instead (no dirty, no torn reads).  Captured at the
        # write's first mutation of each table (a free reference grab when
        # the snapshot is already built), released at the publication point:
        # transaction commit/rollback, or autocommit statement end.
        self._txn_preimages: Dict[str, TableSnapshot] = {}
        #: Publication epoch: bumped (under the latch) every time committed
        #: state changes — a transaction commits or rolls back, an autocommit
        #: statement completes, DDL alters the catalog.  Sessions compare a
        #: cached view's pin-time epoch against this to reuse the view across
        #: statements *without taking any lock* while nothing has changed.
        self.publication_epoch = 0
        #: Durability hook (a :class:`~repro.durability.DurabilityManager`).
        #: ``None`` — the default — means no redo record is ever built: the
        #: in-memory write path pays one attribute check and nothing else.
        self.durability: Optional[Any] = None
        #: Observability hook (an :class:`~repro.observability.Observability`
        #: hub, installed by :class:`~repro.system.ErbiumDB`).  ``None`` on a
        #: bare engine: execution stays uninstrumented.
        self.observability: Optional[Any] = None
        #: Set by an online migration's flip (and cleared if the flip
        #: reverts): this database no longer serves, so a write that still
        #: reaches it — through pre-flip templates, a raw call or a service
        #: built before the flip — raises the retryable SerializationError
        #: instead of landing where no reader will look.
        self.retired = False

    # ------------------------------------------------------------------ DDL

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        constraints: Sequence[Constraint] = (),
    ) -> Table:
        """Create a table, registering implied PK / NOT NULL constraints."""

        # DDL is a (rare) writer: exclude other writers for the statement and
        # readers' pins for the catalog mutation + epoch bump, so a pin never
        # iterates the catalog mid-change and the bump is never lost.
        with self.write_lock, self.storage_latch:
            schema = TableSchema(name=name, columns=list(columns), primary_key=tuple(primary_key))
            table = self.catalog.create_table(schema)
            if primary_key:
                self.catalog.add_constraint(name, PrimaryKeyConstraint(tuple(primary_key)))
            for column in columns:
                if not column.nullable:
                    self.catalog.add_constraint(name, NotNullConstraint(column.name))
            for constraint in constraints:
                self.catalog.add_constraint(name, constraint)
            self.statistics.invalidate(name)
            self.publication_epoch += 1
            return table

    def drop_table(self, name: str) -> None:
        with self.write_lock, self.storage_latch:
            self.catalog.drop_table(name)
            self.statistics.invalidate(name)
            self.publication_epoch += 1

    def has_table(self, name: str) -> bool:
        return self.catalog.has_table(name)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # ------------------------------------------------------------------ MVCC

    def read_table(self, name: str) -> Union[Table, TableView]:
        """Resolve a table for *reading*, honouring the thread's read view.

        Every read-side access path (``SeqScan``, ``IndexLookup``, index
        nested-loop joins — in both executors) goes through here.  With a
        :func:`~repro.relational.mvcc.read_view_scope` active on the calling
        thread, the pinned :class:`~repro.relational.mvcc.TableView` answers
        instead of live storage; a table created *after* the view was pinned
        reads as empty (it did not exist at the snapshot point — falling back
        to live storage could expose another transaction's uncommitted
        rows).  Write paths always use :meth:`table` / the catalog directly —
        constraints must check current state, never a snapshot.
        """

        view = current_read_view()
        if view is not None:
            pinned = view.table(name)
            if pinned is not None:
                return pinned
            return view.empty_table(self.catalog.table(name).schema, name)
        return self.catalog.table(name)

    def begin_read_view(self) -> ReadView:
        """Pin a consistent snapshot of every table and return the view.

        Pinning takes only the storage latch, whose critical sections are all
        tiny (pre-image capture/publication, pin bookkeeping) — so a reader
        never waits on an open writer *transaction*, nor even on an in-flight
        *statement*: tables the writer has touched resolve to their retained
        committed pre-images, so the view only ever contains committed data.

        The very first pin on a database performs a one-time handshake: it
        waits for the writer lock once, flips the registry's sticky
        ``mvcc_active`` flag, and releases.  That guarantees no statement or
        transaction is mid-flight at activation, so every later write
        captures pre-images from its start — and until activation, writers
        pay nothing for MVCC.  The caller must eventually ``close()`` the
        view so the registry can drop superseded snapshots.
        """

        self.activate_mvcc()
        with self.storage_latch:
            return self.snapshots.pin(
                self.catalog,
                self._txn_preimages if self._txn_preimages else None,
                epoch=self.publication_epoch,
            )

    def activate_mvcc(self) -> None:
        """One-time MVCC activation handshake (idempotent, sticky).

        Waits for the writer lock once — guaranteeing no statement or
        transaction is mid-flight at the moment the sticky flag flips, so
        every later write captures pre-images from its start.  Called
        automatically by the first :meth:`begin_read_view` and by snapshot
        session construction; a deployment expecting concurrent reads can
        call it eagerly at startup so no reader ever waits, even the first.
        """

        if self.snapshots.mvcc_active:
            return
        if self.transactions.owned_by_current_thread():
            # the writer lock is reentrant, so waiting on it here would be a
            # no-op for our own open transaction — whose earlier writes have
            # no pre-images and would leak uncommitted state into views
            raise TransactionError(
                "cannot activate MVCC inside this thread's open transaction; "
                "create the snapshot session (or call activate_mvcc()) before "
                "beginning the transaction"
            )
        with self.write_lock:
            self.snapshots.mvcc_active = True

    def _capture_preimage(self, table: Table) -> None:
        """Retain ``table``'s committed snapshot before the first write a
        statement (or transaction) makes to it.

        Only the single writer calls this (it holds the writer lock), so the
        un-latched membership probe is safe; the latch covers just the
        retain-and-publish step so a concurrent reader pin sees the
        pre-image either fully registered or not at all.  No-op until a
        reader has activated MVCC — see :meth:`begin_read_view`.
        """

        if not self.snapshots.mvcc_active:
            return
        if table.name in self._txn_preimages:
            return
        with self.storage_latch:
            self._txn_preimages[table.name] = self.snapshots.retain_current(table)

    def _release_preimages(self) -> None:
        """Drop the writer's pre-image pins (commit / rollback / statement end).

        Callers hold the storage latch, so a concurrent reader pin observes
        either every pre-image (the write is still unpublished) or none (its
        outcome is fully published) — never a mix.
        """

        if self._txn_preimages:
            self.snapshots.release(self._txn_preimages.values())
            self._txn_preimages.clear()
        self.publication_epoch += 1

    @contextmanager
    def _write_statement(self) -> Iterator[None]:
        """Writer-side scope for one DML statement.

        Holds the writer lock for the statement (reentrant: statements inside
        an owned transaction nest), and — for *autocommit* statements, whose
        end is their commit point — publishes the statement by releasing its
        pre-image pins under the latch.  Statements inside a transaction
        leave that to the transaction manager's commit/rollback.  The
        statement body runs **without** the storage latch: readers pinning
        views mid-statement resolve mutated tables to their captured
        pre-images, so they neither wait for the statement nor observe its
        intermediate state.

        When the attached durability manager has degraded to READ_ONLY, the
        statement is rejected up front with
        :class:`~repro.errors.ReadOnlyError` — mutating memory for a write
        the log could never persist would let memory and log diverge.  On a
        database a migration flip retired, the statement is rejected once
        it holds the writer lock (:meth:`_check_not_retired`).
        """

        self._check_writable()
        with self.write_lock:
            self._check_not_retired()
            try:
                yield
            finally:
                if not self.transactions.in_transaction() and self._txn_preimages:
                    with self.storage_latch:
                        self._release_preimages()

    def _check_writable(self) -> None:
        """Raise :class:`ReadOnlyError` when durability has degraded to READ_ONLY."""

        durability = self.durability
        if durability is not None and durability.health.read_only:
            raise ReadOnlyError(
                "database is read-only: "
                f"{durability.health.reason or 'write-ahead log unavailable'}"
            )

    def _check_not_retired(self) -> None:
        """Raise :class:`SerializationError` once a migration flip retired this database.

        Callers hold the writer lock, and the flip retires the database while
        holding it too, so a write either finishes before the flip or sees
        the flag.
        """

        if self.retired:
            raise SerializationError(
                "an online schema migration flipped while this write was in "
                "flight; retry the statement against the new layout"
            )

    def _check_write_conflict(self, table: Table, row_id: int) -> None:
        """First-committer-wins: refuse to overwrite a row newer than our snapshot.

        Only transactions carrying snapshot watermarks (begun by
        ``Session(isolation="snapshot")``) are checked; each slot is checked
        once per transaction, and slots this transaction already wrote are
        exempt, so a transaction never conflicts with itself.  Inserts are
        never checked — a brand-new slot cannot shadow anyone's update (key
        collisions are the constraint system's business).
        """

        txn = self.transactions.current
        if txn is None or not txn.active or txn.snapshot_watermarks is None:
            return
        key = (table.name, row_id)
        if key in txn.written_rows:
            return
        watermark = txn.snapshot_watermarks.get(table.name)
        if watermark is not None and table.row_version(row_id) > watermark:
            raise SerializationError(
                f"row {row_id} of table {table.name!r} was written at version "
                f"{table.row_version(row_id)}, after this transaction's snapshot "
                f"(version {watermark}); first committer wins — roll back and retry"
            )
        txn.written_rows.add(key)

    def create_index(
        self,
        table_name: str,
        columns: Sequence[str],
        name: Optional[str] = None,
        unique: bool = False,
        kind: str = "hash",
    ) -> None:
        index_name = name or f"{table_name}_{'_'.join(columns)}_idx"
        with self.write_lock, self.storage_latch:  # DDL: exclude writers + pins
            self.catalog.create_index(
                IndexDefinition(
                    name=index_name,
                    table=table_name,
                    columns=tuple(columns),
                    unique=unique,
                    kind=kind,
                )
            )

    def add_foreign_key(
        self,
        table_name: str,
        columns: Sequence[str],
        ref_table: str,
        ref_columns: Sequence[str],
        on_delete: str = "restrict",
    ) -> None:
        with self.write_lock:
            self.catalog.add_constraint(
                table_name,
                ForeignKeyConstraint(
                    columns=tuple(columns),
                    ref_table=ref_table,
                    ref_columns=tuple(ref_columns),
                    on_delete=on_delete,
                ),
            )

    def add_check(
        self,
        table_name: str,
        label: str,
        predicate: Optional[Callable[[Dict[str, Any]], bool]] = None,
        expression: Any = None,
    ) -> None:
        """Add a CHECK constraint from a row predicate or an expression.

        Passing an :class:`~repro.relational.expressions.Expression` lets the
        batch insert path evaluate the check column-at-a-time.  When an
        expression is given it defines the check on both executors (a
        ``predicate`` passed alongside it is ignored, so the two paths can
        never diverge); a bare predicate runs row-at-a-time on either path.
        """

        if predicate is None:
            if expression is None:
                raise ValueError("add_check needs a predicate or an expression")
            predicate = lambda row, _e=expression: bool(_e.evaluate(row))
        with self.write_lock:
            self.catalog.add_constraint(
                table_name, CheckConstraint(label, predicate, expression=expression)
            )

    def add_unique(self, table_name: str, columns: Sequence[str]) -> None:
        with self.write_lock:
            self.catalog.add_constraint(table_name, UniqueConstraint(tuple(columns)))

    # ------------------------------------------------------------------ DML

    def _check_insert(self, table: Table, row: Dict[str, Any]) -> None:
        for constraint in self.catalog.constraints_for(table.name):
            constraint.check_insert(self.catalog, table, row)

    def insert(self, table_name: str, row: Dict[str, Any]) -> int:
        """Insert one row (validated against types and constraints)."""

        with self._write_statement():
            table = self.catalog.table(table_name)
            validated = table.schema.validate_row(row)
            self._check_insert(table, validated)
            self._capture_preimage(table)
            row_id = table.insert(validated)
            txn = self.transactions.current
            if txn is not None and txn.active and txn.snapshot_watermarks is not None:
                # only snapshot transactions consult written_rows (their own
                # inserts must be exempt from later conflict checks)
                txn.written_rows.add((table_name, row_id))
            redo = None
            if self.durability is not None:
                redo = {
                    "t": "insert_batch",
                    "table": table_name,
                    "start": row_id,
                    "columns": {name: [value] for name, value in validated.items()},
                }
            self.transactions.record(
                f"insert into {table_name}",
                lambda: table.delete_row(row_id),
                redo,
            )
            return row_id

    def insert_many(self, table_name: str, rows: Iterable[Dict[str, Any]]) -> int:
        """Bulk insert through the vectorized write path; returns rows inserted.

        Unlike a loop over :meth:`insert`, the whole batch is type-validated
        column-at-a-time, constraint-checked with one set-based sweep per
        constraint (including intra-batch duplicates), appended to storage in
        one pass with a single snapshot-version bump, and covered by a single
        transaction undo record.  All checks run before any write, so a
        failing batch leaves the table untouched.

        Checks run constraint-major (each constraint sweeps the whole batch),
        so when *different rows* violate *different constraints* the error
        reported may differ from the one a row-at-a-time loop (row-major)
        would hit first; for any single violation the error type and the
        offending row match the row path.

        The engine takes ownership of the row dicts: when they already match
        the schema they are adopted as storage directly (and patched in place
        if a value needs coercion), so callers must not reuse them after the
        call.
        """

        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if not rows:
            return 0
        with self._write_statement():
            table = self.catalog.table(table_name)
            batch = table.validate_batch(rows)
            for constraint in self.catalog.constraints_for(table_name):
                constraint.check_insert_batch(self.catalog, table, batch)
            self._capture_preimage(table)
            row_ids = table.insert_batch(batch, validated=True)
            txn = self.transactions.current
            if txn is not None and txn.active and txn.snapshot_watermarks is not None:
                txn.written_rows.update((table_name, row_id) for row_id in row_ids)

            def undo(table: Table = table, row_ids: List[int] = row_ids) -> None:
                for row_id in reversed(row_ids):
                    table.delete_row(row_id)

            redo = None
            if self.durability is not None:
                # One framed WAL record for the whole batch: row ids are
                # contiguous from the first, and the validated columnar data is
                # shared by reference (column lists are never mutated in place).
                redo = {
                    "t": "insert_batch",
                    "table": table_name,
                    "start": row_ids[0],
                    "columns": batch.data,
                }
            self.transactions.record(
                f"insert batch of {len(row_ids)} into {table_name}", undo, redo
            )
            return len(row_ids)

    def delete(
        self, table_name: str, predicate: Callable[[Dict[str, Any]], bool]
    ) -> int:
        """Delete rows matching a Python predicate (see :meth:`delete_ids`)."""

        with self.write_lock:  # the scan and the statement see the same rows
            return self._statement(table_name, self._matching_ids(table_name, predicate), None)

    def delete_ids(self, table_name: str, row_ids: Sequence[int]) -> int:
        """Delete specific rows by id, honouring FK actions.

        The caller has already located the victims (e.g. via an index
        lookup), so no table scan happens here; ids that are no longer live
        are skipped.
        """

        return self._statement(table_name, row_ids, None)

    def update(
        self,
        table_name: str,
        predicate: Callable[[Dict[str, Any]], bool],
        changes: Dict[str, Any],
    ) -> int:
        """Update rows matching a predicate with a static change dict."""

        with self.write_lock:  # the scan and the statement see the same rows
            return self._statement(table_name, self._matching_ids(table_name, predicate), changes)

    def update_row(self, table_name: str, row_id: int, changes: Dict[str, Any]) -> None:
        self._statement(table_name, (row_id,), changes)

    def _matching_ids(
        self, table_name: str, predicate: Callable[[Dict[str, Any]], bool]
    ) -> List[int]:
        table = self.catalog.table(table_name)
        return [row_id for row_id, row in table.rows_with_ids() if predicate(row)]

    def _statement(
        self, table_name: str, row_ids: Sequence[int], changes: Optional[Dict[str, Any]]
    ) -> int:
        """One journaled DML statement over already-located rows.

        ``changes`` of ``None`` deletes the rows, a dict updates them.  The
        whole statement — the addressed rows plus everything referential
        actions cascade into — is covered by **one** undo record (its
        inverse re-applies every physical change in reverse), and by batched
        WAL records: one framed ``delete_batch`` / ``update_batch`` per run
        of same-table changes, mirroring the single-record footprint of
        ``insert_many``.
        """

        verb = "delete" if changes is None else "update"
        with self._write_statement():
            table = self.catalog.table(table_name)
            if changes is None:
                row_ids = [row_id for row_id in row_ids if table.is_live(row_id)]
            journal: List[Tuple[Any, ...]] = []
            try:
                for row_id in row_ids:
                    if changes is None:
                        self._apply_delete(table, row_id, journal)
                    else:
                        self._update_row(table_name, row_id, changes, journal)
            except BaseException:
                # a mid-statement failure (e.g. a restrict FK on the third row)
                # must still record the changes already applied, so an enclosing
                # transaction/savepoint can undo them and the WAL stays in step
                # with memory if the caller swallows the error and commits
                self._record_statement(f"partial {verb} of {table_name}", journal)
                raise
            self._record_statement(
                f"{verb} {len(row_ids)} rows of {table_name}", journal
            )
            return len(row_ids)

    def _apply_delete(
        self, table: Table, row_id: int, journal: List[Tuple[Any, ...]]
    ) -> None:
        if not table.is_live(row_id):
            # already removed by a cascade earlier in this same statement
            # (e.g. a self-referential FK whose parent matched the predicate)
            return
        self._check_write_conflict(table, row_id)
        row = dict(table.get_row(row_id))
        self._enforce_referential_delete(table.name, row, journal)
        for constraint in self.catalog.constraints_for(table.name):
            constraint.check_delete(self.catalog, table, row)
        self._capture_preimage(table)
        table.delete_row(row_id)
        journal.append(("delete", table.name, row_id, row))

    def _enforce_referential_delete(
        self, table_name: str, row: Dict[str, Any], journal: List[Tuple[Any, ...]]
    ) -> None:
        """Apply restrict / cascade / set_null semantics of inbound FKs."""

        for other_name in self.catalog.table_names():
            for constraint in self.catalog.constraints_for(other_name):
                if not isinstance(constraint, ForeignKeyConstraint):
                    continue
                if constraint.ref_table != table_name:
                    continue
                key = tuple(row.get(c) for c in constraint.ref_columns)
                if any(v is None for v in key):
                    continue
                referencing = constraint.referencing_rows(self.catalog, other_name, key)
                if not referencing:
                    continue
                if constraint.on_delete == "restrict":
                    raise ForeignKeyViolation(
                        f"cannot delete from {table_name!r}: still referenced by "
                        f"{other_name!r} ({len(referencing)} rows)"
                    )
                other = self.catalog.table(other_name)
                if constraint.on_delete == "cascade":
                    for ref_id in list(referencing):
                        self._apply_delete(other, ref_id, journal)
                elif constraint.on_delete == "set_null":
                    for ref_id in list(referencing):
                        changes = {c: None for c in constraint.columns}
                        self._update_row(other_name, ref_id, changes, journal)

    def _update_row(
        self,
        table_name: str,
        row_id: int,
        changes: Dict[str, Any],
        journal: List[Tuple[Any, ...]],
    ) -> None:
        """Validate, constraint-check and apply one row update, journaled."""

        table = self.catalog.table(table_name)
        self._check_write_conflict(table, row_id)
        old = dict(table.get_row(row_id))
        new = dict(old)
        new.update(changes)
        new = table.schema.validate_row(new)
        for constraint in self.catalog.constraints_for(table_name):
            constraint.check_update(self.catalog, table, old, new)
        self._capture_preimage(table)
        table.update_row(row_id, changes)
        journal.append(("update", table_name, row_id, old, dict(changes)))

    def _record_statement(
        self, description: str, journal: List[Tuple[Any, ...]]
    ) -> None:
        """One undo record (and batched redo records) for a whole statement.

        The journal holds the statement's physical changes in application
        order: ``("delete", table, row_id, old_row)`` and ``("update",
        table, row_id, old_row, changes)`` entries.  Undo replays the
        inverse in reverse order; redo groups consecutive same-table,
        same-kind runs into single framed WAL batches (order across runs is
        preserved, so a row updated and later deleted in one cascade replays
        correctly).
        """

        if not journal:
            return
        entries = list(journal)
        catalog = self.catalog

        def undo() -> None:
            for entry in reversed(entries):
                table = catalog.table(entry[1])
                if entry[0] == "delete":
                    table.insert_at(entry[2], entry[3])
                else:
                    table.update_row(entry[2], entry[3])

        redo = self._redo_batches(entries) if self.durability is not None else None
        self.transactions.record(description, undo, redo)

    @staticmethod
    def _redo_batches(entries: List[Tuple[Any, ...]]) -> List[Dict[str, Any]]:
        batches: List[Dict[str, Any]] = []
        for entry in entries:
            kind, table_name, row_id = entry[0], entry[1], entry[2]
            record_type = "delete_batch" if kind == "delete" else "update_batch"
            last = batches[-1] if batches else None
            if last is None or last["t"] != record_type or last["table"] != table_name:
                last = {"t": record_type, "table": table_name, "row_ids": []}
                if record_type == "update_batch":
                    last["changes"] = []
                batches.append(last)
            last["row_ids"].append(row_id)
            if record_type == "update_batch":
                last["changes"].append(entry[4])
        return batches

    def truncate(self, table_name: str) -> None:
        """Remove every row of a table (transactional).

        The undo record restores the pre-truncate slot image (shared column
        snapshots, so capturing it is cheap), and the redo record rides the
        transaction's commit like every other mutation — WAL replay order
        always matches the in-memory mutation order.
        """

        with self._write_statement():
            table = self.catalog.table(table_name)
            # truncate is a delete of every live row: first-committer-wins
            # must see it that way, or a snapshot transaction could silently
            # discard rows committed after its snapshot
            txn = self.transactions.current
            if txn is not None and txn.active and txn.snapshot_watermarks is not None:
                for row_id, _row in table.rows_with_ids():
                    self._check_write_conflict(table, row_id)
            if self.transactions.in_transaction():
                image = table.dump_slots()
                undo = lambda: table.restore_slots(
                    image["slots"], image["live_ids"], image["columns"]
                )
            else:
                # autocommit discards the undo record anyway; skip the O(rows)
                # slot-image capture
                undo = lambda: None
            redo = {"t": "truncate", "table": table_name} if self.durability is not None else None
            self._capture_preimage(table)
            table.truncate()
            self.transactions.record(f"truncate {table_name}", undo, redo)

    # ----------------------------------------------------------- transactions

    def transaction(self) -> transaction:
        """``with db.transaction(): ...`` — commit on success, rollback on error."""

        return transaction(self)

    # ------------------------------------------------------------- execution

    def choose_executor(self, plan: PlanNode) -> str:
        """Cost-based executor choice for ``executor="auto"``.

        Consults the cost model's estimated cardinality (backed by
        :class:`StatisticsManager`, which tracks table data versions, so the
        decision never rests on stale row counts): tiny, cheap plans — point
        lookups, scans of small tables — run row-at-a-time and skip the batch
        executor's columnar set-up; everything else runs vectorized.
        """

        estimate = self.cost_model.estimate(plan)
        if estimate.rows <= AUTO_ROW_MAX_ROWS and estimate.cost <= AUTO_ROW_MAX_COST:
            return "row"
        return "batch"

    def execute(
        self,
        plan: PlanNode,
        executor: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        trace: Optional[Any] = None,
    ) -> QueryResult:
        """Execute a physical plan and return the result.

        ``executor`` overrides the database default (``"auto"``, ``"batch"``
        or ``"row"``).  ``params`` supplies values for any
        :class:`~repro.relational.expressions.Parameter` placeholders in the
        plan, bound for the duration of this execution only — the same
        (cached) plan can be re-executed with different bindings.  ``trace``
        is an observability :class:`~repro.observability.tracing.TraceRecord`
        threaded in by sampled query paths — passed explicitly rather than
        read from the tracing thread-local so untraced executions pay
        nothing.  The batch path returns a columnar-backed result whose row
        dicts materialize lazily.
        """

        mode = executor if executor is not None else self.executor
        if mode == "auto":
            mode = self.choose_executor(plan)
        if trace is not None:
            # tag the resolved executor; the tracer turns it into the
            # ``executor.row`` / ``executor.batch`` counters at finish
            trace.executor = mode
        with parameter_scope(params):
            if mode == "batch":
                from .vectorized import execute_batch

                return QueryResult.from_batch(execute_batch(plan, self))
            if mode != "row":
                raise ValueError(f"unknown executor {mode!r}; expected one of {EXECUTORS}")
            rows = list(plan.execute(self))
        columns = plan.output_columns()
        if columns is None:
            columns = list(rows[0].keys()) if rows else []
        return QueryResult(columns=columns, rows=rows)

    def explain(self, plan: PlanNode) -> str:
        estimate = self.cost_model.estimate(plan)
        header = f"estimated rows={estimate.rows:.1f} cost={estimate.cost:.1f}"
        return header + "\n" + plan.explain()

    def estimate(self, plan: PlanNode) -> CostEstimate:
        return self.cost_model.estimate(plan)

    # ------------------------------------------------------------- inspection

    def row_count(self, table_name: str) -> int:
        return self.catalog.table(table_name).row_count

    def total_rows(self) -> int:
        """Total number of live rows across all tables (paper: 'entries')."""

        return sum(t.row_count for t in self.catalog.tables())

    def describe(self) -> Dict[str, Any]:
        return self.catalog.describe()
