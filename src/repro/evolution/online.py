"""Durable online schema evolution: backfill, changelog capture, atomic flip.

The offline :class:`~repro.evolution.migration.Migrator` quiesces the world:
it rebuilds a fresh database while nothing else runs.  The
:class:`OnlineMigrator` keeps the system serving:

1. **Begin** — under the writer lock it pins an MVCC read view on the live
   database and attaches a :class:`MigrationChangelog` to the active CRUD
   templates *in the same critical section*, so every committed write lands
   in exactly one of the two: the view (committed before the pin) or the
   changelog (committed after).  A ``migration_begin`` record is WAL-logged.
2. **Backfill** — entity and relationship instances are read from the pinned
   view in bounded batches, pushed through the same per-change transforms
   the offline migrator uses, and loaded into a *shadow* database compiled
   from the target spec.  The shadow is never WAL-logged: readers keep
   planning against the old layout the whole time, and each batch appends a
   ``backfill_batch`` marker so the on-disk log narrates progress.
3. **Drain** — committed changelog entries are replayed onto the shadow in
   catch-up rounds (each entry re-transformed for the schema change), and
   rollback-safe capture means an aborted transaction's entries are never
   replayed.
4. **Flip** — holding *both* writer locks (old and shadow), the remaining
   changelog is drained, the changelog is closed (a straggler writer that
   captured the pre-flip templates gets
   :class:`~repro.errors.SerializationError` and retries against the new
   layout), ``migration_flip`` is logged, the new layout (schema, spec,
   mapping, database, templates, planner) is built and published in one
   assignment, and a synchronous checkpoint extends the DDL barrier of
   ``set_mapping``: its ``CURRENT`` rename is the migration's durable
   commit point.

Crash semantics are rollback-by-default: recovery before the flip
checkpoint's rename lands on exactly the old layout (the lifecycle records
replay as no-ops and the shadow never touched the log); after it, on exactly
the new one.  If the flip checkpoint *fails*, the old layout object is
published again and commits are fenced until a covering checkpoint
publishes — whichever layout a subsequent crash recovers, its logical
content is the flip-time content, so the "never a torn layout" property
holds unconditionally.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..core import EntityInstance, ERSchema
from ..errors import MigrationError, SerializationError
from ..mapping import CrudTemplates, MappingSpec, check_mapping, compile_mapping, fully_normalized_spec
from ..relational import Database
from ..relational.mvcc import read_view_scope
from .changes import (
    DropAttribute,
    DropRelationship,
    MakeAttributeMultiValued,
    RenameAttribute,
    SchemaChange,
)
from .migration import (
    MigrationReport,
    _fit_to_schema,
    _instance_walk,
    _targets,
    _transform_for_change,
)
from .reconcile import ReconcileReport, reconcile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import ErbiumDB

#: Default number of instances copied per backfill batch.
DEFAULT_BATCH_SIZE = 512

#: Catch-up rounds before the final under-lock drain at the flip.
MAX_CATCHUP_ROUNDS = 8

#: Numeric phase encoding for the ``migration.phase`` gauge.
PHASES = {"idle": 0, "begin": 1, "backfill": 2, "drain": 3, "flip": 4}


class _ChangeEntry:
    """One captured logical write; ``discarded`` set by transaction rollback."""

    __slots__ = ("op", "args", "discarded")

    def __init__(self, op: str, args: Any) -> None:
        self.op = op
        self.args = args
        self.discarded = False

    def discard(self) -> None:
        self.discarded = True


class MigrationChangelog:
    """Rollback-safe logical capture of writes committed during a backfill.

    ``record`` is called by the CRUD templates inside the write's
    transaction scope: the entry is appended under the changelog lock and an
    undo callback (:meth:`_ChangeEntry.discard`) is registered on the
    transaction, so a rollback — full or to a statement savepoint — marks
    the entry discarded and :meth:`drain` never returns it.  Once
    :meth:`close` ran (at the flip), any further ``record`` raises
    :class:`~repro.errors.SerializationError`: the writer raced past the
    flip with a stale template object, its physical writes roll back with
    the statement, and a session-level retry resolves the new templates.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[_ChangeEntry] = []
        self._closed = False
        self.captured = 0

    def record(self, txn, op: str, args: Any) -> None:
        entry = _ChangeEntry(op, args)
        with self._lock:
            if self._closed:
                raise SerializationError(
                    "an online schema migration flipped while this write was in "
                    "flight; retry the statement against the new layout"
                )
            self._entries.append(entry)
            self.captured += 1
        if txn is not None and txn.active:
            txn.record(f"migration changelog {entry.op}", entry.discard)

    def drain(self) -> List[_ChangeEntry]:
        """Remove and return the committed (non-discarded) entries.

        Call under the database writer lock with no transaction open: write
        transactions hold the lock for their whole lifetime, so every entry
        seen here is from a committed (or discarded) transaction.
        """

        with self._lock:
            out = [e for e in self._entries if not e.discarded]
            self._entries = []
        return out

    def close(self) -> List[_ChangeEntry]:
        """Drain one final time and refuse all future records."""

        with self._lock:
            self._closed = True
            out = [e for e in self._entries if not e.discarded]
            self._entries = []
        return out

    @property
    def closed(self) -> bool:
        return self._closed


@dataclass
class OnlineMigrationReport:
    """Outcome of one :meth:`OnlineMigrator.run`."""

    mapping_name: str = ""
    entities_backfilled: int = 0
    relationships_backfilled: int = 0
    backfill_batches: int = 0
    changelog_captured: int = 0
    changelog_applied: int = 0
    catchup_rounds: int = 0
    entities_transformed: int = 0
    dropped_values: int = 0
    flip_lsn: Optional[int] = None
    checkpoint: Optional[Dict[str, Any]] = None
    reconcile: Optional[ReconcileReport] = None
    notes: List[str] = field(default_factory=list)

    def describe(self) -> Dict[str, Any]:
        out = {
            "mapping": self.mapping_name,
            "entities_backfilled": self.entities_backfilled,
            "relationships_backfilled": self.relationships_backfilled,
            "backfill_batches": self.backfill_batches,
            "changelog_captured": self.changelog_captured,
            "changelog_applied": self.changelog_applied,
            "catchup_rounds": self.catchup_rounds,
            "entities_transformed": self.entities_transformed,
            "dropped_values": self.dropped_values,
            "flip_lsn": self.flip_lsn,
            "checkpoint": self.checkpoint,
            "notes": list(self.notes),
        }
        if self.reconcile is not None:
            out["reconcile"] = self.reconcile.describe()
        return out


def _transform_update_changes(
    schema: ERSchema, change: Optional[SchemaChange], entity: str, changes: Dict[str, Any]
) -> Dict[str, Any]:
    """Re-express a captured update's change dict under the target schema."""

    changes = dict(changes)
    if isinstance(change, RenameAttribute) and _targets(schema, entity, change.entity):
        if change.old_name in changes:
            changes[change.new_name] = changes.pop(change.old_name)
    elif isinstance(change, DropAttribute) and _targets(schema, entity, change.entity):
        changes.pop(change.attribute, None)
    elif isinstance(change, MakeAttributeMultiValued) and _targets(
        schema, entity, change.entity
    ):
        if change.attribute in changes:
            value = changes[change.attribute]
            if not isinstance(value, list):
                changes[change.attribute] = [] if value is None else [value]
    return changes


def _batched(items: List[Any], size: int) -> List[List[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)] or []


class OnlineMigrator:
    """Runs one durable online migration against a live :class:`ErbiumDB`."""

    def __init__(
        self,
        system: "ErbiumDB",
        change: Optional[SchemaChange] = None,
        new_schema: Optional[ERSchema] = None,
        new_spec: Optional[MappingSpec] = None,
        transform: Optional[Callable[[EntityInstance], EntityInstance]] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        reconcile_after: bool = True,
    ) -> None:
        if change is None and new_schema is None and new_spec is None:
            raise MigrationError("nothing to migrate: no change, schema or spec given")
        if batch_size < 1:
            raise MigrationError(f"batch_size must be positive, got {batch_size}")
        self.system = system
        self.change = change
        self.new_schema = new_schema
        self.new_spec = new_spec
        self.transform = transform
        self.batch_size = batch_size
        self.reconcile_after = reconcile_after
        self.report = OnlineMigrationReport()
        self._transform_report = MigrationReport()
        self.changelog = MigrationChangelog()
        registry = system.observability.registry
        self._phase_gauge = registry.gauge("migration.phase")
        self._active_gauge = registry.gauge("migration.active")
        self._progress_gauge = registry.gauge("migration.progress")
        self._batch_counter = registry.counter("migration.backfill_batches")
        self._instance_counter = registry.counter("migration.backfill_instances")
        self._applied_counter = registry.counter("migration.changelog_applied")

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> OnlineMigrationReport:
        system = self.system
        if system.mapping is None:
            raise MigrationError("no mapping installed; call set_mapping() first")
        registry = system.observability.registry
        registry.counter("migration.runs").inc()
        self._active_gauge.set(1)
        self._progress_gauge.set(0.0)
        try:
            self._prepare_target()
            self._begin_capture()
            try:
                self._backfill()
                self._catch_up()
                self._flip()
            except MigrationError:
                raise
            except BaseException as exc:
                self._abort(f"{type(exc).__name__}: {exc}")
                raise MigrationError(f"online migration failed: {exc}") from exc
            registry.counter("migration.completed").inc()
            self._progress_gauge.set(1.0)
            if self.reconcile_after:
                self.report.reconcile = reconcile(system)
            return self.report
        finally:
            self._active_gauge.set(0)
            self._phase_gauge.set(PHASES["idle"])

    def _prepare_target(self) -> None:
        system = self.system
        self.old = system._layout

        target_schema = self.new_schema
        if self.change is not None:
            target_schema = self.change.apply_to_schema(self.old.schema)
        if target_schema is None:
            target_schema = self.old.schema.clone()
        spec = self.new_spec if self.new_spec is not None else fully_normalized_spec(target_schema)
        new_mapping = compile_mapping(target_schema, spec)
        check_mapping(target_schema, new_mapping).raise_if_invalid()
        self.target_schema = target_schema
        self.spec = spec
        self.new_mapping = new_mapping
        self.report.mapping_name = new_mapping.name

        shadow = Database(name=f"{system.name}_{new_mapping.name}")
        new_mapping.install(shadow)
        self.shadow_db = shadow
        self.shadow_crud = CrudTemplates(target_schema, new_mapping, shadow)

    def _begin_capture(self) -> None:
        """Pin the read view and attach the changelog atomically.

        Both happen in one writer-lock critical section: a transaction that
        committed before the pin is in the view and not in the changelog; one
        that commits after blocks on the lock until the changelog is attached
        and is captured.  No write is seen twice or lost.
        """

        self._phase_gauge.set(PHASES["begin"])
        system = self.system
        with self.old.db.write_lock:
            self.view = self.old.db.begin_read_view()
            self.old.crud.changelog = self.changelog
            if system.durability is not None:
                from ..durability.snapshot import spec_to_dict

                record: Dict[str, Any] = {
                    "t": "migration_begin",
                    "mapping": self.new_mapping.name,
                    "spec": spec_to_dict(self.spec),
                }
                if self.change is not None:
                    record["change"] = self.change.describe()
                try:
                    system.durability.log_migration(record)
                except BaseException:
                    self.old.crud.changelog = None
                    self.view.close()
                    raise

    def _log_batch(self, kind: str, count: int, detail: str) -> None:
        self.report.backfill_batches += 1
        self._batch_counter.inc()
        if self.system.durability is not None:
            self.system.durability.log_migration(
                {"t": "backfill_batch", "phase": kind, "count": count, "of": detail}
            )

    def _backfill(self) -> None:
        self._phase_gauge.set(PHASES["backfill"])
        with read_view_scope(self.view):
            entity_items, relationship_items = _instance_walk(self.old.schema, self.old.crud)
        total = max(len(entity_items) + len(relationship_items), 1)
        done = 0

        for batch in _batched(entity_items, self.batch_size):
            with read_view_scope(self.view):
                instances = [
                    inst
                    for name, key in batch
                    if (inst := self.old.crud.get_entity(name, key)) is not None
                ]
            instances, _ = _transform_for_change(
                self.old.schema, self.change, instances, [], self._transform_report
            )
            if self.transform is not None:
                instances = [self.transform(i) for i in instances]
            loadable = [_fit_to_schema(self.target_schema, i) for i in instances]
            self.shadow_crud.insert_entities(loadable)
            self.report.entities_backfilled += len(loadable)
            self._instance_counter.inc(len(loadable))
            done += len(batch)
            self._progress_gauge.set(done / total)
            self._log_batch("entities", len(loadable), batch[0][0] if batch else "")

        for batch in _batched(relationship_items, self.batch_size):
            _, kept = _transform_for_change(
                self.old.schema, self.change, [], list(batch), self._transform_report
            )
            kept = [
                r for r in kept if self.target_schema.has_relationship(r.relationship_set)
            ]
            self.shadow_crud.insert_relationships(kept)
            self.report.relationships_backfilled += len(kept)
            self._instance_counter.inc(len(kept))
            done += len(batch)
            self._progress_gauge.set(done / total)
            self._log_batch(
                "relationships", len(kept), batch[0].relationship_set if batch else ""
            )

        self.report.entities_transformed = self._transform_report.entities_transformed
        self.report.dropped_values = self._transform_report.dropped_values
        self.report.notes.extend(self._transform_report.notes)

    # -- changelog application ---------------------------------------------

    def _apply_entry(self, entry: _ChangeEntry) -> None:
        op, args = entry.op, entry.args
        crud, schema = self.shadow_crud, self.target_schema
        if op == "insert_entity":
            instances, _ = _transform_for_change(
                self.old.schema, self.change, [args], [], self._transform_report
            )
            instance = instances[0]
            if self.transform is not None:
                instance = self.transform(instance)
            crud.insert_entity(_fit_to_schema(schema, instance))
        elif op == "update_entity":
            entity, key, changes = args
            changes = _transform_update_changes(
                self.old.schema, self.change, entity, changes
            )
            if changes:
                crud.update_entity(entity, key, changes)
        elif op == "delete_entity":
            entity, key = args
            crud.delete_entity(entity, key)
        elif op == "insert_relationship":
            instance = args
            if schema.has_relationship(instance.relationship_set):
                crud.insert_relationship(instance)
        elif op == "delete_relationship":
            relationship, endpoints = args
            if schema.has_relationship(relationship):
                crud.delete_relationship(relationship, endpoints)
        else:  # pragma: no cover - the templates only log the five ops above
            raise MigrationError(f"unknown changelog op {op!r}")

    def _apply_entries(self, entries: List[_ChangeEntry]) -> None:
        for entry in entries:
            self._apply_entry(entry)
        self.report.changelog_applied += len(entries)
        self._applied_counter.inc(len(entries))

    def _catch_up(self) -> None:
        """Drain committed changelog entries without blocking writers for long.

        Each round takes the writer lock only for the drain itself (write
        transactions hold the lock for their lifetime, so a drained entry is
        always from a finished transaction) and applies entries to the
        shadow with the lock released.  Rounds stop when a drain comes back
        empty or after :data:`MAX_CATCHUP_ROUNDS` — the flip's final drain
        under both locks picks up any remainder.
        """

        self._phase_gauge.set(PHASES["drain"])
        for _ in range(MAX_CATCHUP_ROUNDS):
            with self.old.db.write_lock:
                entries = self.changelog.drain()
            if not entries:
                return
            self._apply_entries(entries)
            self.report.catchup_rounds += 1
            self._log_batch("changelog", len(entries), "catch-up")

    def _flip(self) -> None:
        system = self.system
        manager = system.durability
        self._phase_gauge.set(PHASES["flip"])
        with self.old.db.write_lock, self.shadow_db.write_lock:
            entries = self.changelog.close()
            if entries:
                self._apply_entries(entries)
                self._log_batch("changelog", len(entries), "final")
            self.report.changelog_captured = self.changelog.captured
            if manager is not None:
                self.report.flip_lsn = manager.log_migration(
                    {"t": "migration_flip", "mapping": self.new_mapping.name}
                )
            self._swap_in()
            if manager is not None:
                try:
                    self.report.checkpoint = manager.checkpoint()
                except BaseException as exc:
                    # The flip checkpoint did not (confirmably) publish.
                    # Revert the swap — the old layout stays authoritative —
                    # and fence commits: until a covering checkpoint lands,
                    # any WAL record could be replayed against whichever
                    # layout CURRENT actually names.  Either recovery target
                    # holds exactly the flip-time content, so a crash in the
                    # fenced window still lands on a consistent layout.
                    self._revert_swap()
                    try:
                        self.view.close()
                    except Exception:
                        pass
                    manager.fence_commits(
                        f"online migration flip checkpoint failed: {exc}"
                    )
                    try:
                        manager.log_migration(
                            {"t": "migration_abort", "reason": "flip checkpoint failed"}
                        )
                    except BaseException:
                        pass
                    raise MigrationError(
                        f"flip checkpoint failed; migration rolled back: {exc}"
                    ) from exc
            self.view.close()

    def _swap_in(self) -> None:
        system = self.system
        shadow = self.shadow_db
        shadow.observability = system.observability
        shadow.statistics.restore_state(
            self.old.db.statistics.export_state(), db=shadow
        )
        layout = system._layout_for(self.target_schema, self.spec, self.new_mapping, shadow)
        if system.durability is not None:
            shadow.durability = system.durability
            self.old.db.durability = None
        system._publish(layout)

    def _revert_swap(self) -> None:
        system = self.system
        if system.durability is not None:
            self.old.db.durability = system.durability
            self.shadow_db.durability = None
        system._publish(self.old)
        # the closed changelog would make every retried write fail forever;
        # the old templates are live again, so detach it
        self.old.crud.changelog = None

    def _abort(self, reason: str) -> None:
        """Tear down a failed migration, leaving the old layout serving."""

        system = self.system
        with self.old.db.write_lock:
            self.old.crud.changelog = None
            try:
                self.view.close()
            except Exception:
                pass
        system.observability.registry.counter("migration.aborted").inc()
        if system.durability is not None:
            try:
                system.durability.log_migration(
                    {"t": "migration_abort", "reason": reason[:200]}
                )
            except BaseException:
                pass
        self.report.notes.append(f"aborted: {reason}")
