"""Durable online schema evolution: backfill, catch-up by key re-copy, atomic flip.

The offline :class:`~repro.evolution.migration.Migrator` quiesces the world:
it rebuilds a fresh database while nothing else runs.  The
:class:`OnlineMigrator` keeps the system serving:

1. **Begin** — under the writer lock it pins an MVCC read view on the live
   database, which holds committed data only, and WAL-logs a
   ``migration_begin`` record.
2. **Backfill** — entity and relationship instances are read from the pinned
   view in bounded batches, carried to the target schema by the same two
   steps the offline migrator uses (the change's values transform, then the
   fit to the target schema), and loaded into a *shadow* database compiled
   from the target spec.  The shadow is never WAL-logged: readers keep
   planning against the old layout the whole time, and each batch appends a
   ``backfill_batch`` marker so the on-disk log narrates progress.
3. **Catch-up** — each round pins a fresh view inside a short writer-lock
   section.  The slots written since the previous view are those whose row
   version exceeds that view's watermark; each one's pre-image (previous
   view) and post-image (fresh view) is decoded, through the old mapping's
   placement descriptor, into the entity keys and relationship pairs it
   carries, and each of those is made equal in the shadow to its state in
   the fresh view: deleted if gone, inserted if new, its changed attributes
   updated otherwise.  Catch-up reads committed state, not operations, so
   it sees every writer — the live templates, a service holding its own, a
   raw ``db`` call — and a rolled-back write simply re-copies to an
   unchanged state.  Re-copy is idempotent and order-free.
4. **Flip** — holding *both* writer locks (old and shadow), a last round
   runs, ``migration_flip`` is logged, the old database is *retired* (a
   later write that reaches it — a straggler on pre-flip templates, a raw
   write, a service built before the flip — gets the retryable
   :class:`~repro.errors.SerializationError` and retries against the new
   layout), the new layout (schema, spec, mapping, database, templates,
   planner) is built and published in one assignment, and a synchronous
   checkpoint extends the DDL barrier of ``set_mapping``: its ``CURRENT``
   rename is the migration's durable commit point.

Crash semantics are rollback-by-default: recovery before the flip
checkpoint's rename lands on exactly the old layout (the lifecycle records
replay as no-ops and the shadow never touched the log); after it, on exactly
the new one.  If the flip checkpoint *fails*, the old layout object is
published (and un-retired) again and commits are fenced until a covering
checkpoint publishes — whichever layout a subsequent crash recovers, its
logical content is the flip-time content, so the "never a torn layout"
property holds unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core import EntityInstance, ERSchema, RelationshipInstance, WeakEntitySet
from ..errors import MigrationError
from ..mapping import (
    CrudTemplates,
    MappingSpec,
    check_mapping,
    compile_mapping,
    fully_normalized_spec,
)
from ..mapping.descriptor import Identity
from ..relational import Database
from ..relational.mvcc import ReadView, read_view_scope
from .changes import SchemaChange
from .migration import _Carry, _instance_walk
from .reconcile import ReconcileReport, reconcile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import ErbiumDB

#: Default number of instances copied per backfill batch.
DEFAULT_BATCH_SIZE = 512

#: Catch-up rounds before the last one, which the flip runs under both writer locks.
MAX_CATCHUP_ROUNDS = 8

#: Numeric phase encoding for the ``migration.phase`` gauge.
PHASES = {"idle": 0, "begin": 1, "backfill": 2, "drain": 3, "flip": 4}


def _instance(crud: CrudTemplates, identity: Identity) -> Optional[EntityInstance]:
    """The entity ``identity`` names, read as its most specific type (or None)."""

    _, root, key = identity
    for member in reversed(crud.schema.hierarchy_members(root)):  # leaves first
        instance = crud.get_entity(member.name, key)
        if instance is not None:
            return instance
    return None


def _has_pair(crud: CrudTemplates, identity: Identity) -> bool:
    _, name, left, right = identity
    source = crud.schema.relationship(name).participants[0].entity
    return right in crud.related_keys(name, source, left)


def _endpoints(schema: ERSchema, identity: Identity) -> Dict[str, Tuple[Any, ...]]:
    _, name, left, right = identity
    return dict(zip(schema.relationship(name).labels(), (left, right)))


def _owner_depth(schema: ERSchema, entity: str) -> int:
    """0 for a strong entity, 1 + the owner's depth for a weak one."""

    found = schema.entity(entity)
    return 1 + _owner_depth(schema, found.owner) if isinstance(found, WeakEntitySet) else 0


@dataclass
class OnlineMigrationReport:
    """Outcome of one :meth:`OnlineMigrator.run`."""

    mapping_name: str = ""
    entities_backfilled: int = 0
    relationships_backfilled: int = 0
    backfill_batches: int = 0
    #: catch-up: entity keys and relationship pairs decoded from the slots
    #: written during the migration, summed over rounds
    changelog_captured: int = 0
    #: of those, the ones the shadow did not yet match and were re-copied
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
            self._begin()
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
        self.carry = _Carry(
            self.change, self.old.schema, target_schema, self.report, self.transform
        )
        self.decoder = self.old.mapping.descriptor(self.old.schema)

    def _begin(self) -> None:
        """Pin the view the backfill copies, and log ``migration_begin``.

        The view is the first catch-up round's baseline: whatever commits
        after the pin stamps its slots past the view's watermarks.
        """

        self._phase_gauge.set(PHASES["begin"])
        system = self.system
        with self.old.db.write_lock:
            self.view = self.old.db.begin_read_view()
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
            loadable = self.carry.entities(instances)
            self.shadow_crud.insert_entities(loadable)
            self.report.entities_backfilled += len(loadable)
            self._instance_counter.inc(len(loadable))
            done += len(batch)
            self._progress_gauge.set(done / total)
            self._log_batch("entities", len(loadable), batch[0][0] if batch else "")

        for batch in _batched(relationship_items, self.batch_size):
            kept = self.carry.relationships(batch)
            self.shadow_crud.insert_relationships(kept)
            self.report.relationships_backfilled += len(kept)
            self._instance_counter.inc(len(kept))
            done += len(batch)
            self._progress_gauge.set(done / total)
            self._log_batch(
                "relationships", len(kept), batch[0].relationship_set if batch else ""
            )

    # -- catch-up ------------------------------------------------------------

    def _catch_up(self) -> None:
        """Re-copy what was written since the backfill's view, in bounded rounds.

        Each round holds the writer lock only to pin its view.  Rounds stop
        when one finds nothing written, or after :data:`MAX_CATCHUP_ROUNDS`
        — the flip's last round under both locks picks up any remainder.
        """

        self._phase_gauge.set(PHASES["drain"])
        for _ in range(MAX_CATCHUP_ROUNDS):
            written = self._round()
            if not written:
                return
            self.report.catchup_rounds += 1
            self._log_batch("changelog", written, "catch-up")

    def _round(self) -> int:
        """Pin a fresh view and bring the shadow up to it; returns the
        number of entity keys and relationship pairs decoded."""

        with self.old.db.write_lock:
            view = self.old.db.begin_read_view()
        previous, self.view = self.view, view
        try:
            written = self._written(previous, view)
        finally:
            previous.close()
        self._recopy(written, view)
        self.report.changelog_captured += len(written)
        return len(written)

    def _written(self, before: ReadView, after: ReadView) -> Set[Identity]:
        """The identities carried by slots written between two views, by
        their pre-image (``before``) or their post-image (``after``)."""

        found: Set[Identity] = set()
        marks, now = before.watermarks(), after.watermarks()
        for name in self.decoder.tables:
            mark = marks[name]
            if now[name] == mark:
                continue
            slots = self.old.db.catalog.table(name).written_since(mark)
            for view in (before, after):
                for row in view.table(name).rows_at(slots):
                    found.update(self.decoder.decode(name, row))
        return found

    def _recopy(self, written: Set[Identity], view: ReadView) -> None:
        """Make each identity in the shadow what it is in ``view``.

        Pairs the view lacks go first.  Then, owners first, an entity the
        view lacks or holds as another type is deleted (the instances it
        owns go with it), and one the view holds is inserted or has its
        changed attributes updated; then the pairs the shadow lacks are
        linked.  An entity on both sides as the same type is updated in
        place, never re-inserted, so relationship rows the round did not
        touch keep their traces.
        """

        old, shadow = self.old.crud, self.shadow_crud
        target = self.target_schema
        entities = {i for i in written if i[0] == "entity"}
        pairs = [i for i in written if i[0] == "pair" and target.has_relationship(i[1])]
        with read_view_scope(view):
            sources = {identity: _instance(old, identity) for identity in entities}
            kept = {identity for identity in pairs if _has_pair(old, identity)}
        applied: Set[Identity] = set()

        for identity in pairs:
            if identity not in kept and _has_pair(shadow, identity):
                shadow.delete_relationship(identity[1], _endpoints(target, identity))
                applied.add(identity)
        inserts: List[EntityInstance] = []
        for identity in sorted(entities, key=lambda i: _owner_depth(target, i[1])):
            source, copy = sources[identity], _instance(shadow, identity)
            if copy is not None and (source is None or source.entity_set != copy.entity_set):
                shadow.delete_entity(copy.entity_set, identity[2])
                applied.add(identity)
                copy = None
            if source is None:
                continue
            [carried] = self.carry.entities([source])
            if copy is None:
                inserts.append(carried)
                applied.add(identity)
                continue
            key_names = set(target.effective_key(copy.entity_set))
            want, have = carried.values, copy.values
            changes = {
                name: want.get(name)
                for name in want.keys() | have.keys()
                if name not in key_names and want.get(name) != have.get(name)
            }
            if changes:
                shadow.update_entity(copy.entity_set, identity[2], changes)
                applied.add(identity)
        shadow.insert_entities(inserts)  # owners before dependants: sorted by depth
        for identity in kept:
            if not _has_pair(shadow, identity):
                endpoints = _endpoints(target, identity)
                shadow.insert_relationship(RelationshipInstance(identity[1], endpoints))
                applied.add(identity)

        self.report.changelog_applied += len(applied)
        self._applied_counter.inc(len(applied))

    def _flip(self) -> None:
        system = self.system
        manager = system.durability
        self._phase_gauge.set(PHASES["flip"])
        with self.old.db.write_lock, self.shadow_db.write_lock:
            written = self._round()
            if written:
                self._log_batch("changelog", written, "final")
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
        self.old.db.retired = True
        system._publish(layout)

    def _revert_swap(self) -> None:
        system = self.system
        if system.durability is not None:
            self.old.db.durability = system.durability
            self.shadow_db.durability = None
        self.old.db.retired = False
        system._publish(self.old)

    def _abort(self, reason: str) -> None:
        """Tear down a failed migration, leaving the old layout serving."""

        system = self.system
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
