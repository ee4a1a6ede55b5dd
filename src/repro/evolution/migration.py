"""Native data migration between schema versions.

The paper notes that schema changes "typically also require a complex data
migration process, which today is often handled by the application layers on
top since databases do not support such functionality natively", and proposes
supporting it inside the system.  The migrator here works at the E/R level:

1. reconstruct every entity and relationship instance from the *old*
   (schema, mapping, database) triple using the CRUD templates — this is the
   reversibility property doing real work;
2. carry each instance to the new schema: the change's own values transform
   (e.g. wrap a scalar city into a one-element list when the attribute
   becomes multi-valued), then drop what the new schema no longer has;
3. build a fresh database under the *new* schema and mapping and reload the
   transformed instances through the new CRUD templates.

Because both ends speak E/R instances, the same migrator also handles pure
*remapping* (same schema, different physical design), which is what the
mapping-ablation benchmarks use to switch layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core import EntityInstance, ERSchema, RelationshipInstance
from ..errors import MigrationError
from ..mapping import (
    CrudTemplates,
    Mapping,
    MappingSpec,
    check_mapping,
    compile_mapping,
    fully_normalized_spec,
)
from ..relational import Database
from .changes import SchemaChange


@dataclass
class MigrationReport:
    """Summary of one migration run."""

    entities_migrated: int = 0
    relationships_migrated: int = 0
    entities_transformed: int = 0
    dropped_values: int = 0
    notes: List[str] = field(default_factory=list)
    #: governance state (access grants, audit trail) exported from the
    #: source system, ready for ``restore_state`` on the successor — the
    #: same export/restore pair checkpoints and recovery use
    governance: Optional[Dict[str, Any]] = None


def _instance_walk(
    schema: ERSchema, crud: CrudTemplates
) -> Tuple[List[Tuple[str, Tuple[Any, ...]]], List[RelationshipInstance]]:
    """(entity set, key) of every entity instance, and every relationship instance.

    Both migrators copy exactly this: the offline one reads it off a quiesced
    database, the online one under its pinned read view.
    """

    entity_keys: List[Tuple[str, Tuple[Any, ...]]] = []
    hierarchy_roots = {root.name for root in schema.hierarchy_roots()}
    for entity in schema.entities():
        # For hierarchies, only reconstruct from the most-specific member so
        # each logical instance is emitted exactly once.
        if entity.name in hierarchy_roots or entity.parent is not None:
            continue
        entity_keys.extend((entity.name, key) for key in crud.entity_keys(entity.name))
    for root_name in hierarchy_roots:
        keys_seen: Dict[Tuple[Any, ...], str] = {}
        # walk leaves-first so the most specific membership wins
        for member in reversed(schema.hierarchy_members(root_name)):
            for key in crud.entity_keys(member.name):
                keys_seen.setdefault(key, member.name)
        entity_keys.extend((member_name, key) for key, member_name in keys_seen.items())

    relationships: List[RelationshipInstance] = []
    for relationship in schema.relationships():
        if relationship.identifying:
            continue
        left, right = relationship.participants[0], relationship.participants[1]
        for left_key, right_key in crud.relationship_pairs(relationship.name):
            relationships.append(
                RelationshipInstance(
                    relationship.name, {left.label: left_key, right.label: right_key}
                )
            )
    return entity_keys, relationships


def _extract_instances(
    schema: ERSchema, mapping: Mapping, db: Database
) -> Tuple[List[EntityInstance], List[RelationshipInstance]]:
    crud = CrudTemplates(schema, mapping, db)
    entity_keys, relationships = _instance_walk(schema, crud)
    entities = [
        instance
        for name, key in entity_keys
        if (instance := crud.get_entity(name, key)) is not None
    ]
    return entities, relationships


class _Carry:
    """Carries instances from the source schema to the target schema.

    The two steps every migration path shares — the offline
    :class:`Migrator`, the online backfill and the online catch-up re-copy:
    the change's own values transform (for entity sets it applies to), then
    the fit to the target schema, which drops the values of attributes an
    entity set no longer has and the relationships the target no longer
    has.  ``entities_transformed`` and ``dropped_values`` are counted into
    ``report`` from exactly these two steps.
    """

    def __init__(
        self,
        change: Optional[SchemaChange],
        source: ERSchema,
        target: ERSchema,
        report: Any,
        hook: Optional[Callable[[EntityInstance], EntityInstance]] = None,
    ) -> None:
        self.change = change
        self.source = source
        self.target = target
        self.report = report
        self.hook = hook
        self._kept: Dict[str, Set[str]] = {}

    def _transform(self, entity: str, values: Dict[str, Any]) -> Dict[str, Any]:
        change = self.change
        if change is None or not change.applies_to(self.source, entity):
            return values
        transformed = change.transform_values(values)
        if transformed is not values:
            self.report.entities_transformed += 1
        return transformed

    def _fit(self, entity: str, values: Dict[str, Any]) -> Dict[str, Any]:
        kept = self._kept.get(entity)
        if kept is None:
            kept = set()
            if self.target.has_entity(entity):
                kept = {a.name for a in self.target.effective_attributes(entity)}
                kept.update(self.target.effective_key(entity))
            self._kept[entity] = kept
        fitted = {k: v for k, v in values.items() if k in kept}
        if len(fitted) < len(values):
            self.report.dropped_values += sum(
                1 for k, v in values.items() if k not in kept and v is not None
            )
        return fitted

    def entities(self, instances: List[EntityInstance]) -> List[EntityInstance]:
        out = []
        for instance in instances:
            values = self._transform(instance.entity_set, instance.values)
            if self.hook is not None:
                instance = self.hook(EntityInstance(instance.entity_set, values))
                values = instance.values
            out.append(EntityInstance(instance.entity_set, self._fit(instance.entity_set, values)))
        return out

    def relationships(
        self, instances: List[RelationshipInstance]
    ) -> List[RelationshipInstance]:
        kept = [r for r in instances if self.target.has_relationship(r.relationship_set)]
        self.report.dropped_values += len(instances) - len(kept)
        return kept


class Migrator:
    """Migrates data from one (schema, mapping, db) triple to another."""

    def __init__(
        self,
        schema: ERSchema,
        mapping: Mapping,
        db: Database,
        access: Optional[Any] = None,
        audit: Optional[Any] = None,
    ) -> None:
        self.schema = schema
        self.mapping = mapping
        self.db = db
        # governance objects of the source system, when the caller has any:
        # their exported state rides in the report so the successor system
        # can restore the same policy surface and audit trail
        self.access = access
        self.audit = audit

    def migrate(
        self,
        change: Optional[SchemaChange] = None,
        new_schema: Optional[ERSchema] = None,
        new_spec: Optional[MappingSpec] = None,
        transform: Optional[Callable[[EntityInstance], EntityInstance]] = None,
    ) -> Tuple[ERSchema, Mapping, Database, MigrationReport]:
        """Produce the evolved (schema, mapping, database) plus a report.

        Either ``change`` (a :class:`SchemaChange`, which also evolves the
        schema) or ``new_schema`` must be supplied; ``new_spec`` defaults to
        the fully-normalized design of the new schema; ``transform`` is an
        optional extra per-entity hook.
        """

        if change is None and new_schema is None and new_spec is None:
            raise MigrationError("nothing to migrate: no change, schema or spec given")
        report = MigrationReport()

        target_schema = new_schema
        if change is not None:
            target_schema = change.apply_to_schema(self.schema)
        if target_schema is None:
            target_schema = self.schema.clone()

        spec = new_spec if new_spec is not None else fully_normalized_spec(target_schema)
        new_mapping = compile_mapping(target_schema, spec)
        check_mapping(target_schema, new_mapping).raise_if_invalid()

        entities, relationships = _extract_instances(self.schema, self.mapping, self.db)
        carry = _Carry(change, self.schema, target_schema, report, transform)

        new_db = Database(name=f"{self.db.name}_migrated")
        new_mapping.install(new_db)
        crud = CrudTemplates(target_schema, new_mapping, new_db)
        crud.insert_entities(carry.entities(entities))
        report.entities_migrated = len(entities)
        relationships = carry.relationships(relationships)
        crud.insert_relationships(relationships)
        report.relationships_migrated = len(relationships)

        # Carry state that does not live in the rows, the way checkpoints
        # do.  Catalog metadata blobs move verbatim (minus the old mapping's
        # own keys — install() already wrote the new mapping's); the
        # statistics cache is re-keyed to the rebuilt tables, which hold the
        # same logical content the cached statistics describe; governance
        # state is exported into the report for ``restore_state`` on the
        # successor system.
        for key in self.db.catalog.metadata_keys():
            if key == "active_mapping" or key.startswith("mapping:"):
                continue
            new_db.catalog.put_metadata(key, self.db.catalog.get_metadata(key))
        new_db.statistics.restore_state(self.db.statistics.export_state(), db=new_db)
        if self.access is not None or self.audit is not None:
            report.governance = {
                "access": self.access.export_state() if self.access is not None else None,
                "audit": self.audit.export_state() if self.audit is not None else None,
            }
        return target_schema, new_mapping, new_db, report
