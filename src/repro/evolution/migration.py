"""Native data migration between schema versions.

The paper notes that schema changes "typically also require a complex data
migration process, which today is often handled by the application layers on
top since databases do not support such functionality natively", and proposes
supporting it inside the system.  The migrator here works at the E/R level:

1. reconstruct every entity and relationship instance from the *old*
   (schema, mapping, database) triple using the CRUD templates — this is the
   reversibility property doing real work;
2. transform each instance according to the schema change (e.g. wrap a scalar
   city into a one-element list when the attribute becomes multi-valued);
3. build a fresh database under the *new* schema and mapping and reload the
   transformed instances through the new CRUD templates.

Because both ends speak E/R instances, the same migrator also handles pure
*remapping* (same schema, different physical design), which is what the
mapping-ablation benchmarks use to switch layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from .changes import (
    AddRelationship,
    AddSubclass,
    AddEntitySet,
    DropAttribute,
    DropRelationship,
    MakeAttributeMultiValued,
    MakeRelationshipManyToMany,
    RenameAttribute,
    SchemaChange,
)


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


def _targets(schema: ERSchema, entity_name: str, change_entity: str) -> bool:
    """True if ``change_entity`` is ``entity_name`` or an ancestor of it."""

    if entity_name == change_entity:
        return True
    try:
        return change_entity in {a.name for a in schema.ancestors_of(entity_name)}
    except Exception:
        return False


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


def _fit_to_schema(schema: ERSchema, instance: EntityInstance) -> EntityInstance:
    """``instance`` without the values of attributes ``schema`` no longer has
    (attributes dropped from the schema must not be re-inserted)."""

    entity = instance.entity_set
    names = set()
    if schema.has_entity(entity):
        names = {a.name for a in schema.effective_attributes(entity)}
        names.update(schema.effective_key(entity))
    return EntityInstance(
        entity, {k: v for k, v in instance.values.items() if k in names}
    )


def _transform_for_change(
    schema: ERSchema,
    change: Optional[SchemaChange],
    entities: List[EntityInstance],
    relationships: List[RelationshipInstance],
    report: MigrationReport,
) -> Tuple[List[EntityInstance], List[RelationshipInstance]]:
    if change is None:
        return entities, relationships

    if isinstance(change, MakeAttributeMultiValued):
        transformed = []
        for instance in entities:
            if _targets(schema, instance.entity_set, change.entity):
                value = instance.values.get(change.attribute)
                new_value = [] if value is None else [value]
                transformed.append(instance.with_values(**{change.attribute: new_value}))
                report.entities_transformed += 1
            else:
                transformed.append(instance)
        return transformed, relationships

    if isinstance(change, RenameAttribute):
        transformed = []
        for instance in entities:
            if change.old_name in instance.values and _targets(
                schema, instance.entity_set, change.entity
            ):
                values = dict(instance.values)
                values[change.new_name] = values.pop(change.old_name)
                transformed.append(EntityInstance(instance.entity_set, values))
                report.entities_transformed += 1
            else:
                transformed.append(instance)
        return transformed, relationships

    if isinstance(change, DropAttribute):
        transformed = []
        for instance in entities:
            if change.attribute in instance.values:
                values = dict(instance.values)
                if values.pop(change.attribute, None) is not None:
                    report.dropped_values += 1
                transformed.append(EntityInstance(instance.entity_set, values))
            else:
                transformed.append(instance)
        return transformed, relationships

    if isinstance(change, DropRelationship):
        kept = [r for r in relationships if r.relationship_set != change.relationship]
        report.dropped_values += len(relationships) - len(kept)
        return entities, kept

    # Changes that only add schema elements (or relax cardinalities) need no
    # instance transformation.
    if isinstance(
        change,
        (MakeRelationshipManyToMany, AddEntitySet, AddSubclass, AddRelationship),
    ):
        return entities, relationships

    # Unknown change types: instances pass through untouched.
    report.notes.append(f"no instance transformation defined for {type(change).__name__}")
    return entities, relationships


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
        entities, relationships = _transform_for_change(
            self.schema, change, entities, relationships, report
        )
        if transform is not None:
            entities = [transform(e) for e in entities]

        new_db = Database(name=f"{self.db.name}_migrated")
        new_mapping.install(new_db)
        crud = CrudTemplates(target_schema, new_mapping, new_db)
        crud.insert_entities([_fit_to_schema(target_schema, e) for e in entities])
        report.entities_migrated = len(entities)
        relationships = [
            r for r in relationships if target_schema.has_relationship(r.relationship_set)
        ]
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
