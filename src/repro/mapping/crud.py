"""CRUD templates: entity/relationship-level operations under any mapping.

The paper's architecture (Figure 3) compiles CRUD statements against the E/R
schema into updates on whatever physical tables the active mapping uses.  The
:class:`CrudTemplates` class is that compiler + executor:

* ``insert_entity`` may write one row (single-table hierarchy), several rows
  (delta hierarchy + side tables for multi-valued attributes), an array append
  (nested weak entities) or a wide-table row (co-stored participants);
* ``get_entity`` reconstructs a full :class:`~repro.core.EntityInstance`
  regardless of where its pieces live — this is what makes the mapping
  *reversible* in the paper's sense, and the reversibility checker uses it;
* ``insert_relationship`` updates foreign-key columns, inserts join-table rows
  or merges rows of a co-stored wide table (handling the duplication the paper
  points out);
* ``delete_entity`` is entity-centric: it removes every physical trace of the
  instance, including its relationship rows — the primitive that the
  governance layer's right-to-erasure builds on.

All multi-row operations run inside a transaction on the underlying database.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import (
    EntityInstance,
    ERSchema,
    RelationshipInstance,
    WeakEntitySet,
    validate_entity_instance,
    validate_relationship_instance,
)
from ..errors import CrudTemplateError, InstanceError
from ..relational import Database
from .access import AccessPathBuilder, qualified
from .physical import Mapping


class CrudTemplates:
    """Executable CRUD templates for one (schema, mapping, database) triple."""

    def __init__(self, schema: ERSchema, mapping: Mapping, db: Database) -> None:
        self.schema = schema
        self.mapping = mapping
        self.db = db
        self.access = AccessPathBuilder(schema, mapping, db)
        # An online migration attaches a logical changelog here (see
        # repro.evolution.online.MigrationChangelog): every committed write
        # is captured at the entity/relationship level so the migrator can
        # replay it onto the shadow database.  None means no capture — the
        # hook is a single attribute check on the write path.
        self.changelog = None

    # ------------------------------------------------------------------ helpers

    def _log_change(self, op: str, args: Any) -> None:
        """Capture one logical write for an in-flight online migration.

        Called *inside* the write's transaction scope: the changelog
        registers an undo callback on the current transaction, so a
        rollback (full or to a statement savepoint) discards the entry with
        the physical writes.  A *closed* changelog raises
        :class:`~repro.errors.SerializationError` — a writer that captured
        this (pre-flip) template object and raced past the flip must fail
        and retry, at which point it resolves the post-flip templates.
        """

        log = self.changelog
        if log is not None:
            log.record(self.db.transactions.current, op, args)

    def _key_dict(self, entity: str, key: Sequence[Any]) -> Dict[str, Any]:
        names = self.schema.effective_key(entity)
        if not isinstance(key, (tuple, list)):
            key = (key,)
        if len(key) != len(names):
            raise CrudTemplateError(
                f"entity {entity!r} expects {len(names)} key value(s) {names}, got {len(key)}"
            )
        return dict(zip(names, key))

    def _row_ids(self, table_name: str, columns: Sequence[str], key: Sequence[Any]) -> List[int]:
        """Ids of the rows of ``table_name`` whose ``columns`` equal ``key``.

        The one way the templates address physical rows: an index lookup when
        the table has an index on exactly ``columns``, a scan otherwise.
        """

        return self.db.catalog.table(table_name).lookup_ids(tuple(columns), tuple(key))

    def _hierarchy_chain(self, entity: str) -> List[str]:
        """Root-first chain of hierarchy members from the root down to ``entity``."""

        chain = [a.name for a in reversed(self.schema.ancestors_of(entity))]
        chain.append(entity)
        return chain

    def _storable_names(self, entity: str) -> List[str]:
        return [
            a.name
            for a in self.schema.effective_attributes(entity)
            if not a.is_derived()
        ]

    # -------------------------------------------------------------- entity insert

    def insert_entity(self, instance: EntityInstance) -> EntityInstance:
        """Insert an entity instance, writing every physical structure it touches."""

        validated = validate_entity_instance(self.schema, instance)
        with self.db.transaction():
            self._insert_entity_rows(validated)
            self._log_change("insert_entity", validated)
        return validated

    def insert_entities(self, instances: Sequence[EntityInstance]) -> List[EntityInstance]:
        """Bulk-insert entity instances through the vectorized write path.

        Physical rows are accumulated per table and flushed as per-table
        batches via :meth:`Database.insert_many`, so a 50k-instance load does
        50k row *constructions* but only a handful of constraint sweeps,
        index builds and snapshot-version bumps.  Buffers are flushed
        whenever an instance needs to *read* previously buffered rows (a
        weak entity checking its owner, a nested placement updating the
        owner's array), which keeps the observable semantics of the
        row-at-a-time loop.  The whole load is one transaction: any failure
        rolls back every instance.
        """

        validated = [validate_entity_instance(self.schema, i) for i in instances]
        buffers: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()

        def emit(table_name: str, row: Dict[str, Any]) -> None:
            buffers.setdefault(table_name, []).append(row)

        def flush() -> None:
            while buffers:
                table_name, rows = buffers.popitem(last=False)
                self.db.insert_many(table_name, rows)

        with self.db.transaction():
            for instance in validated:
                entity = instance.entity_set
                placement = self.mapping.entity_placement(entity)
                entity_obj = self.schema.entity(entity)
                if placement.kind == "nested_in_owner":
                    # Reads and updates the owner row; it must be visible.
                    flush()
                    self._insert_entity_rows(instance)
                    continue
                if isinstance(entity_obj, WeakEntitySet):
                    owner_placement = self.mapping.entity_placement(entity_obj.owner)
                    if owner_placement.table in buffers:
                        flush()  # the owner-existence check reads its table
                self._insert_entity_rows(instance, emit=emit)
            flush()
            for instance in validated:
                self._log_change("insert_entity", instance)
        return validated

    def _insert_entity_rows(
        self,
        instance: EntityInstance,
        emit: Optional[Callable[[str, Dict[str, Any]], Any]] = None,
    ) -> None:
        emit = emit if emit is not None else self.db.insert
        entity = instance.entity_set
        placement = self.mapping.entity_placement(entity)
        values = instance.values

        entity_obj = self.schema.entity(entity)
        if isinstance(entity_obj, WeakEntitySet):
            self._require_owner(entity_obj, values)

        if placement.kind == "nested_in_owner":
            self._insert_nested(entity, placement, values)
        elif placement.kind == "co_stored":
            # The wide-table row holds the entity's own attributes; inherited
            # attributes of a co-stored subclass still go to the ancestor
            # tables, which _insert_delta_or_plain walks for us.
            self._insert_delta_or_plain(entity, values, emit)
        elif placement.kind in ("single_table", "disjoint_table"):
            self._insert_whole_row(entity, placement, values, emit)
        else:
            self._insert_delta_or_plain(entity, values, emit)

        self._insert_multivalued(entity, values, emit)

    def _require_owner(self, weak: WeakEntitySet, values: Dict[str, Any]) -> None:
        """A weak entity instance may only exist if its owner instance does."""

        owner_key_names = self.schema.effective_key(weak.owner)
        owner_key = tuple(values.get(k) for k in owner_key_names)
        owner_placement = self.mapping.entity_placement(weak.owner)
        if owner_placement.table is None:
            return
        if not self._row_ids(owner_placement.table, owner_placement.key_columns, owner_key):
            raise CrudTemplateError(
                f"cannot insert weak entity {weak.name!r}: owner {weak.owner!r} "
                f"with key {owner_key} does not exist"
            )

    def _insert_delta_or_plain(
        self,
        entity: str,
        values: Dict[str, Any],
        emit: Callable[[str, Dict[str, Any]], Any],
    ) -> None:
        chain = self._hierarchy_chain(entity)
        key_names = self.schema.effective_key(entity)
        for member in chain:
            member_placement = self.mapping.entity_placement(member)
            if member_placement.kind == "co_stored":
                self._insert_co_stored_entity(member, member_placement, values, emit)
                continue
            if member_placement.table is None:
                continue
            row = dict(zip(member_placement.key_columns, [values[k] for k in key_names]))
            member_entity = self.schema.entity(member)
            for attribute in member_entity.attributes:
                if attribute.is_derived() or attribute.name in key_names:
                    continue
                # scalars, and array-valued attributes stored inline on this table
                attr_placement = self.access._attribute_placement(entity, attribute.name)
                if attr_placement.kind in ("inline", "inline_array") and attr_placement.table == member_placement.table:
                    row[attr_placement.column] = values.get(attribute.name)
            emit(member_placement.table, row)

    def _insert_whole_row(
        self,
        entity: str,
        placement,
        values: Dict[str, Any],
        emit: Callable[[str, Dict[str, Any]], Any],
    ) -> None:
        """Single-table and disjoint hierarchies: every effective attribute of
        the instance lives in one row of the member's table."""

        row: Dict[str, Any] = {}
        key_names = self.schema.effective_key(entity)
        for key_name, column in zip(key_names, placement.key_columns):
            row[column] = values[key_name]
        for name in self._storable_names(entity):
            attr_placement = self.access._attribute_placement(entity, name)
            if attr_placement.kind in ("inline", "inline_array") and attr_placement.table == placement.table:
                if name not in key_names:
                    row[attr_placement.column] = values.get(name)
        if placement.kind == "single_table":
            row[placement.discriminator_column] = placement.type_value
        emit(placement.table, row)

    def _insert_nested(self, entity: str, placement, values: Dict[str, Any]) -> None:
        owner_placement = self.mapping.entity_placement(placement.owner_entity)
        owner_key_names = self.schema.effective_key(placement.owner_entity)
        owner_key = [values[k] for k in owner_key_names]
        table = self.db.catalog.table(owner_placement.table)
        row_ids = self._row_ids(owner_placement.table, owner_placement.key_columns, owner_key)
        if not row_ids:
            raise CrudTemplateError(
                f"cannot insert weak entity {entity!r}: owner {placement.owner_entity!r} "
                f"with key {tuple(owner_key)} does not exist"
            )
        element = {
            a.name: values.get(a.name)
            for a in self.schema.entity(entity).attributes
            if not a.is_derived()
        }
        current = table.get_row(row_ids[0]).get(placement.array_column) or []
        self.db.update_row(
            owner_placement.table,
            row_ids[0],
            {placement.array_column: list(current) + [element]},
        )

    def _insert_co_stored_entity(
        self,
        entity: str,
        placement,
        values: Dict[str, Any],
        emit: Callable[[str, Dict[str, Any]], Any],
    ) -> None:
        """Insert a participant of a co-stored relationship: a row with the
        other side left NULL (merged later by ``insert_relationship``)."""

        row: Dict[str, Any] = {}
        key_names = self.schema.effective_key(entity)
        for key_name, column in zip(key_names, placement.key_columns):
            row[column] = values[key_name]
        own_entity = self.schema.entity(entity)
        for attribute in own_entity.attributes:
            if attribute.is_derived() or attribute.is_multivalued():
                continue
            attr_placement = self.access._attribute_placement(entity, attribute.name)
            if attr_placement.kind == "inline" and attr_placement.table == placement.table:
                row[attr_placement.column] = values.get(attribute.name)
        emit(placement.table, row)

    def _insert_multivalued(
        self,
        entity: str,
        values: Dict[str, Any],
        emit: Callable[[str, Dict[str, Any]], Any],
    ) -> None:
        key_names = self.schema.effective_key(entity)
        for attribute in self.schema.effective_attributes(entity):
            if not attribute.is_multivalued():
                continue
            placement = self.access._attribute_placement(entity, attribute.name)
            if placement.kind != "side_table":
                continue
            self._emit_side_table_rows(
                placement, [values[k] for k in key_names], values.get(attribute.name), emit
            )

    def _emit_side_table_rows(
        self,
        placement,
        key_values: Sequence[Any],
        elements: Optional[Sequence[Any]],
        emit: Callable[[str, Dict[str, Any]], Any],
    ) -> None:
        """One side-table row per element of a multi-valued attribute."""

        for element in elements or []:
            row = dict(zip(placement.owner_key_columns, key_values))
            if len(placement.value_columns) == 1:
                row[placement.value_columns[0]] = element
            else:
                if not isinstance(element, dict):
                    raise CrudTemplateError(
                        f"elements of {placement.owner}.{placement.attribute} must be dicts"
                    )
                for column in placement.value_columns:
                    row[column] = element.get(column)
            emit(placement.table, row)

    # -------------------------------------------------------------- entity read

    def get_entity(self, entity: str, key: Sequence[Any]) -> Optional[EntityInstance]:
        """Reconstruct one entity instance from the physical tables."""

        key_equals = self._key_dict(entity, key)
        plan = self.access.entity_scan(entity, entity, key_equals=key_equals)
        key_names = self.schema.effective_key(entity)
        rows = [
            row
            for row in self.db.execute(plan).rows
            if all(row.get(qualified(entity, k)) == key_equals[k] for k in key_names)
        ]
        if not rows:
            return None
        row = rows[0]
        values = {}
        for name in self._storable_names(entity):
            # An attribute can legitimately be absent from the row (e.g. an
            # empty multi-valued attribute under a side-table mapping produces
            # no join partner); it reads back as NULL.
            values[name] = row.get(qualified(entity, name))
        # Key attributes (including the owner-key part of a weak entity's key)
        # are part of the instance even when they are not declared attributes.
        for name in key_names:
            values.setdefault(name, key_equals[name])
        return EntityInstance(entity, values)

    def get_documents(
        self, entity: str, keys: Sequence[Sequence[Any]], include_weak: bool = True
    ) -> List[Dict[str, Any]]:
        """Fetch full nested documents (owner + weak dependants) for many keys.

        This is the access pattern of experiment E7a ("all the information
        across the three entities for a given set of s_ids"):

        * under a nested mapping (M5) each document is a single keyed lookup of
          the owner row, whose arrays already hold the dependants;
        * under a normalized mapping (M1) the owner rows are keyed lookups but
          each weak entity set requires a pass over its table, grouped by
          owner key.
        """

        normalized_keys = [tuple(k) if isinstance(k, (tuple, list)) else (k,) for k in keys]
        key_names = self.schema.effective_key(entity)
        placement = self.mapping.entity_placement(entity)
        table = self.db.read_table(placement.table) if placement.table else None
        weak_sets = self.schema.weak_entities_of(entity) if include_weak else []

        documents: List[Dict[str, Any]] = []
        owner_rows: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        if table is not None:
            for key in normalized_keys:
                for row in table.lookup(tuple(placement.key_columns), key):
                    owner_rows[key] = row
                    break

        # Weak dependants: read nested arrays straight off the owner row, or
        # make one pass over each weak entity set grouped by owner key.  Either
        # way a child holds the weak entity's own attributes; the owner key is
        # carried by the enclosing document.
        dependants: Dict[str, Dict[Tuple[Any, ...], List[Dict[str, Any]]]] = {}
        for weak in weak_sets:
            weak_placement = self.mapping.entity_placement(weak.name)
            grouped: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
            if weak_placement.kind == "nested_in_owner":
                for key, row in owner_rows.items():
                    grouped[key] = list(row.get(weak_placement.array_column) or [])
            else:
                wanted = set(normalized_keys)
                own_names = [a.name for a in weak.attributes if not a.is_derived()]
                result = self.db.execute(self.access.entity_scan(weak.name, weak.name))
                owner_keys = zip(*(result.column(qualified(weak.name, k)) for k in key_names))
                for index, owner_key in enumerate(owner_keys):
                    if owner_key in wanted:
                        row = result.row(index)
                        grouped.setdefault(owner_key, []).append(
                            {name: row.get(qualified(weak.name, name)) for name in own_names}
                        )
            dependants[weak.name] = grouped

        for key in normalized_keys:
            row = owner_rows.get(key)
            if row is None:
                continue
            document: Dict[str, Any] = {}
            for name in self._storable_names(entity):
                attr_placement = self.access._attribute_placement(entity, name)
                if attr_placement.kind in ("inline", "inline_array") and attr_placement.column in row:
                    document[name] = row[attr_placement.column]
            for name, value in zip(key_names, key):
                document.setdefault(name, value)
            for weak in weak_sets:
                children = dependants[weak.name].get(key, [])
                if weak.discriminator:  # key order: storage order differs between layouts
                    children = sorted(children, key=itemgetter(*weak.discriminator))
                document[weak.name] = children
            documents.append(document)
        return documents

    def entity_keys(self, entity: str) -> List[Tuple[Any, ...]]:
        """All key tuples of the instances of an entity set."""

        key_names = self.schema.effective_key(entity)
        plan = self.access.entity_scan(entity, entity, attributes=list(key_names))
        result = self.db.execute(plan)
        out = []
        seen = set()
        for row in result.rows:
            key = tuple(row.get(qualified(entity, k)) for k in key_names)
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def count_entities(self, entity: str) -> int:
        return len(self.entity_keys(entity))

    # -------------------------------------------------------------- entity update

    def update_entity(self, entity: str, key: Sequence[Any], changes: Dict[str, Any]) -> None:
        """Update attribute values of one entity instance."""

        key_equals = self._key_dict(entity, key)
        key_names = self.schema.effective_key(entity)
        for name in changes:
            if name in key_names:
                raise CrudTemplateError(f"cannot update key attribute {name!r}")
            self.schema.effective_attribute(entity, name)  # raises if unknown
        key_values = tuple(key_equals[k] for k in key_names)
        with self.db.transaction():
            for name, value in changes.items():
                self._update_attribute(entity, key_equals, name, value)
            self._log_change("update_entity", (entity, key_values, dict(changes)))

    def _update_attribute(
        self, entity: str, key_equals: Dict[str, Any], name: str, value: Any
    ) -> None:
        placement = self.access._attribute_placement(entity, name)
        key_names = self.schema.effective_key(entity)
        key_values = tuple(key_equals[k] for k in key_names)

        if placement.kind in ("inline", "inline_array"):
            entity_placement = self.mapping.entity_placement(entity)
            table_name = placement.table
            if entity_placement.kind == "disjoint_table":
                table_name = entity_placement.table
            key_columns = self._key_columns_on_table(entity, table_name)
            for row_id in self._row_ids(table_name, key_columns, key_values):
                self.db.update_row(table_name, row_id, {placement.column: value})
            return

        if placement.kind == "side_table":
            self.db.delete_ids(
                placement.table,
                self._row_ids(placement.table, placement.owner_key_columns, key_values),
            )
            self._emit_side_table_rows(placement, key_values, value, self.db.insert)
            return

        if placement.kind == "nested_field":
            self._update_nested_field(entity, key_equals, placement, name, value)
            return

        raise CrudTemplateError(
            f"cannot update attribute {entity}.{name}: unsupported placement {placement.kind!r}"
        )

    def _key_columns_on_table(self, entity: str, table_name: str) -> List[str]:
        """Physical key columns of ``entity`` as they appear on ``table_name``."""

        placement = self.mapping.entity_placement(entity)
        if placement.table == table_name:
            return list(placement.key_columns)
        # ancestor tables in a delta layout use the root's key column names
        return list(self.schema.effective_key(entity))

    def _update_nested_field(
        self, entity: str, key_equals: Dict[str, Any], placement, name: str, value: Any
    ) -> None:
        entity_placement = self.mapping.entity_placement(entity)
        owner = entity_placement.owner_entity
        owner_key_names = self.schema.effective_key(owner)
        owner_key = tuple(key_equals[k] for k in owner_key_names)
        weak = self.schema.entity(entity)
        assert isinstance(weak, WeakEntitySet)
        discriminator = list(weak.discriminator)
        owner_placement = self.mapping.entity_placement(owner)
        table = self.db.catalog.table(owner_placement.table)
        row_ids = self._row_ids(owner_placement.table, owner_placement.key_columns, owner_key)
        if not row_ids:
            raise CrudTemplateError(f"owner instance {owner_key} not found for {entity!r}")
        row_id = row_ids[0]
        elements = list(table.get_row(row_id).get(entity_placement.array_column) or [])
        target_disc = tuple(key_equals[d] for d in discriminator)
        updated = []
        for element in elements:
            if tuple(element.get(d) for d in discriminator) == target_disc:
                element = dict(element)
                element[name] = value
            updated.append(element)
        self.db.update_row(
            owner_placement.table, row_id, {entity_placement.array_column: updated}
        )

    # -------------------------------------------------------------- entity delete

    def delete_entity(self, entity: str, key: Sequence[Any]) -> int:
        """Delete one entity instance and every physical trace of it.

        Returns the number of physical rows removed or modified.  This is the
        entity-centric deletion primitive the paper motivates for GDPR-style
        erasure: side-table rows, hierarchy rows, relationship rows and
        foreign-key references are all cleared.
        """

        key_equals = self._key_dict(entity, key)
        key_names = self.schema.effective_key(entity)
        key_values = tuple(key_equals[k] for k in key_names)
        touched = 0
        with self.db.transaction():
            touched += self._delete_relationship_traces(entity, key_values)
            touched += self._delete_multivalued(entity, key_values)
            touched += self._delete_base_rows(entity, key_equals, key_values)
            self._log_change("delete_entity", (entity, key_values))
        return touched

    def _delete_multivalued(self, entity: str, key_values: Tuple[Any, ...]) -> int:
        removed = 0
        for attribute in self.schema.effective_attributes(entity):
            if not attribute.is_multivalued():
                continue
            placement = self.access._attribute_placement(entity, attribute.name)
            if placement.kind != "side_table":
                continue
            removed += self.db.delete_ids(
                placement.table,
                self._row_ids(placement.table, placement.owner_key_columns, key_values),
            )
        return removed

    def _delete_base_rows(
        self, entity: str, key_equals: Dict[str, Any], key_values: Tuple[Any, ...]
    ) -> int:
        removed = 0
        placement = self.mapping.entity_placement(entity)
        key_names = self.schema.effective_key(entity)

        if placement.kind == "nested_in_owner":
            owner = placement.owner_entity
            owner_key_names = self.schema.effective_key(owner)
            owner_key = tuple(key_equals[k] for k in owner_key_names)
            weak = self.schema.entity(entity)
            assert isinstance(weak, WeakEntitySet)
            owner_placement = self.mapping.entity_placement(owner)
            table = self.db.catalog.table(owner_placement.table)
            for row_id in self._row_ids(
                owner_placement.table, owner_placement.key_columns, owner_key
            ):
                elements = list(table.get_row(row_id).get(placement.array_column) or [])
                target = tuple(key_equals[d] for d in weak.discriminator)
                kept = [
                    e
                    for e in elements
                    if tuple(e.get(d) for d in weak.discriminator) != target
                ]
                if len(kept) != len(elements):
                    self.db.update_row(
                        owner_placement.table, row_id, {placement.array_column: kept}
                    )
                    removed += 1
            return removed

        if placement.kind == "co_stored":
            return self.db.delete_ids(
                placement.table,
                self._row_ids(placement.table, placement.key_columns, key_values),
            )

        # Plain, delta, single-table and disjoint layouts: delete from the
        # member's own table plus any ancestor tables carrying the instance.
        tables = []
        for member in self._hierarchy_chain(entity):
            member_placement = self.mapping.entity_placement(member)
            if member_placement.table and member_placement.table not in tables:
                tables.append(member_placement.table)
        # Descendant tables may also carry this key (the instance might be a
        # more specific subtype); under entity-level delete we remove it there
        # too so no dangling delta rows remain.
        for descendant in self.schema.descendants_of(entity):
            descendant_placement = self.mapping.entity_placement(descendant.name)
            if descendant_placement.table and descendant_placement.table not in tables:
                tables.append(descendant_placement.table)
        for table_name in tables:
            table = self.db.catalog.table(table_name)
            key_columns = self._key_columns_on_table(entity, table_name)
            if not all(table.schema.has_column(c) for c in key_columns):
                continue
            removed += self.db.delete_ids(
                table_name, self._row_ids(table_name, key_columns, key_values)
            )
        return removed

    def _delete_relationship_traces(self, entity: str, key_values: Tuple[Any, ...]) -> int:
        """Remove or neutralize relationship rows that reference the instance."""

        removed = 0
        family = {entity} | {a.name for a in self.schema.ancestors_of(entity)}
        for relationship in self.schema.relationships():
            if not any(p.entity in family for p in relationship.participants):
                continue
            placement = self.mapping.relationship_placement(relationship.name)
            role = None
            for participant in relationship.participants:
                if participant.entity in family:
                    role = participant.label
                    break
            if role is None or placement.kind in ("identifying", "nested"):
                continue
            if placement.kind in ("join_table", "co_stored"):
                removed += self.db.delete_ids(
                    placement.table,
                    self._row_ids(placement.table, placement.role_columns[role], key_values),
                )
            elif placement.kind == "foreign_key":
                if placement.fk_side == role:
                    continue  # the instance's own row is deleted separately
                fk_columns = placement.role_columns[role]
                many_participant = relationship.participant(placement.fk_side)
                for table_name in self._fk_tables(many_participant.entity):
                    table = self.db.catalog.table(table_name)
                    if not all(table.schema.has_column(c) for c in fk_columns):
                        continue
                    changes = {c: None for c in fk_columns}
                    changes.update({c: None for c in placement.attribute_columns.values()
                                    if table.schema.has_column(c)})
                    for row_id in self._row_ids(table_name, fk_columns, key_values):
                        self.db.update_row(table_name, row_id, changes)
                        removed += 1
        return removed

    def _fk_tables(self, entity: str) -> List[str]:
        tables = []
        placement = self.mapping.entity_placement(entity)
        if placement.table:
            tables.append(placement.table)
        if placement.kind == "disjoint_table":
            for descendant in self.schema.descendants_of(entity):
                sub = self.mapping.entity_placement(descendant.name)
                if sub.table and sub.table not in tables:
                    tables.append(sub.table)
        return tables

    # -------------------------------------------------------------- relationships

    def insert_relationship(self, instance: RelationshipInstance) -> RelationshipInstance:
        """Insert a relationship occurrence between existing entity instances."""

        validated = validate_relationship_instance(self.schema, instance)
        placement = self.mapping.relationship_placement(validated.relationship_set)
        relationship = self.schema.relationship(validated.relationship_set)
        with self.db.transaction():
            self._insert_relationship_rows(validated, relationship, placement)
            self._log_change("insert_relationship", validated)
        return validated

    def insert_relationships(
        self, instances: Sequence[RelationshipInstance]
    ) -> List[RelationshipInstance]:
        """Bulk-insert relationship occurrences (one transaction).

        Join-table placements — pure row inserts — are accumulated per table
        and flushed as batches through :meth:`Database.insert_many`;
        foreign-key and co-stored placements read and update existing rows,
        so they flush pending buffers first and run row-at-a-time.
        """

        validated = [validate_relationship_instance(self.schema, i) for i in instances]
        buffers: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()

        def flush() -> None:
            while buffers:
                table_name, rows = buffers.popitem(last=False)
                self.db.insert_many(table_name, rows)

        with self.db.transaction():
            for instance in validated:
                placement = self.mapping.relationship_placement(instance.relationship_set)
                relationship = self.schema.relationship(instance.relationship_set)
                if placement.kind == "join_table":
                    buffers.setdefault(placement.table, []).append(
                        self._join_table_row(relationship, placement, instance)
                    )
                else:
                    flush()
                    self._insert_relationship_rows(instance, relationship, placement)
            flush()
            for instance in validated:
                self._log_change("insert_relationship", instance)
        return validated

    def _join_table_row(
        self, relationship, placement, instance: RelationshipInstance
    ) -> Dict[str, Any]:
        row: Dict[str, Any] = {}
        for participant in relationship.participants:
            columns = placement.role_columns[participant.label]
            for column, value in zip(columns, instance.endpoint(participant.label)):
                row[column] = value
        for attr, column in placement.attribute_columns.items():
            row[column] = instance.values.get(attr)
        return row

    def _insert_relationship_rows(
        self, instance: RelationshipInstance, relationship, placement
    ) -> None:
        if placement.kind == "join_table":
            self.db.insert(
                placement.table, self._join_table_row(relationship, placement, instance)
            )
        elif placement.kind == "foreign_key":
            self._insert_fk_relationship(relationship, placement, instance)
        elif placement.kind == "co_stored":
            self._insert_co_stored_relationship(relationship, placement, instance)
        elif placement.kind in ("identifying", "nested"):
            raise CrudTemplateError(
                f"identifying relationship {relationship.name!r} is implied by the weak "
                "entity's key and cannot be inserted explicitly"
            )
        else:  # pragma: no cover
            raise CrudTemplateError(f"unknown relationship placement {placement.kind!r}")

    def _insert_fk_relationship(self, relationship, placement, instance) -> None:
        many_role = placement.fk_side
        one_role = relationship.other(many_role).label
        many_participant = relationship.participant(many_role)
        many_key = instance.endpoint(many_role)
        one_key = instance.endpoint(one_role)
        fk_columns = placement.role_columns[one_role]
        updated = 0
        for table_name in self._fk_tables(many_participant.entity):
            table = self.db.catalog.table(table_name)
            if not all(table.schema.has_column(c) for c in fk_columns):
                continue
            key_columns = self._key_columns_on_table(many_participant.entity, table_name)
            changes = dict(zip(fk_columns, one_key))
            for attr, column in placement.attribute_columns.items():
                if table.schema.has_column(column):
                    changes[column] = instance.values.get(attr)
            for row_id in self._row_ids(table_name, key_columns, many_key):
                self.db.update_row(table_name, row_id, changes)
                updated += 1
        if updated == 0:
            raise CrudTemplateError(
                f"cannot link relationship {relationship.name!r}: instance "
                f"{tuple(many_key)} of {many_participant.entity!r} not found"
            )

    def _insert_co_stored_relationship(self, relationship, placement, instance) -> None:
        left, right = relationship.participants
        left_key = instance.endpoint(left.label)
        right_key = instance.endpoint(right.label)
        left_columns = placement.role_columns[left.label]
        right_columns = placement.role_columns[right.label]
        table = self.db.catalog.table(placement.table)

        left_rows = self._row_ids(placement.table, left_columns, left_key)
        right_rows = self._row_ids(placement.table, right_columns, right_key)
        if not left_rows:
            raise CrudTemplateError(
                f"cannot link {relationship.name!r}: left instance {tuple(left_key)} not found"
            )
        if not right_rows:
            raise CrudTemplateError(
                f"cannot link {relationship.name!r}: right instance {tuple(right_key)} not found"
            )

        def side_values(row_id: int, prefix_columns: List[str]) -> Dict[str, Any]:
            row = table.get_row(row_id)
            return {
                c: row.get(c)
                for c in table.schema.column_names()
                if any(c.startswith(p.split("__")[0] + "__") for p in prefix_columns)
            }

        left_values = side_values(left_rows[0], left_columns)
        right_values = side_values(right_rows[0], right_columns)
        rel_values = {
            column: instance.values.get(attr)
            for attr, column in placement.attribute_columns.items()
        }

        # Prefer filling a placeholder row (one side NULL) of the left instance.
        placeholder = None
        for row_id in left_rows:
            row = table.get_row(row_id)
            if all(row.get(c) is None for c in right_columns):
                placeholder = row_id
                break
        if placeholder is not None:
            changes = dict(right_values)
            changes.update(rel_values)
            self.db.update_row(placement.table, placeholder, changes)
        else:
            new_row = dict(left_values)
            new_row.update(right_values)
            new_row.update(rel_values)
            self.db.insert(placement.table, new_row)

        # Drop the right instance's placeholder rows once a linked row exists.
        right_ids = self._row_ids(placement.table, right_columns, right_key)
        placeholders = [
            rid
            for rid in right_ids
            if all(table.get_row(rid).get(c) is None for c in left_columns)
        ]
        if placeholders and len(placeholders) < len(right_ids):
            self.db.delete_ids(placement.table, placeholders)

    def delete_relationship(
        self, relationship: str, endpoints: Dict[str, Sequence[Any]]
    ) -> int:
        """Remove relationship occurrences matching the given endpoints."""

        placement = self.mapping.relationship_placement(relationship)
        rel = self.schema.relationship(relationship)
        normalized = {}
        for role, value in endpoints.items():
            if not isinstance(value, (tuple, list)):
                value = (value,)
            normalized[role] = tuple(value)
        with self.db.transaction():
            # logged up front: if a branch below raises, the joined scope's
            # savepoint rollback discards the entry with the physical writes
            self._log_change("delete_relationship", (relationship, dict(normalized)))
            if placement.kind in ("join_table", "co_stored"):
                # participant order, so a full set of endpoints is the table's key
                roles = sorted(normalized, key=rel.labels().index)
                columns = [c for role in roles for c in placement.role_columns[role]]
                key = [v for role in roles for v in normalized[role]]
                return self.db.delete_ids(
                    placement.table, self._row_ids(placement.table, columns, key)
                )
            if placement.kind == "foreign_key":
                many_role = placement.fk_side
                many_participant = rel.participant(many_role)
                many_key = normalized.get(many_role)
                if many_key is None:
                    raise CrudTemplateError(
                        f"deleting a foreign-key relationship requires the {many_role!r} endpoint"
                    )
                fk_columns = placement.role_columns[rel.other(many_role).label]
                total = 0
                for table_name in self._fk_tables(many_participant.entity):
                    table = self.db.catalog.table(table_name)
                    if not all(table.schema.has_column(c) for c in fk_columns):
                        continue
                    key_columns = self._key_columns_on_table(many_participant.entity, table_name)
                    changes = {c: None for c in fk_columns}
                    for row_id in self._row_ids(table_name, key_columns, many_key):
                        self.db.update_row(table_name, row_id, changes)
                        total += 1
                return total
            raise CrudTemplateError(
                f"cannot delete occurrences of relationship {relationship!r} "
                f"placed as {placement.kind!r}"
            )

    def relationship_pairs(
        self, relationship: str
    ) -> List[Tuple[Tuple[Any, ...], Tuple[Any, ...]]]:
        """Every (left_key, right_key) pair of ``relationship``, in one join.

        The bulk counterpart of :meth:`related_keys`: one relationship join
        over the whole population instead of one join per source instance,
        so extraction-style consumers (offline migration, online backfill)
        enumerate a relationship in O(n) rather than O(n**2).
        """

        left = self.schema.relationship(relationship).participants[0]
        return self._joined_pairs(relationship, left.entity, None)

    def related_keys(
        self, relationship: str, from_entity: str, key: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        """Keys of the instances related to ``key`` through ``relationship``."""

        key_equals = self._key_dict(from_entity, key)
        source = tuple(key_equals.values())
        # Access paths that cannot push the key down (nested owners, co-stored
        # wide tables, unindexed keys) return the whole population.
        return [
            dst
            for src, dst in self._joined_pairs(relationship, from_entity, key_equals)
            if src == source
        ]

    def _joined_pairs(
        self, relationship: str, from_entity: str, key_equals: Optional[Dict[str, Any]]
    ) -> List[Tuple[Tuple[Any, ...], Tuple[Any, ...]]]:
        """Distinct (source key, target key) pairs of one relationship join.

        ``key_equals`` hands a source key to the source-side scan, so the
        join starts from (at most) that one instance.
        """

        rel = self.schema.relationship(relationship)
        to_entity = rel.other(self.access._role_for(rel, from_entity)).entity
        plan = self.access.relationship_join(
            relationship,
            from_entity,
            "src",
            to_entity,
            "dst",
            left_plan=self.access.entity_scan(
                from_entity, "src", attributes=[], key_equals=key_equals
            ),
            right_attributes=[],
        )
        src_keys = self.schema.effective_key(from_entity)
        dst_keys = self.schema.effective_key(to_entity)
        pairs = [
            (
                tuple(row.get(qualified("src", k)) for k in src_keys),
                tuple(row.get(qualified("dst", k)) for k in dst_keys),
            )
            for row in self.db.execute(plan).rows
        ]
        return list(dict.fromkeys(pairs))
