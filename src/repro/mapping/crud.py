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
from .descriptor import KeyFact, NestedFact, PairFact, Site
from .physical import Mapping


class CrudTemplates:
    """Executable CRUD templates for one (schema, mapping, database) triple."""

    def __init__(self, schema: ERSchema, mapping: Mapping, db: Database) -> None:
        self.schema = schema
        self.mapping = mapping
        self.db = db
        self.access = AccessPathBuilder(schema, mapping, db)

    # ------------------------------------------------------------------ helpers

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
        with self.db.transaction():
            for name, value in changes.items():
                self._update_attribute(entity, key_equals, name, value)

    def _update_attribute(
        self, entity: str, key_equals: Dict[str, Any], name: str, value: Any
    ) -> None:
        placement = self.access._attribute_placement(entity, name)
        key_names = self.schema.effective_key(entity)
        key_values = tuple(key_equals[k] for k in key_names)

        if placement.kind in ("inline", "inline_array"):
            tables = [placement.table]
            if self.mapping.entity_placement(entity).kind == "disjoint_table":
                # the row sits in the table of the instance's most specific type
                tables = self._fk_tables(entity)
            for table_name in tables:
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
        erasure.  The key goes from every site of its hierarchy root, so from
        every member's rows whichever member ``entity`` names, after the weak
        instances it owns.
        """

        key_equals = self._key_dict(entity, key)
        root = self.schema.hierarchy_root(entity).name
        with self.db.transaction():
            return self._delete(root, tuple(key_equals.values()))

    def _delete(self, root: str, key: Tuple[Any, ...]) -> int:
        """The one delete rule, by the fact each site's rows carry: a key
        row goes, a nested element leaves its array, a join row goes, a fold
        has its foreign-key and attribute columns nulled, and a co-stored
        row loses the pair (:meth:`_unpair`)."""

        touched = 0
        for weak, weak_key in self.dependants(root, key):
            touched += self._delete(weak, weak_key)
        for site in self.mapping.descriptor(self.schema).sites(root):
            fact = site.fact
            if isinstance(fact, KeyFact) and fact.owner_of is not None:
                continue  # the rows of its dependants, deleted above
            row_ids = self.holding(site, root, key)
            touched += len(row_ids)
            if isinstance(fact, NestedFact):
                table = self.db.catalog.table(site.table)
                discriminator = key[len(site.columns) :]
                for row_id in row_ids:
                    elements = table.get_row(row_id).get(fact.array_column) or []
                    kept = [
                        e for e in elements
                        if tuple(e.get(d) for d in fact.discriminator) != discriminator
                    ]
                    self.db.update_row(site.table, row_id, {fact.array_column: kept})
            elif isinstance(fact, KeyFact) or fact.kind == "join":
                self.db.delete_ids(site.table, row_ids)
            elif fact.kind == "fold":
                changes = dict.fromkeys(site.columns + fact.attribute_columns)
                for row_id in row_ids:
                    self.db.update_row(site.table, row_id, changes)
            else:
                dropped = fact.columns.index(site.columns)
                for row_id in row_ids:
                    self._unpair(site.table, fact.columns, row_id, dropped)
        return touched

    def holding(self, site: Site, root: str, key: Tuple[Any, ...]) -> List[int]:
        """Ids of the rows at ``site`` that carry ``key`` of hierarchy root ``root``."""

        table = self.db.catalog.table(site.table)
        return [
            row_id
            for row_id in self._row_ids(site.table, site.columns, key[: len(site.columns)])
            if (root, key) in site.fact.keys(table.get_row(row_id))
        ]

    def dependants(self, entity: str, key: Sequence[Any]) -> List[Tuple[str, Tuple[Any, ...]]]:
        """The weak instances ``key`` owns, read at its owner-key sites."""

        key = tuple(key)
        root = self.schema.hierarchy_root(entity).name
        descriptor = self.mapping.descriptor(self.schema)
        found: List[Tuple[str, Tuple[Any, ...]]] = []
        for site in descriptor.sites(root):
            if isinstance(site.fact, KeyFact) and site.fact.owner_of is not None:
                table = self.db.catalog.table(site.table)
                for row_id in self.holding(site, root, key):
                    found += descriptor.owned(site, table.get_row(row_id))
        return list(dict.fromkeys(found))  # a co-stored weak key has one row per pair

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

        def side_values(row_id: int, key_columns: List[str]) -> Dict[str, Any]:
            row = table.get_row(row_id)
            return {c: row.get(c) for c in self._side_columns(placement.table, key_columns)}

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

    def _side_columns(self, table_name: str, key_columns: Sequence[str]) -> List[str]:
        """The columns one participant's rows carry in a co-stored table: its
        ``entity__`` columns and the foreign keys folded onto it."""

        prefix = key_columns[0].split("__")[0] + "__"
        table = self.db.catalog.table(table_name)
        columns = [c for c in table.schema.column_names() if c.startswith(prefix)]
        for fact in self.mapping.descriptor(self.schema).tables[table_name]:
            if isinstance(fact, PairFact) and fact.kind == "fold" and (
                fact.columns[fact.own_side] == tuple(key_columns)
            ):
                columns += fact.columns[1 - fact.own_side] + fact.attribute_columns
        return columns

    def _unpair(
        self,
        table_name: str,
        sides: Tuple[Tuple[str, ...], ...],
        row_id: int,
        dropped: Optional[int] = None,
    ) -> None:
        """Take the pair out of one co-stored row.

        Each participant other than side ``dropped`` whose only row in the
        table this is stays, as a placeholder row holding its own columns
        only; the row goes when no side stays.  That is the invariant the
        inserts keep: an entity has one placeholder row or its pair rows.
        """

        row = self.db.catalog.table(table_name).get_row(row_id)
        kept = []
        for side, columns in enumerate(sides):
            key = tuple(row[c] for c in columns)
            if side == dropped or None in key:
                continue
            if len(self._row_ids(table_name, columns, key)) == 1:
                kept.append(self._side_columns(table_name, columns))
        if not kept:
            self.db.delete_ids(table_name, [row_id])
            return
        first, *rest = kept
        self.db.update_row(table_name, row_id, {c: None for c in row if c not in first})
        for columns in rest:
            self.db.insert(table_name, {c: row[c] for c in columns})

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
            if placement.kind in ("join_table", "co_stored"):
                # participant order, so a full set of endpoints is the table's key
                roles = sorted(normalized, key=rel.labels().index)
                columns = [c for role in roles for c in placement.role_columns[role]]
                key = [v for role in roles for v in normalized[role]]
                row_ids = self._row_ids(placement.table, columns, key)
                if placement.kind == "join_table":
                    return self.db.delete_ids(placement.table, row_ids)
                # an unlink takes the pair only: both entities stay
                sides = tuple(tuple(placement.role_columns[label]) for label in rel.labels())
                table = self.db.catalog.table(placement.table)
                pairs = [
                    row_id
                    for row_id in row_ids
                    if all(table.get_row(row_id)[c] is not None for side in sides for c in side)
                ]
                for row_id in pairs:
                    self._unpair(placement.table, sides, row_id)
                return len(pairs)
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
        # Access paths that cannot push the key down (nested owners) return
        # the whole population.
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
