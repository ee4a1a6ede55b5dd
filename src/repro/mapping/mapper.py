"""Compile an E/R schema plus a :class:`MappingSpec` into a :class:`Mapping`.

The compiler walks the schema one feature at a time (hierarchies, plain
entities, weak entities, multi-valued attributes, relationships) and emits
physical tables and placement records.  Every placement also records which E/R
graph nodes the table covers, so the result can be checked as a graph cover
(:mod:`repro.mapping.reversibility`).

Naming conventions for generated physical columns:

* entity attributes keep their logical names (``r_id``, ``city``, ...);
* hierarchy single-table layouts add a ``_type`` discriminator column;
* side tables for a multi-valued attribute are called ``<entity>_<attr>`` with
  the owner's key columns plus ``value`` (or one column per component for
  composite elements);
* foreign-key folds are called ``<relationship>_<referenced key attr>``;
* relationship join tables are called ``<relationship>`` with
  ``<role>_<key attr>`` columns;
* co-stored wide tables are called ``<relationship>_costored`` with
  ``<entity>__<column>`` columns for each participant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import ERSchema, EntitySet, WeakEntitySet
from ..core.attributes import Attribute, MultiValuedAttribute
from ..core.graph import attribute_node, entity_node, relationship_node
from ..errors import MappingError
from ..relational import Column
from ..relational.types import TEXT, ArrayType, DataType, StructField, StructType
from .physical import (
    AttributePlacement,
    EntityPlacement,
    Mapping,
    PhysicalTable,
    RelationshipPlacement,
)
from .strategies import MappingSpec


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _key_column_defs(schema: ERSchema, entity_name: str) -> List[Tuple[str, DataType]]:
    """(column name, type) pairs for the effective key of an entity set."""

    names = schema.effective_key(entity_name)
    attrs = schema.key_attributes(entity_name)
    return [(name, attr.to_datatype()) for name, attr in zip(names, attrs)]


def _storable_attributes(entity: EntitySet) -> List[Attribute]:
    """An entity's own attributes minus derived ones (never stored)."""

    return [a for a in entity.attributes if not a.is_derived()]


def _struct_type_for_weak(schema: ERSchema, weak: WeakEntitySet) -> StructType:
    """Struct element type used when folding a weak entity into its owner."""

    fields = [
        StructField(a.name, a.to_datatype()) for a in _storable_attributes(weak)
    ]
    return StructType(fields)


class MappingCompiler:
    """Stateful compiler from (schema, spec) to a :class:`Mapping`."""

    def __init__(self, schema: ERSchema, spec: MappingSpec) -> None:
        self.schema = schema
        self.spec = spec
        self.mapping = Mapping(spec.name, schema.name)
        # entities whose base table is replaced by a co-stored wide table
        self._co_stored_entities: Dict[str, str] = {}

    # -- public entry point ---------------------------------------------------

    def compile(self) -> Mapping:
        self._collect_co_stored()
        self._place_hierarchies()
        self._place_plain_entities()
        self._place_weak_entities()
        self._place_co_stored_relationships()
        self._place_multivalued_attributes()
        self._place_remaining_relationships()
        return self.mapping

    # -- co-stored bookkeeping ---------------------------------------------------

    def _collect_co_stored(self) -> None:
        for relationship in self.schema.relationships():
            if self.spec.relationship_choice(self.schema, relationship.name) != "co_stored":
                continue
            if not relationship.is_binary():
                raise MappingError(
                    f"co-stored layout requires a binary relationship, "
                    f"{relationship.name!r} is n-ary"
                )
            for participant in relationship.participants:
                if participant.entity in self._co_stored_entities:
                    raise MappingError(
                        f"entity {participant.entity!r} participates in more than one "
                        "co-stored relationship"
                    )
                self._co_stored_entities[participant.entity] = relationship.name

    def _is_co_stored(self, entity_name: str) -> bool:
        return entity_name in self._co_stored_entities

    # -- hierarchies -----------------------------------------------------------------

    def _place_hierarchies(self) -> None:
        for root in self.schema.hierarchy_roots():
            choice = self.spec.hierarchy_choice(root.name)
            members = self.schema.hierarchy_members(root.name)
            if choice == "delta":
                self._place_hierarchy_delta(root, members)
            elif choice == "single_table":
                self._place_hierarchy_single_table(root, members)
            elif choice == "disjoint":
                self._place_hierarchy_disjoint(root, members)
            else:  # pragma: no cover - guarded by spec validation
                raise MappingError(f"unknown hierarchy option {choice!r}")

    def _base_columns(
        self, entity: EntitySet, key_defs: Sequence[Tuple[str, DataType]], include_key: bool
    ) -> List[Column]:
        """Inline scalar/struct columns for an entity's own attributes."""

        columns: List[Column] = []
        if include_key:
            for name, dtype in key_defs:
                columns.append(Column(name, dtype, nullable=False))
        key_names = {name for name, _ in key_defs}
        for attribute in _storable_attributes(entity):
            if attribute.name in key_names:
                continue
            if attribute.is_multivalued():
                continue  # handled by _place_multivalued_attributes
            columns.append(
                Column(attribute.name, attribute.to_datatype(), nullable=not attribute.required)
            )
        return columns

    def _inline_attribute_placements(
        self, entity: EntitySet, table_name: str, key_names: Sequence[str]
    ) -> None:
        for attribute in _storable_attributes(entity):
            if attribute.is_multivalued():
                continue
            self.mapping.place_attribute(
                AttributePlacement(
                    owner=entity.name,
                    attribute=attribute.name,
                    kind="inline",
                    table=table_name,
                    column=attribute.name,
                )
            )

    def _place_hierarchy_delta(self, root: EntitySet, members: List[EntitySet]) -> None:
        key_defs = _key_column_defs(self.schema, root.name)
        key_names = [n for n, _ in key_defs]
        # Root table holds the common attributes of every instance.
        root_table = PhysicalTable(
            name=root.name.lower(),
            columns=self._base_columns(root, key_defs, include_key=True),
            primary_key=tuple(key_names),
            covers={entity_node(root.name)}
            | {
                attribute_node(root.name, a.name)
                for a in _storable_attributes(root)
                if not a.is_multivalued()
            },
            description=f"Hierarchy root (delta layout) for {root.name!r}",
        )
        self.mapping.add_table(root_table)
        self.mapping.place_entity(
            EntityPlacement(
                entity=root.name,
                kind="delta_root",
                table=root_table.name,
                key_columns=list(key_names),
            )
        )
        self._inline_attribute_placements(root, root_table.name, key_names)

        for member in members:
            if member.name == root.name:
                continue
            if self._is_co_stored(member.name):
                # Base (delta) table replaced by the co-stored wide table; the
                # root table still holds the member's inherited attributes.
                continue
            member_table = PhysicalTable(
                name=member.name.lower(),
                columns=self._base_columns(member, key_defs, include_key=True),
                primary_key=tuple(key_names),
                covers={entity_node(member.name)}
                | {
                    attribute_node(member.name, a.name)
                    for a in _storable_attributes(member)
                    if not a.is_multivalued()
                },
                description=f"Delta table for subclass {member.name!r}",
            )
            self.mapping.add_table(member_table)
            self.mapping.place_entity(
                EntityPlacement(
                    entity=member.name,
                    kind="delta_sub",
                    table=member_table.name,
                    key_columns=list(key_names),
                )
            )
            self._inline_attribute_placements(member, member_table.name, key_names)

    def _place_hierarchy_single_table(self, root: EntitySet, members: List[EntitySet]) -> None:
        key_defs = _key_column_defs(self.schema, root.name)
        key_names = [n for n, _ in key_defs]
        columns: List[Column] = [
            Column(name, dtype, nullable=False) for name, dtype in key_defs
        ]
        columns.append(Column("_type", TEXT, nullable=False))
        covers = {attribute_node(root.name, key) for key in key_names if root.has_attribute(key)}
        for member in members:
            covers.add(entity_node(member.name))
            for attribute in _storable_attributes(member):
                if attribute.is_multivalued():
                    continue
                if attribute.name in key_names:
                    continue
                covers.add(attribute_node(member.name, attribute.name))
                columns.append(
                    Column(attribute.name, attribute.to_datatype(), nullable=True)
                )
        table = PhysicalTable(
            name=root.name.lower(),
            columns=columns,
            primary_key=tuple(key_names),
            covers=covers,
            description=f"Single-table layout for hierarchy rooted at {root.name!r}",
        )
        self.mapping.add_table(table)
        for member in members:
            self.mapping.place_entity(
                EntityPlacement(
                    entity=member.name,
                    kind="single_table",
                    table=table.name,
                    key_columns=list(key_names),
                    discriminator_column="_type",
                    type_value=member.name,
                )
            )
            self._inline_attribute_placements(member, table.name, key_names)

    def _place_hierarchy_disjoint(self, root: EntitySet, members: List[EntitySet]) -> None:
        key_defs = _key_column_defs(self.schema, root.name)
        key_names = [n for n, _ in key_defs]
        for member in members:
            effective = self.schema.effective_attributes(member.name)
            columns: List[Column] = [
                Column(name, dtype, nullable=False) for name, dtype in key_defs
            ]
            # A disjoint table stores full instances, so it covers the member,
            # every ancestor it inherits from, and all their attributes — that
            # chain is what keeps the cover element connected in the E/R graph.
            covers = {entity_node(member.name)} | {
                entity_node(a.name) for a in self.schema.ancestors_of(member.name)
            } | {
                attribute_node(root.name, key) for key in key_names if root.has_attribute(key)
            }
            for attribute in effective:
                if attribute.is_derived() or attribute.is_multivalued():
                    continue
                if attribute.name in key_names:
                    continue
                columns.append(
                    Column(attribute.name, attribute.to_datatype(), nullable=not attribute.required)
                )
                declaring = self.schema.owning_entity_of_attribute(member.name, attribute.name)
                covers.add(attribute_node(declaring.name, attribute.name))
            table = PhysicalTable(
                name=member.name.lower(),
                columns=columns,
                primary_key=tuple(key_names),
                covers=covers,
                description=f"Disjoint full-width table for {member.name!r}",
            )
            self.mapping.add_table(table)
            self.mapping.place_entity(
                EntityPlacement(
                    entity=member.name,
                    kind="disjoint_table",
                    table=table.name,
                    key_columns=list(key_names),
                    type_value=member.name,
                )
            )
            # Place every effective attribute on the member's own table so the
            # access builder never needs hierarchy joins under this layout.
            for attribute in effective:
                if attribute.is_derived() or attribute.is_multivalued():
                    continue
                self.mapping.place_attribute(
                    AttributePlacement(
                        owner=member.name,
                        attribute=attribute.name,
                        kind="inline",
                        table=table.name,
                        column=attribute.name,
                    )
                )

    # -- plain strong entities ----------------------------------------------------------

    def _place_plain_entities(self) -> None:
        in_hierarchy = set()
        for root in self.schema.hierarchy_roots():
            for member in self.schema.hierarchy_members(root.name):
                in_hierarchy.add(member.name)
        for entity in self.schema.entities():
            if entity.name in in_hierarchy or entity.is_weak():
                continue
            if entity.parent is not None:
                continue  # already covered through its hierarchy root
            if self._is_co_stored(entity.name):
                continue  # base table replaced by the wide table
            key_defs = _key_column_defs(self.schema, entity.name)
            key_names = [n for n, _ in key_defs]
            table = PhysicalTable(
                name=entity.name.lower(),
                columns=self._base_columns(entity, key_defs, include_key=True),
                primary_key=tuple(key_names),
                covers={entity_node(entity.name)}
                | {
                    attribute_node(entity.name, a.name)
                    for a in _storable_attributes(entity)
                    if not a.is_multivalued()
                },
                description=f"Base table for entity set {entity.name!r}",
            )
            self.mapping.add_table(table)
            self.mapping.place_entity(
                EntityPlacement(
                    entity=entity.name,
                    kind="own_table",
                    table=table.name,
                    key_columns=list(key_names),
                )
            )
            self._inline_attribute_placements(entity, table.name, key_names)

    # -- weak entities ---------------------------------------------------------------------

    def _place_weak_entities(self) -> None:
        for entity in self.schema.entities():
            if not isinstance(entity, WeakEntitySet):
                continue
            if self._is_co_stored(entity.name):
                continue
            choice = self.spec.weak_entity_choice(entity.name)
            if choice == "own_table":
                self._place_weak_own_table(entity)
            else:
                self._place_weak_nested(entity)

    def _place_weak_own_table(self, entity: WeakEntitySet) -> None:
        key_defs = _key_column_defs(self.schema, entity.name)
        key_names = [n for n, _ in key_defs]
        owner_key = self.schema.effective_key(entity.owner)
        columns: List[Column] = [
            Column(name, dtype, nullable=False) for name, dtype in key_defs
        ]
        for attribute in _storable_attributes(entity):
            if attribute.name in key_names or attribute.is_multivalued():
                continue
            columns.append(
                Column(attribute.name, attribute.to_datatype(), nullable=not attribute.required)
            )
        table = PhysicalTable(
            name=entity.name.lower(),
            columns=columns,
            primary_key=tuple(key_names),
            covers={entity_node(entity.name)}
            | {
                attribute_node(entity.name, a.name)
                for a in _storable_attributes(entity)
                if not a.is_multivalued()
            },
            description=f"Base table for weak entity set {entity.name!r}",
        )
        # the owner-key prefix addresses an owner's dependants
        table.add_index(owner_key)
        self.mapping.add_table(table)
        self.mapping.place_entity(
            EntityPlacement(
                entity=entity.name,
                kind="own_table",
                table=table.name,
                key_columns=list(key_names),
            )
        )
        self._inline_attribute_placements(entity, table.name, key_names)

    def _place_weak_nested(self, entity: WeakEntitySet) -> None:
        owner_placement = self.mapping.entity_placement(entity.owner)
        if owner_placement.table is None:
            raise MappingError(
                f"cannot nest weak entity {entity.name!r}: owner {entity.owner!r} has no table"
            )
        owner_table = self.mapping.table(owner_placement.table)
        array_column = entity.name.lower()
        owner_table.add_column(
            Column(array_column, ArrayType(_struct_type_for_weak(self.schema, entity)))
        )
        owner_table.covers.add(entity_node(entity.name))
        for attribute in _storable_attributes(entity):
            owner_table.covers.add(attribute_node(entity.name, attribute.name))
        self.mapping.place_entity(
            EntityPlacement(
                entity=entity.name,
                kind="nested_in_owner",
                table=owner_table.name,
                key_columns=list(owner_placement.key_columns),
                owner_entity=entity.owner,
                array_column=array_column,
            )
        )
        for attribute in _storable_attributes(entity):
            self.mapping.place_attribute(
                AttributePlacement(
                    owner=entity.name,
                    attribute=attribute.name,
                    kind="nested_field",
                    table=owner_table.name,
                    array_column=array_column,
                    nested_field=attribute.name,
                )
            )

    # -- co-stored relationships (wide pre-joined tables) --------------------------------------

    def _place_co_stored_relationships(self) -> None:
        handled = set()
        for entity_name, rel_name in self._co_stored_entities.items():
            if rel_name in handled:
                continue
            handled.add(rel_name)
            self._place_one_co_stored(rel_name)

    def _entity_wide_columns(self, entity_name: str) -> List[Tuple[str, Column, str]]:
        """(logical attr, physical column, declaring owner) triples for a wide table."""

        out: List[Tuple[str, Column, str]] = []
        entity = self.schema.entity(entity_name)
        prefix = f"{entity_name.lower()}__"
        key_defs = _key_column_defs(self.schema, entity_name)
        key_names = [n for n, _ in key_defs]
        for name, dtype in key_defs:
            out.append((name, Column(prefix + name, dtype, nullable=True), entity_name))
        for attribute in _storable_attributes(entity):
            if attribute.name in key_names:
                continue
            if attribute.is_multivalued():
                continue
            out.append(
                (
                    attribute.name,
                    Column(prefix + attribute.name, attribute.to_datatype(), nullable=True),
                    entity_name,
                )
            )
        return out

    def _place_one_co_stored(self, rel_name: str) -> None:
        relationship = self.schema.relationship(rel_name)
        table_name = f"{rel_name.lower()}_costored"
        columns: List[Column] = []
        covers = {relationship_node(rel_name)}
        role_columns: Dict[str, List[str]] = {}
        participant_key_cols: Dict[str, List[str]] = {}

        for participant in relationship.participants:
            triples = self._entity_wide_columns(participant.entity)
            key_names = self.schema.effective_key(participant.entity)
            key_cols: List[str] = []
            for logical, column, owner in triples:
                columns.append(column)
                covers.add(entity_node(owner))
                if logical in key_names:
                    key_cols.append(column.name)
            for attribute in _storable_attributes(self.schema.entity(participant.entity)):
                if not attribute.is_multivalued():
                    covers.add(attribute_node(participant.entity, attribute.name))
            role_columns[participant.label] = key_cols
            participant_key_cols[participant.entity] = key_cols

        attribute_columns: Dict[str, str] = {}
        for attribute in relationship.attributes:
            if attribute.is_derived():
                continue
            column_name = attribute.name
            columns.append(Column(column_name, attribute.to_datatype(), nullable=True))
            attribute_columns[attribute.name] = column_name
            covers.add(attribute_node(rel_name, attribute.name))

        table = PhysicalTable(
            name=table_name,
            columns=columns,
            primary_key=(),
            covers=covers,
            description=f"Co-stored (pre-joined) table for relationship {rel_name!r}",
        )
        # each role's key addresses its entity; their union, one pair
        for cols in role_columns.values():
            table.add_index(cols)
        table.add_index([c for cols in role_columns.values() for c in cols])
        for participant in relationship.participants:
            entity = self.schema.entity(participant.entity)
            if isinstance(entity, WeakEntitySet):  # its owner's dependants
                width = len(self.schema.effective_key(entity.owner))
                table.add_index(role_columns[participant.label][:width])
        self.mapping.add_table(table)
        self.mapping.place_relationship(
            RelationshipPlacement(
                relationship=rel_name,
                kind="co_stored",
                table=table_name,
                role_columns=role_columns,
                attribute_columns=attribute_columns,
            )
        )
        for participant in relationship.participants:
            entity_name = participant.entity
            prefix = f"{entity_name.lower()}__"
            self.mapping.place_entity(
                EntityPlacement(
                    entity=entity_name,
                    kind="co_stored",
                    table=table_name,
                    key_columns=participant_key_cols[entity_name],
                )
            )
            for attribute in _storable_attributes(self.schema.entity(entity_name)):
                if attribute.is_multivalued():
                    continue
                if attribute.name in self.schema.effective_key(entity_name):
                    self.mapping.place_attribute(
                        AttributePlacement(
                            owner=entity_name,
                            attribute=attribute.name,
                            kind="inline",
                            table=table_name,
                            column=prefix + attribute.name,
                        )
                    )
                    continue
                self.mapping.place_attribute(
                    AttributePlacement(
                        owner=entity_name,
                        attribute=attribute.name,
                        kind="inline",
                        table=table_name,
                        column=prefix + attribute.name,
                    )
                )
            # Key attributes that are inherited (e.g. a subclass participant)
            # still need a placement for the participant itself.
            for key_attr, column_name in zip(
                self.schema.effective_key(entity_name), participant_key_cols[entity_name]
            ):
                if not self.mapping.has_attribute_placement(entity_name, key_attr):
                    self.mapping.place_attribute(
                        AttributePlacement(
                            owner=entity_name,
                            attribute=key_attr,
                            kind="inline",
                            table=table_name,
                            column=column_name,
                        )
                    )

    # -- multi-valued attributes -----------------------------------------------------------------

    def _multivalued_owners(self) -> List[Tuple[str, MultiValuedAttribute]]:
        out: List[Tuple[str, MultiValuedAttribute]] = []
        for entity in self.schema.entities():
            for attribute in entity.attributes:
                if attribute.is_multivalued():
                    out.append((entity.name, attribute))
        for relationship in self.schema.relationships():
            for attribute in relationship.attributes:
                if attribute.is_multivalued():
                    out.append((relationship.name, attribute))
        return out

    def _owner_key_for(self, owner: str) -> Tuple[List[str], List[Tuple[str, DataType]]]:
        if self.schema.has_entity(owner):
            defs = _key_column_defs(self.schema, owner)
            return [n for n, _ in defs], defs
        raise MappingError(
            f"multi-valued attributes on relationships are only supported for entities "
            f"(found on {owner!r})"
        )

    def _place_multivalued_attributes(self) -> None:
        for owner, attribute in self._multivalued_owners():
            if not self.schema.has_entity(owner):
                raise MappingError(
                    "multi-valued relationship attributes are not supported "
                    f"(relationship {owner!r}, attribute {attribute.name!r})"
                )
            choice = self.spec.multivalued_choice(owner, attribute.name)
            if choice == "array":
                self._place_multivalued_array(owner, attribute)
            else:
                self._place_multivalued_side_table(owner, attribute)

    def _tables_holding_entity(self, owner: str) -> List[str]:
        """Base tables onto which an inline/array column for ``owner`` must go."""

        placement = self.mapping.entity_placement(owner)
        if placement.kind != "disjoint_table":
            return [placement.table] if placement.table else []
        tables = [placement.table] if placement.table else []
        for descendant in self.schema.descendants_of(owner):
            sub_placement = self.mapping.entity_placement(descendant.name)
            if sub_placement.table and sub_placement.table not in tables:
                tables.append(sub_placement.table)
        return tables

    def _place_multivalued_array(self, owner: str, attribute: MultiValuedAttribute) -> None:
        tables = self._tables_holding_entity(owner)
        if not tables:
            raise MappingError(
                f"cannot place array attribute {owner}.{attribute.name}: owner has no table"
            )
        for table_name in tables:
            table = self.mapping.table(table_name)
            if not table.has_column(attribute.name):
                table.add_column(Column(attribute.name, attribute.to_datatype()))
            table.covers.add(attribute_node(owner, attribute.name))
        self.mapping.place_attribute(
            AttributePlacement(
                owner=owner,
                attribute=attribute.name,
                kind="inline_array",
                table=tables[0],
                column=attribute.name,
            )
        )

    def _place_multivalued_side_table(self, owner: str, attribute: MultiValuedAttribute) -> None:
        key_names, key_defs = self._owner_key_for(owner)
        table_name = f"{owner.lower()}_{attribute.name.lower()}"
        columns: List[Column] = [
            Column(name, dtype, nullable=False) for name, dtype in key_defs
        ]
        value_columns: List[str] = []
        if attribute.element_is_composite():
            for component in attribute.element_components or []:
                columns.append(Column(component.name, component.to_datatype()))
                value_columns.append(component.name)
            primary_key: Tuple[str, ...] = ()
        else:
            columns.append(Column("value", attribute.element_datatype()))
            value_columns.append("value")
            primary_key = tuple(key_names + ["value"])
        table = PhysicalTable(
            name=table_name,
            columns=columns,
            primary_key=primary_key,
            covers={attribute_node(owner, attribute.name), entity_node(owner)},
            description=f"Side table for multi-valued attribute {owner}.{attribute.name}",
        )
        table.add_index(key_names)
        self.mapping.add_table(table)
        self.mapping.place_attribute(
            AttributePlacement(
                owner=owner,
                attribute=attribute.name,
                kind="side_table",
                table=table_name,
                owner_key_columns=list(key_names),
                value_columns=value_columns,
            )
        )

    # -- remaining relationships ----------------------------------------------------------------------

    def _place_remaining_relationships(self) -> None:
        for relationship in self.schema.relationships():
            if relationship.name in self.mapping.relationship_placements:
                continue
            if relationship.identifying:
                self._place_identifying_relationship(relationship.name)
                continue
            choice = self.spec.relationship_choice(self.schema, relationship.name)
            if choice == "foreign_key":
                self._place_relationship_foreign_key(relationship.name)
            elif choice == "join_table":
                self._place_relationship_join_table(relationship.name)
            else:  # pragma: no cover - co_stored handled earlier
                raise MappingError(
                    f"relationship {relationship.name!r} unexpectedly unplaced"
                )

    def _place_identifying_relationship(self, rel_name: str) -> None:
        """The owner<->weak-entity link: realized by the owner-key columns that
        are already part of the weak entity's storage (own table or nesting)."""

        relationship = self.schema.relationship(rel_name)
        weak_participant = None
        owner_participant = None
        for participant in relationship.participants:
            entity = self.schema.entity(participant.entity)
            if isinstance(entity, WeakEntitySet):
                weak_participant = participant
            else:
                owner_participant = participant
        if weak_participant is None or owner_participant is None:
            raise MappingError(
                f"identifying relationship {rel_name!r} must connect a weak entity "
                "to its owner"
            )
        weak_placement = self.mapping.entity_placement(weak_participant.entity)
        owner_key = self.schema.effective_key(owner_participant.entity)
        kind = "nested" if weak_placement.kind == "nested_in_owner" else "identifying"
        if weak_placement.table:
            self.mapping.table(weak_placement.table).covers.add(relationship_node(rel_name))
        self.mapping.place_relationship(
            RelationshipPlacement(
                relationship=rel_name,
                kind=kind,
                table=weak_placement.table,
                role_columns={
                    weak_participant.label: list(weak_placement.key_columns),
                    owner_participant.label: list(owner_key),
                },
            )
        )

    def _place_relationship_foreign_key(self, rel_name: str) -> None:
        relationship = self.schema.relationship(rel_name)
        kind = relationship.kind()
        if kind == "one_to_one":
            many, one = relationship.participants[0], relationship.participants[1]
        else:
            many, one = relationship.many_side(), relationship.one_side()
        many_placement = self.mapping.entity_placement(many.entity)
        if many_placement.table is None or many_placement.kind == "nested_in_owner":
            raise MappingError(
                f"cannot fold relationship {rel_name!r} into {many.entity!r}: "
                "it has no base table under this mapping"
            )
        one_key_defs = _key_column_defs(self.schema, one.entity)
        fk_columns = [f"{rel_name.lower()}_{name}" for name, _ in one_key_defs]
        target_tables = self._tables_holding_entity(many.entity)
        for table_name in target_tables:
            table = self.mapping.table(table_name)
            for (key_name, dtype), fk_name in zip(one_key_defs, fk_columns):
                if not table.has_column(fk_name):
                    table.add_column(Column(fk_name, dtype, nullable=True))
            table.add_index(fk_columns)
            for attribute in relationship.attributes:
                if attribute.is_derived():
                    continue
                column_name = f"{rel_name.lower()}_{attribute.name}"
                if not table.has_column(column_name):
                    table.add_column(Column(column_name, attribute.to_datatype(), nullable=True))
            table.covers.add(relationship_node(rel_name))
        attribute_columns = {
            a.name: f"{rel_name.lower()}_{a.name}"
            for a in relationship.attributes
            if not a.is_derived()
        }
        self.mapping.place_relationship(
            RelationshipPlacement(
                relationship=rel_name,
                kind="foreign_key",
                table=many_placement.table,
                role_columns={
                    many.label: list(many_placement.key_columns),
                    one.label: fk_columns,
                },
                attribute_columns=attribute_columns,
                fk_side=many.label,
            )
        )
        for attribute_name, column_name in attribute_columns.items():
            self.mapping.place_attribute(
                AttributePlacement(
                    owner=rel_name,
                    attribute=attribute_name,
                    kind="inline",
                    table=many_placement.table,
                    column=column_name,
                )
            )

    def _place_relationship_join_table(self, rel_name: str) -> None:
        relationship = self.schema.relationship(rel_name)
        columns: List[Column] = []
        role_columns: Dict[str, List[str]] = {}
        covers = {relationship_node(rel_name)}
        primary_key: List[str] = []
        indexes: List[Tuple[str, ...]] = []
        for participant in relationship.participants:
            key_defs = _key_column_defs(self.schema, participant.entity)
            names = []
            for key_name, dtype in key_defs:
                column_name = f"{participant.label.lower()}_{key_name}"
                columns.append(Column(column_name, dtype, nullable=False))
                names.append(column_name)
            role_columns[participant.label] = names
            primary_key.extend(names)
            indexes.append(tuple(names))
            covers.add(entity_node(participant.entity))
        attribute_columns: Dict[str, str] = {}
        for attribute in relationship.attributes:
            if attribute.is_derived():
                continue
            columns.append(Column(attribute.name, attribute.to_datatype(), nullable=True))
            attribute_columns[attribute.name] = attribute.name
            covers.add(attribute_node(rel_name, attribute.name))
        table = PhysicalTable(
            name=rel_name.lower(),
            columns=columns,
            primary_key=tuple(primary_key),
            covers=covers,
            indexes=indexes,
            description=f"Join table for relationship {rel_name!r}",
        )
        self.mapping.add_table(table)
        self.mapping.place_relationship(
            RelationshipPlacement(
                relationship=rel_name,
                kind="join_table",
                table=table.name,
                role_columns=role_columns,
                attribute_columns=attribute_columns,
            )
        )
        for attribute_name, column_name in attribute_columns.items():
            self.mapping.place_attribute(
                AttributePlacement(
                    owner=rel_name,
                    attribute=attribute_name,
                    kind="inline",
                    table=table.name,
                    column=column_name,
                )
            )


def compile_mapping(schema: ERSchema, spec: MappingSpec) -> Mapping:
    """Compile ``spec`` against ``schema`` into a concrete :class:`Mapping`."""

    return MappingCompiler(schema, spec).compile()
