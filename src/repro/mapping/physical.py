"""Physical design descriptors: tables, placements and the :class:`Mapping`.

A mapping compiled from a :class:`MappingSpec` (see
:mod:`repro.mapping.strategies`) consists of:

* :class:`PhysicalTable` definitions (each one is a connected-subgraph cover
  element of the E/R graph, tracked through ``covers``);
* per-element *placement* records saying where every entity, attribute and
  relationship lives, which is what the ERQL planner and the CRUD templates
  consult — neither ever touches table names directly outside these records.

Placement kinds
---------------

Entity placements (:class:`EntityPlacement.kind`):

``own_table``            the entity has its own base table (strong, weak, or
                         a hierarchy member under the *delta* layout where the
                         table holds only the subclass's additional columns);
``single_table``         the whole hierarchy shares one table with a
                         discriminator column (mapping M3);
``disjoint_table``       every hierarchy member has a table holding *all* of
                         its effective attributes and stores only instances
                         whose most-specific type is that member (mapping M4);
``nested_in_owner``      a weak entity folded into its owner as an array of
                         structs (mapping M5).

Attribute placements (:class:`AttributePlacement.kind`):

``inline``               a scalar/struct column on the entity's table;
``inline_array``         an array column on the entity's table (mapping M2);
``side_table``           a separate (owner-key, value) table (mapping M1);
``nested_field``         a field inside the owner's nested array (mapping M5).

Relationship placements (:class:`RelationshipPlacement.kind`):

``foreign_key``          folded into the MANY side as referencing columns;
``join_table``           its own table holding both keys plus attributes;
``co_stored``            pre-joined with both participants in one wide table
                         (mapping M6, with duplication — as in the paper's
                         PostgreSQL-based prototype);
``nested``               implied by the nesting of a weak entity in its owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core import ERSchema
from ..errors import MappingError
from ..relational import Column, Database
from ..relational.types import DataType
from .descriptor import PlacementDescriptor


@dataclass
class PhysicalTable:
    """One physical table of a mapping (a cover element of the E/R graph)."""

    name: str
    columns: List[Column] = field(default_factory=list)
    primary_key: Tuple[str, ...] = ()
    covers: Set[str] = field(default_factory=set)
    indexes: List[Tuple[str, ...]] = field(default_factory=list)
    description: Optional[str] = None

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def add_column(self, column: Column) -> None:
        if self.has_column(column.name):
            raise MappingError(
                f"physical table {self.name!r} already has column {column.name!r}"
            )
        self.columns.append(column)

    def add_index(self, columns: Sequence[str]) -> None:
        """Index ``columns`` unless the primary key or another index already is."""

        columns = tuple(columns)
        if columns != tuple(self.primary_key) and columns not in self.indexes:
            self.indexes.append(columns)


@dataclass
class EntityPlacement:
    """Where instances of one entity set live."""

    entity: str
    kind: str
    table: Optional[str] = None
    key_columns: List[str] = field(default_factory=list)
    # single_table layout:
    discriminator_column: Optional[str] = None
    type_value: Optional[str] = None
    # nested_in_owner layout:
    owner_entity: Optional[str] = None
    array_column: Optional[str] = None


@dataclass
class AttributePlacement:
    """Where one attribute of an entity or relationship lives."""

    owner: str
    attribute: str
    kind: str
    table: Optional[str] = None
    column: Optional[str] = None
    # side_table layout:
    owner_key_columns: List[str] = field(default_factory=list)
    value_columns: List[str] = field(default_factory=list)
    # nested_field layout:
    array_column: Optional[str] = None
    nested_field: Optional[str] = None


@dataclass
class RelationshipPlacement:
    """How one relationship set is realized."""

    relationship: str
    kind: str
    table: Optional[str] = None
    # role label -> physical column names carrying that endpoint's key
    role_columns: Dict[str, List[str]] = field(default_factory=dict)
    # relationship attribute -> physical column name
    attribute_columns: Dict[str, str] = field(default_factory=dict)
    # foreign_key layout: which side owns the columns
    fk_side: Optional[str] = None


class Mapping:
    """A complete logical-to-physical mapping for an E/R schema."""

    def __init__(self, name: str, schema_name: str) -> None:
        self.name = name
        self.schema_name = schema_name
        self.tables: Dict[str, PhysicalTable] = {}
        self.entity_placements: Dict[str, EntityPlacement] = {}
        self.attribute_placements: Dict[Tuple[str, str], AttributePlacement] = {}
        self.relationship_placements: Dict[str, RelationshipPlacement] = {}
        self._descriptor: Optional[PlacementDescriptor] = None

    # -- construction helpers (used by the strategies/mapper) ---------------

    def add_table(self, table: PhysicalTable) -> PhysicalTable:
        if table.name in self.tables:
            raise MappingError(f"mapping {self.name!r} already has table {table.name!r}")
        self.tables[table.name] = table
        return table

    def table(self, name: str) -> PhysicalTable:
        if name not in self.tables:
            raise MappingError(f"mapping {self.name!r} has no table {name!r}")
        return self.tables[name]

    def place_entity(self, placement: EntityPlacement) -> None:
        self.entity_placements[placement.entity] = placement

    def place_attribute(self, placement: AttributePlacement) -> None:
        self.attribute_placements[(placement.owner, placement.attribute)] = placement

    def place_relationship(self, placement: RelationshipPlacement) -> None:
        self.relationship_placements[placement.relationship] = placement

    # -- lookup ---------------------------------------------------------------

    def entity_placement(self, entity: str) -> EntityPlacement:
        if entity not in self.entity_placements:
            raise MappingError(f"mapping {self.name!r} does not place entity {entity!r}")
        return self.entity_placements[entity]

    def attribute_placement(self, owner: str, attribute: str) -> AttributePlacement:
        key = (owner, attribute)
        if key not in self.attribute_placements:
            raise MappingError(
                f"mapping {self.name!r} does not place attribute {owner}.{attribute}"
            )
        return self.attribute_placements[key]

    def has_attribute_placement(self, owner: str, attribute: str) -> bool:
        return (owner, attribute) in self.attribute_placements

    def relationship_placement(self, relationship: str) -> RelationshipPlacement:
        if relationship not in self.relationship_placements:
            raise MappingError(
                f"mapping {self.name!r} does not place relationship {relationship!r}"
            )
        return self.relationship_placements[relationship]

    def descriptor(self, schema: ERSchema) -> PlacementDescriptor:
        """Which facts each physical row carries, built on first use."""

        if self._descriptor is None or self._descriptor.schema is not schema:
            self._descriptor = PlacementDescriptor(schema, self)
        return self._descriptor

    def table_names(self) -> List[str]:
        return sorted(self.tables)

    def cover_subsets(self) -> List[Set[str]]:
        """The cover of the E/R graph induced by this mapping's tables."""

        return [set(t.covers) for t in self.tables.values()]

    # -- installation ------------------------------------------------------------

    def install(self, db: Database) -> None:
        """Create every physical table (and its indexes) in a database."""

        for table in self.tables.values():
            db.create_table(
                table.name, table.columns, primary_key=list(table.primary_key)
            )
            for index_columns in table.indexes:
                db.create_index(table.name, list(index_columns))
        db.catalog.put_metadata(f"mapping:{self.name}", self.describe())
        db.catalog.put_metadata("active_mapping", {"name": self.name})

    def uninstall(self, db: Database) -> None:
        """Drop every physical table of this mapping from a database."""

        for table_name in list(self.tables):
            if db.has_table(table_name):
                db.drop_table(table_name)
        db.catalog.delete_metadata(f"mapping:{self.name}")

    # -- serialization -------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary (stored in the catalog, as the paper describes)."""

        return {
            "name": self.name,
            "schema": self.schema_name,
            "tables": {
                t.name: {
                    "columns": [c.name for c in t.columns],
                    "primary_key": list(t.primary_key),
                    "covers": sorted(t.covers),
                }
                for t in self.tables.values()
            },
            "entities": {
                name: {
                    "kind": p.kind,
                    "table": p.table,
                    "key_columns": list(p.key_columns),
                    "type_value": p.type_value,
                    "owner_entity": p.owner_entity,
                    "array_column": p.array_column,
                }
                for name, p in self.entity_placements.items()
            },
            "attributes": {
                f"{owner}.{attr}": {
                    "kind": p.kind,
                    "table": p.table,
                    "column": p.column,
                }
                for (owner, attr), p in self.attribute_placements.items()
            },
            "relationships": {
                name: {
                    "kind": p.kind,
                    "table": p.table,
                    "role_columns": {k: list(v) for k, v in p.role_columns.items()},
                }
                for name, p in self.relationship_placements.items()
            },
        }

    def __repr__(self) -> str:
        return f"Mapping({self.name}: {len(self.tables)} tables)"
